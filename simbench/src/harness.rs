//! What every workload shares: the command line, the set-up and pass
//! loops, the statistics, and the one-line JSON result.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use simgen_obs::Json;

use crate::trace::Tracer;

/// A run sets its inputs up at least [`SETUP_MIN_REPEATS`] times and
/// until [`SETUP_MIN_SECONDS`] have been spent; `setup_s` is the median.
/// Cheap set-ups repeat more often, so a short stall moves the median
/// of none of them.
pub const SETUP_MIN_REPEATS: usize = 5;
pub const SETUP_MIN_SECONDS: f64 = 3.0;

/// Worker threads for every call into the program. The benchmark runs
/// on small machines, so it measures the inline (`jobs = 1`) path and
/// never reports a number that could be read as a scaling point.
pub const JOBS: usize = 1;

/// Input size. `Full` is what the benchmark measures; `Smallest` is the
/// quick form the package's own tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smallest,
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

const USAGE: &str = "usage: simbench --workload <cec-k4k6|sweep-sim|serve-replay> --seed <n> \
                     --seconds <s> --trace <0|1> [--scale full|smallest]";

impl Args {
    /// Parses `--flag value` pairs; every flag but `--scale` is required.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut scale = Scale::Full;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--scale" => {
                    scale = match value.as_str() {
                        "full" => Scale::Full,
                        "smallest" => Scale::Smallest,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        let missing = |name: &str| format!("missing {name}\n{USAGE}");
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            scale,
        })
    }
}

/// Mixes a workload seed with a stream index (splitmix64), so every
/// derived input depends on the seed alone.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `call` and returns its value with its wall time in milliseconds.
pub fn timed<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = call();
    (value, ms(t.elapsed()))
}

/// Entries of the reference table: 512 KiB of `u32`, well inside the
/// per-core L2 cache, so the chase measures the core, not the memory.
const REFERENCE_ENTRIES: usize = 128 * 1024;
/// Timed steps of one reference reading, about 2 ms; with the untimed
/// lap before them a reading takes about 3 ms.
const REFERENCE_STEPS: u32 = 300_000;
/// Nanoseconds per reference step at which `wall_ref_s` equals
/// `wall_s`: a round figure within the 6 to 8 ns the chase takes on a
/// 2.1 GHz Xeon vCPU.
const REFERENCE_NS_PER_STEP: f64 = 7.0;

/// One cycle through every table entry (Sattolo's shuffle), the same
/// in every run. It draws from [`derive_seed`], not from a crate of the
/// program, so no change to the program can change the reference.
fn reference_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut next: Vec<u32> = (0..REFERENCE_ENTRIES as u32).collect();
        for i in (1..next.len()).rev() {
            let j = derive_seed(0x5EED, i as u64) % i as u64;
            next.swap(i, j as usize);
        }
        next
    })
}

fn chase(table: &[u32], steps: u32) -> u32 {
    let mut at = 0u32;
    for _ in 0..steps {
        at = table[at as usize];
    }
    std::hint::black_box(at)
}

/// Nanoseconds per step of a pointer chase over a fixed table: the
/// benchmark's own measure of how fast the machine runs right now. A
/// full untimed lap first brings the table back into cache, so what
/// the program left in the cache does not change the reading.
fn reference_ns_per_step() -> f64 {
    let table = reference_table();
    chase(table, REFERENCE_ENTRIES as u32);
    let t = Instant::now();
    chase(table, REFERENCE_STEPS);
    t.elapsed().as_secs_f64() * 1e9 / f64::from(REFERENCE_STEPS)
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile, `q` in (0, 1] (0 for an empty slice).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Restarts the kernel's peak-RSS count (`VmHWM`) from the current
/// resident size, so each pass reports its own peak. Where the kernel
/// refuses, the peak stays process-wide.
///
/// Memory freed by earlier passes is first handed back to the kernel.
/// glibc keeps it in per-thread arenas otherwise, and serve-replay's
/// daemon threads, new every pass, left each pass's peak up to half
/// again above the first's, by an amount that changed from run to run.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only releases free heap pages; it takes
        // no pointers and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every set-up of a run: its wall time and the reference reading taken
/// right after it.
#[derive(Default)]
pub struct Setups {
    pub wall_s: Vec<f64>,
    pub reference_ns: Vec<f64>,
}

impl Setups {
    /// Median set-up time as measured, in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.wall_s)
    }

    /// Median set-up time at the reference speed, in seconds; each
    /// set-up is scaled by its own reading, as a pass's calls are.
    pub fn median_ref_s(&self) -> f64 {
        let scaled: Vec<f64> = self
            .wall_s
            .iter()
            .zip(&self.reference_ns)
            .map(|(wall, ns)| wall * REFERENCE_NS_PER_STEP / ns)
            .collect();
        median(&scaled)
    }
}

/// Runs `setup` as often as the set-up rule above asks, each time
/// under a `setup` span, and keeps the last result. Returns it with
/// every set-up's wall time.
pub fn timed_setups<T>(
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> T,
) -> (T, Setups) {
    let mut setups = Setups::default();
    loop {
        let span = tracer.begin("setup", format!("setup{}", setups.wall_s.len()));
        let (value, latency_ms) = timed(|| setup(tracer));
        tracer.end(span);
        setups.wall_s.push(latency_ms / 1e3);
        setups.reference_ns.push(reference_ns_per_step());
        let spent = setups.wall_s.iter().fold(0.0, |a, b| a + b);
        if setups.wall_s.len() >= SETUP_MIN_REPEATS && spent >= SETUP_MIN_SECONDS {
            return (value, setups);
        }
    }
}

/// What one pass over a workload's inputs produced.
#[derive(Default)]
pub struct Pass {
    /// Latency of every instance or job, in milliseconds. Their sum is
    /// the pass's wall time: validation runs between the timed calls.
    pub latencies_ms: Vec<f64>,
    /// A reference reading taken after every timed call, in ns per step.
    pub reference_ns: Vec<f64>,
    /// Instances or jobs whose answer was wrong or missing.
    pub failed: u64,
    /// Deterministic per-instance values; every pass of a run must
    /// reproduce the first pass's exactly.
    pub fingerprint: Vec<u64>,
    /// Summed class cost after simulation (Equation 5).
    pub cost_after_sim: u64,
    /// Peak resident memory while the pass ran.
    pub peak_rss_mb: f64,
    /// Per-layer values of this pass, by metric name.
    pub layers: Vec<(&'static str, f64)>,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.latencies_ms.iter().fold(0.0, |a, b| a + b) / 1e3
    }

    /// Records one timed call's latency, then takes a reference reading
    /// outside the timed region.
    pub fn push_latency(&mut self, latency_ms: f64) {
        self.latencies_ms.push(latency_ms);
        self.reference_ns.push(reference_ns_per_step());
    }

    /// Median reference reading of the pass.
    pub fn reference_ns(&self) -> f64 {
        median(&self.reference_ns)
    }

    /// The pass's wall time at the reference speed: `wall_s` scaled by
    /// how much slower or faster than [`REFERENCE_NS_PER_STEP`] the
    /// machine ran the reference chase during the pass.
    pub fn wall_ref_s(&self) -> f64 {
        self.wall_s() * REFERENCE_NS_PER_STEP / self.reference_ns()
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        match self.layers.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += value,
            None => self.layers.push((name, value)),
        }
    }

    /// Like [`Pass::layer`] for a peak value: keeps the largest.
    pub fn layer_max(&mut self, name: &'static str, value: f64) {
        match self.layers.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = v.max(value),
            None => self.layers.push((name, value)),
        }
    }
}

/// What a workload's run produced: set-up times and its passes. A
/// traced run also carries the untraced passes interleaved with the
/// traced ones, the base of the tracing overhead.
pub struct Run {
    pub setups: Setups,
    pub passes: Vec<Pass>,
    pub baseline: Vec<Pass>,
}

/// Runs passes for `seconds`: at least one, and another only while the
/// longest pass so far would still end in time. Untraced, every pass is
/// `untraced`; traced, each `traced` pass follows an `untraced` one, so
/// both see the same machine conditions.
pub fn measure(
    args: &Args,
    setups: Setups,
    mut untraced: impl FnMut(usize) -> Pass,
    mut traced: impl FnMut(usize) -> Pass,
) -> Run {
    let start = Instant::now();
    let mut run = Run {
        setups,
        passes: Vec::new(),
        baseline: Vec::new(),
    };
    let mut longest = 0.0f64;
    while run.passes.is_empty() || start.elapsed().as_secs_f64() + longest <= args.seconds {
        let index = run.passes.len();
        let began = Instant::now();
        if args.trace {
            run.baseline.push(untraced(index));
        }
        reset_peak_rss();
        let mut pass = if args.trace {
            traced(index)
        } else {
            untraced(index)
        };
        pass.peak_rss_mb = peak_rss_mb();
        println!(
            "# pass {index} wall_s={} wall_ref_s={} reference_ns={} peak_rss_mb={}",
            pass.wall_s(),
            pass.wall_ref_s(),
            pass.reference_ns(),
            pass.peak_rss_mb
        );
        run.passes.push(pass);
        longest = longest.max(began.elapsed().as_secs_f64());
    }
    run
}

/// A named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Counts and checks passes: the number of instances attempted and
/// failed, plus one failure per pass whose deterministic values differ
/// from the first pass's.
pub fn tally<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    let mut first: Option<&Pass> = None;
    for p in passes {
        attempted += p.latencies_ms.len() as u64;
        failed += p.failed;
        match first {
            None => first = Some(p),
            Some(f) => {
                let same = p.fingerprint == f.fingerprint && p.cost_after_sim == f.cost_after_sim;
                failed += u64::from(!same);
            }
        }
    }
    (attempted, failed)
}

/// Median pass wall time of `passes`, as measured and at the reference
/// speed, in seconds.
pub fn median_walls(passes: &[Pass]) -> (f64, f64) {
    let walls: Vec<f64> = passes.iter().map(Pass::wall_s).collect();
    let scaled: Vec<f64> = passes.iter().map(Pass::wall_ref_s).collect();
    (median(&walls), median(&scaled))
}

/// The end-to-end metrics every workload reports, from untraced passes.
/// Their times are at the reference speed; the times as measured are
/// printed on a comment line and are the per-layer `clock.*` metrics.
pub fn end_to_end(setups: &Setups, passes: &[Pass]) -> Vec<Metric> {
    let (wall, wall_ref) = median_walls(passes);
    // The smallest per-pass peak: every pass does the same work, and
    // what varies between them is how far glibc's per-thread arenas
    // grew (serve-replay starts new daemon threads every pass).
    let peak = passes
        .iter()
        .map(|p| p.peak_rss_mb)
        .fold(f64::INFINITY, f64::min);
    // Every pass runs the same instances or jobs.
    let jobs = passes[0].latencies_ms.len() as f64;
    println!(
        "# setup_s={} wall_s={wall} jobs_per_s={}",
        setups.median_s(),
        ratio(jobs, wall)
    );
    vec![
        metric("setup_s", setups.median_ref_s(), "s"),
        metric("wall_ref_s", wall_ref, "s"),
        metric("cost_after_sim", passes[0].cost_after_sim as f64, "count"),
        metric("peak_rss_mb", peak, "MiB"),
        metric("jobs_per_ref_s", ratio(jobs, wall_ref), "1/s"),
    ]
}

/// Per-layer values averaged over passes: every count and time is per
/// pass, comparable with `wall_s`.
pub fn per_pass_layers(passes: &[Pass]) -> Vec<(&'static str, f64)> {
    let mut sum = Pass::default();
    for p in passes {
        for &(name, v) in &p.layers {
            sum.layer(name, v);
        }
    }
    let n = passes.len().max(1) as f64;
    sum.layers
        .into_iter()
        .map(|(name, v)| (name, v / n))
        .collect()
}

/// Prints the result line: the last line of standard output.
pub fn print_result(attempted: u64, failed: u64, metrics: &[Metric]) {
    let mut obj = Json::obj();
    obj.push("correct", Json::Bool(failed == 0));
    obj.push("attempted", Json::U64(attempted));
    obj.push("failed", Json::U64(failed));
    let mut m = Json::obj();
    for metric in metrics {
        let mut entry = Json::obj();
        entry.push("value", Json::F64(metric.value));
        entry.push("unit", Json::Str(metric.unit.to_string()));
        m.push(metric.name, entry);
    }
    obj.push("metrics", m);
    println!("{}", obj.to_line());
}
