//! `serve-replay`: one closed-loop client submits a seeded stream of
//! small circuit pairs to an in-process daemon whose in-memory cache
//! starts empty on every pass.
//!
//! Each pair is a circuit's K=4 mapping against its K=6 mapping. There
//! are no mutants here: where a seeded mutant sits moved a job's time
//! and memory up to threefold, so a few of them set the wall time and
//! peak memory of a whole pass. `cec-k4k6` covers inequivalent pairs.
//!
//! The mix is synthetic; the repository has no recorded traffic. Each
//! pair is submitted once first-seen (a miss that writes the job and
//! pair caches), [`RESEEDS`] times with a new seed (live runs that read
//! the pair cache), and [`REPEATS`] times exactly (job-level hits:
//! parse, job key, lookup). Hits are one job in five, far from one half,
//! so the median latency stays among the reseeded runs. A hit answers
//! in about 20 ms, most of it the daemon's accept loop sleeping between
//! polls, so hits take a few percent of the wall time (the per-layer
//! `serve.hit_wall_frac`) and live runs set it.

use std::path::{Path, PathBuf};

use rand::{Rng, SeedableRng};
use simgen_netlist::blif;
use simgen_netlist::LutNetwork;
use simgen_obs::Json;
use simgen_serve::{client::submit, JobRequest, ServeOptions, Server, DEFAULT_PRIORITY};

use crate::circuits::mapped;
use crate::harness::Run;
use crate::harness::{derive_seed, measure, timed, timed_setups, Args, Pass, Scale, JOBS};
use crate::trace::Tracer;

/// Small circuits whose first-seen job takes under about 1.5 s.
const CIRCUITS: &[&str] = &["dec", "des", "b14_C", "arbiter", "priority", "b15_C"];
const SMALLEST: &[&str] = &["priority"];

/// Runs of each pair with a new seed, after its first-seen job.
const RESEEDS: usize = 3;
/// Exact repeats of each pair's first-seen job.
const REPEATS: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// First time the pair is seen: a cache miss that fills the cache.
    First,
    /// Known circuits, new seed: a live run served partly by the pair cache.
    Reseed,
    /// Byte-identical repeat of the first-seen job: a job-level hit.
    Repeat,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::First => "miss",
            Kind::Reseed => "reseed",
            Kind::Repeat => "hit",
        }
    }

    /// The cache outcome the daemon must report.
    fn expected_cache(self) -> &'static str {
        match self {
            Kind::First | Kind::Reseed => "miss",
            Kind::Repeat => "hit",
        }
    }
}

struct PairFiles {
    a: PathBuf,
    b: PathBuf,
}

struct Job {
    kind: Kind,
    request: JobRequest,
}

struct Setup {
    jobs: Vec<Job>,
    socket: PathBuf,
}

fn write_blif(path: &Path, net: &LutNetwork) {
    let mut text = Vec::new();
    blif::write(net, &mut text).expect("write to memory");
    std::fs::write(path, &text).expect("write pair file");
}

fn setup(tracer: &mut Tracer, args: &Args, dir: &Path) -> Setup {
    let names = match args.scale {
        Scale::Full => CIRCUITS,
        Scale::Smallest => SMALLEST,
    };
    std::fs::create_dir_all(dir).expect("work directory");
    let mut pairs = Vec::new();
    for name in names {
        let nets = mapped(tracer, name, &[4, 6]);
        let span = tracer.begin("files.write_blif", *name);
        let a = dir.join(format!("{name}_k4.blif"));
        let b = dir.join(format!("{name}_k6.blif"));
        write_blif(&a, &nets[0]);
        write_blif(&b, &nets[1]);
        tracer.end(span);
        pairs.push(PairFiles { a, b });
    }
    let jobs = job_stream(&pairs, args.seed);
    let socket = dir.join(format!("d{}.sock", std::process::id()));
    // Daemon start plus one untimed warm-up job, then a clean stop:
    // every pass starts its own daemon with an empty cache.
    let span = tracer.begin("serve.start", "warmup");
    let server = Server::start(ServeOptions::new(&socket)).expect("daemon starts");
    let warm = request(&pairs[0], "warmup".to_string(), derive_seed(args.seed, 999));
    let _ = submit(&socket, &warm);
    server.shutdown();
    server.join();
    tracer.end(span);
    Setup { jobs, socket }
}

fn request(pair: &PairFiles, id: String, seed: u64) -> JobRequest {
    JobRequest {
        id,
        a: pair.a.to_string_lossy().into_owned(),
        b: pair.b.to_string_lossy().into_owned(),
        strategy: "simgen".to_string(),
        seed,
        k: 6,
        jobs: JOBS,
        timeout: None,
        certify: false,
        priority: DEFAULT_PRIORITY,
    }
}

/// A seeded interleaving of every pair's jobs. The multiset of kinds is
/// the same for every seed; only the order and the job seeds change.
/// Each pair's first occurrence in the stream is its first-seen job,
/// and each of its reseeded runs has a seed of its own.
fn job_stream(pairs: &[PairFiles], seed: u64) -> Vec<Job> {
    let per_pair = 1 + RESEEDS + REPEATS;
    let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 0x5E7));
    let mut shuffle = |items: &mut Vec<usize>| {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..=i));
        }
    };
    let mut order: Vec<usize> = (0..pairs.len())
        .flat_map(|p| std::iter::repeat_n(p, per_pair))
        .collect();
    shuffle(&mut order);
    // The kinds of each pair's later occurrences, in stream order; the
    // value is the reseed number, or RESEEDS for an exact repeat.
    let later: Vec<Vec<usize>> = pairs
        .iter()
        .map(|_| {
            let mut kinds: Vec<usize> = (0..RESEEDS)
                .chain(std::iter::repeat_n(RESEEDS, REPEATS))
                .collect();
            shuffle(&mut kinds);
            kinds
        })
        .collect();
    let mut seen = vec![0usize; pairs.len()];
    order
        .into_iter()
        .enumerate()
        .map(|(n, p)| {
            let (kind, stream) = match seen[p] {
                0 => (Kind::First, 0),
                k => match later[p][k - 1] {
                    r if r < RESEEDS => (Kind::Reseed, 1 + r),
                    _ => (Kind::Repeat, 0),
                },
            };
            seen[p] += 1;
            let stream = (p * per_pair + stream) as u64;
            Job {
                kind,
                request: request(
                    &pairs[p],
                    format!("j{n}"),
                    derive_seed(seed, 0x1000 + stream),
                ),
            }
        })
        .collect()
}

fn num(json: &Json, path: &[&str]) -> u64 {
    let mut node = json;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0,
        }
    }
    node.as_u64().unwrap_or(0)
}

/// True when the answer is `equivalent` with the expected cache outcome.
fn answer_ok(kind: Kind, resp: &Json) -> bool {
    let text = |key: &str| resp.get(key).and_then(Json::as_str);
    resp.get("error").is_none()
        && text("cache") == Some(kind.expected_cache())
        && text("status") == Some("equivalent")
}

fn pass(setup: &Setup, tracer: &mut Tracer, index: usize) -> Pass {
    let server = Server::start(ServeOptions::new(&setup.socket)).expect("daemon starts");
    let mut pass = Pass::default();
    let pass_span = tracer.begin("pass", format!("pass{index}"));
    for job in &setup.jobs {
        let (answer, latency) = timed(|| {
            let span = tracer.begin(
                "serve.submit",
                format!("{}:{}", job.kind.label(), job.request.id),
            );
            let answer = submit(&setup.socket, &job.request);
            tracer.end(span);
            answer
        });
        pass.push_latency(latency);
        let resp = answer
            .ok()
            .and_then(|line| Json::parse(&line).ok())
            .unwrap_or(Json::Null);
        pass.failed += u64::from(!answer_ok(job.kind, &resp));
        let report = resp.get("report").cloned().unwrap_or(Json::Null);
        let cost = num(&report, &["sweep", "cost_after_sim"]);
        let sat_calls = num(&report, &["sat", "calls"]);
        let hit = job.kind == Kind::Repeat;
        pass.fingerprint.extend([u64::from(hit), sat_calls, cost]);
        pass.layer("serve.jobs_hit", f64::from(u8::from(hit)));
        pass.layer("serve.jobs_miss", f64::from(u8::from(!hit)));
        if hit {
            // A hit echoes the stored report of the job it repeats; only
            // live runs add work.
            continue;
        }
        pass.cost_after_sim += cost;
        let counter = |name: &str| num(&report, &["counters", name]) as f64;
        pass.layer("cache.pair_hits", counter("cache_hits"));
        pass.layer("cache.pair_misses", counter("cache_misses"));
        pass.layer("cache.replays", counter("cache_replays"));
        pass.layer("core.generate_calls", counter("guided_iterations"));
        pass.layer("core.vectors", counter("vectors_generated"));
        pass.layer("sim.exec_words", counter("sim_exec_words"));
        pass.layer("sim.patterns", num(&report, &["sweep", "patterns"]) as f64);
        pass.layer("cec.sweep_sat_calls", counter("proofs_dispatched"));
        pass.layer("cec.output_sat_calls", counter("output_proofs"));
        pass.layer("cec.proved", counter("proofs_equivalent"));
        pass.layer("cec.disproved", counter("proofs_disproved"));
        pass.layer("cec.rounds", counter("rounds"));
        pass.layer("sat.calls", sat_calls as f64);
        pass.layer("sat.conflicts", num(&report, &["sat", "conflicts"]) as f64);
        pass.layer(
            "sat.propagations",
            num(&report, &["sat", "propagations"]) as f64,
        );
        pass.layer("sat.decisions", num(&report, &["sat", "decisions"]) as f64);
        pass.layer("sat.clauses_reused", counter("clauses_reused"));
        pass.layer_max(
            "sat.clause_db_bytes",
            num(&report, &["sat", "clause_db_bytes"]) as f64,
        );
    }
    tracer.end(pass_span);
    server.shutdown();
    server.join();
    pass
}

pub fn run(args: &Args, tracer: &mut Tracer, dir: &Path) -> Run {
    let (setup, setups) = timed_setups(tracer, |t| setup(t, args, dir));
    let untraced = |i| pass(&setup, &mut Tracer::new(false), i);
    measure(args, setups, untraced, |i| pass(&setup, tracer, i))
}
