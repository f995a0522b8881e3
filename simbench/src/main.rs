//! End-to-end benchmark of the SimGen reproduction.
//!
//! ```text
//! simbench --workload <cec-k4k6|sweep-sim|serve-replay> --seed <n> \
//!          --seconds <s> --trace <0|1> [--scale full|smallest]
//! ```
//!
//! It drives the entry points users run — `check_equivalence*`,
//! `ParallelSweeper` and an in-process serve daemon behind
//! `client::submit` — from outside the program. Inputs are generated
//! from `--seed` and set up several times, and then
//! whole passes over them repeat until `--seconds` are spent. Every
//! answer is checked against ground truth, and every pass must repeat
//! the first pass's deterministic counts.
//!
//! Host speed on a shared machine drifts by a tenth or more within
//! minutes, so every set-up and timed call is followed by a reading of
//! a fixed pointer chase (see `harness::reference_ns_per_step`), and the
//! end-to-end times `setup_s`, `wall_ref_s` and `jobs_per_ref_s` are
//! scaled to the reference speed. The times as measured are printed on
//! a comment line and are the per-layer `clock.*` metrics.
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! with the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics instead, from spans the benchmark records around
//! its calls into each crate and from the stats those calls return.
//! The spans are written to `work/trace-<workload>-<seed>.jsonl`.

mod cec_k4k6;
mod circuits;
mod harness;
mod serve_replay;
mod sweep_sim;
mod timed_gen;
mod trace;

use std::path::Path;

use simgen_obs::Json;

use harness::{
    end_to_end, median, median_walls, metric, per_pass_layers, percentile, print_result, ratio,
    tally, Args, Metric, Pass, Run, JOBS,
};
use trace::Tracer;

/// Every per-layer metric, in print order, with its unit. A workload
/// whose calls never reach a layer, or whose layer times are not
/// visible from outside the program (serve-replay runs the sweep inside
/// the daemon), reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("mapping.map_ms", "ms"),
    ("core.generate_ms", "ms"),
    ("core.generate_calls", "count"),
    ("core.generate_ms_p50", "ms"),
    ("core.generate_ms_p99", "ms"),
    ("core.vectors", "count"),
    ("core.ms_per_vector", "ms"),
    ("core.empty_frac", "frac"),
    ("core.split_frac", "frac"),
    ("sim.sim_ms", "ms"),
    ("sim.exec_words", "count"),
    ("sim.patterns", "count"),
    ("sim.resim_ms", "ms"),
    ("cec.sweep_sat_calls", "count"),
    ("cec.output_sat_calls", "count"),
    ("cec.proved", "count"),
    ("cec.disproved", "count"),
    ("cec.disproof_frac", "frac"),
    ("cec.rounds", "count"),
    ("cec.output_ms", "ms"),
    ("cec.other_ms", "ms"),
    ("sat.calls", "count"),
    ("sat.ms", "ms"),
    ("sat.ms_per_call", "ms"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.clauses_reused", "count"),
    ("sat.clause_db_bytes", "bytes"),
    ("cache.pair_hits", "count"),
    ("cache.pair_misses", "count"),
    ("cache.pair_hit_frac", "frac"),
    ("cache.replays", "count"),
    ("serve.job_ms_p50", "ms"),
    ("serve.job_ms_p90", "ms"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.reseed_ms_p50", "ms"),
    ("serve.jobs_hit", "count"),
    ("serve.jobs_miss", "count"),
    ("serve.hit_wall_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("check.failed_frac", "frac"),
    ("clock.setup_s", "s"),
    ("clock.wall_s", "s"),
    ("clock.jobs_per_s", "1/s"),
    ("clock.reference_ns", "ns"),
];

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn per_layer(
    workload: &str,
    run: &Run,
    tracer: &Tracer,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let mut values = per_pass_layers(&run.passes);
    let get = |values: &[(&str, f64)], name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let passes = run.passes.len() as f64;
    let setups = run.setups.wall_s.len() as f64;
    let total = |name: &str| tracer.durations_ms(name).iter().fold(0.0, |a, b| a + b);
    let generate = tracer.durations_ms("core.generate");
    let submits = |kind: &str| -> Vec<f64> {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == "serve.submit" && s.id.starts_with(kind))
            .map(trace::Span::ms)
            .collect()
    };
    let (traced_wall, _) = median_walls(&run.passes);
    let (base_wall, _) = median_walls(&run.baseline);
    let jobs = run.baseline.first().map_or(0, |p| p.latencies_ms.len()) as f64;
    let readings: Vec<f64> = run.baseline.iter().map(Pass::reference_ns).collect();
    let calls = get(&values, "core.generate_calls");
    let generate_ms = total("core.generate") / passes;
    let sat_calls = get(&values, "sat.calls");
    let pair_lookups = get(&values, "cache.pair_hits") + get(&values, "cache.pair_misses");
    // A serve answer's run report counts pair-cache answers among the
    // disproofs but not among the SAT calls, and does not split them by
    // verdict, so serve-replay has no disproofs-per-SAT-call ratio.
    let disproof_frac = if workload == "serve-replay" {
        0.0
    } else {
        ratio(
            get(&values, "cec.disproved"),
            get(&values, "cec.sweep_sat_calls"),
        )
    };
    let sum = |values: Vec<f64>| values.iter().fold(0.0, |a, b| a + b);
    let derived = [
        ("workloads.build_ms", total("workloads.build_aig") / setups),
        ("mapping.map_ms", total("mapping.map_to_luts") / setups),
        ("core.generate_ms", generate_ms),
        ("core.generate_ms_p50", percentile(&generate, 0.5)),
        ("core.generate_ms_p99", percentile(&generate, 0.99)),
        (
            "core.ms_per_vector",
            ratio(generate_ms, get(&values, "core.vectors")),
        ),
        (
            "core.empty_frac",
            ratio(get(&values, "core.empty_calls"), calls),
        ),
        (
            "core.split_frac",
            ratio(get(&values, "core.split_calls"), calls),
        ),
        ("cec.disproof_frac", disproof_frac),
        ("sat.ms_per_call", ratio(get(&values, "sat.ms"), sat_calls)),
        (
            "cache.pair_hit_frac",
            ratio(get(&values, "cache.pair_hits"), pair_lookups),
        ),
        ("serve.job_ms_p50", median(&submits(""))),
        ("serve.job_ms_p90", percentile(&submits(""), 0.9)),
        ("serve.hit_ms_p50", median(&submits("hit:"))),
        ("serve.miss_ms_p50", median(&submits("miss:"))),
        ("serve.reseed_ms_p50", median(&submits("reseed:"))),
        (
            "serve.hit_wall_frac",
            ratio(sum(submits("hit:")), sum(submits(""))),
        ),
        (
            "trace.overhead_frac",
            ratio(traced_wall - base_wall, base_wall),
        ),
        ("check.failed_frac", ratio(failed as f64, attempted as f64)),
        ("clock.setup_s", run.setups.median_s()),
        ("clock.wall_s", base_wall),
        ("clock.jobs_per_s", ratio(jobs, base_wall)),
        ("clock.reference_ns", median(&readings)),
    ];
    values.extend(derived);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, get(&values, name), unit))
        .collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    // Work files (pair files, socket, trace) live in the package's own
    // `work/` directory, inside the checkout the benchmark was built in.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    if let Err(e) = std::env::set_current_dir(root) {
        eprintln!("error: cannot enter {}: {e}", root.display());
        std::process::exit(2);
    }
    let work = Path::new("work");
    let mut tracer = Tracer::new(args.trace);
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={} simd_width_bits={} jobs={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        simgen_sim::active_simd_level().width_bits(),
        JOBS
    );
    let run = match args.workload.as_str() {
        "cec-k4k6" => cec_k4k6::run(&args, &mut tracer),
        "sweep-sim" => sweep_sim::run(&args, &mut tracer),
        "serve-replay" => serve_replay::run(&args, &mut tracer, &work.join("serve")),
        other => {
            eprintln!("error: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let (attempted, failed) = tally(run.baseline.iter().chain(&run.passes));
    let metrics = if args.trace {
        let mut header = Json::obj();
        header.push("workload", Json::Str(args.workload.clone()));
        header.push("seed", Json::U64(args.seed));
        header.push("passes", Json::U64(run.passes.len() as u64));
        header.push("nproc", Json::U64(nproc() as u64));
        header.push(
            "simd_width_bits",
            Json::U64(simgen_sim::active_simd_level().width_bits()),
        );
        header.push("jobs", Json::U64(JOBS as u64));
        let path = work.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&path, header) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        per_layer(&args.workload, &run, &tracer, attempted, failed)
    } else {
        end_to_end(&run.setups, &run.passes)
    };
    print_result(attempted, failed, &metrics);
}
