//! `sweep-sim`: the Table 1 setting. `ParallelSweeper` with
//! `run_sat = false` (64 random patterns, then 20 guided iterations)
//! over every built-in K=6 network, each with [`SEEDS`] pairs of sweep
//! and generator seeds. Guided generation does nearly all of the work
//! and SAT none of it.

use std::rc::Rc;

use simgen_cec::{Deadline, ParallelSweeper, SweepConfig, SweepReport};
use simgen_core::{SimGen, SimGenConfig};
use simgen_netlist::LutNetwork;
use simgen_obs::Observer;
use simgen_sim::{simulate, EquivClasses};

use crate::circuits::mapped;
use crate::harness::Run;
use crate::harness::{derive_seed, measure, ms, timed, timed_setups, Args, Pass, Scale, JOBS};
use crate::timed_gen::{split_iterations, TimedGen};
use crate::trace::Tracer;

const SMALLEST: &[&str] = &["priority", "voter"];

/// Seed pairs each network is swept with. Summing the class cost over
/// two halves its spread between workload seeds against one.
const SEEDS: usize = 2;

struct Instance {
    id: String,
    net: Rc<LutNetwork>,
    /// Random-simulation seed of the sweep.
    sweep_seed: u64,
    /// Seed of the SimGen generator.
    gen_seed: u64,
}

fn setup(tracer: &mut Tracer, args: &Args) -> Vec<Instance> {
    let names: Vec<&'static str> = match args.scale {
        Scale::Full => simgen_workloads::all_benchmarks()
            .iter()
            .map(|b| b.name)
            .collect(),
        Scale::Smallest => SMALLEST.to_vec(),
    };
    let mut instances = Vec::new();
    for (i, name) in names.into_iter().enumerate() {
        let net = Rc::new(mapped(tracer, name, &[6]).pop().expect("k6"));
        for j in 0..SEEDS {
            let stream = 2 * (i * SEEDS + j) as u64;
            instances.push(Instance {
                id: format!("{name}/s{j}"),
                net: Rc::clone(&net),
                sweep_seed: derive_seed(args.seed, stream),
                gen_seed: derive_seed(args.seed, stream + 1),
            });
        }
    }
    let warm = instances
        .iter()
        .min_by_key(|i| i.net.len())
        .expect("instances");
    let span = tracer.begin("warmup", warm.id.as_str());
    let _ = ParallelSweeper::new(config(warm)).run(&warm.net, &mut generator(warm));
    tracer.end(span);
    instances
}

fn config(inst: &Instance) -> SweepConfig {
    SweepConfig {
        run_sat: false,
        seed: inst.sweep_seed,
        jobs: JOBS,
        ..SweepConfig::default()
    }
}

fn generator(inst: &Instance) -> SimGen {
    SimGen::new(SimGenConfig::default().with_seed(inst.gen_seed))
}

/// Re-simulates the returned patterns from scratch: the classes they
/// induce must cost exactly what the sweep reported.
fn cost_ok(inst: &Instance, report: &SweepReport) -> bool {
    let sim = simulate(&inst.net, &report.patterns);
    EquivClasses::initial(&inst.net, &sim).cost() == report.cost_after_sim
}

fn record(pass: &mut Pass, inst: &Instance, report: &SweepReport, latency_ms: f64) {
    pass.push_latency(latency_ms);
    pass.failed += u64::from(!cost_ok(inst, report) || report.interrupted);
    pass.cost_after_sim += report.cost_after_sim;
    pass.fingerprint
        .extend([report.cost_after_sim, report.patterns.num_patterns() as u64]);
}

fn untraced_pass(instances: &[Instance]) -> Pass {
    let mut pass = Pass::default();
    for inst in instances {
        let sweeper = ParallelSweeper::new(config(inst));
        let mut gen = generator(inst);
        let (report, latency) = timed(|| sweeper.run(&inst.net, &mut gen));
        record(&mut pass, inst, &report, latency);
    }
    pass
}

fn traced_pass(tracer: &mut Tracer, instances: &[Instance], index: usize) -> Pass {
    let mut pass = Pass::default();
    let pass_span = tracer.begin("pass", format!("pass{index}"));
    for inst in instances {
        let sweeper = ParallelSweeper::new(config(inst));
        let mut obs = Observer::enabled();
        let mut gen = TimedGen::new(generator(inst), tracer, &inst.id);
        let (report, latency) = timed(|| {
            let span = gen.tracer().begin("cec.parallel_sweep", inst.id.as_str());
            let report = sweeper.run_observed(&inst.net, &mut gen, &Deadline::never(), &mut obs);
            gen.tracer().end(span);
            report
        });
        let s = &report.stats;
        pass.layer("core.generate_calls", gen.calls as f64);
        pass.layer("core.vectors", gen.vectors as f64);
        pass.layer("core.empty_calls", gen.empty as f64);
        pass.layer("core.split_calls", split_iterations(&s.history) as f64);
        pass.layer("sim.sim_ms", ms(s.sim_time.saturating_sub(s.resim_time)));
        pass.layer("sim.resim_ms", ms(s.resim_time));
        pass.layer("sim.exec_words", s.exec.exec_words as f64);
        pass.layer("sim.patterns", report.patterns.num_patterns() as f64);
        record(&mut pass, inst, &report, latency);
    }
    tracer.end(pass_span);
    pass
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Run {
    let (instances, setups) = timed_setups(tracer, |t| setup(t, args));
    measure(
        args,
        setups,
        |_| untraced_pass(&instances),
        |i| traced_pass(tracer, &instances, i),
    )
}
