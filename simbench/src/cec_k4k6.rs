//! `cec-k4k6`: one-shot `check_equivalence` as `simgen cec` runs it.
//!
//! Each built-in AIG is mapped at K=4 and at K=6. The two mappings are
//! the equivalent pair; the K=4 mapping against a seeded single-gate
//! mutant of the K=6 mapping is the inequivalent pair. SAT does most of
//! the work here, guided generation a few percent.

use simgen_cec::{
    check_equivalence, check_equivalence_observed, CecReport, CecVerdict, SweepConfig,
};
use simgen_core::{SimGen, SimGenConfig};
use simgen_netlist::miter::{combine, Combined};
use simgen_netlist::LutNetwork;
use simgen_obs::{Counter, Observer};
use simgen_sim::replay_distinguishes;

use crate::circuits::{mapped, mutant};
use crate::harness::Run;
use crate::harness::{derive_seed, measure, ms, timed, timed_setups, Args, Pass, Scale};
use crate::timed_gen::{split_iterations, TimedGen};
use crate::trace::Tracer;

/// Small and mid-size circuits of several families (PLA cascades,
/// control, decoders, ITC'99 cores) whose K=4/K=6 pairs each finish in
/// about a second. cordic, sin and log2 take over a minute each and the
/// large PLA cascades several seconds, so they are left out to keep a
/// pass short enough to repeat within one run.
const CIRCUITS: &[&str] = &[
    "e64", "misex3c", "arbiter", "dec", "b14_C", "b15_C", "priority",
];
const SMALLEST: &[&str] = &["priority"];

struct Instance {
    id: String,
    a: LutNetwork,
    b: LutNetwork,
    /// Both sides over shared inputs, for witness replay.
    miter: Combined,
    equivalent: bool,
}

fn setup(tracer: &mut Tracer, args: &Args) -> Vec<Instance> {
    let names = match args.scale {
        Scale::Full => CIRCUITS,
        Scale::Smallest => SMALLEST,
    };
    let mut instances = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let mut nets = mapped(tracer, name, &[4, 6]);
        let k6 = nets.pop().expect("k6");
        let k4 = nets.pop().expect("k4");
        let bad = mutant(tracer, &k6, derive_seed(args.seed, i as u64));
        for (suffix, b, equivalent) in [("eq", k6, true), ("mut", bad, false)] {
            let miter = combine(&k4, &b).expect("mappings share the interface");
            instances.push(Instance {
                id: format!("{name}/{suffix}"),
                a: k4.clone(),
                b,
                miter,
                equivalent,
            });
        }
    }
    // Untimed warm-up: one call on the smallest instance.
    let warm = instances
        .iter()
        .min_by_key(|i| i.b.len())
        .expect("instances");
    let span = tracer.begin("warmup", warm.id.as_str());
    let _ = check_equivalence(&warm.a, &warm.b, &mut generator(), SweepConfig::default());
    tracer.end(span);
    instances
}

fn generator() -> SimGen {
    SimGen::new(SimGenConfig::default())
}

/// True when the verdict matches what the instance is known to be. A
/// witness must replay through the scalar evaluator on the miter.
fn verdict_ok(inst: &Instance, report: &CecReport) -> bool {
    match (&report.verdict, inst.equivalent) {
        (CecVerdict::Equivalent, true) => true,
        (CecVerdict::NotEquivalent { po_index, witness }, false) => {
            match (inst.a.pos().get(*po_index), inst.b.pos().get(*po_index)) {
                (Some(pa), Some(pb)) => replay_distinguishes(
                    &inst.miter.network,
                    witness,
                    inst.miter.map_a[pa.node.index()],
                    inst.miter.map_b[pb.node.index()],
                ),
                _ => false,
            }
        }
        _ => false,
    }
}

fn record(pass: &mut Pass, inst: &Instance, report: &CecReport, latency_ms: f64) {
    let s = &report.sweep_stats;
    pass.push_latency(latency_ms);
    pass.failed += u64::from(!verdict_ok(inst, report));
    pass.cost_after_sim += report.sweep_cost_after_sim;
    pass.fingerprint.extend([
        s.sat_calls,
        report.output_sat_calls,
        report.sweep_cost_after_sim,
        s.proved_equivalent,
        s.disproved,
    ]);
}

fn untraced_pass(instances: &[Instance]) -> Pass {
    let mut pass = Pass::default();
    for inst in instances {
        let mut gen = generator();
        let (report, latency) =
            timed(|| check_equivalence(&inst.a, &inst.b, &mut gen, SweepConfig::default()));
        let report = report.expect("interfaces match");
        record(&mut pass, inst, &report, latency);
    }
    pass
}

fn traced_pass(tracer: &mut Tracer, instances: &[Instance], index: usize) -> Pass {
    let mut pass = Pass::default();
    let pass_span = tracer.begin("pass", format!("pass{index}"));
    for inst in instances {
        let mut obs = Observer::enabled();
        let mut gen = TimedGen::new(generator(), tracer, &inst.id);
        let (report, latency) = timed(|| {
            let span = gen
                .tracer()
                .begin("cec.check_equivalence", inst.id.as_str());
            let report = check_equivalence_observed(
                &inst.a,
                &inst.b,
                &mut gen,
                SweepConfig::default(),
                &simgen_cec::Deadline::never(),
                &mut obs,
            );
            gen.tracer().end(span);
            report
        });
        let report = report.expect("interfaces match");
        let s = &report.sweep_stats;
        pass.layer("core.generate_calls", gen.calls as f64);
        pass.layer("core.vectors", gen.vectors as f64);
        pass.layer("core.empty_calls", gen.empty as f64);
        pass.layer("core.split_calls", split_iterations(&s.history) as f64);
        pass.layer("sim.sim_ms", ms(s.sim_time.saturating_sub(s.resim_time)));
        pass.layer("sim.resim_ms", ms(s.resim_time));
        pass.layer("sim.exec_words", s.exec.exec_words as f64);
        pass.layer("sim.patterns", report.sweep_patterns as f64);
        pass.layer("cec.sweep_sat_calls", s.sat_calls as f64);
        pass.layer("cec.output_sat_calls", report.output_sat_calls as f64);
        pass.layer("cec.proved", s.proved_equivalent as f64);
        pass.layer("cec.disproved", s.disproved as f64);
        pass.layer(
            "cec.rounds",
            s.dispatch.as_ref().map_or(0, |d| d.rounds) as f64,
        );
        pass.layer("cec.output_ms", ms(report.output_sat_time));
        let accounted = s.sat_time + s.gen_time + s.sim_time + report.output_sat_time;
        pass.layer("cec.other_ms", latency - ms(accounted));
        pass.layer("sat.calls", (s.sat_calls + report.output_sat_calls) as f64);
        pass.layer("sat.ms", ms(s.sat_time + report.output_sat_time));
        let solver = [&s.solver, &report.output_solver];
        pass.layer(
            "sat.conflicts",
            solver.iter().map(|x| x.conflicts).sum::<u64>() as f64,
        );
        pass.layer(
            "sat.propagations",
            solver.iter().map(|x| x.propagations).sum::<u64>() as f64,
        );
        pass.layer(
            "sat.decisions",
            solver.iter().map(|x| x.decisions).sum::<u64>() as f64,
        );
        pass.layer(
            "sat.clauses_reused",
            obs.recorder.get(Counter::ClausesReused) as f64,
        );
        let db = solver.iter().map(|x| x.clause_db_bytes).max().unwrap_or(0);
        pass.layer_max("sat.clause_db_bytes", db as f64);
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
