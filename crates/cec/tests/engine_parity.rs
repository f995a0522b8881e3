//! Cross-engine parity: the SAT and BDD proof engines must agree on
//! every resolved query, and the sweep must produce identical proven
//! equivalences wherever BDDs stay within their node limit.

use simgen_cec::{
    check_equivalence_under, design_info, sweep_run_report, BddProver, BudgetSchedule, CecVerdict,
    Deadline, EngineMode, EnginePolicy, EquivProver, InconclusiveReason, PairProver,
    ParallelSweeper, ProveOutcome, RunMeta, SweepConfig,
};
use simgen_core::{SimGen, SimGenConfig};
use simgen_mapping::map_to_luts;
use simgen_netlist::NodeId;
use simgen_workloads::{build_aig, rewrite::restructure};

/// A moderate CEC-style network with many truly equivalent pairs.
fn test_network() -> simgen_netlist::LutNetwork {
    let aig = build_aig("e64").expect("known benchmark");
    let variant = restructure(&aig, 0.5, 77);
    let left = map_to_luts(&aig, 6);
    let right = map_to_luts(&variant, 6);
    simgen_netlist::miter::combine(&left, &right)
        .expect("matched interfaces")
        .network
}

#[test]
fn provers_agree_pairwise() {
    let net = test_network();
    let luts: Vec<NodeId> = net.node_ids().filter(|&n| !net.is_pi(n)).collect();
    let mut sat = PairProver::new(&net);
    let mut bdd = BddProver::new(&net, 5_000_000);
    // A deterministic scatter of pairs across the network.
    for k in 0..40usize {
        let a = luts[(k * 7) % luts.len()];
        let b = luts[(k * 13 + 5) % luts.len()];
        let ra = EquivProver::prove(&mut sat, a, b, None);
        let rb = EquivProver::prove(&mut bdd, a, b, None);
        match (&ra, &rb) {
            (ProveOutcome::Equivalent, ProveOutcome::Equivalent) => {}
            (ProveOutcome::Counterexample(ca), ProveOutcome::Counterexample(cb)) => {
                // Different witnesses are fine; both must distinguish.
                for (label, c) in [("sat", ca), ("bdd", cb)] {
                    let vals = net.eval(c);
                    assert_ne!(
                        vals[a.index()],
                        vals[b.index()],
                        "{label} witness fails for pair {k}"
                    );
                }
            }
            other => panic!("engines disagree on pair {k}: {other:?}"),
        }
    }
    assert_eq!(EquivProver::calls(&sat), 40);
    assert_eq!(EquivProver::calls(&bdd), 40);
}

#[test]
fn sweeps_agree_on_proven_sets() {
    let net = test_network();
    let run = |mode: EngineMode| {
        let cfg = SweepConfig {
            engine: EnginePolicy {
                mode,
                ..EnginePolicy::default()
            },
            ..SweepConfig::default()
        };
        let mut gen = SimGen::new(SimGenConfig::default().with_seed(3));
        ParallelSweeper::new(cfg).run(&net, &mut gen)
    };
    let sat = run(EngineMode::Auto);
    let bdd = run(EngineMode::BddOnly {
        node_limit: 5_000_000,
    });
    // The engines produce different counterexamples, so the number of
    // disproof calls may differ; the *semantic* outcome — which nodes
    // end up proven equivalent — must not.
    assert_eq!(sat.stats.proved_equivalent, bdd.stats.proved_equivalent);
    let norm = |mut classes: Vec<Vec<NodeId>>| {
        for c in classes.iter_mut() {
            c.sort();
        }
        classes.sort();
        classes
    };
    assert_eq!(
        norm(sat.proven_classes),
        norm(bdd.proven_classes),
        "identical equivalence structure from both engines"
    );
}

/// A seeded sweep workload: a benchmark miter'd against its own
/// restructured variant, guaranteeing plenty of true equivalences.
fn workload(name: &str, seed: u64) -> simgen_netlist::LutNetwork {
    let aig = build_aig(name).expect("known benchmark");
    let variant = restructure(&aig, 0.4, seed);
    let left = map_to_luts(&aig, 6);
    let right = map_to_luts(&variant, 6);
    simgen_netlist::miter::combine(&left, &right)
        .expect("matched interfaces")
        .network
}

fn norm(mut classes: Vec<Vec<NodeId>>) -> Vec<Vec<NodeId>> {
    for c in classes.iter_mut() {
        c.sort();
    }
    classes.sort();
    classes
}

/// Budget escalation must not change the semantic outcome: sweeps
/// climbing a budget ladder prove the same equivalence structure, with
/// the same proof-outcome counts, as a flat-budget sweep, at every
/// worker count, across a spread of seeded workload circuits.
#[test]
fn escalating_sweeps_match_flat_budget_across_workloads() {
    let circuits = [
        ("e64", 11u64),
        ("e64", 19),
        ("priority", 23),
        ("priority", 31),
        ("dec", 37),
    ];
    for (name, seed) in circuits {
        let net = workload(name, seed);
        let base = SweepConfig {
            guided_iterations: 5,
            seed,
            ..SweepConfig::default()
        };
        let mut gen = SimGen::new(SimGenConfig::default().with_seed(seed));
        let flat = ParallelSweeper::new(base).run(&net, &mut gen);
        let mut parallel_reports = Vec::new();
        for jobs in [1usize, 2, 4] {
            let cfg = SweepConfig {
                jobs,
                budget_schedule: Some(BudgetSchedule {
                    initial: 2_000,
                    multiplier: 50,
                    attempts: 2,
                    bdd_node_limit: 0,
                }),
                ..base
            };
            let mut gen = SimGen::new(SimGenConfig::default().with_seed(seed));
            let par = ParallelSweeper::new(cfg).run(&net, &mut gen);
            assert_eq!(
                norm(par.proven_classes.clone()),
                norm(flat.proven_classes.clone()),
                "{name}: escalating jobs={jobs} must prove the same classes"
            );
            assert_eq!(
                par.stats.proved_equivalent, flat.stats.proved_equivalent,
                "{name} jobs={jobs}"
            );
            assert_eq!(
                par.stats.aborted, 0,
                "{name} jobs={jobs}: nothing may time out"
            );
            assert_eq!(
                flat.stats.aborted, 0,
                "{name}: flat-budget baseline fully resolves"
            );
            parallel_reports.push(par);
        }
        // Across worker counts the escalating reports are identical in
        // every deterministic respect (not just up to reordering).
        let first = &parallel_reports[0];
        for (i, r) in parallel_reports.iter().enumerate().skip(1) {
            assert_eq!(r.proven_classes, first.proven_classes, "{name} report {i}");
            assert_eq!(r.unresolved, first.unresolved, "{name} report {i}");
            assert_eq!(
                r.stats.disproved, first.stats.disproved,
                "{name} report {i}"
            );
            assert_eq!(
                r.stats.sat_calls, first.stats.sat_calls,
                "{name} report {i}"
            );
            assert_eq!(
                r.patterns.num_patterns(),
                first.patterns.num_patterns(),
                "{name} report {i}"
            );
            let (da, db) = (
                r.stats.dispatch.as_ref().unwrap(),
                first.stats.dispatch.as_ref().unwrap(),
            );
            assert_eq!(da.rounds, db.rounds, "{name} report {i}");
            assert_eq!(da.total_proofs(), db.total_proofs(), "{name} report {i}");
            assert_eq!(
                da.total_escalations(),
                db.total_escalations(),
                "{name} report {i}"
            );
        }
    }
}

/// The observability layer must not weaken the scheduling-invariance
/// contract: a fully instrumented run serialized as a [`RunReport`]
/// and reduced to its deterministic form (timing `*_ms` fields and
/// scheduling keys stripped) is byte-identical for every worker count.
#[test]
fn run_reports_are_byte_identical_across_worker_counts() {
    for (name, seed) in [("e64", 11u64), ("priority", 23)] {
        let net = workload(name, seed);
        let base = SweepConfig {
            guided_iterations: 5,
            seed,
            ..SweepConfig::default()
        };
        let mut deterministic_forms = Vec::new();
        for jobs in [1usize, 2, 4] {
            let cfg = SweepConfig { jobs, ..base };
            let mut gen = SimGen::new(SimGenConfig::default().with_seed(seed));
            let mut obs = simgen_obs::Observer::enabled();
            let report = ParallelSweeper::new(cfg).run_observed(
                &net,
                &mut gen,
                &Deadline::never(),
                &mut obs,
            );
            let meta = RunMeta {
                command: "sweep".to_string(),
                argv: vec![
                    "sweep".to_string(),
                    format!("{name}.blif"),
                    "--jobs".to_string(),
                    jobs.to_string(),
                ],
                design: design_info(&net, name, &format!("{name}.blif")),
            };
            let run = sweep_run_report(meta, &cfg, &report, &obs);
            simgen_obs::RunReport::validate(&run.to_json()).expect("instrumented run validates");
            deterministic_forms.push(run.deterministic_json());
        }
        for (i, form) in deterministic_forms.iter().enumerate().skip(1) {
            assert_eq!(
                form, &deterministic_forms[0],
                "{name}: deterministic RunReport for jobs index {i} diverges"
            );
        }
    }
}

/// Same contract under an already-expired deadline: the interrupted
/// partial report keeps its deterministic form byte-identical across
/// `--jobs`, so anytime results stay comparable run-over-run.
#[test]
fn expired_deadline_run_reports_are_byte_identical() {
    let (name, seed) = ("e64", 11u64);
    let net = workload(name, seed);
    let base = SweepConfig {
        guided_iterations: 5,
        seed,
        ..SweepConfig::default()
    };
    let mut deterministic_forms = Vec::new();
    for jobs in [1usize, 2, 4] {
        let cfg = SweepConfig { jobs, ..base };
        let mut gen = SimGen::new(SimGenConfig::default().with_seed(seed));
        let mut obs = simgen_obs::Observer::enabled();
        let deadline = Deadline::after(std::time::Duration::ZERO);
        let report = ParallelSweeper::new(cfg).run_observed(&net, &mut gen, &deadline, &mut obs);
        assert!(report.interrupted, "jobs={jobs} must flag interruption");
        let meta = RunMeta {
            command: "sweep".to_string(),
            argv: vec!["sweep".to_string(), format!("{name}.blif")],
            design: design_info(&net, name, &format!("{name}.blif")),
        };
        let run = sweep_run_report(meta, &cfg, &report, &obs);
        simgen_obs::RunReport::validate(&run.to_json()).expect("interrupted run validates");
        assert_eq!(run.outcome.status, "interrupted");
        assert_eq!(run.outcome.exit_code, 2);
        deterministic_forms.push(run.deterministic_json());
    }
    for (i, form) in deterministic_forms.iter().enumerate().skip(1) {
        assert_eq!(
            form, &deterministic_forms[0],
            "deterministic interrupted RunReport for jobs index {i} diverges"
        );
    }
}

/// Anytime degradation is as scheduling-invariant as completion: under
/// an already-expired deadline, every worker count produces the same
/// partial sweep report, and the full CEC flow returns the same
/// `Inconclusive` verdict naming the same unresolved output pairs.
#[test]
fn expired_deadline_reports_are_identical_across_worker_counts() {
    for (name, seed) in [("e64", 11u64), ("priority", 23)] {
        let net = workload(name, seed);
        let base = SweepConfig {
            guided_iterations: 5,
            seed,
            ..SweepConfig::default()
        };
        let mut reports = Vec::new();
        for jobs in [1usize, 2, 4] {
            let cfg = SweepConfig { jobs, ..base };
            let mut gen = SimGen::new(SimGenConfig::default().with_seed(seed));
            let deadline = Deadline::after(std::time::Duration::ZERO);
            let par = ParallelSweeper::new(cfg).run_under(&net, &mut gen, &deadline);
            assert!(par.interrupted, "{name} jobs={jobs} must flag interruption");
            assert_eq!(
                par.stats.sat_calls, 0,
                "{name} jobs={jobs}: no proof may start past the deadline"
            );
            assert!(
                par.proven_classes.is_empty(),
                "{name} jobs={jobs}: partial results never claim unproven equivalences"
            );
            reports.push(par);
        }
        let first = &reports[0];
        for (i, r) in reports.iter().enumerate().skip(1) {
            assert_eq!(r.proven_classes, first.proven_classes, "{name} report {i}");
            assert_eq!(r.unresolved, first.unresolved, "{name} report {i}");
            assert_eq!(r.quarantined, first.quarantined, "{name} report {i}");
            assert_eq!(
                r.patterns.num_patterns(),
                first.patterns.num_patterns(),
                "{name} report {i}"
            );
        }

        // End-to-end flow: same Inconclusive verdict for every jobs value.
        let left = map_to_luts(&build_aig(name).expect("known benchmark"), 6);
        let right = map_to_luts(
            &restructure(&build_aig(name).expect("known benchmark"), 0.4, seed),
            6,
        );
        let mut verdicts = Vec::new();
        for jobs in [1usize, 2, 4] {
            let cfg = SweepConfig { jobs, ..base };
            let mut gen = SimGen::new(SimGenConfig::default().with_seed(seed));
            let deadline = Deadline::after(std::time::Duration::ZERO);
            let report = check_equivalence_under(&left, &right, &mut gen, cfg, &deadline)
                .expect("interfaces match");
            match &report.verdict {
                CecVerdict::Inconclusive {
                    unresolved_pairs,
                    reason,
                } => {
                    assert_eq!(*reason, InconclusiveReason::DeadlineExpired, "{name}");
                    assert_eq!(
                        unresolved_pairs.len(),
                        left.num_pos(),
                        "{name}: every output pair unresolved"
                    );
                    verdicts.push(unresolved_pairs.clone());
                }
                other => panic!("{name} jobs={jobs}: expected Inconclusive, got {other:?}"),
            }
        }
        assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "{name}: identical unresolved sets across worker counts"
        );
    }
}

/// SAT calls a serial fraig sweep spends on the `dec` K=4-vs-K=6
/// miter with default configs (the baseline the paper tables were
/// produced with). The engine proves a region's pairs in that serial
/// order, so it must never spend more.
const DEC_SERIAL_SAT_CALLS: u64 = 554;

/// Regression guard for the serial proof order: `dec` mapped at K=4
/// against K=6 is one fanin region with hundreds of disproofs. A round
/// that proves all its pairs before any counterexample splits a class,
/// without reusing equalities proven earlier in the round, spends 856
/// calls here; the engine must stay within the serial baseline, prove
/// the same 152 pairs, and report identically at every worker count.
#[test]
fn dec_k4_vs_k6_sweep_stays_within_the_serial_baseline() {
    let aig = build_aig("dec").expect("known benchmark");
    let net = simgen_netlist::miter::combine(&map_to_luts(&aig, 4), &map_to_luts(&aig, 6))
        .expect("matched interfaces")
        .network;
    let mut forms = Vec::new();
    for jobs in [1usize, 2, 4] {
        let cfg = SweepConfig {
            jobs,
            ..SweepConfig::default()
        };
        let mut gen = SimGen::new(SimGenConfig::default());
        let mut obs = simgen_obs::Observer::enabled();
        let report =
            ParallelSweeper::new(cfg).run_observed(&net, &mut gen, &Deadline::never(), &mut obs);
        assert!(
            report.stats.sat_calls <= DEC_SERIAL_SAT_CALLS,
            "jobs {jobs}: {} sweep SAT calls, serial baseline {DEC_SERIAL_SAT_CALLS}",
            report.stats.sat_calls
        );
        assert_eq!(report.stats.proved_equivalent, 152, "jobs {jobs}");
        assert!(report.unresolved.is_empty(), "jobs {jobs}");
        let meta = RunMeta {
            command: "sweep".to_string(),
            argv: vec!["sweep".to_string(), "dec.blif".to_string()],
            design: design_info(&net, "dec", "dec.blif"),
        };
        forms.push(sweep_run_report(meta, &cfg, &report, &obs).deterministic_json());
    }
    for (i, form) in forms.iter().enumerate().skip(1) {
        assert_eq!(form, &forms[0], "dec: stripped report {i} diverges");
    }
}
