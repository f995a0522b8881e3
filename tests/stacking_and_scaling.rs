//! Integration tests of the Section 6.4 scaling path: `&putontop`
//! stacking, sweeping stacked networks, and the stacked experiment
//! helpers of the bench harness.

use simgen_suite::cec::{ParallelSweeper, SweepConfig};
use simgen_suite::core::{RevSim, SimGen, SimGenConfig};
use simgen_suite::netlist::{stack::put_on_top, validate};
use simgen_suite::workloads::benchmark_network;

#[test]
fn stacked_networks_validate_and_scale() {
    let net = benchmark_network("e64", 6).expect("known benchmark");
    for copies in [2, 3, 5] {
        let stacked = put_on_top(&net, copies);
        validate::check(&stacked).expect("valid structure");
        assert_eq!(stacked.num_luts(), net.num_luts() * copies);
        assert!(stacked.depth() >= net.depth() * copies as u32 / 2);
    }
}

#[test]
fn stacking_preserves_bottom_copy_semantics() {
    use rand::{Rng, SeedableRng};
    let net = benchmark_network("square", 6).expect("known benchmark");
    let stacked = put_on_top(&net, 3);
    // Feeding the stack's PIs that correspond to copy 0 reproduces
    // copy 0's internal values: the first num_luts() LUT nodes of the
    // stack are copy 0's LUTs in order.
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for _ in 0..20 {
        let base_ins: Vec<bool> = (0..net.num_pis()).map(|_| rng.gen()).collect();
        let mut stack_ins: Vec<bool> = (0..stacked.num_pis()).map(|_| rng.gen()).collect();
        stack_ins[..net.num_pis()].copy_from_slice(&base_ins);
        let base_vals = net.eval(&base_ins);
        let stack_vals = stacked.eval(&stack_ins);
        // Copy-0 LUT nodes occupy the same relative topological slots.
        let base_luts: Vec<_> = net.node_ids().filter(|&n| !net.is_pi(n)).collect();
        let stack_luts: Vec<_> = stacked.node_ids().filter(|&n| !stacked.is_pi(n)).collect();
        for (b, s) in base_luts.iter().zip(stack_luts.iter()) {
            assert_eq!(
                base_vals[b.index()],
                stack_vals[s.index()],
                "copy-0 node mismatch"
            );
        }
    }
}

#[test]
fn sweeping_a_stacked_benchmark_terminates_with_sane_stats() {
    let net = benchmark_network("e64", 6).expect("known benchmark");
    let stacked = put_on_top(&net, 4);
    let cfg = SweepConfig::default();
    for (label, mut gen) in [
        (
            "simgen",
            Box::new(SimGen::new(SimGenConfig::default()))
                as Box<dyn simgen_suite::core::PatternGenerator>,
        ),
        ("revs", Box::new(RevSim::new(1, 20)) as _),
    ] {
        let report = ParallelSweeper::new(cfg).run(&stacked, gen.as_mut());
        assert!(
            report.stats.sat_calls >= report.stats.proved_equivalent + report.stats.disproved,
            "{label}: call accounting"
        );
        // Every pattern has the stacked PI width.
        assert_eq!(report.patterns.num_pis(), stacked.num_pis());
        assert!(report.patterns.num_patterns() >= cfg.random_batch);
        // Monotone cost history.
        let costs: Vec<u64> = report.stats.history.iter().map(|r| r.cost).collect();
        assert!(costs.windows(2).all(|w| w[1] <= w[0]), "{label}: {costs:?}");
    }
}

#[test]
fn bench_harness_stacked_set_builds() {
    for (name, copies) in simgen_bench_stub::stacked() {
        let net = benchmark_network(name, 6).expect("known benchmark");
        let stacked = put_on_top(&net, copies);
        validate::check(&stacked).expect("valid");
    }
}

/// The stacked set duplicated here to avoid a dev-dependency cycle on
/// the bench crate (the source of truth is `simgen-bench`, which has
/// its own test asserting the same values).
mod simgen_bench_stub {
    pub fn stacked() -> [(&'static str, usize); 3] {
        [("square", 7), ("b17_C", 5), ("b22_C", 6)]
    }
}
