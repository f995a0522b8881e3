//! Quickstart: build a small LUT network, watch random simulation get
//! stuck, and let SimGen split the remaining equivalence classes.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use simgen_suite::cec::{ParallelSweeper, SweepConfig};
use simgen_suite::core::{SimGen, SimGenConfig};
use simgen_suite::netlist::{LutNetwork, TruthTable};

fn main() {
    // A toy design with internal redundancy: three differently
    // structured AND gates plus some distinct logic.
    let mut net = LutNetwork::with_name("quickstart");
    let a = net.add_pi("a");
    let b = net.add_pi("b");
    let c = net.add_pi("c");
    let and_direct = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
    let and_swapped = net.add_lut(vec![b, a], TruthTable::and2()).unwrap();
    let na = net.add_lut(vec![a], TruthTable::not1()).unwrap();
    let nb = net.add_lut(vec![b], TruthTable::not1()).unwrap();
    let nor = net.add_lut(vec![na, nb], TruthTable::or2()).unwrap();
    let and_demorgan = net.add_lut(vec![nor], TruthTable::not1()).unwrap();
    let out = net.add_lut(vec![and_direct, c], TruthTable::or2()).unwrap();
    net.add_po(out, "f");
    net.add_po(and_swapped, "g");
    net.add_po(and_demorgan, "h");

    println!(
        "network `{}`: {} PIs, {} LUTs, {} POs, depth {}",
        net.name(),
        net.num_pis(),
        net.num_luts(),
        net.num_pos(),
        net.depth()
    );

    // Sweep with SimGen-generated patterns.
    let mut generator = SimGen::new(SimGenConfig::default().with_seed(42));
    let report = ParallelSweeper::new(SweepConfig::default()).run(&net, &mut generator);

    println!("\nsweep finished:");
    println!("  cost after simulation : {}", report.cost_after_sim);
    println!("  SAT calls             : {}", report.stats.sat_calls);
    println!(
        "  proven-equivalent pairs: {}",
        report.stats.proved_equivalent
    );
    for class in &report.proven_classes {
        let names: Vec<String> = class.iter().map(|n| n.to_string()).collect();
        println!("  equivalent nodes       : {}", names.join(" == "));
    }
    assert!(report
        .proven_classes
        .iter()
        .any(|c| c.contains(&and_direct) && c.contains(&and_swapped) && c.contains(&and_demorgan)));
    println!("\nall three AND implementations proven equivalent — sweep succeeded");
}
