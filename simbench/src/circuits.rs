//! Input generation shared by the workloads: built-in AIGs, their LUT
//! mappings, and seeded single-gate mutants.

use rand::{Rng, SeedableRng};
use simgen_netlist::{LutNetwork, NodeId, NodeKind, TruthTable};
use simgen_sim::{simulate, PatternSet};

use crate::trace::Tracer;

/// Random patterns a mutant must be told apart from its original on.
const MUTANT_CHECK_PATTERNS: usize = 1024;

/// Gates tried before giving up on finding an observable mutant.
const MUTANT_ATTEMPTS: u64 = 256;

/// Builds the named built-in AIG and maps it at each of `ks`, under
/// `workloads.build_aig` and `mapping.map_to_luts` spans.
pub fn mapped(tracer: &mut Tracer, name: &str, ks: &[usize]) -> Vec<LutNetwork> {
    let span = tracer.begin("workloads.build_aig", name);
    let aig =
        simgen_workloads::build_aig(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    tracer.end(span);
    ks.iter()
        .map(|&k| {
            let span = tracer.begin("mapping.map_to_luts", format!("{name}/k{k}"));
            let net = simgen_mapping::map_to_luts(&aig, k);
            tracer.end(span);
            net
        })
        .collect()
}

/// A copy of `net` with one minterm of one LUT flipped, chosen from
/// `seed`. Only a mutant that seeded random simulation tells apart from
/// `net` at some output is returned, so the pair is known to be
/// inequivalent before the program sees it.
pub fn mutant(tracer: &mut Tracer, net: &LutNetwork, seed: u64) -> LutNetwork {
    let span = tracer.begin("mutants.generate", net.name().to_string());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let luts: Vec<NodeId> = net
        .node_ids()
        .filter(|&id| !net.fanins(id).is_empty())
        .collect();
    let patterns = PatternSet::random(net.num_pis(), MUTANT_CHECK_PATTERNS, &mut rng);
    let reference = simulate(net, &patterns);
    for _ in 0..MUTANT_ATTEMPTS {
        let target = luts[rng.gen_range(0..luts.len())];
        let minterm = rng.gen_range(0..1u64 << net.fanins(target).len());
        let candidate = rebuild(net, target, minterm);
        let sim = simulate(&candidate, &patterns);
        let differs = net
            .pos()
            .iter()
            .zip(candidate.pos())
            .any(|(a, b)| reference.signature(a.node) != sim.signature(b.node));
        if differs {
            tracer.end(span);
            return candidate;
        }
    }
    panic!(
        "no observable single-gate mutant of {} within {MUTANT_ATTEMPTS} tries",
        net.name()
    );
}

/// Copies `net` node by node, flipping `minterm` of node `target`.
fn rebuild(net: &LutNetwork, target: NodeId, minterm: u64) -> LutNetwork {
    let mut out = LutNetwork::with_name(net.name());
    for id in net.node_ids() {
        let copy = match net.kind(id) {
            NodeKind::Pi { .. } => out.add_pi(
                net.node_name(id)
                    .map_or_else(|| format!("n{}", id.index()), str::to_string),
            ),
            NodeKind::Lut { fanins, tt } => {
                let tt = if id == target {
                    TruthTable::from_bits(tt.arity(), tt.bits() ^ (1 << minterm))
                        .expect("same arity")
                } else {
                    *tt
                };
                // Ids are dense and topological, so a fanin keeps its id.
                let copy = out
                    .add_lut(fanins.clone(), tt)
                    .expect("fanins precede the node");
                if let Some(name) = net.node_name(id) {
                    out.set_node_name(copy, name);
                }
                copy
            }
        };
        debug_assert_eq!(copy, id);
    }
    for po in net.pos() {
        out.add_po(po.node, po.name.clone());
    }
    out
}
