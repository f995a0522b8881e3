//! The benchmark's own wrapper around a pattern generator: every
//! `generate` call becomes a `core.generate` span, and the wrapper
//! counts calls, vectors and empty results.

use simgen_cec::IterationRecord;
use simgen_core::{PatternGenerator, SimGen};
use simgen_netlist::LutNetwork;
use simgen_sim::{EquivClasses, SimResult};

use crate::trace::Tracer;

pub struct TimedGen<'t> {
    inner: SimGen,
    tracer: &'t mut Tracer,
    id: String,
    pub calls: u64,
    pub empty: u64,
    pub vectors: u64,
}

impl<'t> TimedGen<'t> {
    pub fn new(inner: SimGen, tracer: &'t mut Tracer, id: &str) -> Self {
        TimedGen {
            inner,
            tracer,
            id: id.to_string(),
            calls: 0,
            empty: 0,
            vectors: 0,
        }
    }

    /// The tracer, for spans around the call that drives this generator.
    pub fn tracer(&mut self) -> &mut Tracer {
        self.tracer
    }
}

impl PatternGenerator for TimedGen<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn generate(&mut self, net: &LutNetwork, classes: &EquivClasses) -> Vec<Vec<bool>> {
        let span = self.tracer.begin("core.generate", self.id.as_str());
        let vectors = self.inner.generate(net, classes);
        self.tracer.end(span);
        self.calls += 1;
        self.vectors += vectors.len() as u64;
        if vectors.is_empty() {
            self.empty += 1;
        }
        vectors
    }

    fn observe_counterexample(&mut self, vector: &[bool]) {
        self.inner.observe_counterexample(vector);
    }

    fn observe_simulation(&mut self, sim: &SimResult) {
        self.inner.observe_simulation(sim);
    }
}

/// Guided iterations whose vectors lowered the class cost. The first
/// record is the random round.
pub fn split_iterations(history: &[IterationRecord]) -> u64 {
    history
        .windows(2)
        .filter(|w| w[1].vectors > 0 && w[1].cost < w[0].cost)
        .count() as u64
}
