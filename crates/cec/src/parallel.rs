//! The sweeping engine: the paper's Figure 2 loop of simulation, then
//! SAT resolution with counterexample feedback.
//!
//! Phases 1–2 (random + guided simulation) live in [`crate::sweep`].
//! Phase 3 proceeds in *rounds*. A round lists every candidate pair
//! `(rep, candᵢ)` of every surviving class in the serial fraig order
//! (the class whose next candidate is shallowest goes next, so proofs
//! of deep pairs find their fanin cones already merged), and
//! dispatches one job per fanin region ([`RegionMap`]) across a
//! work-stealing worker pool ([`simgen_dispatch::run_ordered`]). A
//! region job proves its pairs one after another in that global pair
//! order — the serial proof order of ABC's `&fraig` — against one
//! assumption-scoped [`PairProver`], or a cold per-pair prover under
//! `--no-incremental`.
//! Every `Equivalent` answer is asserted before the region's next pair
//! (in cold mode it seeds the later pairs' provers), so deeper proofs
//! reuse the equivalences of their fanin cones.
//!
//! **The round cut.** A region job stops at its 64th counterexample
//! (`CEX_FLUSH_THRESHOLD`, one simulation word), counting those the
//! proof cache answers. Its remaining pairs are *deferred*: the flush that
//! ends the round resimulates the counterexamples in one 64-bit word,
//! and the next round re-lists whatever pairs the refined classes
//! still hold. The cut depends only on the pair order and the verdicts
//! (counterexamples are canonical), never on `jobs`, the solver mode
//! or cache warmth.
//!
//! Results merge back **in pair order**, and region provers are
//! rebuilt every round from the equivalences proven so far. A pair's
//! outcome is therefore a pure function of the round history — never
//! of which worker ran it — which is what makes the sweep report
//! byte-identical for any `jobs` value.
//!
//! Budget escalation: with [`SweepConfig::budget_schedule`] set, each
//! pair climbs the [`BudgetSchedule`] ladder (small conflict budget,
//! multiplied on every retry) and finally falls back to a node-limited
//! BDD check; pairs that exhaust everything are reported unresolved.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use simgen_core::PatternGenerator;
use simgen_dispatch::{run_ordered_traced, Attempt, BudgetSchedule, Deadline, JobStatus, Progress};
#[cfg(feature = "fault-inject")]
use simgen_dispatch::{FaultAction, FaultPlan};
use simgen_netlist::{LutNetwork, NodeId};
use simgen_obs::{Counter, Json, LocalRecorder, Observer, Phase};
use simgen_sat::{ScopeMetrics, SolverStats};
use simgen_sim::{PatternSet, Replayer, SimResult};

use crate::certify::{certify_equivalence, PROOF_BYTE_BUDGET};
use crate::journal::{
    class_signature, counter_snapshot, restore_counters, sweep_fingerprint, JournalVerdict,
    PairRecord, RoundRecord, StatsSnapshot, SweepJournal,
};
use crate::prove::{BddProver, EquivProver, PairProver, ProveOutcome};
use crate::region::{cone_union, RegionMap, DEFAULT_BDD_FIRST_LIMIT};
use crate::stats::{DispatchSummary, SweepStats, WorkerSummary};
use crate::sweep::{
    flush_counterexamples, record_exec_counters, record_merge, run_sim_phases, spawn_watchdog,
    SimPhases, SweepConfig, SweepReport, CEX_FLUSH_THRESHOLD,
};

/// Scheduling-independent result of one pair proof (the wall-clock
/// metadata travels separately in the worker state).
#[derive(Clone, Debug, PartialEq, Eq)]
enum PairVerdict {
    /// Proven equal (and, under certify, DRAT-certified).
    Equivalent,
    /// Distinguishing input vector (replay-verified under certify).
    Counterexample(Vec<bool>),
    /// Ladder (and fallback, if enabled) exhausted.
    Undecided,
    /// The engine answered but certification rejected the answer:
    /// `replay: false` means the DRAT checker refused an `Equivalent`
    /// proof, `replay: true` means the scalar replay could not
    /// reproduce a counterexample. The merge loop quarantines the
    /// pair either way.
    CertificationFailed {
        /// Whether the rejected evidence was a counterexample.
        replay: bool,
    },
}

impl From<PairVerdict> for JournalVerdict {
    fn from(verdict: PairVerdict) -> Self {
        match verdict {
            PairVerdict::Equivalent => JournalVerdict::Equivalent,
            PairVerdict::Counterexample(v) => JournalVerdict::Counterexample(v),
            PairVerdict::Undecided => JournalVerdict::Undecided,
            PairVerdict::CertificationFailed { replay } => {
                JournalVerdict::CertificationFailed { replay }
            }
        }
    }
}

/// Everything a proof job hands back to the merge loop. The counter
/// deltas travel in the result — not in worker state — because a
/// panicking step respawns its worker with fresh state: under fault
/// injection, state-side accumulation would silently lose the counts
/// of every earlier job on that worker and make the totals depend on
/// scheduling. Merge-side accumulation over these results is exact
/// for any `--jobs` value (a panicked job contributes nothing,
/// deterministically).
struct PairOutcome {
    verdict: PairVerdict,
    /// Serialized DRAT blob of an `Equivalent` verdict, produced only
    /// when the round wants to populate the proof cache.
    proof: Option<Vec<u8>>,
    sat_calls: u64,
    sat_time: Duration,
    solver: SolverStats,
    /// Conflicts spent in aborted (budget-limited) attempts.
    conflicts: u64,
    /// Budget escalations beyond the first attempt.
    escalations: u64,
    /// Whether the whole ladder (and fallback) exhausted.
    timeout: bool,
    /// Scope-reuse delta attributable to this pair (zero when the
    /// pair never touched a SAT solver).
    metrics: ScopeMetrics,
}

impl PairOutcome {
    /// Outcome of a path that did no SAT work (BDD engine, or an
    /// injected spurious answer).
    fn engine_only(verdict: PairVerdict) -> Self {
        let timeout = verdict == PairVerdict::Undecided;
        PairOutcome {
            verdict,
            proof: None,
            sat_calls: 0,
            sat_time: Duration::ZERO,
            solver: SolverStats::default(),
            conflicts: 0,
            escalations: 0,
            timeout,
            metrics: ScopeMetrics::default(),
        }
    }
}

/// One dispatched proof job: one fanin region's pairs of this round,
/// proven in global pair order against one prover.
struct RegionJob {
    /// Fault-plan index of the job's first pair (see [`FaultIndex`]).
    #[cfg(feature = "fault-inject")]
    fault_base: u64,
    /// Equalities proven in earlier rounds inside this region, in
    /// merge order: the seeds of the region prover (incremental mode)
    /// or, filtered by cone, of each cold pair prover.
    seeds: Vec<(NodeId, NodeId)>,
    /// `(rep, cand, cached verdict)` in global pair order. A pair the
    /// proof cache answered is never proven, but it still counts
    /// toward the round cut and its equivalence is still asserted.
    pairs: Vec<(NodeId, NodeId, Option<PairVerdict>)>,
}

/// What became of one listed pair in a round.
enum PairStatus {
    /// Proven (or answered by an engine) on a worker.
    Done(PairOutcome),
    /// Answered by the proof cache before dispatch.
    Cached,
    /// The prover panicked; the pair is quarantined.
    Panicked,
    /// The deadline expired before its job started.
    Skipped,
    /// Not started: its region's round was cut first.
    Deferred,
}

/// Fault-plan job indices: a region's ordinal (in order of first
/// appearance) in the high 32 bits, the number of pairs the region has
/// started so far in the low 32. Deferred pairs take no index, and a
/// sweep over a single fanin region numbers its pairs `0, 1, 2, …`
/// in the order they start.
#[cfg(feature = "fault-inject")]
#[derive(Default)]
struct FaultIndex(HashMap<usize, (u64, u64)>);

#[cfg(feature = "fault-inject")]
impl FaultIndex {
    /// The index region `key`'s next started pair takes. A region gets
    /// its ordinal the first time it is asked for.
    fn base(&mut self, key: usize) -> u64 {
        let fresh = self.0.len() as u64;
        let &mut (ordinal, started) = self.0.entry(key).or_insert((fresh, 0));
        ordinal << 32 | started
    }

    /// Records that `n` more of region `key`'s pairs started.
    fn advance(&mut self, key: usize, n: u64) {
        if let Some(entry) = self.0.get_mut(&key) {
            entry.1 += n;
        }
    }
}

/// The structural state the merge mutates. Live and replayed rounds
/// both go through [`Merge::apply`], so a resumed run walks through
/// exactly the states of the run it resumes.
#[derive(Default)]
struct Merge {
    /// Proven classes so far.
    merged: Vec<Vec<NodeId>>,
    /// Every proven equality, in merge order: the seeds of later
    /// rounds' provers.
    seeds: Vec<(NodeId, NodeId)>,
    unresolved: Vec<(NodeId, NodeId)>,
    quarantined: Vec<(NodeId, NodeId)>,
    /// This round's counterexamples, flushed at the barrier.
    pending: Vec<Vec<bool>>,
    /// `(candidate, origin rep)` of this round's disproved pairs.
    benched: Vec<(NodeId, NodeId)>,
    /// Candidates resolved this round, removed from the classes at the
    /// barrier.
    dropped: HashSet<NodeId>,
    /// Some pair was skipped by the deadline.
    interrupted: bool,
}

impl Merge {
    /// Applies one verdict's structural effects. Counters and
    /// statistics are the caller's: a live round bumps them, a
    /// replayed one restores them from the journal.
    fn apply(
        &mut self,
        rep: NodeId,
        cand: NodeId,
        verdict: &JournalVerdict,
        generator: &mut dyn PatternGenerator,
    ) {
        match verdict {
            JournalVerdict::Deferred => return,
            JournalVerdict::Equivalent => {
                record_merge(&mut self.merged, rep, cand);
                self.seeds.push((rep, cand));
            }
            JournalVerdict::Counterexample(witness) => {
                // Figure 2's feedback arrow: the generator may learn
                // from counterexamples (e.g. 1-distance).
                generator.observe_counterexample(witness);
                self.pending.push(witness.clone());
                self.benched.push((cand, rep));
            }
            JournalVerdict::Undecided => self.unresolved.push((rep, cand)),
            JournalVerdict::Panicked | JournalVerdict::CertificationFailed { .. } => {
                self.unresolved.push((rep, cand));
                self.quarantined.push((rep, cand));
            }
            JournalVerdict::Skipped => {
                self.interrupted = true;
                self.unresolved.push((rep, cand));
            }
        }
        self.dropped.insert(cand);
    }

    /// The round barrier: drops the resolved candidates from `work`
    /// and flushes the round's counterexamples through one batched
    /// resimulation, which splits the classes (benched candidates
    /// rejoin whichever former classmates they still match).
    #[allow(clippy::too_many_arguments)]
    fn close_round(
        &mut self,
        net: &LutNetwork,
        mut work: Vec<Vec<NodeId>>,
        patterns: &mut PatternSet,
        sim: &mut SimResult,
        stats: &mut SweepStats,
        jobs: usize,
        obs: &mut Observer,
    ) -> Vec<Vec<NodeId>> {
        for class in &mut work {
            class.retain(|n| !self.dropped.contains(n));
        }
        work.retain(|c| c.len() >= 2);
        self.dropped.clear();
        if self.pending.is_empty() {
            return work;
        }
        let t = std::time::Instant::now();
        let work = flush_counterexamples(
            net,
            patterns,
            sim,
            work,
            &mut self.pending,
            &mut self.benched,
            jobs,
            obs,
        );
        let elapsed = t.elapsed();
        stats.sim_time += elapsed;
        stats.resim_time += elapsed;
        work
    }
}

/// Per-worker proving state: diagnostic counters plus the lazily-
/// built BDD engine. The counters mirror
/// [`crate::stats::WorkerSummary`] and are diagnostics only — a panic
/// respawns the worker's state, losing them — the authoritative
/// totals are accumulated merge-side from each job's [`PairOutcome`].
struct WorkerState<'n> {
    net: &'n LutNetwork,
    /// Shared deadline bound to every prover this worker builds.
    deadline: Deadline,
    /// Lazily created on the first pair that exhausts its SAT ladder
    /// (or immediately when BDD is the primary engine), and handed on
    /// to the same worker's next round: whole-network BDDs cost the
    /// same every time they are built, and their answers are
    /// canonical.
    bdd: Option<BddProver<'n>>,
    /// Scalar reference evaluator for counterexample replay (reused
    /// across this worker's pairs; its buffers are scratch space).
    replayer: Replayer,
    proofs: u64,
    conflicts: u64,
    timeouts: u64,
    escalations: u64,
    /// Busy-span recorder merged into the orchestrator's at the round
    /// barrier (CPU attribution only).
    local: LocalRecorder,
}

impl<'n> WorkerState<'n> {
    fn new(
        net: &'n LutNetwork,
        deadline: Deadline,
        local: LocalRecorder,
        bdd: Option<BddProver<'n>>,
    ) -> Self {
        WorkerState {
            net,
            deadline,
            bdd,
            replayer: Replayer::new(),
            proofs: 0,
            conflicts: 0,
            timeouts: 0,
            escalations: 0,
            local,
        }
    }

    /// BDD query through the worker's cached engine.
    fn bdd_prove(&mut self, a: NodeId, b: NodeId, node_limit: usize) -> PairVerdict {
        let net = self.net;
        let bdd = self
            .bdd
            .get_or_insert_with(|| BddProver::new(net, node_limit));
        match bdd.prove(a, b, None) {
            ProveOutcome::Equivalent => PairVerdict::Equivalent,
            ProveOutcome::Counterexample(v) => PairVerdict::Counterexample(v),
            ProveOutcome::Undecided { .. } => PairVerdict::Undecided,
        }
    }

    /// Proves one pair against `shared` (the region's scoped solver,
    /// built from `seeds` on first use in incremental mode) or a cold
    /// per-pair prover seeded with the `seeds` inside the pair's
    /// cones, escalated per `cfg`, with BDD fallback, and (under
    /// certify) the answer independently checked. Deterministic given
    /// `(seeds, a, b, cfg)` and the shared prover's query history —
    /// which is itself deterministic because a region's pairs are
    /// proven serially in global pair order.
    fn prove_pair(
        &mut self,
        shared: &mut Option<PairProver<'n>>,
        seeds: &[(NodeId, NodeId)],
        a: NodeId,
        b: NodeId,
        cfg: &SweepConfig,
        want_proof: bool,
    ) -> PairOutcome {
        let start = self.local.is_enabled().then(std::time::Instant::now);
        let (bdd_calls, bdd_time) = self.bdd_spent();
        let mut outcome = self.prove_pair_inner(shared, seeds, a, b, cfg, want_proof);
        // BDD queries count as proof calls and proof time, whichever
        // rung of the engine ladder made them.
        let (calls, time) = self.bdd_spent();
        outcome.sat_calls += calls - bdd_calls;
        outcome.sat_time += time.saturating_sub(bdd_time);
        if let Some(start) = start {
            self.local.add_busy(Phase::SatResolution, start.elapsed());
        }
        outcome
    }

    /// Calls and time of the worker's BDD engine so far.
    fn bdd_spent(&self) -> (u64, Duration) {
        self.bdd
            .as_ref()
            .map_or((0, Duration::ZERO), |bdd| (bdd.calls(), bdd.time()))
    }

    /// A prover bound to this worker's deadline, with proof logging on
    /// when the run certifies (logging must precede the first clause),
    /// and with `seeds` asserted.
    fn fresh_prover<'s>(
        &self,
        cfg: &SweepConfig,
        seeds: impl Iterator<Item = &'s (NodeId, NodeId)>,
    ) -> PairProver<'n> {
        let mut prover = PairProver::new(self.net);
        prover.bind_deadline(&self.deadline);
        if cfg.certify {
            prover.enable_certification(PROOF_BYTE_BUDGET);
        }
        for &(x, y) in seeds {
            prover.assert_equal(x, y);
        }
        prover
    }

    /// The actual proof; split out so [`WorkerState::prove_pair`] can
    /// book its busy time without borrowing `self` twice.
    fn prove_pair_inner(
        &mut self,
        shared: &mut Option<PairProver<'n>>,
        seeds: &[(NodeId, NodeId)],
        a: NodeId,
        b: NodeId,
        cfg: &SweepConfig,
        want_proof: bool,
    ) -> PairOutcome {
        self.proofs += 1;
        if let Some(node_limit) = cfg.engine.bdd_only(cfg.certify) {
            let verdict = self.bdd_prove(a, b, node_limit);
            if verdict == PairVerdict::Undecided {
                self.timeouts += 1;
            }
            return PairOutcome::engine_only(verdict);
        }
        if cfg.engine.bdd_primary(cfg.certify) {
            let node_limit = cfg
                .budget_schedule
                .map(|s| s.bdd_node_limit)
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_BDD_FIRST_LIMIT);
            let verdict = self.bdd_prove(a, b, node_limit);
            if verdict != PairVerdict::Undecided {
                return PairOutcome::engine_only(verdict);
            }
            // Node limit tripped: fall through to the SAT ladder.
        }

        // The SAT prover: the region's shared scoped solver, or a
        // cold per-pair one under `--no-incremental`.
        let mut cold_prover;
        let prover: &mut PairProver<'n> = if cfg.engine.incremental {
            if shared.is_none() {
                *shared = Some(self.fresh_prover(cfg, seeds.iter()));
            }
            shared.as_mut().expect("just built")
        } else {
            let cone = cone_union(self.net, a, b);
            cold_prover = self.fresh_prover(
                cfg,
                seeds
                    .iter()
                    .filter(|(x, y)| cone.contains(x) && cone.contains(y)),
            );
            &mut cold_prover
        };
        // Everything this pair reports is a delta against the
        // prover's cumulative counters, so shared and cold provers
        // feed the merge identically.
        let calls_before = prover.calls();
        let time_before = prover.time();
        let solver_before = prover.solver_stats();
        let metrics_before = prover.metrics();
        let schedule = cfg.budget_schedule.unwrap_or(BudgetSchedule {
            // No ladder configured: one attempt at the flat budget,
            // no BDD fallback.
            initial: cfg.sat_budget.unwrap_or(u64::MAX),
            multiplier: 1,
            attempts: 1,
            bdd_node_limit: 0,
        });
        let esc = schedule.run(|budget| match prover.prove(a, b, Some(budget)) {
            ProveOutcome::Equivalent => Attempt::Resolved(PairVerdict::Equivalent),
            ProveOutcome::Counterexample(v) => Attempt::Resolved(PairVerdict::Counterexample(v)),
            ProveOutcome::Undecided { conflicts } => Attempt::Undecided { conflicts },
        });
        self.escalations += u64::from(esc.escalations);
        self.conflicts += esc.conflicts;
        let mut verdict = match esc.outcome {
            Some(v) => v,
            // The BDD fallback is equally uncertifiable, so under
            // certify an exhausted ladder stays Undecided.
            None if cfg
                .engine
                .bdd_fallback(schedule.bdd_node_limit, cfg.certify) =>
            {
                self.bdd_prove(a, b, schedule.bdd_node_limit)
            }
            None => PairVerdict::Undecided,
        };
        if cfg.certify {
            verdict = match verdict {
                PairVerdict::Equivalent if !certify_equivalence(prover) => {
                    PairVerdict::CertificationFailed { replay: false }
                }
                PairVerdict::Counterexample(ref v)
                    if !self.replayer.distinguishes(self.net, v, a, b) =>
                {
                    PairVerdict::CertificationFailed { replay: true }
                }
                v => v,
            };
        }
        let timeout = verdict == PairVerdict::Undecided;
        if timeout {
            self.timeouts += 1;
        }
        // Serialize the certificate worker-side (where the solver
        // state lives); the orchestrator stores it at the merge. Must
        // happen before the prover's next query or assertion: the
        // scoped solver retires the current scope on the next
        // `prove`, after which the proof-log tail no longer certifies
        // this pair.
        let proof = if want_proof && verdict == PairVerdict::Equivalent {
            prover.proof_blob()
        } else {
            None
        };
        PairOutcome {
            verdict,
            proof,
            sat_calls: prover.calls() - calls_before,
            sat_time: prover.time().saturating_sub(time_before),
            solver: prover.solver_stats() - solver_before,
            conflicts: esc.conflicts,
            escalations: u64::from(esc.escalations),
            timeout,
            metrics: prover.metrics() - metrics_before,
        }
    }
}

/// One round's pair list: every `(rep, candidate)` pair of every
/// surviving class, in the serial fraig order — repeatedly the class
/// whose next candidate is shallowest (ties by node id) gives up that
/// candidate, and a class's candidates keep their class order.
/// Sorting all pairs by depth instead would take a class's candidates
/// back to back, before a counterexample from the first could split
/// off its look-alike siblings, and costs more SAT calls on the
/// Table 2 suite (EXPERIMENTS.md).
fn round_pairs(net: &LutNetwork, work: &[Vec<NodeId>]) -> Vec<(NodeId, NodeId)> {
    use std::cmp::Reverse;
    let mut heads: std::collections::BinaryHeap<Reverse<(u32, NodeId, usize, usize)>> = work
        .iter()
        .enumerate()
        .filter(|(_, c)| c.len() >= 2)
        .map(|(ci, c)| Reverse((net.level(c[1]), c[1], ci, 1)))
        .collect();
    let mut pairs = Vec::with_capacity(work.iter().map(|c| c.len().saturating_sub(1)).sum());
    while let Some(Reverse((_, cand, ci, at))) = heads.pop() {
        let class = &work[ci];
        pairs.push((class[0], cand));
        if let Some(&next) = class.get(at + 1) {
            heads.push(Reverse((net.level(next), next, ci, at + 1)));
        }
    }
    pairs
}

/// The sweeping engine. Proof outcomes and class results are
/// independent of [`SweepConfig::jobs`].
#[derive(Clone, Debug)]
pub struct ParallelSweeper {
    config: SweepConfig,
    /// Test-only fault injection: pairs matching the predicate make
    /// their prover panic, exercising the quarantine path.
    panic_on: Option<fn(NodeId, NodeId) -> bool>,
    /// Seeded chaos plan applied to every started pair proof, keyed on
    /// the pair's [`FaultIndex`]. Kept out of [`SweepConfig`] so
    /// feature-gated builds report identical configuration.
    #[cfg(feature = "fault-inject")]
    fault_plan: Option<FaultPlan>,
}

impl ParallelSweeper {
    /// Creates a sweeper with the given configuration.
    pub fn new(config: SweepConfig) -> Self {
        ParallelSweeper {
            config,
            panic_on: None,
            #[cfg(feature = "fault-inject")]
            fault_plan: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// Fault injection for robustness tests: any pair `(rep, cand)`
    /// for which `trigger` returns true panics inside its prover. The
    /// dispatch layer must quarantine it and finish the sweep.
    #[doc(hidden)]
    pub fn with_panic_injection(mut self, trigger: fn(NodeId, NodeId) -> bool) -> Self {
        self.panic_on = Some(trigger);
        self
    }

    /// Deterministic chaos: `plan` decides, per pair-proof index,
    /// whether that proof panics, stalls briefly, or returns a
    /// spurious `Unknown`. The index counts the pairs each fanin
    /// region has started (its high half names the region, so a sweep
    /// over one region numbers its proofs `0, 1, 2, …`); pairs deferred
    /// by a round cut take none. Because the index follows the
    /// deterministic pair order (never the worker or the wall clock),
    /// a fixed plan injects the identical fault set for every `--jobs`
    /// value — which is what lets the chaos suite demand
    /// byte-identical reports under faults.
    #[cfg(feature = "fault-inject")]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Runs the full sweep on `net` using `generator` for the guided
    /// phase and `config.jobs` workers for the proof phase, with no
    /// deadline.
    pub fn run(&self, net: &LutNetwork, generator: &mut dyn PatternGenerator) -> SweepReport {
        self.run_under(net, generator, &Deadline::never())
    }

    /// Runs the full sweep as an *anytime* computation. When
    /// `deadline` expires, in-flight proofs are interrupted through
    /// the shared flag, pairs not yet started are skipped, and
    /// everything unproven is reported unresolved. For runs that
    /// finish under deadline the report is byte-identical to an
    /// undeadlined run with the same config, for any `jobs` value.
    pub fn run_under(
        &self,
        net: &LutNetwork,
        generator: &mut dyn PatternGenerator,
        deadline: &Deadline,
    ) -> SweepReport {
        self.run_observed(net, generator, deadline, &mut Observer::disabled())
    }

    /// [`ParallelSweeper::run_under`] with instrumentation: per-phase
    /// timings and counters land in `obs.recorder`, decision-level
    /// events (proof outcomes, flushes, deadline trips) in
    /// `obs.trace`. Counters are bumped on the orchestrating thread
    /// from the merge-ordered results (never from worker-side
    /// observations), so the recorded totals are as
    /// scheduling-invariant as the report itself; worker CPU spans are
    /// merged at each round barrier. With [`Observer::disabled`] every
    /// instrumentation site is a branch over a dead flag.
    pub fn run_observed(
        &self,
        net: &LutNetwork,
        generator: &mut dyn PatternGenerator,
        deadline: &Deadline,
        obs: &mut Observer,
    ) -> SweepReport {
        self.run_cached(net, generator, deadline, obs, None)
    }

    /// [`ParallelSweeper::run_observed`] consulting a content-addressed
    /// proof cache: each candidate pair is looked up by the merkle hash
    /// of its canonical cones before any SAT work, and live verdicts
    /// are stored back for later runs. Lookups and inserts run on the
    /// orchestrating thread in deterministic pair order — workers
    /// never touch the cache — so the `cache_*` counters and the
    /// report stay `--jobs`-invariant for a fixed starting cache
    /// state. Pairs a trusted entry answers are never proven; their
    /// verdicts take part in the round exactly like live ones (see
    /// [`crate::cache`] for the trust policy).
    pub fn run_cached(
        &self,
        net: &LutNetwork,
        generator: &mut dyn PatternGenerator,
        deadline: &Deadline,
        obs: &mut Observer,
        cache: Option<&simgen_cache::ProofCache>,
    ) -> SweepReport {
        self.run_checkpointed(net, generator, deadline, obs, cache, None)
    }

    /// [`ParallelSweeper::run_cached`] with an optional write-ahead
    /// [`SweepJournal`]. With a journal, every round barrier commits
    /// the round's verdicts before the sweep proceeds; a journal
    /// opened in resume mode replays its validated rounds instead of
    /// re-proving them (see [`crate::journal`] for why the resulting
    /// stripped report is byte-identical to an uninterrupted run).
    pub fn run_checkpointed(
        &self,
        net: &LutNetwork,
        generator: &mut dyn PatternGenerator,
        deadline: &Deadline,
        obs: &mut Observer,
        cache: Option<&simgen_cache::ProofCache>,
        mut journal: Option<&mut SweepJournal>,
    ) -> SweepReport {
        let cfg = &self.config;
        let jobs = cfg.jobs.max(1);
        let panic_on = self.panic_on;
        #[cfg(feature = "fault-inject")]
        let fault_plan = self.fault_plan;
        let SimPhases {
            mut stats,
            mut patterns,
            mut sim,
            classes,
        } = run_sim_phases(cfg, net, generator, deadline, obs);
        let cost_after_sim = classes.cost();

        let mut merge = Merge::default();
        let mut mem_exhausted = false;
        if cfg.run_sat {
            let progress = Progress::default();
            let _watchdog = spawn_watchdog(cfg, deadline, &progress, &obs.trace);
            let sat_start = obs.recorder.is_enabled().then(std::time::Instant::now);
            let resim_before = stats.resim_time;
            let mut sweep_cache = cache.map(|c| crate::cache::SweepCache::new(c, cfg.certify));
            let want_proof = cache.is_some() && cfg.certify;
            // Fanin-region partition, computed once per sweep: each
            // round dispatches one job per region.
            let mut regions = RegionMap::new(net);
            #[cfg(feature = "fault-inject")]
            let mut faults = FaultIndex::default();
            let mut work: Vec<Vec<NodeId>> = classes.classes().to_vec();
            let mut summary = DispatchSummary {
                jobs,
                workers: (0..jobs)
                    .map(|worker| WorkerSummary {
                        worker,
                        ..WorkerSummary::default()
                    })
                    .collect(),
                ..DispatchSummary::default()
            };
            // Validated journal rounds still awaiting replay (resume
            // mode only; empty for fresh or absent journals).
            let mut replay: std::collections::VecDeque<RoundRecord> = match journal.as_deref_mut() {
                Some(j) => {
                    j.begin(&sweep_fingerprint(net, cfg));
                    j.rounds().to_vec().into()
                }
                None => std::collections::VecDeque::new(),
            };
            let mut replayed_rounds = 0usize;
            // Each worker's BDD engine, kept from round to round.
            let bdds: Vec<std::sync::Mutex<Option<BddProver<'_>>>> =
                (0..jobs).map(|_| std::sync::Mutex::new(None)).collect();
            let mut governor = crate::govern::MemoryGovernor::new(cfg.mem_budget);
            loop {
                let pairs = round_pairs(net, &work);
                if pairs.is_empty() {
                    break;
                }
                // Replay path: the next journaled round, if it matches
                // the pairs this run derived, is applied without
                // dispatching a single proof. The pair-list check runs
                // before any state is touched, so a stale journal
                // degrades into a plain live round.
                if let Some(record) = replay.front() {
                    let matches = record.pairs.len() == pairs.len()
                        && record.pairs.iter().zip(&pairs).all(|(p, &(rep, cand))| {
                            p.rep == rep.index() && p.cand == cand.index()
                        });
                    if matches {
                        let record = replay.pop_front().expect("front checked above");
                        for pair in &record.pairs {
                            let rep = NodeId::from_index(pair.rep);
                            let cand = NodeId::from_index(pair.cand);
                            #[cfg(feature = "fault-inject")]
                            {
                                let key = regions.key(rep, cand);
                                faults.base(key);
                                if pair.verdict != JournalVerdict::Deferred {
                                    faults.advance(key, 1);
                                }
                            }
                            merge.apply(rep, cand, &pair.verdict, generator);
                        }
                        work = merge.close_round(
                            net,
                            work,
                            &mut patterns,
                            &mut sim,
                            &mut stats,
                            jobs,
                            obs,
                        );
                        replayed_rounds += 1;
                        // Restore the barrier's cumulative snapshots:
                        // from here the observable state is identical
                        // to the original run's at this point.
                        record.stats.restore(&mut stats, &mut summary);
                        restore_counters(obs, &record.counters);
                        obs.trace
                            .emit("round_replayed", vec![("round", Json::U64(record.round))]);
                        if record.class_sig != class_signature(&work) {
                            // The journal's later rounds describe a
                            // different history; drop them (and scrub
                            // the file) rather than replay divergence.
                            replay.clear();
                            if let Some(j) = journal.as_deref_mut() {
                                j.truncate(replayed_rounds);
                            }
                        }
                        continue;
                    }
                    // Pair list diverged before anything was applied:
                    // abandon the remaining journal and prove live.
                    replay.clear();
                    if let Some(j) = journal.as_deref_mut() {
                        j.truncate(replayed_rounds);
                    }
                }
                // Memory governance at the round barrier: the solver
                // gauge comes from the merged, journal-restored stats,
                // so a resumed run sees the same estimates as the
                // original at every fresh round.
                if governor.note(crate::govern::estimate_resident(
                    &stats.solver,
                    &sim.pool_stats(),
                )) {
                    mem_exhausted = true;
                    deadline.trip();
                    obs.trace.emit(
                        "mem_budget_exhausted",
                        vec![("estimate_bytes", Json::U64(governor.peak()))],
                    );
                }
                if deadline.expired() {
                    // Out of time before the round started: every
                    // remaining pair is unresolved, in the same
                    // deterministic order it would have been proven.
                    merge.interrupted = true;
                    obs.recorder.add(Counter::DeadlineTrips, 1);
                    obs.trace.emit(
                        "sweep_deadline_expired",
                        vec![("unresolved", Json::U64(pairs.len() as u64))],
                    );
                    for (rep, cand) in pairs {
                        stats.aborted += 1;
                        merge.unresolved.push((rep, cand));
                    }
                    break;
                }
                summary.rounds += 1;
                obs.recorder.add(Counter::Rounds, 1);
                obs.trace.emit(
                    "round_start",
                    vec![
                        ("round", Json::U64(summary.rounds)),
                        ("pairs", Json::U64(pairs.len() as u64)),
                    ],
                );

                // Orchestrator-side cache pass, in pair order. Lookup
                // order (and hence the cache counters) never depends
                // on scheduling.
                let resolutions: Vec<Option<PairVerdict>> = match sweep_cache.as_mut() {
                    Some(sc) => pairs
                        .iter()
                        .map(|&(a, b)| match sc.resolve(net, a, b, obs) {
                            crate::cache::CacheLookup::Hit(ProveOutcome::Equivalent) => {
                                Some(PairVerdict::Equivalent)
                            }
                            crate::cache::CacheLookup::Hit(ProveOutcome::Counterexample(v)) => {
                                Some(PairVerdict::Counterexample(v))
                            }
                            _ => None,
                        })
                        .collect(),
                    None => vec![None; pairs.len()],
                };

                // One job per fanin region, in order of first
                // appearance, each holding its pairs in global pair
                // order — a pure function of the pair list.
                let mut region_jobs: Vec<RegionJob> = Vec::new();
                // Per job: its region key and its pairs' positions in
                // `pairs`, for scattering results back into pair order.
                let mut job_slots: Vec<(usize, Vec<usize>)> = Vec::new();
                let mut job_of: HashMap<usize, usize> = HashMap::new();
                for (pos, (&(a, b), cached)) in pairs.iter().zip(&resolutions).enumerate() {
                    let key = regions.key(a, b);
                    let ji = match job_of.get(&key) {
                        Some(&ji) => ji,
                        None => {
                            let seeds = merge
                                .seeds
                                .iter()
                                .copied()
                                .filter(|&(x, y)| regions.key(x, y) == key)
                                .collect();
                            region_jobs.push(RegionJob {
                                #[cfg(feature = "fault-inject")]
                                fault_base: faults.base(key),
                                seeds,
                                pairs: Vec::new(),
                            });
                            job_slots.push((key, Vec::new()));
                            job_of.insert(key, region_jobs.len() - 1);
                            region_jobs.len() - 1
                        }
                    };
                    region_jobs[ji].pairs.push((a, b, cached.clone()));
                    job_slots[ji].1.push(pos);
                }

                let recorder = &obs.recorder;
                let progress = &progress;
                let mut outcome = run_ordered_traced(
                    jobs,
                    region_jobs,
                    Some(deadline),
                    &obs.trace,
                    |worker| {
                        let bdd = bdds[worker]
                            .lock()
                            .expect("a BDD slot is never held across a panic")
                            .take();
                        WorkerState::new(net, deadline.clone(), recorder.local(), bdd)
                    },
                    |state, job: &RegionJob| {
                        // The region's prover for this round (incremental
                        // mode); rebuilt after a caught panic — a
                        // poisoned solver is never trusted, and the
                        // rebuild is deterministic (same seeds, same
                        // remaining pairs, any jobs value).
                        let mut shared: Option<PairProver<'_>> = None;
                        // Earlier rounds' seeds plus this round's
                        // equivalences so far.
                        let mut seeds = job.seeds.clone();
                        let mut results: Vec<PairStatus> = Vec::with_capacity(job.pairs.len());
                        let mut cexs = 0usize;
                        for (a, b, cached) in &job.pairs {
                            if cexs == CEX_FLUSH_THRESHOLD {
                                // The round cut: the rest wait for the
                                // flush's refined classes.
                                break;
                            }
                            let (a, b) = (*a, *b);
                            let status = if cached.is_some() {
                                PairStatus::Cached
                            } else {
                                let attempt = std::panic::catch_unwind(
                                    std::panic::AssertUnwindSafe(|| {
                                        #[cfg(feature = "fault-inject")]
                                        if let Some(plan) = fault_plan {
                                            // Every started pair left one
                                            // status behind.
                                            let fault_index = job.fault_base + results.len() as u64;
                                            match plan.action(fault_index) {
                                                FaultAction::Panic => {
                                                    panic!("injected fault: panic on job {fault_index}")
                                                }
                                                // A stall must not change
                                                // the result, only its
                                                // timing.
                                                FaultAction::Stall(d) => std::thread::sleep(d),
                                                FaultAction::SpuriousUnknown => {
                                                    state.proofs += 1;
                                                    state.timeouts += 1;
                                                    return PairOutcome::engine_only(
                                                        PairVerdict::Undecided,
                                                    );
                                                }
                                                FaultAction::None => {}
                                            }
                                        }
                                        if panic_on.is_some_and(|trigger| trigger(a, b)) {
                                            panic!("injected prover panic on pair ({a}, {b})");
                                        }
                                        state.prove_pair(&mut shared, &seeds, a, b, cfg, want_proof)
                                    }),
                                );
                                match attempt {
                                    Ok(out) => PairStatus::Done(out),
                                    Err(_) => {
                                        shared = None;
                                        PairStatus::Panicked
                                    }
                                }
                            };
                            let verdict = match &status {
                                PairStatus::Done(out) => Some(&out.verdict),
                                _ => cached.as_ref(),
                            };
                            match verdict {
                                Some(PairVerdict::Equivalent) => {
                                    // Serial proof order: later pairs of
                                    // the region reuse this equality.
                                    seeds.push((a, b));
                                    if let Some(prover) = shared.as_mut() {
                                        prover.assert_equal(a, b);
                                    }
                                }
                                Some(PairVerdict::Counterexample(_)) => cexs += 1,
                                _ => {}
                            }
                            results.push(status);
                            progress.tick();
                        }
                        results
                    },
                );
                // Round barrier: merge the workers' CPU spans (sum is
                // order-independent) and their diagnostic rows. The
                // authoritative, scheduling-invariant totals come from
                // the per-pair results in the merge loop below — a
                // panicked step respawns its worker's state, so the
                // rows may under-report.
                obs.recorder
                    .merge(outcome.workers.iter().map(|r| &r.state.local));
                for report in &mut outcome.workers {
                    *bdds[report.worker]
                        .lock()
                        .expect("a BDD slot is never held across a panic") =
                        report.state.bdd.take();
                    let agg = &mut summary.workers[report.worker];
                    agg.proofs += report.state.proofs;
                    agg.conflicts += report.state.conflicts;
                    agg.timeouts += report.state.timeouts;
                    agg.escalations += report.state.escalations;
                    agg.steals += report.stolen;
                    agg.panics += report.panics;
                }

                // Scatter the jobs' results back into pair order. A
                // job returns one status per pair it started; the rest
                // of its pairs were deferred by the round cut. A
                // job-level panic or deadline skip marks every pair it
                // carried.
                let mut slots: Vec<PairStatus> =
                    pairs.iter().map(|_| PairStatus::Deferred).collect();
                for ((_key, positions), status) in job_slots.iter().zip(outcome.results) {
                    #[cfg(feature = "fault-inject")]
                    faults.advance(
                        *_key,
                        match &status {
                            JobStatus::Done(results) => results.len(),
                            _ => positions.len(),
                        } as u64,
                    );
                    match status {
                        JobStatus::Done(results) => {
                            for (&pos, st) in positions.iter().zip(results) {
                                slots[pos] = st;
                            }
                        }
                        JobStatus::Panicked { .. } => {
                            for &pos in positions {
                                slots[pos] = PairStatus::Panicked;
                            }
                        }
                        JobStatus::Skipped => {
                            for &pos in positions {
                                slots[pos] = PairStatus::Skipped;
                            }
                        }
                    }
                }

                // Merge in pair order — the only order-sensitive step,
                // and it only depends on the (deterministic) results.
                // Panicked and skipped pairs are quarantined: counted,
                // reported unresolved, and never merged — the sound
                // direction to fail in.
                let mut escalations_this_round = 0;
                // Journal-bound verdict log for this round (collected
                // only when a journal is attached).
                let mut round_log: Option<Vec<PairRecord>> = journal.is_some().then(Vec::new);
                for (((rep, cand), cached), status) in pairs.into_iter().zip(resolutions).zip(slots)
                {
                    let verdict: JournalVerdict = match status {
                        PairStatus::Deferred => JournalVerdict::Deferred,
                        PairStatus::Cached => cached.expect("cached pairs carry a verdict").into(),
                        PairStatus::Skipped => {
                            summary.quarantined += 1;
                            obs.recorder.add(Counter::ProofsSkipped, 1);
                            JournalVerdict::Skipped
                        }
                        PairStatus::Panicked => {
                            summary.panics += 1;
                            summary.quarantined += 1;
                            obs.recorder.add(Counter::ProofsDispatched, 1);
                            obs.recorder.add(Counter::ProofsQuarantined, 1);
                            obs.trace.emit(
                                "proof_quarantined",
                                vec![
                                    ("rep", Json::U64(rep.index() as u64)),
                                    ("cand", Json::U64(cand.index() as u64)),
                                ],
                            );
                            JournalVerdict::Panicked
                        }
                        PairStatus::Done(out) => {
                            obs.recorder.add(Counter::ProofsDispatched, 1);
                            summary.proofs += 1;
                            summary.conflicts += out.conflicts;
                            summary.escalations += out.escalations;
                            escalations_this_round += out.escalations;
                            if out.timeout {
                                summary.timeouts += 1;
                            }
                            stats.sat_calls += out.sat_calls;
                            stats.sat_time += out.sat_time;
                            stats.solver += out.solver;
                            obs.recorder
                                .add(Counter::ScopesOpened, out.metrics.scopes_opened);
                            obs.recorder
                                .add(Counter::ClausesReused, out.metrics.clauses_reused);
                            obs.recorder
                                .add(Counter::WarmSolves, out.metrics.warm_solves);
                            match &out.verdict {
                                PairVerdict::Equivalent if cfg.certify => {
                                    obs.recorder.add(Counter::CertificatesChecked, 1);
                                }
                                PairVerdict::Counterexample(_) if cfg.certify => {
                                    obs.recorder.add(Counter::CexReplays, 1);
                                }
                                PairVerdict::CertificationFailed { replay: true } => {
                                    obs.recorder.add(Counter::CexReplays, 1);
                                    obs.recorder.add(Counter::CexReplayFailures, 1);
                                }
                                PairVerdict::CertificationFailed { replay: false } => {
                                    obs.recorder.add(Counter::CertificatesChecked, 1);
                                    obs.recorder.add(Counter::CertificatesFailed, 1);
                                }
                                _ => {}
                            }
                            // Publish fresh verdicts (undecided and
                            // quarantined pairs carry no fact worth
                            // keeping).
                            if let Some(sc) = sweep_cache.as_mut() {
                                match &out.verdict {
                                    PairVerdict::Equivalent => sc.store(
                                        net,
                                        rep,
                                        cand,
                                        &ProveOutcome::Equivalent,
                                        out.proof,
                                        obs,
                                    ),
                                    PairVerdict::Counterexample(v) => sc.store(
                                        net,
                                        rep,
                                        cand,
                                        &ProveOutcome::Counterexample(v.clone()),
                                        None,
                                        obs,
                                    ),
                                    _ => {}
                                }
                            }
                            out.verdict.into()
                        }
                    };
                    let trace_name = match &verdict {
                        JournalVerdict::Deferred => None,
                        JournalVerdict::Equivalent => {
                            stats.proved_equivalent += 1;
                            obs.recorder.add(Counter::ProofsEquivalent, 1);
                            Some("equivalent")
                        }
                        JournalVerdict::Counterexample(_) => {
                            stats.disproved += 1;
                            obs.recorder.add(Counter::ProofsDisproved, 1);
                            Some("disproved")
                        }
                        JournalVerdict::Undecided
                        | JournalVerdict::Panicked
                        | JournalVerdict::Skipped => {
                            stats.aborted += 1;
                            obs.recorder.add(Counter::ProofsUndecided, 1);
                            Some("undecided")
                        }
                        JournalVerdict::CertificationFailed { .. } => {
                            // An answer its own evidence does not
                            // support: quarantine the pair, never
                            // merge or split on it.
                            stats.certification_failures += 1;
                            stats.aborted += 1;
                            summary.quarantined += 1;
                            obs.recorder.add(Counter::ProofsQuarantined, 1);
                            obs.trace.emit(
                                "certification_failed",
                                vec![
                                    ("rep", Json::U64(rep.index() as u64)),
                                    ("cand", Json::U64(cand.index() as u64)),
                                ],
                            );
                            Some("certification_failed")
                        }
                    };
                    if let Some(name) = trace_name.filter(|_| obs.trace.is_enabled()) {
                        obs.trace.emit(
                            "proof",
                            vec![
                                ("rep", Json::U64(rep.index() as u64)),
                                ("cand", Json::U64(cand.index() as u64)),
                                ("verdict", Json::Str(name.to_string())),
                            ],
                        );
                    }
                    merge.apply(rep, cand, &verdict, generator);
                    if let Some(log) = round_log.as_mut() {
                        log.push(PairRecord {
                            rep: rep.index(),
                            cand: cand.index(),
                            verdict,
                        });
                    }
                }
                obs.recorder
                    .add(Counter::ProofsEscalated, escalations_this_round);
                work = merge.close_round(net, work, &mut patterns, &mut sim, &mut stats, jobs, obs);
                // Round barrier durability point: everything merged
                // above survives a crash from here on.
                if let Some(j) = journal.as_deref_mut() {
                    j.commit_round(&RoundRecord {
                        round: summary.rounds,
                        pairs: round_log.take().unwrap_or_default(),
                        class_sig: class_signature(&work),
                        counters: counter_snapshot(obs),
                        stats: StatsSnapshot::capture(&stats, &summary),
                    });
                }
            }
            if let Some(start) = sat_start {
                // Wall time only: resimulation wall is booked to CexResim
                // by the flush itself, and SAT CPU time arrives through the
                // merged per-worker busy spans.
                obs.recorder.add_wall(
                    Phase::SatResolution,
                    start
                        .elapsed()
                        .saturating_sub(stats.resim_time - resim_before),
                );
            }
            stats.dispatch = Some(summary);
        }
        stats.exec = sim.exec_stats();
        stats.pool = sim.pool_stats();
        record_exec_counters(obs, &stats.exec);

        SweepReport {
            stats,
            cost_after_sim,
            proven_classes: merge.merged,
            unresolved: merge.unresolved,
            quarantined: merge.quarantined,
            interrupted: merge.interrupted || deadline.expired(),
            mem_exhausted,
            patterns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgen_core::{SimGen, SimGenConfig};
    use simgen_netlist::TruthTable;

    /// A network with several provably-equivalent node groups and a
    /// couple of near-miss lookalikes.
    pub(super) fn workload_net(seed: u64) -> LutNetwork {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..6).map(|i| net.add_pi(format!("p{i}"))).collect();
        let mut pool = pis.clone();
        for _ in 0..30 {
            let a = pool[rng.gen_range(0..pool.len())];
            let b = pool[rng.gen_range(0..pool.len())];
            let tt = match rng.gen_range(0..4usize) {
                0 => TruthTable::and2(),
                1 => TruthTable::or2(),
                2 => TruthTable::xor2(),
                _ => TruthTable::nor2(),
            };
            if let Ok(n) = net.add_lut(vec![a, b], tt) {
                pool.push(n);
            }
        }
        // Duplicate a few gates with commuted fanins (and the truth
        // table permuted to match) to guarantee provable equivalences.
        let dup_targets: Vec<NodeId> = pool[pis.len()..].iter().copied().take(6).collect();
        for n in dup_targets {
            let f = net.fanins(n).to_vec();
            let tt = net.truth_table(n).unwrap().permute_inputs(&[1, 0]);
            if let Ok(d) = net.add_lut(vec![f[1], f[0]], tt) {
                pool.push(d);
            }
        }
        let out = *pool.last().unwrap();
        net.add_po(out, "f");
        for (i, &n) in pool.iter().rev().take(4).enumerate() {
            net.add_po(n, format!("o{i}"));
        }
        net
    }

    /// A network whose sweep disproves far more than
    /// [`CEX_FLUSH_THRESHOLD`] pairs in one fanin region: hundreds of
    /// random gates over shared inputs, simulated with a single
    /// pattern so nearly every gate lands in one of two classes.
    fn lookalike_net() -> LutNetwork {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..8).map(|i| net.add_pi(format!("p{i}"))).collect();
        let mut pool = pis.clone();
        for _ in 0..300 {
            let a = pool[rng.gen_range(0..pool.len())];
            let b = pool[rng.gen_range(0..pool.len())];
            let tt = match rng.gen_range(0..3usize) {
                0 => TruthTable::and2(),
                1 => TruthTable::or2(),
                _ => TruthTable::xor2(),
            };
            if let Ok(n) = net.add_lut(vec![a, b], tt) {
                pool.push(n);
            }
        }
        for (i, &n) in pool.iter().rev().take(8).enumerate() {
            net.add_po(n, format!("o{i}"));
        }
        net
    }

    #[test]
    fn round_cut_defers_a_regions_pairs_after_its_flush_threshold() {
        let net = lookalike_net();
        let dir = std::env::temp_dir().join(format!("simgen_round_cut_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = |jobs: usize, incremental: bool| SweepConfig {
            random_batch: 1,
            guided_iterations: 0,
            jobs,
            engine: simgen_dispatch::EnginePolicy {
                incremental,
                ..simgen_dispatch::EnginePolicy::default()
            },
            ..SweepConfig::default()
        };
        // Returns the stripped RunReport with the raw report.
        let run = |jobs: usize, incremental: bool, journal: Option<&mut SweepJournal>| {
            let cfg = cfg(jobs, incremental);
            let mut g = simgen_core::RandomPatterns::new(1, 0);
            let mut obs = Observer::enabled();
            let report = ParallelSweeper::new(cfg).run_checkpointed(
                &net,
                &mut g,
                &Deadline::never(),
                &mut obs,
                None,
                journal,
            );
            let meta = crate::report::RunMeta {
                command: "sweep".to_string(),
                argv: vec!["sweep".to_string(), "lookalike.blif".to_string()],
                design: crate::report::design_info(&net, "lookalike", "lookalike.blif"),
            };
            let json = crate::report::sweep_run_report(meta, &cfg, &report, &obs);
            (json.deterministic_json(), report)
        };
        let (reference, r1) = run(1, true, None);
        let mut journal = SweepJournal::create(&dir, false).unwrap();
        let (journaled, _) = run(1, true, Some(&mut journal));
        drop(journal);
        assert_eq!(journaled, reference);
        let mut journal = SweepJournal::create(&dir, true).unwrap();
        journal.begin(&sweep_fingerprint(&net, &cfg(1, true)));
        let first = journal.rounds()[0].clone();
        let verdicts = |pred: fn(&JournalVerdict) -> bool| {
            first.pairs.iter().filter(|p| pred(&p.verdict)).count()
        };
        assert_eq!(
            verdicts(|v| matches!(v, JournalVerdict::Counterexample(_))),
            CEX_FLUSH_THRESHOLD,
            "the region's round ends at its threshold-th counterexample"
        );
        assert!(verdicts(|v| *v == JournalVerdict::Deferred) > 0);
        // The pair after the cut is deferred, and nothing after it ran.
        let cut = first
            .pairs
            .iter()
            .position(|p| p.verdict == JournalVerdict::Deferred)
            .unwrap();
        assert!(first.pairs[cut..]
            .iter()
            .all(|p| p.verdict == JournalVerdict::Deferred));
        let d1 = r1.stats.dispatch.clone().unwrap();
        assert!(d1.rounds >= 2);
        assert!(r1.unresolved.is_empty());
        // Resuming after the cut round replays its deferrals and ends
        // byte-identical, at another worker count too.
        drop(journal);
        let lines = journal_lines(&dir);
        std::fs::write(
            dir.join(crate::journal::JOURNAL_FILE),
            format!("{}\n{}\n", lines[0], lines[1]),
        )
        .unwrap();
        let mut journal = SweepJournal::create(&dir, true).unwrap();
        let (resumed, _) = run(4, true, Some(&mut journal));
        assert_eq!(resumed, reference, "resume across a cut round");
        // The cut is a function of pair order and verdicts only.
        for (jobs, incremental) in [(2, true), (4, true), (1, false), (4, false)] {
            let (form, r) = run(jobs, incremental, None);
            if incremental {
                assert_eq!(form, reference, "jobs {jobs}");
            }
            assert_eq!(r.proven_classes, r1.proven_classes, "jobs {jobs}");
            assert_eq!(r.stats.disproved, r1.stats.disproved, "jobs {jobs}");
            assert_eq!(r.stats.sat_calls, r1.stats.sat_calls, "jobs {jobs}");
            assert_eq!(
                r.stats.dispatch.unwrap().rounds,
                d1.rounds,
                "jobs {jobs} incremental {incremental}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_count_does_not_change_the_report() {
        let net = workload_net(7);
        let run = |jobs: usize| {
            let cfg = SweepConfig {
                jobs,
                budget_schedule: Some(BudgetSchedule::default()),
                seed: 7,
                ..SweepConfig::default()
            };
            let mut g = SimGen::new(SimGenConfig::default().with_seed(7));
            ParallelSweeper::new(cfg).run(&net, &mut g)
        };
        let r1 = run(1);
        for jobs in [2usize, 4] {
            let rj = run(jobs);
            // Byte-identical proof results and deterministic stats.
            assert_eq!(rj.proven_classes, r1.proven_classes, "jobs {jobs}");
            assert_eq!(rj.unresolved, r1.unresolved);
            assert_eq!(rj.patterns.num_patterns(), r1.patterns.num_patterns());
            assert_eq!(rj.stats.proved_equivalent, r1.stats.proved_equivalent);
            assert_eq!(rj.stats.disproved, r1.stats.disproved);
            assert_eq!(rj.stats.aborted, r1.stats.aborted);
            assert_eq!(rj.stats.sat_calls, r1.stats.sat_calls);
            let d1 = r1.stats.dispatch.as_ref().unwrap();
            let dj = rj.stats.dispatch.as_ref().unwrap();
            assert_eq!(dj.rounds, d1.rounds);
            assert_eq!(dj.total_proofs(), d1.total_proofs());
            assert_eq!(dj.total_timeouts(), d1.total_timeouts());
        }
    }

    #[test]
    fn escalation_ladder_resolves_with_tiny_initial_budget() {
        // initial=1 forces escalations on any pair needing search; the
        // multiplied retries must still resolve everything.
        let net = workload_net(11);
        let cfg = SweepConfig {
            jobs: 2,
            budget_schedule: Some(BudgetSchedule {
                initial: 1,
                multiplier: 1_000,
                attempts: 3,
                bdd_node_limit: 0,
            }),
            seed: 11,
            ..SweepConfig::default()
        };
        let mut g = SimGen::new(SimGenConfig::default().with_seed(11));
        let r = ParallelSweeper::new(cfg).run(&net, &mut g);
        let d = r.stats.dispatch.as_ref().unwrap();
        assert!(r.stats.proved_equivalent > 0, "duplicated gates must merge");
        assert_eq!(
            d.total_proofs(),
            r.stats.proved_equivalent + r.stats.disproved + r.stats.aborted
        );
    }

    #[test]
    fn bdd_fallback_rescues_exhausted_ladder() {
        // Zero-attempt... smallest ladder (1 attempt, budget 1) on a
        // pair of reassociated xor trees: SAT at budget 1 cannot prove
        // it, the BDD fallback can.
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..8).map(|i| net.add_pi(format!("p{i}"))).collect();
        let mut l = pis[0];
        for &p in &pis[1..] {
            l = net.add_lut(vec![l, p], TruthTable::xor2()).unwrap();
        }
        let mut r = pis[7];
        for &p in pis[..7].iter().rev() {
            r = net.add_lut(vec![r, p], TruthTable::xor2()).unwrap();
        }
        net.add_po(l, "l");
        net.add_po(r, "r");
        let run = |bdd_node_limit: usize| {
            let cfg = SweepConfig {
                jobs: 2,
                random_batch: 64,
                guided_iterations: 2,
                budget_schedule: Some(BudgetSchedule {
                    initial: 1,
                    multiplier: 1,
                    attempts: 1,
                    bdd_node_limit,
                }),
                ..SweepConfig::default()
            };
            let mut g = SimGen::new(SimGenConfig::default());
            ParallelSweeper::new(cfg).run(&net, &mut g)
        };
        let without = run(0);
        // The xor pair survives simulation (equivalent functions) and
        // must end up unresolved without a fallback...
        assert!(without
            .unresolved
            .iter()
            .any(|&(a, b)| (a, b) == (l, r) || (a, b) == (r, l)));
        // ...and proven with one.
        let with = run(1_000_000);
        assert!(with
            .proven_classes
            .iter()
            .any(|c| c.contains(&l) && c.contains(&r)));
        assert!(with.stats.dispatch.as_ref().unwrap().total_escalations() == 0);
    }

    #[test]
    fn panicking_prover_is_quarantined_not_fatal() {
        // Every single pair proof panics; the sweep must still run to
        // completion with everything quarantined and nothing merged.
        let net = workload_net(13);
        for jobs in [1usize, 4] {
            let cfg = SweepConfig {
                jobs,
                seed: 13,
                ..SweepConfig::default()
            };
            let mut g = SimGen::new(SimGenConfig::default().with_seed(13));
            let r = ParallelSweeper::new(cfg)
                .with_panic_injection(|_, _| true)
                .run(&net, &mut g);
            assert!(r.proven_classes.is_empty(), "jobs={jobs}");
            assert!(!r.quarantined.is_empty(), "jobs={jobs}");
            assert!(!r.interrupted, "no deadline involved, jobs={jobs}");
            let d = r.stats.dispatch.as_ref().unwrap();
            assert_eq!(d.quarantined, r.quarantined.len() as u64);
            assert_eq!(d.total_panics(), d.quarantined);
            // Soundness: every quarantined pair is reported unresolved.
            for p in &r.quarantined {
                assert!(r.unresolved.contains(p), "jobs={jobs}");
            }
            assert_eq!(r.stats.aborted as usize, r.unresolved.len());
        }
    }

    #[test]
    fn partial_panic_injection_spares_other_pairs() {
        // Panic on pairs with an even candidate id: those quarantine,
        // the rest must still resolve normally.
        let net = workload_net(3);
        let cfg = SweepConfig {
            jobs: 2,
            seed: 3,
            ..SweepConfig::default()
        };
        let mut g = SimGen::new(SimGenConfig::default().with_seed(3));
        let baseline = ParallelSweeper::new(cfg).run(&net, &mut g);
        assert!(baseline.stats.proved_equivalent > 0, "workload sanity");

        let mut g = SimGen::new(SimGenConfig::default().with_seed(3));
        let r = ParallelSweeper::new(cfg)
            .with_panic_injection(|_, cand| cand.index() % 2 == 0)
            .run(&net, &mut g);
        let d = r.stats.dispatch.as_ref().unwrap();
        assert!(d.quarantined > 0, "some pair must have been injected");
        assert_eq!(d.total_panics(), d.quarantined);
        for p in &r.quarantined {
            assert!(r.unresolved.contains(p));
            // The injection never reached a prover, so no quarantined
            // pair may appear merged.
            assert!(r
                .proven_classes
                .iter()
                .all(|c| !(c.contains(&p.0) && c.contains(&p.1))));
        }
    }

    #[test]
    fn expired_deadline_degrades_deterministically() {
        // With the deadline already gone, every jobs value must
        // produce the identical sound partial report: nothing proven,
        // all surviving pairs unresolved in the same order.
        let net = workload_net(17);
        let run = |jobs: usize| {
            let cfg = SweepConfig {
                jobs,
                seed: 17,
                ..SweepConfig::default()
            };
            let mut g = SimGen::new(SimGenConfig::default().with_seed(17));
            ParallelSweeper::new(cfg).run_under(&net, &mut g, &Deadline::after(Duration::ZERO))
        };
        let r1 = run(1);
        assert!(r1.interrupted);
        assert!(r1.proven_classes.is_empty());
        assert!(!r1.unresolved.is_empty(), "pairs survive simulation");
        assert_eq!(r1.stats.sat_calls, 0, "no proof may start");
        for jobs in [2usize, 4] {
            let rj = run(jobs);
            assert!(rj.interrupted, "jobs={jobs}");
            assert_eq!(rj.proven_classes, r1.proven_classes, "jobs={jobs}");
            assert_eq!(rj.unresolved, r1.unresolved, "jobs={jobs}");
            assert_eq!(rj.stats.aborted, r1.stats.aborted, "jobs={jobs}");
            assert_eq!(
                rj.stats.history.len(),
                r1.stats.history.len(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn certified_parallel_sweep_is_jobs_invariant() {
        // Certification must not disturb the determinism contract:
        // identical classes and deterministic stats for any jobs
        // value, zero failures on a healthy engine, and the same
        // merges an uncertified run produces.
        let net = workload_net(9);
        let run = |jobs: usize, certify: bool| {
            let cfg = SweepConfig {
                jobs,
                certify,
                seed: 9,
                ..SweepConfig::default()
            };
            let mut g = SimGen::new(SimGenConfig::default().with_seed(9));
            ParallelSweeper::new(cfg).run(&net, &mut g)
        };
        let plain = run(1, false);
        let r1 = run(1, true);
        assert_eq!(r1.proven_classes, plain.proven_classes);
        assert_eq!(r1.stats.certification_failures, 0);
        assert!(r1.quarantined.is_empty());
        assert!(r1.stats.solver.proof_clauses > 0);
        for jobs in [2usize, 4] {
            let rj = run(jobs, true);
            assert_eq!(rj.proven_classes, r1.proven_classes, "jobs {jobs}");
            assert_eq!(rj.unresolved, r1.unresolved);
            assert_eq!(rj.stats.solver, r1.stats.solver);
            assert_eq!(
                rj.stats.dispatch.as_ref().unwrap().proofs,
                r1.stats.dispatch.as_ref().unwrap().proofs
            );
        }
    }

    #[test]
    fn dispatch_totals_survive_worker_respawns() {
        // Panics respawn worker state; the merge-side totals must
        // still account for every completed job, for any jobs value.
        let net = workload_net(19);
        let run = |jobs: usize| {
            let cfg = SweepConfig {
                jobs,
                seed: 19,
                ..SweepConfig::default()
            };
            let mut g = SimGen::new(SimGenConfig::default().with_seed(19));
            ParallelSweeper::new(cfg)
                .with_panic_injection(|_, cand| cand.index() % 3 == 0)
                .run(&net, &mut g)
        };
        let r1 = run(1);
        let d1 = r1.stats.dispatch.clone().unwrap();
        assert!(d1.panics > 0, "injection sanity");
        // Completed proofs + panicked jobs account for every verdict.
        assert_eq!(
            d1.proofs + d1.panics,
            r1.stats.proved_equivalent + r1.stats.disproved + r1.stats.aborted
        );
        for jobs in [2usize, 4] {
            let rj = run(jobs);
            let dj = rj.stats.dispatch.clone().unwrap();
            assert_eq!(dj.proofs, d1.proofs, "jobs {jobs}");
            assert_eq!(dj.panics, d1.panics, "jobs {jobs}");
            assert_eq!(dj.conflicts, d1.conflicts, "jobs {jobs}");
            assert_eq!(dj.timeouts, d1.timeouts, "jobs {jobs}");
            assert_eq!(rj.stats.sat_calls, r1.stats.sat_calls, "jobs {jobs}");
            assert_eq!(rj.stats.solver, r1.stats.solver, "jobs {jobs}");
        }
    }

    #[test]
    fn worker_stats_cover_all_proofs() {
        let net = workload_net(5);
        let cfg = SweepConfig {
            jobs: 4,
            seed: 5,
            ..SweepConfig::default()
        };
        let mut g = SimGen::new(SimGenConfig::default().with_seed(5));
        let r = ParallelSweeper::new(cfg).run(&net, &mut g);
        let d = r.stats.dispatch.as_ref().unwrap();
        assert_eq!(d.jobs, 4);
        assert!(d.rounds >= 1);
        assert_eq!(
            d.total_proofs(),
            r.stats.proved_equivalent + r.stats.disproved + r.stats.aborted
        );
    }

    /// A net whose sweep deterministically needs *two* dispatch
    /// rounds: `z1`/`z2` differ from `x1`/`x2` only on the all-ones
    /// minterm of twelve PIs, which 64 random patterns essentially
    /// never sample, so the four lookalikes land in one class. Round
    /// one proves `(rep, x1)` and `(rep, x2)` and disproves `(rep,
    /// z1)` and `(rep, z2)`; the counterexample flush regroups the
    /// split-off pair into `{z1, z2}`, which round two proves.
    ///
    /// Node indices are deterministic: PIs `0..=11`, AND-tree nodes
    /// `12..=22`, then `x1 = 23`, `x2 = 24`, `z1 = 25`, `z2 = 26` —
    /// so a capture-free panic trigger can select round-one pairs by
    /// `rep.index() < 23`.
    pub(super) fn multiround_net() -> LutNetwork {
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..12).map(|i| net.add_pi(format!("p{i}"))).collect();
        let mut layer = pis.clone();
        while layer.len() > 1 {
            let mut next = Vec::new();
            for ch in layer.chunks(2) {
                match ch {
                    [a, b] => next.push(net.add_lut(vec![*a, *b], TruthTable::and2()).unwrap()),
                    [a] => next.push(*a),
                    _ => unreachable!(),
                }
            }
            layer = next;
        }
        let all = layer[0];
        let x1 = net
            .add_lut(vec![pis[0], pis[1]], TruthTable::and2())
            .unwrap();
        let x2 = net
            .add_lut(vec![pis[1], pis[0]], TruthTable::and2())
            .unwrap();
        let z1 = net.add_lut(vec![x1, all], TruthTable::xor2()).unwrap();
        let z2 = net.add_lut(vec![all, x2], TruthTable::xor2()).unwrap();
        assert_eq!(z2.index(), 26, "multiround_net layout drifted");
        net.add_po(z1, "z1");
        net.add_po(z2, "z2");
        net.add_po(all, "all");
        net
    }

    fn multiround_cfg(seed: u64, jobs: usize) -> SweepConfig {
        SweepConfig {
            seed,
            guided_iterations: 0,
            jobs,
            ..SweepConfig::default()
        }
    }

    /// Runs the multi-round workload with (or without) a journal and
    /// returns the stripped RunReport plus the raw sweep report.
    fn multiround_run(
        seed: u64,
        jobs: usize,
        journal: Option<&mut SweepJournal>,
        trigger: Option<fn(NodeId, NodeId) -> bool>,
    ) -> (String, SweepReport) {
        let net = multiround_net();
        let cfg = multiround_cfg(seed, jobs);
        let mut obs = simgen_obs::Observer::enabled();
        let mut g = simgen_core::RandomPatterns::new(seed, 64);
        let mut sweeper = ParallelSweeper::new(cfg);
        if let Some(t) = trigger {
            sweeper = sweeper.with_panic_injection(t);
        }
        let report =
            sweeper.run_checkpointed(&net, &mut g, &Deadline::never(), &mut obs, None, journal);
        let run_report = crate::report::sweep_run_report(
            crate::report::RunMeta {
                command: "sweep".to_string(),
                argv: vec!["sweep".to_string(), "multiround.blif".to_string()],
                design: crate::report::design_info(&net, "multiround", "multiround.blif"),
            },
            &cfg,
            &report,
            &obs,
        );
        (run_report.deterministic_json(), report)
    }

    fn journal_lines(dir: &std::path::Path) -> Vec<String> {
        std::fs::read_to_string(dir.join(crate::journal::JOURNAL_FILE))
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn journaled_run_report_matches_plain_run() {
        let dir = std::env::temp_dir().join(format!("simgen_resume_eq_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for jobs in [1usize, 4] {
            let (plain, report) = multiround_run(0, jobs, None, None);
            assert_eq!(
                report.stats.dispatch.as_ref().unwrap().rounds,
                2,
                "workload must exercise two rounds"
            );
            let mut j = SweepJournal::create(&dir, false).unwrap();
            let (journaled, _) = multiround_run(0, jobs, Some(&mut j), None);
            assert_eq!(journaled, plain, "jobs {jobs}");
            // Journal holds the meta line plus one line per round.
            assert_eq!(journal_lines(&dir).len(), 3);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_replays_journaled_rounds_without_reproving() {
        let dir = std::env::temp_dir().join(format!("simgen_resume_tr_{}", std::process::id()));
        for jobs in [1usize, 4] {
            let _ = std::fs::remove_dir_all(&dir);
            let (reference, _) = multiround_run(0, jobs, None, None);
            let mut j = SweepJournal::create(&dir, false).unwrap();
            let _ = multiround_run(0, jobs, Some(&mut j), None);
            drop(j);
            // Keep only the meta line and round one — the state a
            // SIGKILL between the two round barriers leaves behind.
            let lines = journal_lines(&dir);
            std::fs::write(
                dir.join(crate::journal::JOURNAL_FILE),
                format!("{}\n{}\n", lines[0], lines[1]),
            )
            .unwrap();
            // The panic trigger fires on every round-one pair (their
            // reps are AND-tree nodes, index < 23): if resume
            // re-dispatched any of them the prover would panic, the
            // pair would be quarantined, and the report would differ.
            let mut j = SweepJournal::create(&dir, true).unwrap();
            let (resumed, report) =
                multiround_run(0, jobs, Some(&mut j), Some(|rep, _| rep.index() < 23));
            assert!(report.quarantined.is_empty(), "round one was re-proven");
            assert_eq!(resumed, reference, "jobs {jobs}");
            // The live second round re-committed: journal is whole
            // again.
            assert_eq!(journal_lines(&dir).len(), 3);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_complete_journal_dispatches_nothing() {
        let dir = std::env::temp_dir().join(format!("simgen_resume_full_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (reference, _) = multiround_run(0, 1, None, None);
        let mut j = SweepJournal::create(&dir, false).unwrap();
        let _ = multiround_run(0, 1, Some(&mut j), None);
        drop(j);
        // Every pair re-dispatched would panic — a fully journaled
        // run must replay end to end without a single proof job.
        let mut j = SweepJournal::create(&dir, true).unwrap();
        let (resumed, report) = multiround_run(0, 1, Some(&mut j), Some(|_, _| true));
        assert!(report.quarantined.is_empty());
        assert_eq!(resumed, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_crosses_job_counts() {
        // The fingerprint deliberately excludes `jobs`: a journal
        // written by a serial run resumes under four workers (and
        // vice versa) with a byte-identical report.
        let dir = std::env::temp_dir().join(format!("simgen_resume_xj_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (reference, _) = multiround_run(0, 4, None, None);
        let mut j = SweepJournal::create(&dir, false).unwrap();
        let _ = multiround_run(0, 1, Some(&mut j), None);
        drop(j);
        let lines = journal_lines(&dir);
        std::fs::write(
            dir.join(crate::journal::JOURNAL_FILE),
            format!("{}\n{}\n", lines[0], lines[1]),
        )
        .unwrap();
        let mut j = SweepJournal::create(&dir, true).unwrap();
        let (resumed, _) = multiround_run(0, 4, Some(&mut j), None);
        assert_eq!(resumed, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_journal_from_other_config_is_ignored() {
        let dir = std::env::temp_dir().join(format!("simgen_resume_st_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut j = SweepJournal::create(&dir, false).unwrap();
        let _ = multiround_run(0, 1, Some(&mut j), None);
        drop(j);
        // Different seed → different fingerprint: resume must discard
        // the journal and prove everything live, matching a fresh
        // seed-3 run exactly.
        let (reference, _) = multiround_run(3, 1, None, None);
        let mut j = SweepJournal::create(&dir, true).unwrap();
        let (resumed, report) = multiround_run(3, 1, Some(&mut j), None);
        assert!(report.stats.sat_calls > 0);
        assert_eq!(resumed, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
