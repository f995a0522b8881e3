//! Per-pair engine selection: which proof engines a pair visits, in
//! what order, and whether the SAT rungs run against a shared
//! incremental region solver or a cold per-pair one. This is the one
//! place an engine is chosen.
//!
//! The [`BudgetSchedule`](crate::BudgetSchedule) ladder prices *how
//! much* effort each rung gets; [`EnginePolicy`] decides *which*
//! engines form the ladder. Candidate pairs reach the prover already
//! filtered by simulation evidence (they survived every random and
//! guided pattern), so the policy's job is ordering the two complete
//! engines — BDD within a node limit, then incremental SAT — and
//! choosing the SAT solver's reuse mode.

/// Engine ordering for one pair proof.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// SAT ladder first; BDD only as the fallback after the ladder is
    /// exhausted (and only when the schedule's `bdd_node_limit` allows
    /// it). This is the classical sweeping order and the default.
    #[default]
    Auto,
    /// Try the BDD engine before spending any SAT conflicts, falling
    /// back to the SAT ladder when the node limit trips. Wins on
    /// control-dominated cones where BDDs stay small; loses badly on
    /// arithmetic.
    BddFirst,
    /// Never consult the BDD engine, even as a fallback.
    SatOnly,
    /// Resolve every pair with monolithic BDDs alone (the "BDD" half of
    /// the paper's Figure 2 "BDD or SAT" box); a pair whose BDDs blow
    /// past `node_limit` stays unresolved. Certification overrides
    /// this with the SAT ladder, since BDD answers carry no DRAT
    /// certificate. Not reachable from `--engine-policy`.
    BddOnly {
        /// Maximum live BDD nodes before giving up.
        node_limit: usize,
    },
}

impl EngineMode {
    /// Parses the `--engine-policy` CLI value. [`EngineMode::BddOnly`]
    /// needs a node limit and has no spelling here.
    pub fn parse(text: &str) -> Option<EngineMode> {
        match text {
            "default" | "auto" => Some(EngineMode::Auto),
            "bdd-first" => Some(EngineMode::BddFirst),
            "sat-only" => Some(EngineMode::SatOnly),
            _ => None,
        }
    }

    /// The canonical CLI/report spelling.
    pub fn name(&self) -> &'static str {
        match self {
            EngineMode::Auto => "default",
            EngineMode::BddFirst => "bdd-first",
            EngineMode::SatOnly => "sat-only",
            EngineMode::BddOnly { .. } => "bdd-only",
        }
    }
}

/// The full per-pair engine-selection policy a sweep runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnginePolicy {
    /// Route each fanin region's pairs through one long-lived
    /// assumption-scoped SAT solver (shared cone encoding, learnt
    /// clauses retained across the region's miters). `false` falls
    /// back to a cold solver per pair — the `--no-incremental` escape
    /// hatch, and the baseline the parity tests compare against.
    pub incremental: bool,
    /// Engine ordering for each pair.
    pub mode: EngineMode,
}

impl Default for EnginePolicy {
    /// Incremental region solvers with the classical SAT-then-BDD
    /// order.
    fn default() -> Self {
        EnginePolicy {
            incremental: true,
            mode: EngineMode::Auto,
        }
    }
}

impl EnginePolicy {
    /// The node limit of a BDD-only run, or `None` when SAT takes part
    /// (always under certification — BDD answers carry no DRAT
    /// certificate).
    pub fn bdd_only(&self, certify: bool) -> Option<usize> {
        match self.mode {
            EngineMode::BddOnly { node_limit } if !certify => Some(node_limit),
            _ => None,
        }
    }

    /// True when the BDD engine should run *before* the SAT ladder
    /// for a pair (never under certification — BDD answers carry no
    /// DRAT certificate).
    pub fn bdd_primary(&self, certify: bool) -> bool {
        self.mode == EngineMode::BddFirst && !certify
    }

    /// True when the BDD engine may run as the post-ladder fallback.
    pub fn bdd_fallback(&self, node_limit: usize, certify: bool) -> bool {
        self.mode != EngineMode::SatOnly && node_limit > 0 && !certify
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cli_spellings() {
        assert_eq!(EngineMode::parse("default"), Some(EngineMode::Auto));
        assert_eq!(EngineMode::parse("auto"), Some(EngineMode::Auto));
        assert_eq!(EngineMode::parse("bdd-first"), Some(EngineMode::BddFirst));
        assert_eq!(EngineMode::parse("sat-only"), Some(EngineMode::SatOnly));
        assert_eq!(EngineMode::parse("fastest"), None);
        assert_eq!(EngineMode::parse("bdd-only"), None, "needs a node limit");
        assert_eq!(EngineMode::BddOnly { node_limit: 1 }.name(), "bdd-only");
        for mode in [EngineMode::Auto, EngineMode::BddFirst, EngineMode::SatOnly] {
            assert_eq!(EngineMode::parse(mode.name()), Some(mode), "round trip");
        }
    }

    #[test]
    fn default_policy_matches_classical_sweeping() {
        let p = EnginePolicy::default();
        assert!(p.incremental);
        assert_eq!(p.mode, EngineMode::Auto);
        assert!(!p.bdd_primary(false));
        assert!(p.bdd_fallback(1_000, false), "fallback behind a node limit");
        assert!(!p.bdd_fallback(0, false), "no node limit, no fallback");
    }

    #[test]
    fn certification_always_suppresses_bdds() {
        let p = EnginePolicy {
            mode: EngineMode::BddFirst,
            ..EnginePolicy::default()
        };
        assert!(p.bdd_primary(false));
        assert!(!p.bdd_primary(true), "BDD verdicts cannot be certified");
        assert!(!p.bdd_fallback(1_000, true));
        let only = EnginePolicy {
            mode: EngineMode::BddOnly { node_limit: 64 },
            ..EnginePolicy::default()
        };
        assert_eq!(only.bdd_only(false), Some(64));
        assert_eq!(only.bdd_only(true), None, "certify falls back to SAT");
        assert_eq!(EnginePolicy::default().bdd_only(false), None);
    }

    #[test]
    fn sat_only_never_consults_bdds() {
        let p = EnginePolicy {
            incremental: false,
            mode: EngineMode::SatOnly,
        };
        assert!(!p.bdd_primary(false));
        assert!(!p.bdd_fallback(usize::MAX, false));
    }
}
