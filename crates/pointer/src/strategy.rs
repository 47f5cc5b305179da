//! The pointer-solver selector.
//!
//! The production solver is the unification-prefiltered bitmap worklist
//! ([`PointerStrategy::Prefilter`]); the frozen `BTreeSet` solver in
//! [`crate::reference`] is kept beside it as the equivalence oracle and
//! benchmark baseline. Both produce byte-identical
//! [`PointerAnalysis`] observables (enforced by
//! `tests/representation_equiv.rs`); their [`SolverStats`](crate::SolverStats)
//! counters differ, which is why the driver keys cached pointer
//! artifacts on the strategy name.

use usher_ir::{Budget, Exhausted, Module};

use crate::andersen::{analyze_budgeted, PointerAnalysis};
use crate::reference::analyze_reference_budgeted;

/// Selects which solver implementation runs the pointer stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PointerStrategy {
    /// The frozen pre-overhaul `BTreeSet` solver (`reference.rs`) —
    /// the equivalence oracle and benchmark baseline.
    Reference,
    /// Unification prefilter (offline variable substitution) followed
    /// by the Andersen worklist on the collapsed graph.
    #[default]
    Prefilter,
}

impl PointerStrategy {
    /// Every strategy, in benchmark order (baseline first).
    pub const ALL: [PointerStrategy; 2] = [PointerStrategy::Reference, PointerStrategy::Prefilter];

    /// The stable name used by cache keys, telemetry and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            PointerStrategy::Reference => "reference",
            PointerStrategy::Prefilter => "prefilter",
        }
    }

    /// Runs this strategy's solver under a cooperative step budget. On
    /// [`Exhausted`] the partial result is discarded — a partial
    /// points-to solution under-approximates and must never feed the
    /// guided planner — and the driver degrades to full instrumentation.
    ///
    /// # Errors
    ///
    /// Returns [`Exhausted`] when the budget runs out before the
    /// fixpoint.
    pub fn analyze_budgeted(
        self,
        m: &Module,
        budget: &Budget,
    ) -> Result<PointerAnalysis, Exhausted> {
        match self {
            PointerStrategy::Reference => analyze_reference_budgeted(m, budget),
            PointerStrategy::Prefilter => analyze_budgeted(m, budget),
        }
    }
}

impl std::fmt::Display for PointerStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
