//! Discharging reduced verification conditions with the SAT/SMT substrate.
//!
//! The paper's quantified SMT query `∀e ∃s …` (Eqn. 14) is decided here by a
//! single *refutation* query — see `DESIGN.md` §1 for the soundness argument:
//! syndromes are determined by errors, and the minimum-weight decoder
//! predicate `P_f` is always satisfiable (`c := e` is a witness), so the VC
//! is valid iff
//!
//! ```text
//!   P_c(e) ∧ guards(s,c,e) ∧ P_f(c,s,e) ∧ (⋁_j target_j ≠ 0)
//! ```
//!
//! is unsatisfiable.

use veriqec_cexpr::{BExp, CMem};
use veriqec_decoder::MinWeightSpec;
use veriqec_sat::SolverConfig;
use veriqec_smt::SmtContext;

use crate::ReducedVc;

/// Outcome of a verification query.
#[derive(Clone, Debug, PartialEq)]
pub enum VcOutcome {
    /// The condition holds for every error configuration.
    Verified,
    /// A violating assignment (errors, syndromes, corrections) was found.
    CounterExample(CMem),
    /// Budget exhausted.
    Unknown,
}

impl VcOutcome {
    /// True for [`VcOutcome::Verified`].
    pub fn is_verified(&self) -> bool {
        matches!(self, VcOutcome::Verified)
    }
}

/// Statistics of a discharge run.
#[derive(Clone, Copy, Debug, Default)]
pub struct VcStats {
    /// SAT variables in the encoded query.
    pub sat_vars: usize,
    /// CNF clauses in the encoded query (the formula only: learnt clauses
    /// are not counted).
    pub clauses: usize,
    /// Conflicts spent by the solver.
    pub conflicts: u64,
}

/// A fully assembled verification problem.
#[derive(Clone, Debug)]
pub struct VcProblem {
    /// The reduced condition.
    pub vc: ReducedVc,
    /// Error-model constraints `P_c` (e.g. `Σe ≤ ⌊(d−1)/2⌋`, locality,
    /// discreteness).
    pub error_constraints: Vec<BExp>,
    /// Decoder specifications `P_f` (one per decoder call / CSS sector).
    pub decoder_specs: Vec<MinWeightSpec>,
}

impl VcProblem {
    /// Encodes and discharges the problem. `config` tunes the underlying
    /// CDCL solver. One-shot form of [`VcProblem::session`]: encode, query
    /// once, report.
    pub fn check_with_config(&self, config: SolverConfig) -> (VcOutcome, VcStats) {
        let mut session = self.session(config);
        let outcome = session.query(&[]);
        (outcome, session.stats())
    }

    /// Discharges with the default solver configuration.
    pub fn check(&self) -> (VcOutcome, VcStats) {
        self.check_with_config(SolverConfig::default())
    }

    /// Asserts `P_c`, guards and `P_f` (everything except the refutation
    /// goal) into a context, as [`crate::VcSession`] does. Deterministic:
    /// the same problem always yields the same clauses over the same
    /// variable numbering, which racing sessions rely on to exchange learnt
    /// clauses.
    ///
    /// `P_c` goes first on purpose. A hard `Σe ≤ t` in it is recorded by
    /// the context, so each decoder's `Σc ≤ Σe` that follows is capped at
    /// `t + 1` and shares the one totalizer over `e` (see
    /// [`SmtContext::assert_sum_le_sum`]). A bound asserted after a
    /// comparator would leave that comparator full: larger, still exact.
    pub fn assert_base(&self, ctx: &mut SmtContext) {
        for b in &self.error_constraints {
            ctx.assert(b)
                .expect("error constraints are in the fragment");
        }
        for b in &self.vc.classical {
            ctx.assert(b).expect("classical side conditions encodable");
        }
        for g in &self.vc.guards {
            ctx.assert_affine_eq(g, false);
        }
        for spec in &self.decoder_specs {
            spec.assert_into(ctx);
        }
    }

    /// Builds the refutation goal in `ctx`: the disjunction of the violated
    /// targets that the parity rows of [`VcProblem::assert_base`] leave
    /// open. A target those rows decide is not encoded (see
    /// [`SmtContext::reify_affine`]): one decided 0 is never violated and
    /// drops out, one decided 1 makes the goal the true literal. Returns
    /// the goal, `None` when no target is left open (trivially verified),
    /// and the number of decided targets.
    pub fn goal_lit(&self, ctx: &mut SmtContext) -> (Option<veriqec_sat::Lit>, usize) {
        let mut open = Vec::new();
        let mut violated = false;
        for t in &self.vc.targets {
            match ctx.reify_affine(t) {
                Ok(l) => open.push(l),
                Err(c) => violated |= c,
            }
        }
        let decided = self.vc.targets.len() - open.len();
        let goal = if violated {
            Some(ctx.lit_true())
        } else if open.is_empty() {
            None
        } else {
            Some(ctx.reify_disj(&open))
        };
        (goal, decided)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veriqec_cexpr::{Affine, VarRole, VarTable};

    #[test]
    fn empty_targets_verify() {
        let problem = VcProblem {
            vc: ReducedVc {
                or_vars: vec![],
                guards: vec![],
                targets: vec![],
                classical: vec![],
            },
            error_constraints: vec![],
            decoder_specs: vec![],
        };
        assert!(problem.check().0.is_verified());
    }

    #[test]
    fn violated_constant_target_gives_counterexample() {
        let problem = VcProblem {
            vc: ReducedVc {
                or_vars: vec![],
                guards: vec![],
                targets: vec![Affine::one()],
                classical: vec![],
            },
            error_constraints: vec![],
            decoder_specs: vec![],
        };
        assert!(matches!(problem.check().0, VcOutcome::CounterExample(_)));
    }

    #[test]
    fn guarded_target_can_verify() {
        // Target e, but P_c forces e = 0.
        let mut vt = VarTable::new();
        let e = vt.fresh("e", VarRole::Error);
        let problem = VcProblem {
            vc: ReducedVc {
                or_vars: vec![],
                guards: vec![],
                targets: vec![Affine::var(e)],
                classical: vec![],
            },
            error_constraints: vec![BExp::not(BExp::var(e))],
            decoder_specs: vec![],
        };
        assert!(problem.check().0.is_verified());
    }
}
