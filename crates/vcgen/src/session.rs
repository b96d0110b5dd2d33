//! Persistent solver sessions: encode a [`VcProblem`] once, query it many
//! times under different assumptions.
//!
//! The paper's headline workloads — distance sweeps, constrained-weight
//! sweeps, fault-tolerance grids — are families of closely related queries
//! over one base formula. A [`VcSession`] keeps the CNF and the solver's
//! learnt state alive across those queries: the base encoding (`P_c` minus
//! any swept bound, guards, `P_f`, refutation goal) is paid exactly once,
//! and each subsequent query is a [`SmtContext::check`] under assumption
//! literals (weight bounds from a [`veriqec_smt::CardinalityHandle`]).
//! Learnt clauses accumulated by earlier queries prune later ones — the
//! MiniSat-lineage incremental-solving discipline. Sessions of one problem
//! encode it identically, so racing sessions can also exchange learnt
//! clauses ([`VcSession::join_pool`]).

use veriqec_sat::{Lit, SolverConfig, SolverStats};
use veriqec_smt::{CheckResult, SmtContext};

use crate::check::{VcOutcome, VcProblem, VcStats};

/// An incremental solving session over one [`VcProblem`].
///
/// Created by [`VcProblem::session`]; the base formula and the refutation
/// goal are asserted once at construction, and [`VcSession::query`] decides
/// the problem under per-call assumption literals. The session counts its
/// queries, so a caller can tell a reused session from a fresh one.
#[derive(Clone, Debug)]
pub struct VcSession {
    ctx: SmtContext,
    /// No targets: every query is trivially verified without solving.
    trivial: bool,
    queries: usize,
}

impl VcSession {
    /// Encodes `problem` (base + refutation goal) into a fresh context.
    /// The `vcgen/encode` span closes with the formula's size, as
    /// [`VcSession::stats`] counts it (`sat_vars`, `clauses`), then how
    /// many targets the goal reified (`targets`) and how many the asserted
    /// parity rows decided instead (`decided`).
    pub fn new(problem: &VcProblem, config: SolverConfig) -> Self {
        let span = veriqec_obs::span("vcgen", "encode");
        let mut ctx = SmtContext::with_config(config);
        problem.assert_base(&mut ctx);
        let (goal, decided) = problem.goal_lit(&mut ctx);
        let trivial = match goal {
            Some(goal) => {
                ctx.add_clause([goal]);
                false
            }
            None => true,
        };
        let session = VcSession {
            ctx,
            trivial,
            queries: 0,
        };
        let size = session.stats();
        span.close_with(&[
            ("sat_vars", size.sat_vars as f64),
            ("clauses", size.clauses as f64),
            ("targets", (problem.vc.targets.len() - decided) as f64),
            ("decided", decided as f64),
        ]);
        session
    }

    /// The underlying context, for building assumption literals (variable
    /// lookups, [`SmtContext::cardinality`] handles) against this session's
    /// encoding. Adding clauses through this handle is permitted — they
    /// become part of the base for all later queries.
    pub fn ctx_mut(&mut self) -> &mut SmtContext {
        &mut self.ctx
    }

    /// Decides the problem under the given assumption literals.
    ///
    /// `Verified` means the refutation query is unsatisfiable *under the
    /// assumptions*; a counterexample model includes every classical
    /// variable the encoding has seen.
    pub fn query(&mut self, assumptions: &[Lit]) -> VcOutcome {
        self.queries += 1;
        if self.trivial {
            return VcOutcome::Verified;
        }
        let _span = veriqec_obs::span("vcgen", "query");
        match self.ctx.check(assumptions) {
            CheckResult::Unsat => VcOutcome::Verified,
            CheckResult::Sat => VcOutcome::CounterExample(self.ctx.model()),
            CheckResult::Unknown => VcOutcome::Unknown,
        }
    }

    /// Why the last [`VcSession::query`] came back [`VcOutcome::Unknown`]
    /// (see [`veriqec_sat::UnknownCause`]) — the piece batch drivers use to
    /// report *which* budget tripped.
    pub fn unknown_cause(&self) -> Option<veriqec_sat::UnknownCause> {
        self.ctx.unknown_cause()
    }

    /// Installs a cooperative stop on the underlying solver (see
    /// [`SmtContext::set_stop`]); in-flight queries abort with
    /// [`VcOutcome::Unknown`].
    pub fn set_stop(&mut self, stop: veriqec_sat::Stop) {
        self.ctx.set_stop(stop);
    }

    /// Joins a learnt-clause pool shared with the other sessions of the
    /// same [`VcProblem`]: their encodings are identical, literal for
    /// literal, so their learnt clauses can be exchanged (see
    /// [`veriqec_sat::Solver::join_pool`]). Join before the first query
    /// and add no clauses through [`VcSession::ctx_mut`] afterwards.
    pub fn join_pool(&mut self, pool: std::sync::Arc<veriqec_sat::ClausePool>) {
        self.ctx.join_pool(pool);
    }

    /// Number of [`VcSession::query`] calls so far.
    pub fn query_count(&self) -> usize {
        self.queries
    }

    /// Problem-size and solver statistics for the session so far.
    pub fn stats(&self) -> VcStats {
        VcStats {
            sat_vars: self.ctx.num_sat_vars(),
            clauses: self.ctx.num_clauses(),
            conflicts: self.ctx.solver_stats().conflicts,
        }
    }

    /// Raw solver statistics (conflicts, decisions, propagations, …).
    pub fn solver_stats(&self) -> SolverStats {
        self.ctx.solver_stats()
    }
}

impl VcProblem {
    /// Opens an incremental [`VcSession`] over this problem: the base
    /// encoding is performed once, then [`VcSession::query`] may be called
    /// any number of times under different assumptions.
    pub fn session(&self, config: SolverConfig) -> VcSession {
        VcSession::new(self, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReducedVc;
    use veriqec_cexpr::{Affine, BExp, VarRole, VarTable};

    #[test]
    fn session_queries_match_fresh_checks() {
        // Target e0 ^ e1; weight bound comes in as an assumption.
        let mut vt = VarTable::new();
        let e0 = vt.fresh("e0", VarRole::Error);
        let e1 = vt.fresh("e1", VarRole::Error);
        let problem = VcProblem {
            vc: ReducedVc {
                or_vars: vec![],
                guards: vec![],
                targets: vec![Affine::var(e0) ^ Affine::var(e1)],
                classical: vec![],
            },
            error_constraints: vec![],
            decoder_specs: vec![],
        };
        let mut session = problem.session(SolverConfig::default());
        let lits = [session.ctx_mut().lit_of(e0), session.ctx_mut().lit_of(e1)];
        let card = session.ctx_mut().cardinality(&lits);
        // Σe ≤ 0 forces e0 = e1 = 0, so the XOR target cannot be violated.
        let a0: Vec<_> = card.at_most(0).into_iter().collect();
        assert!(session.query(&a0).is_verified());
        // Σe ≤ 1 admits e0 ^ e1 = 1.
        let a1: Vec<_> = card.at_most(1).into_iter().collect();
        assert!(matches!(session.query(&a1), VcOutcome::CounterExample(_)));
        // Re-tightening after a SAT answer still verifies: nothing leaked.
        assert!(session.query(&a0).is_verified());
        assert_eq!(session.query_count(), 3);
    }

    #[test]
    fn trivial_session_is_verified_without_solving() {
        let problem = VcProblem {
            vc: ReducedVc {
                or_vars: vec![],
                guards: vec![],
                targets: vec![],
                classical: vec![],
            },
            error_constraints: vec![BExp::Const(true)],
            decoder_specs: vec![],
        };
        let mut session = problem.session(SolverConfig::default());
        assert!(session.query(&[]).is_verified());
        assert_eq!(session.stats().conflicts, 0);
    }
}
