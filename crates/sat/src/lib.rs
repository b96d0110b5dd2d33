//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! This crate is the decision-procedure substrate of the Veri-QEC
//! reproduction. The paper discharges its verification conditions with Z3 and
//! CVC5; after the paper's own reduction (§5.1) those conditions are
//! propositional — GF(2) phase equations plus cardinality constraints — so a
//! CDCL solver built from scratch suffices and doubles as a required
//! substrate implementation (see `DESIGN.md`).
//!
//! Features: two-watched-literal propagation over a flat clause arena with
//! compacting garbage collection, first-UIP clause learning with recursive
//! clause minimization, VSIDS branching with phase saving, Luby restarts,
//! glue-tiered (LBD) learned-clause deletion, incremental solving under
//! assumptions, and learnt-clause sharing between solvers racing on one
//! formula ([`ClausePool`]).
//!
//! # Examples
//!
//! ```
//! use veriqec_sat::{SatResult, Solver};
//!
//! let mut s = Solver::new();
//! let x = s.new_var();
//! let y = s.new_var();
//! // (x ∨ y) ∧ (¬x ∨ y) ∧ (¬y)  is unsatisfiable.
//! s.add_clause([x.positive(), y.positive()]);
//! s.add_clause([x.negative(), y.positive()]);
//! s.add_clause([y.negative()]);
//! assert_eq!(s.solve(&[]), SatResult::Unsat);
//! ```

#![forbid(unsafe_code)]

mod arena;
mod dimacs;
mod heap;
mod lit;
mod share;
mod solver;
mod stop;

pub use dimacs::{Cnf, ParseDimacsError};
pub use lit::{LBool, Lit, Var};
pub use share::ClausePool;
pub use solver::{SatResult, Solver, SolverConfig, SolverStats, UnknownCause};
pub use stop::Stop;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    struct RandomCnf {
        num_vars: usize,
        clauses: Vec<Vec<(usize, bool)>>,
    }

    fn arb_cnf() -> impl Strategy<Value = RandomCnf> {
        (2usize..9).prop_flat_map(|num_vars| {
            proptest::collection::vec(
                proptest::collection::vec((0..num_vars, any::<bool>()), 1..4),
                1..30,
            )
            .prop_map(move |clauses| RandomCnf { num_vars, clauses })
        })
    }

    fn brute_force(cnf: &RandomCnf) -> bool {
        (0u32..1 << cnf.num_vars).any(|bits| {
            cnf.clauses
                .iter()
                .all(|c| c.iter().any(|&(v, pos)| ((bits >> v) & 1 == 1) == pos))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn agrees_with_brute_force(cnf in arb_cnf()) {
            let mut s = Solver::new();
            for _ in 0..cnf.num_vars {
                s.new_var();
            }
            for c in &cnf.clauses {
                s.add_clause(c.iter().map(|&(v, pos)| Lit::new(Var(v as u32), pos)));
            }
            let got = s.solve(&[]) == SatResult::Sat;
            prop_assert_eq!(got, brute_force(&cnf));
            if got {
                let model = s.model();
                for c in &cnf.clauses {
                    prop_assert!(c.iter().any(|&(v, pos)| model[v] == pos));
                }
            }
        }

        #[test]
        fn incremental_assumptions_match_refutation(cnf in arb_cnf(), flips in proptest::collection::vec(any::<bool>(), 4)) {
            // Solving with assumptions must match adding them as unit clauses.
            let build = |cnf: &RandomCnf| {
                let mut s = Solver::new();
                for _ in 0..cnf.num_vars { s.new_var(); }
                for c in &cnf.clauses {
                    s.add_clause(c.iter().map(|&(v, pos)| Lit::new(Var(v as u32), pos)));
                }
                s
            };
            let assumptions: Vec<Lit> = flips
                .iter()
                .enumerate()
                .take(cnf.num_vars)
                .map(|(i, &pos)| Lit::new(Var(i as u32), pos))
                .collect();
            let mut s1 = build(&cnf);
            let r1 = s1.solve(&assumptions);
            let mut s2 = build(&cnf);
            for &a in &assumptions {
                s2.add_clause([a]);
            }
            let r2 = s2.solve(&[]);
            prop_assert_eq!(r1, r2);
        }
    }

    /// Larger instances than [`arb_cnf`]: enough conflicts that aggressive
    /// reduction configs actually delete clauses and leave arena garbage.
    fn arb_hard_cnf() -> impl Strategy<Value = RandomCnf> {
        (8usize..13).prop_flat_map(|num_vars| {
            proptest::collection::vec(
                proptest::collection::vec((0..num_vars, any::<bool>()), 3),
                20..60,
            )
            .prop_map(move |clauses| RandomCnf { num_vars, clauses })
        })
    }

    fn build_with(cnf: &RandomCnf, config: SolverConfig) -> Solver {
        let mut s = Solver::with_config(config);
        for _ in 0..cnf.num_vars {
            s.new_var();
        }
        s
    }

    fn add_clauses(s: &mut Solver, clauses: &[Vec<(usize, bool)>]) {
        for c in clauses {
            s.add_clause(c.iter().map(|&(v, pos)| Lit::new(Var(v as u32), pos)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // Arena compaction must be invisible: a solver that reduces its
        // database aggressively and GCs at every opportunity (plus an
        // explicit mid-incremental `collect_garbage`) agrees verdict- and
        // model-exactly with a twin that never compacts, across an
        // assumption solve followed by adding more clauses and re-solving.
        #[test]
        fn gc_compaction_is_transparent(
            cnf in arb_hard_cnf(),
            flips in proptest::collection::vec(any::<bool>(), 4),
        ) {
            let reduce = SolverConfig { reduce_base: 1, ..SolverConfig::default() };
            let mut gc = build_with(&cnf, SolverConfig { gc_wasted_ratio: 0.0, ..reduce });
            let mut plain = build_with(&cnf, SolverConfig { gc_wasted_ratio: 2.0, ..reduce });

            let split = cnf.clauses.len() * 2 / 3;
            add_clauses(&mut gc, &cnf.clauses[..split]);
            add_clauses(&mut plain, &cnf.clauses[..split]);
            let assumptions: Vec<Lit> = flips
                .iter()
                .enumerate()
                .take(cnf.num_vars)
                .map(|(i, &pos)| Lit::new(Var(i as u32), pos))
                .collect();
            prop_assert_eq!(gc.solve(&assumptions), plain.solve(&assumptions));
            prop_assert_eq!(gc.model(), plain.model());

            gc.collect_garbage();

            add_clauses(&mut gc, &cnf.clauses[split..]);
            add_clauses(&mut plain, &cnf.clauses[split..]);
            let (rg, rp) = (gc.solve(&[]), plain.solve(&[]));
            prop_assert_eq!(rg.clone(), rp);
            prop_assert_eq!(gc.model(), plain.model());
            prop_assert_eq!(rg == SatResult::Sat, brute_force(&cnf));
        }

        // Recursive clause minimization is a strengthening only: it must
        // never change a verdict relative to the cheap one-step rule, and
        // both variants must produce genuine models.
        #[test]
        fn minimization_modes_agree(cnf in arb_hard_cnf()) {
            let mut recursive = build_with(&cnf, SolverConfig::default());
            let mut one_step = build_with(
                &cnf,
                SolverConfig { use_recursive_minimization: false, ..SolverConfig::default() },
            );
            add_clauses(&mut recursive, &cnf.clauses);
            add_clauses(&mut one_step, &cnf.clauses);
            let (rr, ro) = (recursive.solve(&[]), one_step.solve(&[]));
            prop_assert_eq!(rr.clone(), ro);
            prop_assert_eq!(rr == SatResult::Sat, brute_force(&cnf));
            if rr == SatResult::Sat {
                for model in [recursive.model(), one_step.model()] {
                    for c in &cnf.clauses {
                        prop_assert!(c.iter().any(|&(v, pos)| model[v] == pos));
                    }
                }
            }
        }
    }
}
