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
mod gauss;
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

    /// The direct CNF of `Σ vars = rhs`: one clause excluding each
    /// assignment of the wrong parity.
    fn xor_clauses(vars: &[usize], rhs: bool) -> Vec<Vec<(usize, bool)>> {
        (0u32..1 << vars.len())
            .filter(|bits| (bits.count_ones() % 2 == 1) != rhs)
            .map(|bits| {
                let lit = |(i, &v): (usize, &usize)| (v, (bits >> i) & 1 == 0);
                vars.iter().enumerate().map(lit).collect()
            })
            .collect()
    }

    fn add_xors(s: &mut Solver, rows: &[(Vec<usize>, bool)]) {
        for (vars, rhs) in rows {
            add_clauses(s, &xor_clauses(vars, *rhs));
            let vars: Vec<Var> = vars.iter().map(|&v| Var(v as u32)).collect();
            s.add_xor(&vars, *rhs);
        }
    }

    /// Random clauses plus parity rows over at most 10 variables, and the
    /// assumptions of 1–3 incremental solves.
    #[derive(Debug, Clone)]
    struct XorFormula {
        num_vars: usize,
        rows: Vec<(Vec<usize>, bool)>,
        clauses: Vec<Vec<(usize, bool)>>,
        solves: Vec<Vec<(usize, bool)>>,
    }

    fn arb_xor_formula() -> impl Strategy<Value = XorFormula> {
        (2usize..11).prop_flat_map(|num_vars| {
            let row = (
                proptest::collection::btree_set(0..num_vars, 1..6),
                any::<bool>(),
            );
            let clause = proptest::collection::vec((0..num_vars, any::<bool>()), 1..4);
            let assumptions = proptest::collection::vec((0..num_vars, any::<bool>()), 0..3);
            (
                proptest::collection::vec(row, 0..7),
                proptest::collection::vec(clause, 0..16),
                proptest::collection::vec(assumptions, 1..4),
            )
                .prop_map(move |(rows, clauses, solves)| XorFormula {
                    num_vars,
                    rows: (rows.into_iter())
                        .map(|(vars, rhs)| (vars.into_iter().collect(), rhs))
                        .collect(),
                    clauses,
                    solves,
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Gauss–Jordan propagation only adds inferences: with every row
        // given both as its CNF and through `add_xor`, each solve matches
        // brute force and each model satisfies every clause, row and
        // assumption. Half the rows arrive after the first solve, so the
        // matrix is rebuilt; a tiny `reduce_base` gets explanation clauses
        // reduced and collected.
        #[test]
        fn gauss_jordan_agrees_with_brute_force(f in arb_xor_formula(), tiny_reduce in any::<bool>()) {
            let reduce_base = if tiny_reduce { 1 } else { 1000 };
            let mut s = build_with(
                &RandomCnf { num_vars: f.num_vars, clauses: vec![] },
                SolverConfig { reduce_base, ..SolverConfig::default() },
            );
            add_clauses(&mut s, &f.clauses);
            let mut cnf = f.clauses.clone();
            let split = if f.solves.len() > 1 { f.rows.len() / 2 } else { f.rows.len() };
            for (i, assumptions) in f.solves.iter().enumerate() {
                let batch = match i {
                    0 => &f.rows[..split],
                    1 => &f.rows[split..],
                    _ => &[],
                };
                add_xors(&mut s, batch);
                cnf.extend(batch.iter().flat_map(|(vars, rhs)| xor_clauses(vars, *rhs)));
                let lits: Vec<Lit> = (assumptions.iter())
                    .map(|&(v, pos)| Lit::new(Var(v as u32), pos))
                    .collect();
                let got = s.solve(&lits);
                let brute = (0u32..1 << f.num_vars).any(|bits| {
                    let holds = |&(v, pos): &(usize, bool)| ((bits >> v) & 1 == 1) == pos;
                    cnf.iter().all(|c| c.iter().any(holds)) && assumptions.iter().all(holds)
                });
                prop_assert!((got == SatResult::Sat) == brute, "solve {i}: {got:?}, brute force {brute}");
                if got == SatResult::Sat {
                    let model = s.model();
                    let holds = |&(v, pos): &(usize, bool)| model[v] == pos;
                    prop_assert!(cnf.iter().all(|c| c.iter().any(holds)));
                    prop_assert!(assumptions.iter().all(holds));
                    for (vars, rhs) in &f.rows[..if i == 0 { split } else { f.rows.len() }] {
                        let parity = vars.iter().filter(|&&v| model[v]).count() % 2 == 1;
                        prop_assert_eq!(parity, *rhs);
                    }
                }
            }
        }
    }

    /// Tseitin's parity formula on the 5 × 5 torus grid, one variable per
    /// edge: each vertex's incident edges sum to its charge, and the
    /// charges sum to 1. Summing every row gives 0 = 1, which resolution
    /// has to search for; the Gauss–Jordan pass refutes it at the root.
    #[test]
    fn gauss_jordan_refutes_an_odd_tseitin_formula_without_deciding() {
        let n = 5;
        let right = |i: usize, j: usize| (i % n) * n + j % n;
        let down = |i: usize, j: usize| n * n + (i % n) * n + j % n;
        let rows: Vec<(Vec<usize>, bool)> = (0..n * n)
            .map(|v| {
                let (i, j) = (v / n, v % n);
                let edges = vec![
                    right(i, j),
                    right(i, j + n - 1),
                    down(i, j),
                    down(i + n - 1, j),
                ];
                (edges, v == 0)
            })
            .collect();
        let mut s = build_with(
            &RandomCnf {
                num_vars: 2 * n * n,
                clauses: vec![],
            },
            SolverConfig::default(),
        );
        add_xors(&mut s, &rows);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        assert_eq!(s.stats().decisions, 0);
        assert_eq!(s.stats().gauss_rows, 25);
    }
}
