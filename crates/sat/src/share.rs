//! Learnt-clause exchange between solvers racing on one formula.
//!
//! A portfolio runs several differently configured solvers on the same CNF
//! and takes the first verdict (ManySAT: Hamadi, Jabbour & Sais, JSAT
//! 2009). A [`ClausePool`] lets them share their most useful learnt
//! clauses — units, binaries and clauses of LBD ≤ [`SHARE_LBD`]: each
//! member appends such a clause to the pool when it learns it, and adds
//! the other members' clauses to its own database at decision level 0 (at
//! the start of a solve and on every restart).
//!
//! This is sound only because every member holds the same formula over
//! the same variable numbering: a learnt clause is a consequence of its
//! solver's clause database, so it is a consequence of every member's.
//! Joining checks the cheap part of that precondition — equal variable and
//! clause counts — and panics on a mismatch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::Lit;

/// Learnt clauses with learn-time LBD at or below this are shared. Every
/// unit and binary clause qualifies (a clause's LBD never exceeds its
/// length).
pub(crate) const SHARE_LBD: u32 = 2;

/// One shared clause and the member that learnt it.
#[derive(Debug)]
pub(crate) struct SharedClause {
    pub(crate) from: usize,
    pub(crate) lbd: u32,
    pub(crate) lits: Box<[Lit]>,
}

/// An append-only log of short learnt clauses shared by the solvers of one
/// race. Create one per formula and have every racing solver join it with
/// [`crate::Solver::join_pool`] before its first solve.
#[derive(Debug, Default)]
pub struct ClausePool {
    /// `(variables, original clauses)` of the formula; fixed by the first
    /// member to join.
    shape: OnceLock<(usize, usize)>,
    members: AtomicUsize,
    log: Mutex<Vec<SharedClause>>,
}

impl ClausePool {
    /// An empty pool, ready to be shared by the racing solvers.
    pub fn new() -> Arc<ClausePool> {
        Arc::default()
    }

    /// Registers a member whose formula has `shape` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `shape` differs from the first member's: the members would
    /// then exchange clauses over different formulas, which is unsound.
    fn register(&self, shape: (usize, usize)) -> usize {
        let expected = *self.shape.get_or_init(|| shape);
        assert_eq!(
            shape, expected,
            "a clause pool's members must hold the same formula: \
             (variables, clauses) {shape:?} joined a pool of {expected:?}"
        );
        self.members.fetch_add(1, Ordering::Relaxed)
    }

    /// The log. Every update is one `push` of a complete entry, so a log
    /// recovered from a panicked holder is still well formed.
    pub(crate) fn log(&self) -> MutexGuard<'_, Vec<SharedClause>> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A solver's membership in a [`ClausePool`].
#[derive(Clone, Debug)]
pub(crate) struct Membership {
    pub(crate) pool: Arc<ClausePool>,
    /// This member's id; its own clauses are skipped on import.
    pub(crate) id: usize,
    /// Log entries already imported.
    pub(crate) cursor: usize,
}

impl Membership {
    /// Joins `pool` as a solver with `vars` variables and `clauses`
    /// original clauses.
    pub(crate) fn join(pool: Arc<ClausePool>, vars: usize, clauses: usize) -> Self {
        let id = pool.register((vars, clauses));
        Membership {
            pool,
            id,
            cursor: 0,
        }
    }

    /// Publishes a clause this member just learnt.
    pub(crate) fn export(&self, lits: &[Lit], lbd: u32) {
        self.pool.log().push(SharedClause {
            from: self.id,
            lbd,
            lits: lits.into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cnf, SatResult, Solver, SolverConfig, Var};
    use rand::prelude::*;

    /// Configurations that differ the way racers do, with frequent
    /// restarts so that small instances still reach the import points.
    fn member_config(k: usize) -> SolverConfig {
        SolverConfig {
            use_phase_saving: k.is_multiple_of(2),
            restart_base: 1 + k as u64,
            ..SolverConfig::default()
        }
    }

    fn solver_for(cnf: &Cnf, config: SolverConfig) -> Solver {
        let mut s = Solver::with_config(config);
        for _ in 0..cnf.num_vars {
            s.new_var();
        }
        for c in &cnf.clauses {
            s.add_clause(c.iter().copied());
        }
        s
    }

    fn satisfies(cnf: &Cnf, model: &[bool]) -> bool {
        cnf.clauses
            .iter()
            .all(|c| c.iter().any(|l| model[l.var().index()] == l.is_positive()))
    }

    fn brute_force(cnf: &Cnf) -> bool {
        (0u32..1 << cnf.num_vars).any(|bits| {
            let model: Vec<bool> = (0..cnf.num_vars).map(|v| bits >> v & 1 == 1).collect();
            satisfies(cnf, &model)
        })
    }

    fn random_3cnf(rng: &mut StdRng, num_vars: usize) -> Cnf {
        // Near the 3-SAT threshold (4.26 clauses per variable), so both
        // verdicts occur and the solvers have to search.
        let clauses = (0..num_vars * 43 / 10)
            .map(|_| {
                (0..3)
                    .map(|_| Lit::new(Var(rng.gen_range(0..num_vars) as u32), rng.gen_bool(0.5)))
                    .collect()
            })
            .collect();
        Cnf { num_vars, clauses }
    }

    /// PHP(p, h): every pigeon in some hole, no hole holds two pigeons.
    fn pigeonhole(pigeons: usize, holes: usize) -> Cnf {
        let p = |pigeon: usize, hole: usize| Var((pigeon * holes + hole) as u32).positive();
        let mut clauses: Vec<Vec<Lit>> = (0..pigeons)
            .map(|i| (0..holes).map(|h| p(i, h)).collect())
            .collect();
        for h in 0..holes {
            for a in 0..pigeons {
                for b in a + 1..pigeons {
                    clauses.push(vec![!p(a, h), !p(b, h)]);
                }
            }
        }
        Cnf {
            num_vars: pigeons * holes,
            clauses,
        }
    }

    /// Races `members` solvers on `cnf` through one pool on as many
    /// threads, then solves each once more (importing everything the
    /// others published). Every verdict must be `expected`, every model
    /// must satisfy `cnf`. Returns the pool and the members' statistics.
    fn race(
        cnf: &Cnf,
        members: usize,
        expected: bool,
    ) -> (Arc<ClausePool>, Vec<crate::SolverStats>) {
        let pool = ClausePool::new();
        let mut solvers: Vec<Solver> = (0..members)
            .map(|k| {
                let mut s = solver_for(cnf, member_config(k));
                s.join_pool(Arc::clone(&pool));
                s
            })
            .collect();
        for round in 0..2 {
            std::thread::scope(|scope| {
                for s in &mut solvers {
                    scope.spawn(move || {
                        let got = s.solve(&[]);
                        let want = if expected {
                            SatResult::Sat
                        } else {
                            SatResult::Unsat
                        };
                        assert_eq!(got, want, "round {round}");
                        if got == SatResult::Sat {
                            assert!(satisfies(cnf, &s.model()), "round {round}: bad model");
                        }
                    });
                }
            });
        }
        (pool, solvers.iter().map(Solver::stats).collect())
    }

    /// Every clause in the pool follows from `cnf`: a fresh solver refutes
    /// `cnf ∧ ¬clause`.
    fn assert_pool_implied(cnf: &Cnf, pool: &ClausePool) {
        for c in pool.log().iter() {
            let mut s = cnf.into_solver();
            for &l in c.lits.iter() {
                s.add_clause([!l]);
            }
            assert_eq!(
                s.solve(&[]),
                SatResult::Unsat,
                "{:?} is not implied",
                c.lits
            );
            assert!(c.lbd <= SHARE_LBD);
        }
    }

    #[test]
    fn sharing_solvers_agree_with_brute_force_on_random_cnfs() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut shared = 0;
        for round in 0..48 {
            let cnf = random_3cnf(&mut rng, 8 + round % 7);
            let expected = brute_force(&cnf);
            let (pool, stats) = race(&cnf, 2 + round % 3, expected);
            assert_pool_implied(&cnf, &pool);
            let exported: u64 = stats.iter().map(|s| s.exported).sum();
            assert_eq!(exported, pool.log().len() as u64);
            shared += exported;
        }
        assert!(shared > 0, "the random instances must exercise sharing");
    }

    #[test]
    fn sharing_solvers_refute_pigeonhole_and_import_each_other() {
        for (pigeons, holes) in [(5, 4), (6, 5)] {
            let cnf = pigeonhole(pigeons, holes);
            for members in 2..=4 {
                let (pool, stats) = race(&cnf, members, false);
                assert_pool_implied(&cnf, &pool);
                assert!(
                    stats.iter().any(|s| s.exported > 0),
                    "PHP({pigeons},{holes})"
                );
            }
            // A member that starts after another has finished takes that
            // member's clauses at the start of its solve.
            let pool = ClausePool::new();
            let mut members: Vec<Solver> = (0..2)
                .map(|k| {
                    let mut s = solver_for(&cnf, member_config(k));
                    s.join_pool(Arc::clone(&pool));
                    s
                })
                .collect();
            for s in &mut members {
                assert_eq!(s.solve(&[]), SatResult::Unsat);
            }
            assert_eq!(members[0].stats().imported, 0);
            assert!(members[1].stats().imported > 0, "PHP({pigeons},{holes})");
            assert_pool_implied(&cnf, &pool);
        }
        // Satisfiable pigeonhole: every member must still find a model.
        race(&pigeonhole(4, 4), 3, true);
    }

    #[test]
    fn publishing_alone_does_not_perturb_the_search() {
        // Joining a pool nobody else publishes to changes nothing about
        // the search: same verdict, same conflicts.
        let cnf = pigeonhole(6, 5);
        let mut alone = solver_for(&cnf, SolverConfig::default());
        let mut member = solver_for(&cnf, SolverConfig::default());
        member.join_pool(ClausePool::new());
        assert_eq!(alone.solve(&[]), member.solve(&[]));
        assert_eq!(alone.stats().conflicts, member.stats().conflicts);
        assert_eq!(alone.stats().exported, 0);
        assert!(member.stats().exported > 0);
        assert_eq!(member.stats().imported, 0);
    }

    #[test]
    #[should_panic(expected = "must hold the same formula")]
    fn joining_with_a_different_formula_panics() {
        let pool = ClausePool::new();
        solver_for(&pigeonhole(3, 2), SolverConfig::default()).join_pool(Arc::clone(&pool));
        solver_for(&pigeonhole(3, 3), SolverConfig::default()).join_pool(pool);
    }
}
