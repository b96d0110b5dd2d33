//! Parallel verification by racing diversified solvers (§6/§7.1,
//! Appendix D.4, adapted).
//!
//! The paper splits the general task into subtasks by enumerating error
//! indicators under the heuristic `ET = 2d·N(ones) + N(bits)` and hands
//! the residual subtasks to a 250-core machine. On a few cores that split
//! only adds work: every subtask re-derives what its siblings already
//! learnt, and on surface codes the split runs slower than one solver.
//! This reproduction races instead (ManySAT: Hamadi, Jabbour & Sais, JSAT
//! 2009). Each of the engine's workers encodes the whole problem with a
//! differently configured solver; the first `Verified` or
//! `CounterExample` raises the job's cancel flag, which stops the others;
//! and the racers of one job exchange their short learnt clauses through a
//! [`veriqec_sat::ClausePool`]. Racer 0 runs the engine's own
//! configuration, so the race always contains the sequential solver, and a
//! one-worker engine runs exactly that solver. Racer 1 turns phase saving
//! off, and each further pair of racers halves the Luby restart base.
//!
//! The race itself runs in [`crate::engine::Engine`]; [`check_parallel`]
//! is its one-job form.

use std::time::Duration;

use veriqec_sat::{SolverConfig, SolverStats};
use veriqec_vcgen::{VcOutcome, VcProblem};

use crate::engine::{Engine, EngineConfig, Job, JobKind};

/// Parameters of the paper's `ET` enumeration split (§6, Appendix D.4).
///
/// Unused: correction jobs race whole-problem solvers instead of
/// enumerating subtasks (see the module docs). The type stays because
/// [`Job::correction`] callers still pass it.
#[derive(Clone, Copy, Debug)]
pub struct SplitConfig {
    /// The `d` in the `ET = 2d·N(ones) + N(bits)` heuristic.
    pub heuristic_distance: usize,
    /// Enumeration stops when `ET` exceeds this threshold.
    pub et_threshold: usize,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            heuristic_distance: 3,
            et_threshold: 12,
        }
    }
}

/// Configuration of the parallel driver: the engine's. Each worker runs
/// one racer; `solver` is racer 0's configuration, which the other racers
/// vary.
pub type ParallelConfig = EngineConfig;

/// Report of a parallel run.
#[derive(Clone, Debug)]
pub struct ParallelReport {
    /// Overall outcome.
    pub outcome: VcOutcome,
    /// Racers started (at most one per worker; fewer when the race was
    /// decided before every worker joined it).
    pub subtasks: usize,
    /// Wall-clock time.
    pub wall_time: Duration,
    /// Solver statistics summed across all racers (conflicts, decisions,
    /// propagations, restarts, kept learnt clauses, clauses exported to
    /// and imported from the shared pool, minimization and clause-arena GC
    /// counters; `arena_bytes` sums the final footprint of every racer).
    pub stats: SolverStats,
}

/// The solver configuration of racer `k` in a race seeded with `base`.
///
/// Racer 0 is `base` unchanged. Odd racers flip phase saving, which for a
/// phase-saving `base` means always-false polarity — fast at finding the
/// low-weight counterexamples of bug-finding runs, but slow on proofs,
/// which is why it races beside `base` rather than replacing it. Each
/// further pair of racers halves the Luby restart base once more.
pub(crate) fn racer_config(base: SolverConfig, k: usize) -> SolverConfig {
    SolverConfig {
        use_phase_saving: base.use_phase_saving ^ (k % 2 == 1),
        restart_base: (base.restart_base >> (k / 2).min(63)).max(1),
        ..base
    }
}

/// Solves a [`VcProblem`] by racing one solver per worker. One-job form of
/// the engine's batch driver ([`crate::engine::Engine::run`]): every racer
/// encodes the problem once with its own solver configuration, the racers
/// share short learnt clauses, and the first verdict cancels the rest
/// through the cooperative solver stop flag.
pub fn check_parallel(problem: &VcProblem, config: &ParallelConfig) -> ParallelReport {
    let batch = Engine::new(*config).run(vec![Job {
        name: "check_parallel".into(),
        kind: JobKind::Correction {
            problem: problem.clone(),
        },
    }]);
    let wall_time = batch.wall_time;
    let job = batch
        .jobs
        .into_iter()
        .next()
        .expect("one job in, one report out");
    ParallelReport {
        outcome: job.outcome.into_vc(),
        subtasks: job.subtasks,
        wall_time,
        stats: job.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{memory_scenario, ErrorModel};
    use crate::tasks::build_problem;
    use veriqec_codes::{rotated_surface, steane};

    #[test]
    fn racer_schedule_keeps_the_engine_config_first() {
        let base = SolverConfig::default();
        let fields = |c: SolverConfig| (c.use_phase_saving, c.restart_base);
        assert_eq!(fields(racer_config(base, 0)), (true, 128));
        assert_eq!(fields(racer_config(base, 1)), (false, 128));
        assert_eq!(fields(racer_config(base, 2)), (true, 64));
        assert_eq!(fields(racer_config(base, 3)), (false, 64));
        assert_eq!(fields(racer_config(base, 1000)), (true, 1));
        // Only the schedule's own fields vary: budgets and the rest carry
        // over from the engine's config.
        let budgeted = SolverConfig {
            conflict_budget: Some(5),
            ..base
        };
        assert_eq!(racer_config(budgeted, 3).conflict_budget, Some(5));
    }

    #[test]
    fn parallel_agrees_with_sequential_on_steane() {
        let scenario = memory_scenario(&steane(), ErrorModel::YErrors);
        let problem = build_problem(&scenario, 1, vec![]);
        let (seq, _) = problem.check();
        let par = check_parallel(
            &problem,
            &ParallelConfig {
                workers: 4,
                ..ParallelConfig::default()
            },
        );
        assert!(seq.is_verified());
        assert!(par.outcome.is_verified());
        // One racer per worker at most; the race may end before all start.
        assert!((1..=4).contains(&par.subtasks), "{}", par.subtasks);
        // The aggregated racer stats must reflect real solver work.
        assert!(par.stats.propagations > 0);
        assert!(par.stats.decisions > 0);
    }

    #[test]
    fn parallel_finds_counterexamples() {
        let scenario = memory_scenario(&steane(), ErrorModel::YErrors);
        let problem = build_problem(&scenario, 2, vec![]);
        let par = check_parallel(&problem, &ParallelConfig::default());
        assert!(matches!(par.outcome, VcOutcome::CounterExample(_)));
    }

    #[test]
    fn one_worker_runs_the_sequential_solver_alone() {
        let scenario = memory_scenario(&rotated_surface(3), ErrorModel::YErrors);
        let problem = build_problem(&scenario, 1, vec![]);
        let mut seq = problem.session(SolverConfig::default());
        assert!(seq.query(&[]).is_verified());
        let par = check_parallel(
            &problem,
            &ParallelConfig {
                workers: 1,
                ..ParallelConfig::default()
            },
        );
        assert!(par.outcome.is_verified());
        assert_eq!(par.subtasks, 1);
        // Same solver, same search: the conflict count repeats exactly, and
        // with nobody to race there is no pool.
        assert_eq!(par.stats.conflicts, seq.solver_stats().conflicts);
        assert_eq!((par.stats.exported, par.stats.imported), (0, 0));
    }

    #[test]
    fn sessions_of_one_problem_encode_identically() {
        // The pool exchanges clauses by literal index, which is sound only
        // because every racer's encoding of the problem is the same CNF
        // over the same variable numbering.
        let scenario = memory_scenario(&rotated_surface(3), ErrorModel::YErrors);
        let problem = build_problem(&scenario, 1, vec![]);
        let mut a = problem.session(racer_config(SolverConfig::default(), 0));
        let mut b = problem.session(racer_config(SolverConfig::default(), 1));
        assert_eq!(a.ctx_mut().export_cnf(), b.ctx_mut().export_cnf());
        let vars = |s: &mut veriqec_vcgen::VcSession| {
            let mut m: Vec<_> = s.ctx_mut().var_map().collect();
            m.sort();
            m
        };
        assert_eq!(vars(&mut a), vars(&mut b));
        // Each racer's configuration proves the problem on its own; racer 1
        // runs with phase saving off.
        assert!(a.query(&[]).is_verified());
        assert!(b.query(&[]).is_verified());
    }
}
