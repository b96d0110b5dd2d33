//! The incremental verification engine: persistent solver sessions,
//! assumption-driven weight sweeps, and the shared batch driver.
//!
//! The paper's workloads are *families* of closely related SAT queries —
//! distance discovery sweeps a weight threshold, the fault-tolerance task
//! sweeps a budget grid, the evaluation sweeps a whole code zoo. This
//! module makes the family, not the single query, the unit of work:
//!
//! * [`DetectionSession`] — the precise-detection formula (Eqn. 15) encoded
//!   once per code; every threshold `dt` is an assumption on one shared
//!   cardinality handle, so a distance sweep pays encode + solver warm-up
//!   exactly once and reuses learnt clauses across bounds.
//! * [`CorrectionSweep`] — the same discipline for the general/constrained
//!   tasks: one [`VcSession`] per (scenario, constraints), weight bounds
//!   swept as assumptions.
//! * [`Engine`] — a batch driver owning one worker pool that serves a queue
//!   of heterogeneous [`Job`]s (code-zoo × error-model × task sweeps,
//!   including [`JobKind::Count`] failure-enumerator jobs served by the
//!   decision-diagram backend).
//!   A correction job is a race: every worker takes one racer, which
//!   encodes the whole problem with its own solver configuration
//!   ([`crate::parallel`]); the racers share short learnt clauses through
//!   a per-job [`ClausePool`], and the first verdict cancels the rest.
//!   Cancellation is cooperative at both levels (whole batch, single job on
//!   its first verdict), statistics are per-job, and [`BatchReport`]
//!   renders as markdown or machine-readable JSON.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use veriqec_cexpr::{BExp, CMem, VarId};
use veriqec_codes::StabilizerCode;
use veriqec_dd::{CompileConfig, CompileError, DdStats};
use veriqec_obs::json::{escape, push_metrics};
use veriqec_sat::{ClausePool, Lit, SolverConfig, SolverStats, UnknownCause};
use veriqec_smt::{CardinalityHandle, CheckResult, SmtContext};
use veriqec_vcgen::{VcOutcome, VcProblem, VcSession};

use crate::enumerator::{FailureEnumerator, WeightEnumerator};
use crate::parallel::{racer_config, SplitConfig};
use crate::scenario::Scenario;
use crate::tasks::{build_problem_unbounded, DetectionOutcome, DistanceOutcome};

// ------------------------------------------------------------------ sessions

/// An incremental precise-detection session (Eqn. 15) for one code.
///
/// The syndrome-zero equations, the logical-flip disjunction and a single
/// support totalizer are encoded once at construction; each
/// [`DetectionSession::check`] call decides one threshold `dt` by assuming
/// `Σ support ≤ dt − 1` on the shared [`CardinalityHandle`]. Distance
/// discovery ([`DetectionSession::find_distance`]) is therefore one base
/// encoding plus a sequence of assumption-only queries, with learnt clauses
/// carried across the sweep.
#[derive(Clone, Debug)]
pub struct DetectionSession {
    ctx: SmtContext,
    ex: Vec<VarId>,
    ez: Vec<VarId>,
    support: CardinalityHandle,
    encodes: usize,
    queries: usize,
}

impl DetectionSession {
    /// Encodes the detection formula for `code` once (the shared Eqn. 15
    /// assembly of [`crate::enumerator`], plus this session's totalizer).
    pub fn new(code: &StabilizerCode, config: SolverConfig) -> Self {
        Self::from_parts(crate::enumerator::detection_parts(code, config))
    }

    /// Like [`DetectionSession::new`], but under a (possibly noisy)
    /// extraction schedule: the threshold `dt` then bounds the *total*
    /// weight `|supp(e)| + |m|` of an undetected `(error, flip)` pair whose
    /// observed syndromes vanish in every round — the faulty-measurement
    /// form of precise detection.
    pub fn with_schedule(
        code: &StabilizerCode,
        schedule: &veriqec_codes::ExtractionSchedule,
        config: SolverConfig,
    ) -> Self {
        Self::from_parts(crate::enumerator::detection_parts_with_schedule(
            code, schedule, config,
        ))
    }

    fn from_parts(parts: crate::enumerator::DetectionParts) -> Self {
        let crate::enumerator::DetectionParts {
            mut ctx,
            ex,
            ez,
            support: support_lits,
            ..
        } = parts;
        // One totalizer serves the whole sweep: the lower bound (≥ 1) is
        // constant and baked in, the upper bound arrives per query as an
        // assumption.
        let support = ctx.cardinality(&support_lits);
        if let Some(l) = support.at_least(1) {
            ctx.add_clause([l]);
        }
        DetectionSession {
            ctx,
            ex,
            ez,
            support,
            encodes: 1,
            queries: 0,
        }
    }

    /// Decides threshold `dt`: does an undetected logical error of weight
    /// in `[1, dt − 1]` exist? Solver-budget exhaustion reports
    /// [`DetectionOutcome::Inconclusive`] — never a silent `AllDetected`.
    pub fn check(&mut self, dt: usize) -> DetectionOutcome {
        self.queries += 1;
        let assumptions: Vec<Lit> = self.support.at_most(dt as i64 - 1).into_iter().collect();
        match self.ctx.check(&assumptions) {
            CheckResult::Unsat => DetectionOutcome::AllDetected,
            CheckResult::Sat => {
                let m = self.ctx.model();
                let sup = |vars: &[VarId], m: &CMem| {
                    vars.iter()
                        .enumerate()
                        .filter_map(|(q, &v)| m.get(v).as_bool().then_some(q))
                        .collect::<Vec<_>>()
                };
                DetectionOutcome::UndetectedLogical {
                    x_support: sup(&self.ex, &m),
                    z_support: sup(&self.ez, &m),
                }
            }
            CheckResult::Unknown => DetectionOutcome::Inconclusive,
        }
    }

    /// Sweeps `dt` upward until an undetected logical error appears — the
    /// paper's distance-discovery workflow, incremental: one base encoding,
    /// `max` assumption queries.
    pub fn find_distance(&mut self, max: usize) -> DistanceOutcome {
        for dt in 2..=max + 1 {
            match self.check(dt) {
                DetectionOutcome::AllDetected => {}
                DetectionOutcome::UndetectedLogical { .. } => {
                    return DistanceOutcome::Exact(dt - 1)
                }
                DetectionOutcome::Inconclusive => {
                    // The last UNSAT answer was at dt − 1, which proves
                    // weights < dt − 1 detected; claiming `dt` here would
                    // silently extend the detection claim by one weight.
                    return DistanceOutcome::Inconclusive {
                        verified_below: dt - 1,
                    };
                }
            }
        }
        DistanceOutcome::AtLeast(max + 1)
    }

    /// Installs a cooperative stop flag (see [`SmtContext::set_stop_flag`]);
    /// an aborted query reports [`DetectionOutcome::Inconclusive`].
    pub fn set_stop_flag(&mut self, flag: Arc<AtomicBool>) {
        self.ctx.set_stop_flag(flag);
    }

    /// Answers `query` under the stop flag `stop`, with the solver's cause
    /// when inconclusive: the engine's and the daemon's one detection body.
    pub fn run(
        &mut self,
        query: DetectionQuery,
        stop: Arc<AtomicBool>,
    ) -> (JobOutcome, Option<String>) {
        self.set_stop_flag(stop);
        let outcome = match query {
            DetectionQuery::Threshold(dt) => JobOutcome::Detection(self.check(dt)),
            DetectionQuery::Distance(max) => JobOutcome::Distance(self.find_distance(max)),
        };
        (outcome, self.ctx.unknown_cause().map(|c| c.to_string()))
    }

    /// Number of base encodings performed (always 1; exposed so sweep tests
    /// can assert nothing was re-encoded).
    pub fn encode_count(&self) -> usize {
        self.encodes
    }

    /// Number of [`DetectionSession::check`] queries so far.
    pub fn query_count(&self) -> usize {
        self.queries
    }

    /// Statistics of the underlying solver.
    pub fn solver_stats(&self) -> SolverStats {
        self.ctx.solver_stats()
    }
}

/// An incremental weight sweep over the general/constrained correction task.
///
/// The base formula (guards, decoder condition `P_f`, any locality or
/// discreteness constraints, refutation goal) is encoded once into a
/// [`VcSession`]; the error-weight bound `Σe ≤ t` — baked into the CNF by
/// the one-shot [`crate::tasks::verify_correction`] path — becomes an
/// assumption on a shared cardinality handle, so one session answers every
/// budget `t`.
#[derive(Clone, Debug)]
pub struct CorrectionSweep {
    session: VcSession,
    weight: CardinalityHandle,
}

impl CorrectionSweep {
    /// Encodes the scenario (with optional extra constraints such as
    /// [`crate::tasks::locality_constraint`] /
    /// [`crate::tasks::discreteness_constraint`]) once, leaving the weight
    /// bound open.
    pub fn new(scenario: &Scenario, constraints: Vec<BExp>, config: SolverConfig) -> Self {
        let problem = build_problem_unbounded(scenario, constraints);
        let mut session = problem.session(config);
        let lits: Vec<Lit> = scenario
            .error_vars
            .iter()
            .map(|&v| session.ctx_mut().lit_of(v))
            .collect();
        let weight = session.ctx_mut().cardinality(&lits);
        CorrectionSweep { session, weight }
    }

    /// Decides the task under the budget `Σe ≤ max_errors`.
    pub fn check_weight(&mut self, max_errors: i64) -> VcOutcome {
        let assumptions: Vec<Lit> = self.weight.at_most(max_errors).into_iter().collect();
        self.session.query(&assumptions)
    }

    /// Number of base encodings performed (always 1).
    pub fn encode_count(&self) -> usize {
        self.session.encode_count()
    }

    /// Number of weight queries so far.
    pub fn query_count(&self) -> usize {
        self.session.query_count()
    }

    /// The underlying session (problem-size and solver statistics).
    pub fn session(&self) -> &VcSession {
        &self.session
    }
}

/// An incremental sweep over the faulty-measurement fault-tolerance grid.
///
/// The base formula of an r-round faulty-measurement scenario is encoded
/// once; each grid point `(t_data, t_meas)` is decided under assumption
/// literals drawn from four kinds of shared [`CardinalityHandle`]s — the
/// adversary's data-error and measurement-flip budgets, plus every faulty
/// decoder's *claim* budgets (`Σc ≤ t_data`, `Σf ≤ t_meas`; see
/// [`crate::tasks::build_problem_split`] for why the claims are bounded).
/// One encoding therefore serves the whole correctable frontier.
#[derive(Clone, Debug)]
pub struct FaultToleranceSweep {
    session: VcSession,
    data: CardinalityHandle,
    meas: CardinalityHandle,
    /// Per faulty decoder: (corrections handle, claimed-flips handle).
    claims: Vec<(CardinalityHandle, CardinalityHandle)>,
}

impl FaultToleranceSweep {
    /// Encodes the scenario once, leaving every budget open.
    pub fn new(scenario: &Scenario, constraints: Vec<BExp>, config: SolverConfig) -> Self {
        let problem = build_problem_unbounded(scenario, constraints);
        Self::from_problem(
            &problem,
            &scenario.error_vars,
            &scenario.meas_error_vars,
            config,
        )
    }

    /// Opens a sweep over an already-assembled unbounded problem (the batch
    /// driver's path: jobs carry problems, not scenarios).
    pub fn from_problem(
        problem: &VcProblem,
        data_vars: &[VarId],
        meas_vars: &[VarId],
        config: SolverConfig,
    ) -> Self {
        let mut session = problem.session(config);
        let lits = |session: &mut VcSession, vars: &[VarId]| -> Vec<Lit> {
            vars.iter().map(|&v| session.ctx_mut().lit_of(v)).collect()
        };
        let data_lits = lits(&mut session, data_vars);
        let meas_lits = lits(&mut session, meas_vars);
        let data = session.ctx_mut().cardinality(&data_lits);
        let meas = session.ctx_mut().cardinality(&meas_lits);
        let claims = problem
            .decoder_specs
            .iter()
            .filter(|spec| !spec.flips.is_empty())
            .map(|spec| {
                let c = lits(&mut session, &spec.corrections);
                let f = lits(&mut session, &spec.flips);
                let ch = session.ctx_mut().cardinality(&c);
                let fh = session.ctx_mut().cardinality(&f);
                (ch, fh)
            })
            .collect();
        FaultToleranceSweep {
            session,
            data,
            meas,
            claims,
        }
    }

    /// Assumption literals selecting one `(t_data, t_meas)` grid point.
    fn assumptions(&self, t_data: i64, t_meas: i64) -> Vec<Lit> {
        let mut assumptions: Vec<Lit> = self.data.at_most(t_data).into_iter().collect();
        assumptions.extend(self.meas.at_most(t_meas));
        for (c, f) in &self.claims {
            assumptions.extend(c.at_most(t_data));
            assumptions.extend(f.at_most(t_meas));
        }
        assumptions
    }

    /// Decides one grid point: is every configuration of `≤ t_data` data
    /// errors and `≤ t_meas` measurement flips corrected?
    pub fn check(&mut self, t_data: i64, t_meas: i64) -> VcOutcome {
        let assumptions = self.assumptions(t_data, t_meas);
        self.session.query(&assumptions)
    }

    /// Decides every grid point up to `(max_t_data, max_t_meas)`, row-major,
    /// under the stop flag `stop`: the engine's and the daemon's one
    /// frontier loop. A point that runs out of conflict budget is `None` and
    /// the sweep goes on (the budget is per query); only the stop flag ends
    /// it early. The cause is the first undecided point's.
    pub fn frontier(
        &mut self,
        max_t_data: usize,
        max_t_meas: usize,
        stop: Arc<AtomicBool>,
    ) -> (FaultToleranceFrontier, Option<String>) {
        self.session.set_stop_flag(stop);
        let (mut points, mut cause) = (Vec::new(), None);
        'grid: for t_data in 0..=max_t_data {
            for t_meas in 0..=max_t_meas {
                let correctable = match self.check(t_data as i64, t_meas as i64) {
                    VcOutcome::Verified => Some(true),
                    VcOutcome::CounterExample(_) => Some(false),
                    VcOutcome::Unknown => None,
                };
                points.push(FrontierPoint {
                    t_data,
                    t_meas,
                    correctable,
                });
                if correctable.is_none() {
                    let why = self.session.unknown_cause();
                    cause = cause.or(why.map(|c| c.to_string()));
                    if why == Some(UnknownCause::Interrupted) {
                        break 'grid;
                    }
                }
            }
        }
        (FaultToleranceFrontier { points }, cause)
    }

    /// Number of base encodings performed (always 1).
    pub fn encode_count(&self) -> usize {
        self.session.encode_count()
    }

    /// Number of grid-point queries so far.
    pub fn query_count(&self) -> usize {
        self.session.query_count()
    }

    /// The underlying session (problem-size and solver statistics).
    pub fn session(&self) -> &VcSession {
        &self.session
    }
}

/// One grid point of a fault-tolerance sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrontierPoint {
    /// Data-error budget.
    pub t_data: usize,
    /// Measurement-flip budget.
    pub t_meas: usize,
    /// `Some(true)` verified, `Some(false)` counterexample, `None` when the
    /// solver budget ran out or the job was cancelled mid-grid.
    pub correctable: Option<bool>,
}

/// The correctable frontier reported by a [`JobKind::FaultTolerance`] job:
/// every `(t_data, t_meas)` grid point with its verdict.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FaultToleranceFrontier {
    /// Grid points in row-major order (`t_data` outer, `t_meas` inner).
    pub points: Vec<FrontierPoint>,
}

impl FaultToleranceFrontier {
    /// The verdict at one grid point, if it was decided.
    pub fn correctable(&self, t_data: usize, t_meas: usize) -> Option<bool> {
        self.points
            .iter()
            .find(|p| p.t_data == t_data && p.t_meas == t_meas)
            .and_then(|p| p.correctable)
    }

    /// The largest `t_meas` verified at `t_data`, scanning contiguously
    /// from 0 (`None` when even `t_meas = 0` is not verified).
    pub fn max_t_meas(&self, t_data: usize) -> Option<usize> {
        let mut best = None;
        for tm in 0.. {
            match self.correctable(t_data, tm) {
                Some(true) => best = Some(tm),
                _ => break,
            }
        }
        best
    }
}

// -------------------------------------------------------------- batch driver

/// Configuration of the batch [`Engine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads in the engine-owned pool (and racers per correction
    /// job).
    pub workers: usize,
    /// Solver configuration for every session the engine opens.
    pub solver: SolverConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            solver: SolverConfig::default(),
        }
    }
}

/// A named unit of work for the batch driver.
#[derive(Clone, Debug)]
pub struct Job {
    /// Human-readable identifier, echoed in reports.
    pub name: String,
    /// What to verify.
    pub kind: JobKind,
}

/// The task behind a [`Job`].
#[derive(Clone, Debug)]
pub enum JobKind {
    /// General verification as a race: every worker encodes the whole
    /// problem into its own session with a different solver configuration,
    /// the racers share short learnt clauses, and the first verdict wins
    /// (see [`crate::parallel`]).
    Correction {
        /// The assembled problem (error model baked in).
        problem: VcProblem,
    },
    /// Precise detection or distance discovery on a [`DetectionSession`].
    Detection {
        /// The code under test.
        code: StabilizerCode,
        /// What to ask the session.
        query: DetectionQuery,
    },
    /// Exact failure weight enumerator via the decision-diagram backend
    /// ([`FailureEnumerator`]): compile once, stratify by weight, report
    /// every coefficient.
    Count {
        /// The code under test.
        code: StabilizerCode,
        /// Diagram compile budget and ordering (the job's cancel flag is
        /// layered on top as the stop flag).
        config: CompileConfig,
    },
    /// Fault-tolerance frontier sweep over an r-round faulty-measurement
    /// scenario: one base encoding, every `(t_data, t_meas)` pair up to the
    /// maxima decided as an assumption query (the [`FaultToleranceSweep`]
    /// discipline on a worker).
    FaultTolerance {
        /// The unbounded problem (no weight constraints baked in).
        problem: VcProblem,
        /// Data-error indicators.
        data_vars: Vec<VarId>,
        /// Measurement-flip indicators.
        meas_vars: Vec<VarId>,
        /// Largest data budget to sweep (inclusive).
        max_t_data: usize,
        /// Largest measurement budget to sweep (inclusive).
        max_t_meas: usize,
    },
    /// An opaque embedder-supplied callable: work that is not one of the
    /// built-in verification shapes still rides the pool, the cancel
    /// plumbing, and the reporting (the resilience tests inject
    /// deliberately panicking jobs through this).
    Custom {
        /// The callable; receives the job's cancel flag.
        run: CustomJobFn,
    },
}

/// What a [`JobKind::Detection`] job asks its [`DetectionSession`].
#[derive(Clone, Copy, Debug)]
pub enum DetectionQuery {
    /// One query at threshold `dt` ([`DetectionSession::check`]).
    Threshold(usize),
    /// Distance discovery up to `max` ([`DetectionSession::find_distance`]).
    Distance(usize),
}

/// The callable behind [`JobKind::Custom`]: gets the job's cancel flag
/// (doubling as the cooperative stop flag) and returns the job's outcome.
#[derive(Clone)]
pub struct CustomJobFn(pub Arc<dyn Fn(&AtomicBool) -> JobOutcome + Send + Sync>);

impl std::fmt::Debug for CustomJobFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CustomJobFn(..)")
    }
}

impl Job {
    /// A general-verification job: a race of one solver per worker (see
    /// [`crate::parallel`]). To race a single problem, run this one job
    /// on [`Engine::run`] and read its [`JobReport`].
    ///
    /// The last two parameters (the variables to enumerate and the split
    /// parameters) are unused: they parametrized the paper's `ET`
    /// enumeration split, which the race replaced, and stay only because
    /// the benchmark package still passes them.
    pub fn correction(
        name: impl Into<String>,
        problem: VcProblem,
        _enum_vars: Vec<VarId>,
        _split: SplitConfig,
    ) -> Job {
        Job {
            name: name.into(),
            kind: JobKind::Correction { problem },
        }
    }

    /// A single precise-detection job.
    pub fn detection(name: impl Into<String>, code: StabilizerCode, dt: usize) -> Job {
        Job {
            name: name.into(),
            kind: JobKind::Detection {
                code,
                query: DetectionQuery::Threshold(dt),
            },
        }
    }

    /// An incremental distance-sweep job.
    pub fn distance(name: impl Into<String>, code: StabilizerCode, max: usize) -> Job {
        Job {
            name: name.into(),
            kind: JobKind::Detection {
                code,
                query: DetectionQuery::Distance(max),
            },
        }
    }

    /// A failure-enumerator counting job with the default diagram budget.
    pub fn count(name: impl Into<String>, code: StabilizerCode) -> Job {
        Job::count_with_config(name, code, CompileConfig::default())
    }

    /// A counting job with an explicit compile budget/ordering.
    pub fn count_with_config(
        name: impl Into<String>,
        code: StabilizerCode,
        config: CompileConfig,
    ) -> Job {
        Job {
            name: name.into(),
            kind: JobKind::Count { code, config },
        }
    }

    /// A fault-tolerance frontier job over a faulty-measurement scenario:
    /// sweeps every `(t_data, t_meas)` pair up to the given maxima on one
    /// persistent session.
    pub fn fault_tolerance(
        name: impl Into<String>,
        scenario: &Scenario,
        max_t_data: usize,
        max_t_meas: usize,
    ) -> Job {
        Job {
            name: name.into(),
            kind: JobKind::FaultTolerance {
                problem: build_problem_unbounded(scenario, vec![]),
                data_vars: scenario.error_vars.clone(),
                meas_vars: scenario.meas_error_vars.clone(),
                max_t_data,
                max_t_meas,
            },
        }
    }

    /// An opaque custom job (see [`JobKind::Custom`]).
    pub fn custom(
        name: impl Into<String>,
        run: impl Fn(&AtomicBool) -> JobOutcome + Send + Sync + 'static,
    ) -> Job {
        Job {
            name: name.into(),
            kind: JobKind::Custom {
                run: CustomJobFn(Arc::new(run)),
            },
        }
    }
}

/// Outcome of one [`Job`].
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Correction: a racer refuted the problem.
    Verified,
    /// Correction: a violating assignment was found.
    CounterExample(CMem),
    /// Correction: every racer exhausted its solver budget (or the job
    /// failed; see [`JobReport::reason`]).
    Unknown,
    /// Detection result.
    Detection(DetectionOutcome),
    /// Distance-sweep result.
    Distance(DistanceOutcome),
    /// Counting result: the full failure weight enumerator.
    Enumerator(WeightEnumerator),
    /// Fault-tolerance sweep result: the correctable frontier.
    Frontier(FaultToleranceFrontier),
    /// The batch was cancelled before this job completed.
    Cancelled,
}

impl JobOutcome {
    /// True for [`JobOutcome::Verified`].
    pub fn is_verified(&self) -> bool {
        matches!(self, JobOutcome::Verified)
    }

    /// True when the job ran to a definite verdict. `Unknown`,
    /// `Cancelled`, inconclusive detection/distance outcomes and frontiers
    /// with undecided grid points are *not* conclusive — a batch containing
    /// one is a partial result, and the `tables` smoke modes exit nonzero
    /// on it so CI cannot mistake a half-finished report for a green run.
    pub fn is_conclusive(&self) -> bool {
        match self {
            JobOutcome::Unknown | JobOutcome::Cancelled => false,
            JobOutcome::Detection(DetectionOutcome::Inconclusive) => false,
            JobOutcome::Distance(DistanceOutcome::Inconclusive { .. }) => false,
            JobOutcome::Frontier(f) => f.points.iter().all(|p| p.correctable.is_some()),
            _ => true,
        }
    }

    /// Short machine-readable tag: the `outcome` of the JSON and markdown
    /// reports and of the daemon's responses.
    pub fn tag(&self) -> &'static str {
        match self {
            JobOutcome::Verified => "verified",
            JobOutcome::CounterExample(_) => "counterexample",
            JobOutcome::Unknown => "unknown",
            JobOutcome::Detection(DetectionOutcome::AllDetected) => "all_detected",
            JobOutcome::Detection(DetectionOutcome::UndetectedLogical { .. }) => {
                "undetected_logical"
            }
            JobOutcome::Detection(DetectionOutcome::Inconclusive) => "inconclusive",
            JobOutcome::Distance(DistanceOutcome::Exact(_)) => "distance_exact",
            JobOutcome::Distance(DistanceOutcome::AtLeast(_)) => "distance_at_least",
            JobOutcome::Distance(DistanceOutcome::Inconclusive { .. }) => "distance_inconclusive",
            JobOutcome::Enumerator(_) => "enumerator",
            JobOutcome::Frontier(_) => "frontier",
            JobOutcome::Cancelled => "cancelled",
        }
    }
}

/// The one rule behind every [`JobReport::reason`], in the engine and the
/// daemon: a conclusive outcome has none, whatever tripped on the way;
/// otherwise `deadline_exceeded` when a `deadline` watchdog tripped, then
/// the solver's or compiler's own `cause`, then `cancelled` for a job that
/// never ran.
pub fn job_reason(outcome: &JobOutcome, deadline: bool, cause: Option<String>) -> Option<String> {
    if outcome.is_conclusive() {
        return None;
    }
    if deadline {
        return Some("deadline_exceeded".to_string());
    }
    cause.or_else(|| matches!(outcome, JobOutcome::Cancelled).then(|| "cancelled".to_string()))
}

/// How one generated markdown column renders its metric.
enum ColStyle {
    /// Integer count, verbatim.
    Count,
    /// Real value with two decimals.
    Fixed2,
    /// Ratio in `[0, 1]` shown as a one-decimal percentage.
    Pct1,
}

/// One generated report column: the metric it reads and how it renders.
/// Markdown rows and headers both come from this table, so adding a metric
/// to a stats `to_metrics()` plus one entry here is the whole change.
struct MdColumn {
    header: &'static str,
    metric: &'static str,
    style: ColStyle,
}

impl MdColumn {
    fn render(&self, m: &veriqec_obs::MetricsSnapshot) -> String {
        match self.style {
            ColStyle::Count => format!("{}", m.count(self.metric)),
            ColStyle::Fixed2 => format!("{:.2}", m.value(self.metric)),
            ColStyle::Pct1 => format!("{:.1}", m.value(self.metric) * 100.0),
        }
    }
}

const MD_COLUMNS: &[MdColumn] = &[
    MdColumn {
        header: "conflicts",
        metric: "conflicts",
        style: ColStyle::Count,
    },
    MdColumn {
        header: "decisions",
        metric: "decisions",
        style: ColStyle::Count,
    },
    MdColumn {
        header: "mean LBD",
        metric: "mean_lbd",
        style: ColStyle::Fixed2,
    },
    MdColumn {
        header: "dd nodes",
        metric: "dd_nodes",
        style: ColStyle::Count,
    },
    MdColumn {
        header: "dd hit%",
        metric: "dd_hit_rate",
        style: ColStyle::Pct1,
    },
    MdColumn {
        header: "dd gc",
        metric: "dd_gc_runs",
        style: ColStyle::Count,
    },
    MdColumn {
        header: "dd swaps",
        metric: "dd_reorder_swaps",
        style: ColStyle::Count,
    },
    MdColumn {
        header: "exported",
        metric: "exported",
        style: ColStyle::Count,
    },
    MdColumn {
        header: "imported",
        metric: "imported",
        style: ColStyle::Count,
    },
];

/// Per-job result within a [`BatchReport`].
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The job's name.
    pub name: String,
    /// The job's outcome.
    pub outcome: JobOutcome,
    /// Work items issued: racers started for a correction job (at most one
    /// per worker), 1 for any other job a worker claimed, 0 if never
    /// started.
    pub subtasks: usize,
    /// Summed worker time spent on this job (CPU-side, not wall clock;
    /// excludes queue wait — each item is timed from its claim).
    pub busy_time: Duration,
    /// Time from batch start to the job's first claim by a worker (the
    /// whole batch for a job no worker ever reached).
    pub queue_wait: Duration,
    /// Why an inconclusive outcome is inconclusive (see [`job_reason`]):
    /// `"deadline_exceeded"` (daemon only), `"conflict_budget"`,
    /// `"interrupted"`, `"node_limit(N nodes)"`, `"panicked: …"` or
    /// `"cancelled"`. `None` for conclusive outcomes.
    pub reason: Option<String>,
    /// Solver statistics summed over every session that served this job.
    pub stats: SolverStats,
    /// Decision-diagram statistics (counting jobs; zero elsewhere).
    pub dd: DdStats,
}

impl JobReport {
    /// The job's solver and DD statistics lowered into one
    /// [`veriqec_obs::MetricsSnapshot`] — the single table the markdown
    /// and JSON report columns are generated from.
    pub fn metrics(&self) -> veriqec_obs::MetricsSnapshot {
        let mut m = self.stats.to_metrics();
        m.merge(&self.dd.to_metrics());
        m
    }
}

/// Result of one [`Engine::run`] batch.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job reports, in submission order.
    pub jobs: Vec<JobReport>,
    /// Wall-clock time of the whole batch.
    pub wall_time: Duration,
    /// Worker threads used.
    pub workers: usize,
    /// Aggregated per-phase span summary, attached by trace-collecting
    /// drivers via [`BatchReport::attach_phase_summary`]; empty when
    /// tracing was off.
    pub phases: Vec<veriqec_obs::PhaseSummary>,
}

impl BatchReport {
    /// Jobs without a definite verdict (see [`JobOutcome::is_conclusive`]),
    /// each with its budget-trip reason when one was recorded. Empty for a
    /// fully-resolved batch; the `tables` smoke modes exit nonzero, listing
    /// these reasons instead of a bare "inconclusive", when it is not.
    pub fn incomplete_jobs_with_reasons(&self) -> Vec<(&str, Option<&str>)> {
        self.jobs
            .iter()
            .filter(|j| !j.outcome.is_conclusive())
            .map(|j| (j.name.as_str(), j.reason.as_deref()))
            .collect()
    }

    /// Attaches the per-phase span summary (from
    /// [`veriqec_obs::Collector::phase_summary`]) so the markdown and JSON
    /// renderings include it.
    pub fn attach_phase_summary(&mut self, phases: Vec<veriqec_obs::PhaseSummary>) {
        self.phases = phases;
    }

    /// Renders the batch as a markdown table. The solver/DD columns are
    /// generated from one internal column table over the jobs' metric
    /// snapshots — the same snapshots the JSON rendering draws from.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| job | outcome | subtasks | busy | queue |");
        for col in MD_COLUMNS {
            out.push_str(&format!(" {} |", col.header));
        }
        out.push('\n');
        out.push_str("|-----|---------|----------|------|-------|");
        for col in MD_COLUMNS {
            out.push_str(&format!("{}|", "-".repeat(col.header.len() + 2)));
        }
        out.push('\n');
        for j in &self.jobs {
            let m = j.metrics();
            out.push_str(&format!(
                "| {} | {} | {} | {:?} | {:?} |",
                j.name,
                j.outcome.tag(),
                j.subtasks,
                j.busy_time,
                j.queue_wait,
            ));
            for col in MD_COLUMNS {
                out.push_str(&format!(" {} |", col.render(&m)));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "\n{} jobs on {} workers in {:?}\n",
            self.jobs.len(),
            self.workers,
            self.wall_time
        ));
        if !self.phases.is_empty() {
            out.push_str("\n| phase | spans | total |\n|-------|-------|-------|\n");
            for p in &self.phases {
                out.push_str(&format!(
                    "| {}/{} | {} | {:.3}ms |\n",
                    p.cat,
                    p.name,
                    p.count,
                    p.total_us as f64 / 1e3
                ));
            }
        }
        out
    }

    /// Renders the batch as machine-readable JSON (stable field names; no
    /// external serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"wall_time_ms\":{:.3},\"workers\":{},\"jobs\":[",
            self.wall_time.as_secs_f64() * 1e3,
            self.workers
        ));
        for (i, j) in self.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"outcome\":\"{}\"",
                escape(&j.name),
                j.outcome.tag()
            ));
            match &j.outcome {
                JobOutcome::Distance(DistanceOutcome::Exact(d)) => {
                    out.push_str(&format!(",\"distance\":{d}"));
                }
                JobOutcome::Distance(DistanceOutcome::AtLeast(d)) => {
                    out.push_str(&format!(",\"distance_at_least\":{d}"));
                }
                JobOutcome::Distance(DistanceOutcome::Inconclusive { verified_below }) => {
                    out.push_str(&format!(",\"verified_below\":{verified_below}"));
                }
                JobOutcome::Detection(DetectionOutcome::UndetectedLogical {
                    x_support,
                    z_support,
                }) => {
                    out.push_str(&format!(
                        ",\"x_support\":{x_support:?},\"z_support\":{z_support:?}"
                    ));
                }
                JobOutcome::Enumerator(e) => {
                    if let Some(w) = e.min_weight {
                        out.push_str(&format!(",\"min_weight\":{w}"));
                    }
                    out.push_str(&format!(",\"coefficients\":{:?}", e.coefficients));
                }
                JobOutcome::Frontier(f) => {
                    out.push_str(",\"points\":[");
                    for (k, p) in f.points.iter().enumerate() {
                        if k > 0 {
                            out.push(',');
                        }
                        let verdict = match p.correctable {
                            Some(true) => "true",
                            Some(false) => "false",
                            None => "null",
                        };
                        out.push_str(&format!(
                            "{{\"t_data\":{},\"t_meas\":{},\"correctable\":{verdict}}}",
                            p.t_data, p.t_meas
                        ));
                    }
                    out.push(']');
                }
                _ => {}
            }
            out.push_str(&format!(
                ",\"subtasks\":{},\"busy_ms\":{:.3},\"queue_wait_ms\":{:.3}",
                j.subtasks,
                j.busy_time.as_secs_f64() * 1e3,
                j.queue_wait.as_secs_f64() * 1e3,
            ));
            if let Some(reason) = &j.reason {
                out.push_str(&format!(",\"reason\":\"{}\"", escape(reason)));
            }
            // Solver columns straight from the metric snapshot (same
            // source as the markdown table); DD columns only for jobs that
            // touched the counting backend, as before.
            push_metrics(&mut out, &j.stats.to_metrics());
            if j.dd != DdStats::default() {
                push_metrics(&mut out, &j.dd.to_metrics());
            }
            out.push('}');
        }
        out.push(']');
        if !self.phases.is_empty() {
            out.push_str(",\"phases\":[");
            for (i, p) in self.phases.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"cat\":\"{}\",\"name\":\"{}\",\"count\":{},\"total_us\":{}}}",
                    escape(&p.cat),
                    escape(&p.name),
                    p.count,
                    p.total_us
                ));
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Locks a mutex, recovering from poisoning: a worker that panicked
/// mid-update left at worst a partially bumped statistic behind, and a
/// resident process must degrade that to one job erroring — not cascade
/// panics through every later status read until the daemon dies.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort text of a panic payload (the `&str`/`String` payloads that
/// `panic!` and the assert macros produce).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

// ----------------------------------------------------------- the work queue

/// Shared per-job state while a batch runs.
struct JobState {
    name: String,
    kind: JobKind,
    /// Raised on the job's first verdict, on a panic, or on batch
    /// cancellation; doubles as the cooperative stop flag of every session
    /// serving the job.
    cancel: Arc<AtomicBool>,
    /// Work items the job splits into: one racer per worker for a
    /// correction job, a single item for every other kind.
    racers: usize,
    /// The learnt-clause pool of a correction job's racers (none when one
    /// racer runs alone).
    pool: Option<Arc<ClausePool>>,
    /// Work items handed out so far; the next item's racer index.
    issued: AtomicUsize,
    /// Work items finished (returned or panicked).
    finished: AtomicUsize,
    /// Set once the job counted towards the heartbeat's jobs-done total.
    concluded: AtomicBool,
    outcome: Mutex<Option<JobOutcome>>,
    stats: Mutex<SolverStats>,
    dd: Mutex<DdStats>,
    busy: Mutex<Duration>,
    /// When the job entered the queue (batch start).
    queued_at: Instant,
    /// Time from enqueue to the first worker claim; `None` until claimed.
    queue_wait: Mutex<Option<Duration>>,
    /// First recorded budget-trip reason (see [`JobReport::reason`]).
    reason: Mutex<Option<String>>,
}

impl JobState {
    fn new(job: Job, workers: usize) -> Self {
        let racers = match job.kind {
            JobKind::Correction { .. } => workers,
            _ => 1,
        };
        JobState {
            name: job.name,
            kind: job.kind,
            cancel: Arc::new(AtomicBool::new(false)),
            racers,
            pool: (racers > 1).then(ClausePool::new),
            issued: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            concluded: AtomicBool::new(false),
            outcome: Mutex::new(None),
            stats: Mutex::new(SolverStats::default()),
            dd: Mutex::new(DdStats::default()),
            busy: Mutex::new(Duration::ZERO),
            queued_at: Instant::now(),
            queue_wait: Mutex::new(None),
            reason: Mutex::new(None),
        }
    }

    /// Hands out the job's next racer index, if one is left.
    fn claim(&self) -> Option<usize> {
        self.issued
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.racers).then_some(n + 1)
            })
            .ok()
    }

    /// Records how long the job waited in the queue, on its first claim.
    fn mark_claimed(&self) {
        let mut qw = lock_unpoisoned(&self.queue_wait);
        if qw.is_none() {
            *qw = Some(self.queued_at.elapsed());
        }
    }

    /// Records the first budget-trip reason (later ones add no information:
    /// the first trip is what stopped the job making progress).
    fn record_reason(&self, reason: Option<String>) {
        let mut r = lock_unpoisoned(&self.reason);
        if r.is_none() {
            *r = reason;
        }
    }

    /// Records `outcome` unless one is already present — except that a
    /// verdict (`Verified` or a counterexample) always wins over a
    /// previously recorded `Unknown`: one racer's budget exhaustion must
    /// not mask a sibling's result. Returns whether `outcome` was stored.
    fn record(&self, outcome: JobOutcome) -> bool {
        let mut o = lock_unpoisoned(&self.outcome);
        let displaces = matches!(
            outcome,
            JobOutcome::Verified | JobOutcome::CounterExample(_)
        ) && matches!(*o, Some(JobOutcome::Unknown));
        if o.is_none() || displaces {
            *o = Some(outcome);
            return true;
        }
        false
    }

    /// Counts the job as done on the progress heartbeat, once: when its
    /// race is won, or when its last work item finishes.
    fn conclude(&self) {
        if !self.concluded.swap(true, Ordering::Relaxed) {
            veriqec_obs::heartbeat::JOBS_DONE.add(1);
        }
    }

    /// Marks one work item finished.
    fn finish_item(&self) {
        if self.finished.fetch_add(1, Ordering::Relaxed) + 1 == self.racers {
            self.conclude();
        }
    }
}

/// Claims the next work item as `(job index, racer index)`, scanning jobs
/// in submission order (so a batch drains front-to-back, with later jobs
/// picked up as soon as workers free up or earlier jobs conclude).
fn next_item(states: &[JobState]) -> Option<(usize, usize)> {
    states.iter().enumerate().find_map(|(j, st)| {
        if st.cancel.load(Ordering::Relaxed) {
            return None;
        }
        st.claim().map(|racer| (j, racer))
    })
}

/// The shared batch driver: one worker pool serving a queue of heterogeneous
/// verification jobs.
#[derive(Clone, Debug)]
pub struct Engine {
    config: EngineConfig,
    cancel: Arc<AtomicBool>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// Creates an engine with the given pool configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The batch-level cancel flag: raising it (from any thread, e.g. a
    /// signal handler or a deadline watchdog) aborts in-flight solver calls
    /// cooperatively and drains the queue without starting new work.
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// Runs a batch of jobs to completion (or cancellation) on the
    /// engine-owned worker pool and reports per-job outcomes and statistics.
    pub fn run(&self, jobs: Vec<Job>) -> BatchReport {
        let start = Instant::now();
        let _batch_span = veriqec_obs::span("engine", "batch");
        let workers = self.config.workers.max(1);
        let states: Vec<JobState> = jobs
            .into_iter()
            .map(|job| JobState::new(job, workers))
            .collect();
        // Unconditional (the stores are relaxed atomics, cheap either way):
        // a resident process runs many batches in one lifetime, and stale
        // conflict/DD/phase state from the previous batch would otherwise
        // surface as a bogus jobs-done fraction and negative-drift ETA the
        // moment someone turns the heartbeat on mid-run.
        veriqec_obs::heartbeat::reset_progress();
        veriqec_obs::heartbeat::JOBS_TOTAL.set(states.len() as u64);
        if veriqec_obs::active() {
            // Indices, not names, to keep the instants cheap; the per-claim
            // job spans carry the names.
            for i in 0..states.len() {
                veriqec_obs::instant("engine", "job_queued", &[("job", i as f64)]);
            }
        }
        let active = AtomicUsize::new(workers);
        let done = Mutex::new(false);
        let done_cv = std::sync::Condvar::new();
        // Signals worker exit from a destructor so the countdown also runs
        // when a worker unwinds on panic — otherwise the watchdog below
        // would wait forever and `thread::scope` could never join to
        // propagate the panic.
        struct WorkerExit<'a> {
            active: &'a AtomicUsize,
            done: &'a Mutex<bool>,
            done_cv: &'a std::sync::Condvar,
        }
        impl Drop for WorkerExit<'_> {
            fn drop(&mut self) {
                if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
                    *self
                        .done
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
                    self.done_cv.notify_all();
                }
            }
        }
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _exit = WorkerExit {
                        active: &active,
                        done: &done,
                        done_cv: &done_cv,
                    };
                    self.worker(&states);
                });
            }
            // Watchdog: the solvers poll only the per-job flags, so a batch
            // cancel raised while every worker is mid-solve must be fanned
            // out here — the workers' own loop-top check never runs then.
            // Exits immediately when the last worker signals completion;
            // otherwise re-checks the cancel flag every millisecond.
            scope.spawn(|| {
                let mut finished = done
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                while !*finished {
                    if self.cancel.load(Ordering::Relaxed) {
                        for st in &states {
                            st.cancel.store(true, Ordering::Relaxed);
                        }
                        break;
                    }
                    finished = match done_cv.wait_timeout(finished, Duration::from_millis(1)) {
                        Ok((guard, _)) => guard,
                        Err(poisoned) => poisoned.into_inner().0,
                    };
                }
            });
        });
        let jobs = states
            .into_iter()
            .map(|st| {
                // Every item that runs to an answer records one, so a job
                // without an outcome was cancelled before it finished.
                let outcome = st
                    .outcome
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or(JobOutcome::Cancelled);
                // A sibling racer's budget trip does not qualify a verdict.
                let reason = st
                    .reason
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner);
                let reason = job_reason(&outcome, false, reason);
                JobReport {
                    name: st.name,
                    outcome,
                    subtasks: st.issued.into_inner(),
                    busy_time: st.busy.into_inner().unwrap_or_else(PoisonError::into_inner),
                    // A job no worker ever claimed waited out the batch.
                    queue_wait: st
                        .queue_wait
                        .into_inner()
                        .unwrap_or_else(PoisonError::into_inner)
                        .unwrap_or_else(|| start.elapsed()),
                    reason,
                    stats: st
                        .stats
                        .into_inner()
                        .unwrap_or_else(PoisonError::into_inner),
                    dd: st.dd.into_inner().unwrap_or_else(PoisonError::into_inner),
                }
            })
            .collect();
        BatchReport {
            jobs,
            wall_time: start.elapsed(),
            workers,
            phases: Vec::new(),
        }
    }

    /// One worker: claim items until the queue drains or the batch cancels.
    fn worker(&self, states: &[JobState]) {
        loop {
            if self.cancel.load(Ordering::Relaxed) {
                for st in states {
                    st.cancel.store(true, Ordering::Relaxed);
                }
                break;
            }
            let Some((idx, racer)) = next_item(states) else {
                break;
            };
            let st = &states[idx];
            // Queue wait ends at the first claim and busy time starts
            // after it, so the two never overlap: busy measures work, not
            // time spent parked behind earlier jobs.
            st.mark_claimed();
            if veriqec_obs::heartbeat::progress_enabled() {
                veriqec_obs::heartbeat::set_phase(&st.name);
            }
            let _job_span = veriqec_obs::span_with("engine", || format!("job:{}", st.name));
            let t0 = Instant::now();
            // One work item is the panic-containment unit: a panicking job
            // (bad input, a bug in one backend) must degrade to that job
            // erroring with a recorded reason — never to a dead worker or a
            // poisoned-mutex cascade, which a resident server cannot afford.
            let work = std::panic::AssertUnwindSafe(|| self.run_item(st, racer));
            if let Err(payload) = std::panic::catch_unwind(work) {
                let msg = panic_message(payload.as_ref());
                st.record_reason(Some(format!("panicked: {msg}")));
                st.record(JobOutcome::Unknown);
                // The job's state is suspect: stop handing it work and
                // abort its racers on other workers.
                st.cancel.store(true, Ordering::Relaxed);
            }
            *lock_unpoisoned(&st.busy) += t0.elapsed();
            st.finish_item();
        }
        // Hand this worker's buffered trace events to the global sink
        // before the closure returns. `thread::scope` considers a thread
        // finished when its closure returns — thread-local destructors may
        // still be running after the scope joins — so relying on the
        // buffer's drop-flush would race with a post-run drain.
        veriqec_obs::flush_thread();
    }

    /// Runs one work item: racer `racer` of a correction job, or the whole
    /// of any other job.
    fn run_item(&self, st: &JobState, racer: usize) {
        match &st.kind {
            JobKind::Correction { problem } => self.race(st, problem, racer),
            JobKind::Detection { code, query } => {
                let mut session = DetectionSession::new(code, self.config.solver);
                let (outcome, cause) = session.run(*query, Arc::clone(&st.cancel));
                *lock_unpoisoned(&st.stats) += session.solver_stats();
                st.record_reason(cause);
                st.record(outcome);
            }
            JobKind::Count { code, config } => {
                // Layer the job's cancel flag on top of any caller-supplied
                // stop flags.
                let mut config = config.clone();
                config.stop_flags.push(Arc::clone(&st.cancel));
                match FailureEnumerator::new(code, &config) {
                    Ok(mut fe) => {
                        let out = fe.enumerator();
                        *lock_unpoisoned(&st.dd) += fe.dd_stats();
                        st.record(JobOutcome::Enumerator(out));
                    }
                    Err(CompileError::NodeLimit { nodes }) => {
                        // Surface how far the diagram got so a report
                        // consumer can tune the budget.
                        lock_unpoisoned(&st.dd).nodes += nodes as u64;
                        st.record_reason(Some(format!("node_limit({nodes} nodes)")));
                        st.record(JobOutcome::Unknown);
                    }
                    // Cancelled: a real outcome or the cancel flag already
                    // explains the job; record nothing.
                    Err(CompileError::Cancelled) => {}
                }
            }
            JobKind::FaultTolerance {
                problem,
                data_vars,
                meas_vars,
                max_t_data,
                max_t_meas,
            } => {
                let mut sweep = FaultToleranceSweep::from_problem(
                    problem,
                    data_vars,
                    meas_vars,
                    self.config.solver,
                );
                let (frontier, cause) =
                    sweep.frontier(*max_t_data, *max_t_meas, Arc::clone(&st.cancel));
                *lock_unpoisoned(&st.stats) += sweep.session().solver_stats();
                st.record_reason(cause);
                // A batch cancellation mid-grid is not a result; leaving
                // the outcome empty reports Cancelled.
                if !st.cancel.load(Ordering::Relaxed) {
                    st.record(JobOutcome::Frontier(frontier));
                }
            }
            JobKind::Custom { run } => {
                let out = (run.0)(&st.cancel);
                st.record(out);
            }
        }
    }

    /// One racer of a correction job: encodes the whole problem with the
    /// racer's solver configuration, joins the job's clause pool and
    /// solves. The first verdict is recorded and cancels the other racers
    /// through the job's flag, which is every racer's stop flag.
    fn race(&self, st: &JobState, problem: &VcProblem, racer: usize) {
        let span = veriqec_obs::span("engine", "racer");
        let mut session = problem.session(racer_config(self.config.solver, racer));
        session.set_stop_flag(Arc::clone(&st.cancel));
        if let Some(pool) = &st.pool {
            session.join_pool(Arc::clone(pool));
        }
        let won = match session.query(&[]) {
            VcOutcome::Verified => st.record(JobOutcome::Verified),
            VcOutcome::CounterExample(m) => st.record(JobOutcome::CounterExample(m)),
            VcOutcome::Unknown => {
                // A budget trip, or a cooperative abort after a sibling's
                // verdict or a batch cancel — those leave nothing to say.
                if !st.cancel.load(Ordering::Relaxed) {
                    st.record(JobOutcome::Unknown);
                    st.record_reason(session.unknown_cause().map(|c| c.to_string()));
                }
                false
            }
        };
        if won {
            st.cancel.store(true, Ordering::Relaxed);
            st.conclude();
        }
        let stats = session.solver_stats();
        *lock_unpoisoned(&st.stats) += stats;
        span.close_with(&[
            ("racer", racer as f64),
            ("won", f64::from(u8::from(won))),
            ("exported", stats.exported as f64),
            ("imported", stats.imported as f64),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{memory_scenario, ErrorModel};
    use crate::tasks::{
        build_problem, discreteness_constraint, locality_constraint, verify_constrained,
        verify_correction, verify_detection,
    };
    use veriqec_codes::{five_qubit, rotated_surface, steane};

    #[test]
    fn conclusiveness_separates_verdicts_from_partial_results() {
        assert!(JobOutcome::Verified.is_conclusive());
        assert!(JobOutcome::Distance(DistanceOutcome::Exact(3)).is_conclusive());
        assert!(!JobOutcome::Unknown.is_conclusive());
        assert!(!JobOutcome::Cancelled.is_conclusive());
        assert!(!JobOutcome::Detection(DetectionOutcome::Inconclusive).is_conclusive());
        assert!(
            !JobOutcome::Distance(DistanceOutcome::Inconclusive { verified_below: 2 })
                .is_conclusive()
        );
        // A frontier is conclusive only when every grid point has a verdict.
        let point = |correctable| FrontierPoint {
            t_data: 0,
            t_meas: 0,
            correctable,
        };
        let full = FaultToleranceFrontier {
            points: vec![point(Some(true)), point(Some(false))],
        };
        let partial = FaultToleranceFrontier {
            points: vec![point(Some(true)), point(None)],
        };
        assert!(JobOutcome::Frontier(full).is_conclusive());
        assert!(!JobOutcome::Frontier(partial.clone()).is_conclusive());

        let report = BatchReport {
            jobs: vec![
                JobReport {
                    name: "done".into(),
                    outcome: JobOutcome::Verified,
                    subtasks: 1,
                    busy_time: Duration::ZERO,
                    queue_wait: Duration::ZERO,
                    reason: None,
                    stats: SolverStats::default(),
                    dd: DdStats::default(),
                },
                JobReport {
                    name: "half".into(),
                    outcome: JobOutcome::Frontier(partial),
                    subtasks: 1,
                    busy_time: Duration::ZERO,
                    queue_wait: Duration::ZERO,
                    reason: Some("conflict_budget".into()),
                    stats: SolverStats::default(),
                    dd: DdStats::default(),
                },
            ],
            wall_time: Duration::ZERO,
            workers: 1,
            phases: Vec::new(),
        };
        assert_eq!(
            report.incomplete_jobs_with_reasons(),
            vec![("half", Some("conflict_budget"))]
        );
    }

    #[test]
    fn detection_session_sweep_is_single_encode() {
        let code = rotated_surface(3);
        let mut session = DetectionSession::new(&code, SolverConfig::default());
        let out = session.find_distance(4);
        assert_eq!(out, DistanceOutcome::Exact(3));
        assert_eq!(session.encode_count(), 1, "one base encoding per code");
        assert_eq!(session.query_count(), 3, "dt = 2, 3, 4");
    }

    #[test]
    fn detection_session_matches_fresh_solves() {
        let code = steane();
        let mut session = DetectionSession::new(&code, SolverConfig::default());
        for dt in 2..=5 {
            let incremental = session.check(dt);
            let fresh = verify_detection(&code, dt, SolverConfig::default());
            assert_eq!(
                std::mem::discriminant(&incremental),
                std::mem::discriminant(&fresh),
                "dt={dt}: {incremental:?} vs {fresh:?}"
            );
        }
        assert_eq!(session.encode_count(), 1);
    }

    #[test]
    fn correction_sweep_matches_fresh_solves() {
        let scenario = memory_scenario(&steane(), ErrorModel::YErrors);
        let mut sweep = CorrectionSweep::new(&scenario, vec![], SolverConfig::default());
        for t in 0..=2i64 {
            let incremental = sweep.check_weight(t);
            let fresh = verify_correction(&scenario, t, SolverConfig::default()).outcome;
            assert_eq!(
                std::mem::discriminant(&incremental),
                std::mem::discriminant(&fresh),
                "t={t}: {incremental:?} vs {fresh:?}"
            );
        }
        // Sweeping down again after the SAT answer stays correct.
        assert!(sweep.check_weight(1).is_verified());
        assert_eq!(sweep.encode_count(), 1);
        assert_eq!(sweep.query_count(), 4);

        // Fig. 7's constrained sweeps: locality, discreteness and both,
        // every budget from one encoding.
        let scenario = memory_scenario(&rotated_surface(3), ErrorModel::YErrors);
        let loc = locality_constraint(&scenario, &[3, 1, 8, 6]);
        let disc = discreteness_constraint(&scenario, 3);
        for constraints in [loc.clone(), disc.clone(), [loc, disc].concat()] {
            let mut sweep =
                CorrectionSweep::new(&scenario, constraints.clone(), SolverConfig::default());
            for t in 0..=2i64 {
                let incremental = sweep.check_weight(t);
                let fresh =
                    verify_constrained(&scenario, t, constraints.clone(), SolverConfig::default())
                        .outcome;
                assert_eq!(
                    std::mem::discriminant(&incremental),
                    std::mem::discriminant(&fresh),
                    "t={t}: {incremental:?} vs {fresh:?}"
                );
                if t <= 1 {
                    assert!(incremental.is_verified(), "t={t}");
                }
            }
            assert_eq!(sweep.encode_count(), 1);
        }
    }

    #[test]
    fn fault_tolerance_sweep_matches_fresh_solves() {
        use crate::scenario::faulty_memory_scenario;
        use crate::tasks::verify_fault_tolerance;
        let scenario = faulty_memory_scenario(&steane(), ErrorModel::YErrors, 3);
        let mut sweep = FaultToleranceSweep::new(&scenario, vec![], SolverConfig::default());
        for td in 0..=1i64 {
            for tm in 0..=1i64 {
                let incremental = sweep.check(td, tm);
                let fresh =
                    verify_fault_tolerance(&scenario, td, tm, SolverConfig::default()).outcome;
                assert_eq!(
                    std::mem::discriminant(&incremental),
                    std::mem::discriminant(&fresh),
                    "(t_d={td}, t_m={tm}): {incremental:?} vs {fresh:?}"
                );
            }
        }
        assert_eq!(sweep.encode_count(), 1, "one base encoding for the grid");
        assert_eq!(sweep.query_count(), 4);
    }

    #[test]
    fn fault_tolerance_job_reports_the_textbook_frontier() {
        use crate::scenario::faulty_memory_scenario;
        let r1 = faulty_memory_scenario(&steane(), ErrorModel::YErrors, 1);
        let r3 = faulty_memory_scenario(&steane(), ErrorModel::YErrors, 3);
        let engine = Engine::new(EngineConfig {
            workers: 2,
            solver: SolverConfig::default(),
        });
        let report = engine.run(vec![
            Job::fault_tolerance("steane_r1", &r1, 1, 1),
            Job::fault_tolerance("steane_r3", &r3, 1, 1),
        ]);
        let JobOutcome::Frontier(f1) = &report.jobs[0].outcome else {
            panic!("{:?}", report.jobs[0].outcome);
        };
        let JobOutcome::Frontier(f3) = &report.jobs[1].outcome else {
            panic!("{:?}", report.jobs[1].outcome);
        };
        // Single round: t_m = 1 only correctable when there is nothing to
        // correct; three rounds: the full (1,1) grid point verifies.
        assert_eq!(f1.correctable(1, 1), Some(false));
        assert_eq!(f1.correctable(1, 0), Some(true));
        assert_eq!(f1.correctable(0, 1), Some(true));
        assert_eq!(f1.max_t_meas(1), Some(0));
        assert_eq!(f3.correctable(1, 1), Some(true));
        assert_eq!(f3.max_t_meas(1), Some(1));
        let json = report.to_json();
        assert!(json.contains("\"outcome\":\"frontier\""));
        assert!(json.contains("{\"t_data\":1,\"t_meas\":1,\"correctable\":true}"));
        assert!(report.to_markdown().contains("| steane_r3 | frontier |"));
    }

    /// Checks a counterexample model against the problem it refutes: the
    /// errors fit the budget `Σe ≤ t`, every guard holds (evaluates to 0),
    /// and some target is violated (evaluates to 1).
    fn assert_genuine_counterexample(scenario: &Scenario, problem: &VcProblem, t: i64, m: &CMem) {
        let weight = scenario
            .error_vars
            .iter()
            .filter(|&&v| m.get(v).as_bool())
            .count();
        assert!(weight as i64 <= t, "{weight} errors exceed the budget {t}");
        assert!(problem.error_constraints.iter().all(|c| c.eval(m)));
        assert!(problem.vc.guards.iter().all(|g| !g.eval(m)));
        assert!(problem.vc.targets.iter().any(|t| t.eval(m)));
    }

    #[test]
    fn batch_agrees_with_sequential_on_steane_and_surface() {
        // Each code at t = (d−1)/2 (correctable: Verified) and t = (d+1)/2
        // (one error too many: CounterExample), raced on 1, 2 and 4 workers
        // next to the other job kinds.
        let cases: Vec<(&str, Scenario, i64, bool)> = [
            ("steane", steane(), 3),
            ("surface3", rotated_surface(3), 3),
            ("surface5", rotated_surface(5), 5),
        ]
        .into_iter()
        .flat_map(|(name, code, d)| {
            let scenario = memory_scenario(&code, ErrorModel::YErrors);
            [((d - 1) / 2, true), ((d + 1) / 2, false)]
                .map(|(t, proof)| (name, scenario.clone(), t, proof))
        })
        .collect();
        for workers in [1, 2, 4] {
            let problems: Vec<VcProblem> = cases
                .iter()
                .map(|(_, scenario, t, _)| build_problem(scenario, *t, vec![]))
                .collect();
            let mut jobs: Vec<Job> = cases
                .iter()
                .zip(&problems)
                .map(|((name, scenario, t, _), problem)| {
                    Job::correction(
                        format!("{name}_t{t}"),
                        problem.clone(),
                        scenario.error_vars.clone(),
                        SplitConfig::default(),
                    )
                })
                .collect();
            jobs.push(Job::detection("steane_dt3", steane(), 3));
            jobs.push(Job::distance("surface3_distance", rotated_surface(3), 4));
            jobs.push(Job::count("steane_enumerator", steane()));
            let engine = Engine::new(EngineConfig {
                workers,
                solver: SolverConfig::default(),
            });
            let report = engine.run(jobs);
            assert_eq!(report.jobs.len(), cases.len() + 3);
            // Sequential ground truth.
            for (((name, scenario, t, proof), problem), job) in
                cases.iter().zip(&problems).zip(&report.jobs)
            {
                let (seq, _) = problem.check();
                assert_eq!(seq.is_verified(), *proof, "sequential {name} t={t}");
                match &job.outcome {
                    JobOutcome::Verified => assert!(proof, "{workers} workers: {name} t={t}"),
                    JobOutcome::CounterExample(m) => {
                        assert!(!proof, "{workers} workers: {name} t={t}");
                        assert_genuine_counterexample(scenario, problem, *t, m);
                    }
                    other => panic!("{workers} workers: {name} t={t}: {other:?}"),
                }
                assert_eq!(job.reason, None);
                assert!((1..=workers).contains(&job.subtasks));
            }
            let rest = &report.jobs[cases.len()..];
            assert!(matches!(
                rest[0].outcome,
                JobOutcome::Detection(DetectionOutcome::AllDetected)
            ));
            assert!(matches!(
                rest[1].outcome,
                JobOutcome::Distance(DistanceOutcome::Exact(3))
            ));
            // The counting job reports the full Steane enumerator through
            // the same pool: 192 failures, least weight 3 (the distance).
            let JobOutcome::Enumerator(e) = &rest[2].outcome else {
                panic!("count job must report an enumerator: {:?}", rest[2]);
            };
            assert_eq!(e.min_weight, Some(3));
            assert_eq!(e.total(), 192);
            assert!(rest[2].dd.nodes > 0, "DD stats flow into the report");
            // Per-job stats reflect real work; reports render.
            let total = |n: fn(&JobReport) -> u64| report.jobs.iter().map(n).sum::<u64>();
            assert!(total(|j| j.stats.propagations) > 0);
            assert!(total(|j| j.dd.nodes) > 0);
            let json = report.to_json();
            for job in &report.jobs {
                assert!(
                    json.contains(&job.name),
                    "JSON report must mention {}",
                    job.name
                );
            }
            assert!(json.contains("\"distance\":3"));
            assert!(json.contains("\"min_weight\":3"));
            assert!(json.contains("\"dd_nodes\":"));
            assert!(json.contains("\"exported\":"));
            assert!(json.contains("\"imported\":"));
            let md = report.to_markdown();
            assert!(md.contains("| steane_t1 | verified |"));
            assert!(md.contains("| steane_t2 | counterexample |"));
            assert!(md.contains("| steane_enumerator | enumerator |"));
            assert!(md.contains(" exported | imported |"));
        }
    }

    #[test]
    fn exhausted_racers_report_unknown_never_verified() {
        // With one conflict per racer the race cannot finish; every racer
        // gives up, and the job must say so — an undecided race is never a
        // proof.
        let scenario = memory_scenario(&rotated_surface(3), ErrorModel::YErrors);
        let problem = build_problem(&scenario, 1, vec![]);
        for workers in [1, 2] {
            let engine = Engine::new(EngineConfig {
                workers,
                solver: SolverConfig {
                    conflict_budget: Some(1),
                    ..SolverConfig::default()
                },
            });
            let report = engine.run(vec![Job::correction(
                "starved",
                problem.clone(),
                vec![],
                SplitConfig::default(),
            )]);
            let job = &report.jobs[0];
            assert!(
                matches!(job.outcome, JobOutcome::Unknown),
                "{workers} workers: {:?}",
                job.outcome
            );
            assert_eq!(job.reason.as_deref(), Some("conflict_budget"));
            assert_eq!(job.subtasks, workers);
        }
    }

    #[test]
    fn pre_cancelled_engine_reports_cancelled_jobs() {
        let scenario = memory_scenario(&steane(), ErrorModel::YErrors);
        let engine = Engine::new(EngineConfig {
            workers: 2,
            solver: SolverConfig::default(),
        });
        engine.cancel_flag().store(true, Ordering::Relaxed);
        let report = engine.run(vec![
            Job::correction(
                "cancelled_correction",
                build_problem(&scenario, 1, vec![]),
                scenario.error_vars.clone(),
                SplitConfig::default(),
            ),
            Job::distance("cancelled_distance", steane(), 4),
            Job::count("cancelled_count", steane()),
        ]);
        for job in &report.jobs {
            assert!(
                matches!(job.outcome, JobOutcome::Cancelled),
                "{}: {:?}",
                job.name,
                job.outcome
            );
        }
    }

    #[test]
    fn count_job_over_node_budget_reports_unknown() {
        use veriqec_dd::CompileConfig;
        let engine = Engine::new(EngineConfig {
            workers: 1,
            solver: SolverConfig::default(),
        });
        let report = engine.run(vec![Job::count_with_config(
            "starved_count",
            steane(),
            CompileConfig {
                node_limit: Some(16),
                ..CompileConfig::default()
            },
        )]);
        assert!(
            matches!(report.jobs[0].outcome, JobOutcome::Unknown),
            "{:?}",
            report.jobs[0].outcome
        );
    }

    #[test]
    fn panicking_job_degrades_to_that_job_erroring() {
        // A deliberately panicking job next to real work: the panic must be
        // contained to its own job (Unknown + "panicked: …" reason) while
        // the neighbours run to their verdicts and every later status read
        // — record folds, report rendering — survives the poisoned mutexes.
        let engine = Engine::new(EngineConfig {
            workers: 2,
            solver: SolverConfig::default(),
        });
        let report = engine.run(vec![
            Job::custom("boom", |_| panic!("deliberate test panic")),
            Job::distance("survivor_distance", steane(), 4),
            Job::detection("survivor_detection", five_qubit(), 3),
        ]);
        assert!(
            matches!(report.jobs[0].outcome, JobOutcome::Unknown),
            "{:?}",
            report.jobs[0].outcome
        );
        assert_eq!(
            report.jobs[0].reason.as_deref(),
            Some("panicked: deliberate test panic")
        );
        assert!(matches!(
            report.jobs[1].outcome,
            JobOutcome::Distance(DistanceOutcome::Exact(3))
        ));
        assert!(matches!(
            report.jobs[2].outcome,
            JobOutcome::Detection(DetectionOutcome::AllDetected)
        ));
        // The failed job is a partial result, listed with its reason.
        assert_eq!(
            report.incomplete_jobs_with_reasons(),
            vec![("boom", Some("panicked: deliberate test panic"))]
        );
        assert!(report
            .to_json()
            .contains("\"reason\":\"panicked: deliberate test panic\""));
        assert!(report.to_markdown().contains("| boom | unknown |"));
    }

    #[test]
    fn custom_jobs_ride_the_pool_and_see_their_cancel_flag() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            solver: SolverConfig::default(),
        });
        let report = engine.run(vec![Job::custom("flagged", |cancel| {
            assert!(!cancel.load(Ordering::Relaxed));
            JobOutcome::Verified
        })]);
        assert!(report.jobs[0].outcome.is_verified());
        assert_eq!(report.jobs[0].subtasks, 1);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn one_reason_rule_for_engine_and_daemon() {
        // The solver's own cause: a conflict-budget trip.
        let cb = || Some("conflict_budget".to_string());
        let enumerator = JobOutcome::Enumerator(WeightEnumerator {
            coefficients: vec![0, 1],
            min_weight: Some(1),
        });
        // (outcome, deadline tripped, solver cause, reason): a verdict has
        // none even when the deadline tripped after the work was done;
        // otherwise the deadline, the solver's cause, then "cancelled".
        for (outcome, deadline, cause, reason) in [
            (JobOutcome::Verified, true, cb(), None),
            (enumerator, true, None, None),
            (JobOutcome::Unknown, true, cb(), Some("deadline_exceeded")),
            (JobOutcome::Unknown, false, cb(), Some("conflict_budget")),
            (JobOutcome::Unknown, false, None, None),
            (JobOutcome::Cancelled, false, None, Some("cancelled")),
            (JobOutcome::Cancelled, true, None, Some("deadline_exceeded")),
        ] {
            let got = job_reason(&outcome, deadline, cause);
            assert_eq!(got.as_deref(), reason, "{outcome:?}, deadline {deadline}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::scenario::{memory_scenario, ErrorModel};
    use crate::tasks::{verify_correction, verify_detection};
    use proptest::prelude::*;
    use veriqec_codes::{
        five_qubit, gottesman8, rotated_surface, shor9, six_qubit, steane, xzzx_surface,
        StabilizerCode,
    };

    fn zoo(idx: usize) -> StabilizerCode {
        match idx % 7 {
            0 => steane(),
            1 => five_qubit(),
            2 => six_qubit(),
            3 => shor9(),
            4 => gottesman8(),
            5 => rotated_surface(3),
            _ => xzzx_surface(3),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn incremental_detection_sweep_agrees_with_fresh_solves(
            code_idx in 0usize..7,
            max_dt in 2usize..6,
        ) {
            // One session swept over dt must answer exactly like a cold
            // re-encode at every threshold, across the code zoo.
            let code = zoo(code_idx);
            let mut session = DetectionSession::new(&code, SolverConfig::default());
            for dt in 2..=max_dt {
                let incremental = session.check(dt);
                let fresh = verify_detection(&code, dt, SolverConfig::default());
                prop_assert!(
                    std::mem::discriminant(&incremental) == std::mem::discriminant(&fresh),
                    "{} dt={}: {:?} vs {:?}",
                    code.name(), dt, incremental, fresh
                );
            }
            prop_assert_eq!(session.encode_count(), 1);
        }

        #[test]
        fn incremental_weight_sweep_agrees_with_fresh_solves(
            code_idx in 0usize..3,
            budgets in proptest::collection::vec(0i64..3, 1..4),
        ) {
            // Weight bounds as assumptions vs baked-in clauses, in an
            // arbitrary (not necessarily monotone) query order.
            let code = zoo(code_idx);
            let scenario = memory_scenario(&code, ErrorModel::YErrors);
            let mut sweep = CorrectionSweep::new(&scenario, vec![], SolverConfig::default());
            for &t in &budgets {
                let incremental = sweep.check_weight(t);
                let fresh = verify_correction(&scenario, t, SolverConfig::default()).outcome;
                prop_assert!(
                    std::mem::discriminant(&incremental) == std::mem::discriminant(&fresh),
                    "{} t={}: {:?} vs {:?}",
                    code.name(), t, incremental, fresh
                );
            }
            prop_assert_eq!(sweep.encode_count(), 1);
        }
    }
}
