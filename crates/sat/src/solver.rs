//! A CDCL SAT solver: two-watched literals, first-UIP learning, VSIDS
//! branching with phase saving, Luby restarts and glue-tiered learned-clause
//! reduction over a flat clause arena, Gauss–Jordan propagation over the
//! parity rows of [`Solver::add_xor`], with optional learnt-clause sharing
//! between solvers racing on one formula ([`ClausePool`]).
//!
//! This is the engine behind the `veriqec_smt` formula layer and thus the
//! reproduction's stand-in for the paper's Z3/CVC5 back end.

use crate::arena::{ClauseArena, ClauseRef};
use crate::gauss::Gauss;
use crate::heap::ActivityHeap;
use crate::share::{ClausePool, Membership, SHARE_LBD};
use crate::{LBool, Lit, Stop, Var};
use std::sync::Arc;

/// Learnt clauses with learn-time LBD at or below this are "core" tier:
/// kept unconditionally by database reductions (Glucose's glue-clause
/// protection).
const CORE_LBD: u32 = 3;

/// Conflicts between observability sampling points in the CDCL loop: at
/// each multiple the solver bumps the heartbeat conflict counter and, when
/// tracing, emits a conflicts/sec counter sample. Power of two so the
/// check compiles to a mask.
const CONFLICT_SAMPLE: u64 = 2048;

/// High bit of a [`Watcher`]'s clause reference, set for binary clauses.
/// A binary clause propagates entirely from its watcher — the blocker *is*
/// the other literal — so the watch scan never has to load the clause.
/// Arena offsets stay below this bit (`u32` words, so a <8 GiB arena).
const BINARY_TAG: u32 = 1 << 31;

#[derive(Clone, Copy, Debug)]
struct Watcher {
    /// The clause's arena reference, with [`BINARY_TAG`] folded into the
    /// high bit for binary clauses.
    cref: ClauseRef,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause cannot propagate and the watch scan can skip it.
    blocker: Lit,
}

impl Watcher {
    /// The untagged clause reference.
    #[inline]
    fn clause(&self) -> ClauseRef {
        ClauseRef(self.cref.0 & !BINARY_TAG)
    }

    /// True when the watched clause is binary.
    #[inline]
    fn is_binary(&self) -> bool {
        self.cref.0 & BINARY_TAG != 0
    }
}

/// Tunable search parameters. The engine's solver race diversifies its
/// racers through `use_phase_saving` and `restart_base`.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Remember the last assigned polarity of each variable.
    pub use_phase_saving: bool,
    /// Minimize learnt clauses with the full recursive redundancy test and
    /// abstract-level pruning (otherwise: the cheap one-step rule).
    pub use_recursive_minimization: bool,
    /// Base interval (in conflicts) of the Luby restart sequence.
    pub restart_base: u64,
    /// Maximum number of conflicts before giving up (`None` = unbounded).
    pub conflict_budget: Option<u64>,
    /// Run the arena garbage collector once at least this fraction of the
    /// arena is tombstoned clause words (values above 1.0 disable GC).
    pub gc_wasted_ratio: f64,
    /// Floor of the learnt-clause cap before the first database reduction;
    /// the cap then grows geometrically. Lowered by tests to exercise
    /// reduction and GC on small instances.
    pub reduce_base: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            use_phase_saving: true,
            use_recursive_minimization: true,
            restart_base: 128,
            conflict_budget: None,
            gc_wasted_ratio: 0.25,
            reduce_base: 1000,
        }
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable; query the model through [`Solver::model_value`].
    Sat,
    /// Unsatisfiable (under the given assumptions).
    Unsat,
    /// The conflict budget was exhausted.
    Unknown,
}

/// Why the most recent [`Solver::solve`] call returned
/// [`SatResult::Unknown`] — the ingredient batch drivers need to report
/// *which* budget tripped instead of a bare "inconclusive".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnknownCause {
    /// The cooperative [`Stop`] was raised: a flag was set (cancellation)
    /// or its deadline passed.
    Interrupted,
    /// The configured [`SolverConfig::conflict_budget`] was exhausted.
    ConflictBudget,
}

impl std::fmt::Display for UnknownCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnknownCause::Interrupted => write!(f, "interrupted"),
            UnknownCause::ConflictBudget => write!(f, "conflict_budget"),
        }
    }
}

/// Aggregate statistics of a solver run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently kept.
    pub learnts: u64,
    /// Number of clauses learned over the whole run (the denominator of
    /// [`SolverStats::mean_learnt_lbd`]).
    pub learned: u64,
    /// Sum of learn-time LBD ("glue") over all learned clauses.
    pub lbd_sum: u64,
    /// Literals dropped from learnt clauses by conflict-clause minimization.
    pub minimized_lits: u64,
    /// Clause-arena garbage collections performed.
    pub gc_runs: u64,
    /// Current clause-arena footprint in bytes. A gauge, not a counter:
    /// summing reports (worker pools, batch jobs) yields the combined
    /// footprint of all live sessions.
    pub arena_bytes: u64,
    /// Learnt clauses published to a [`ClausePool`].
    pub exported: u64,
    /// Clauses taken from other members of a [`ClausePool`] (those already
    /// satisfied at the root are skipped and not counted).
    pub imported: u64,
    /// Rows in the Gauss–Jordan matrix (see [`Solver::add_xor`]). A gauge,
    /// like `arena_bytes`.
    pub gauss_rows: u64,
    /// Literals the Gauss–Jordan passes implied.
    pub gauss_propagations: u64,
    /// Conflicts the Gauss–Jordan passes found (also counted in
    /// `conflicts`).
    pub gauss_conflicts: u64,
}

impl SolverStats {
    /// Mean learn-time LBD over every clause learned so far (0.0 before the
    /// first conflict). Low means the solver is learning "glue" clauses
    /// that tightly connect decision levels — the health metric behind the
    /// tiered clause-database policy.
    pub fn mean_learnt_lbd(&self) -> f64 {
        if self.learned == 0 {
            0.0
        } else {
            self.lbd_sum as f64 / self.learned as f64
        }
    }

    /// Lowers the stats into a [`veriqec_obs::MetricsSnapshot`] — the one
    /// table the batch reports' markdown and JSON solver columns are
    /// generated from. Counts merge additively across workers; `mean_lbd`
    /// is derived here so it never has to be re-threaded by hand.
    pub fn to_metrics(&self) -> veriqec_obs::MetricsSnapshot {
        let mut m = veriqec_obs::MetricsSnapshot::new();
        m.push_count("conflicts", self.conflicts);
        m.push_count("decisions", self.decisions);
        m.push_count("propagations", self.propagations);
        m.push_count("restarts", self.restarts);
        m.push_count("learnts", self.learnts);
        m.push_count("learned", self.learned);
        m.push_count("minimized_lits", self.minimized_lits);
        m.push_count("gc_runs", self.gc_runs);
        m.push_count("arena_bytes", self.arena_bytes);
        m.push_count("exported", self.exported);
        m.push_count("imported", self.imported);
        m.push_count("gauss_rows", self.gauss_rows);
        m.push_count("gauss_propagations", self.gauss_propagations);
        m.push_count("gauss_conflicts", self.gauss_conflicts);
        m.push_value("mean_lbd", self.mean_learnt_lbd());
        m
    }
}

impl std::ops::AddAssign for SolverStats {
    fn add_assign(&mut self, rhs: SolverStats) {
        self.conflicts += rhs.conflicts;
        self.decisions += rhs.decisions;
        self.propagations += rhs.propagations;
        self.restarts += rhs.restarts;
        self.learnts += rhs.learnts;
        self.learned += rhs.learned;
        self.lbd_sum += rhs.lbd_sum;
        self.minimized_lits += rhs.minimized_lits;
        self.gc_runs += rhs.gc_runs;
        self.arena_bytes += rhs.arena_bytes;
        self.exported += rhs.exported;
        self.imported += rhs.imported;
        self.gauss_rows += rhs.gauss_rows;
        self.gauss_propagations += rhs.gauss_propagations;
        self.gauss_conflicts += rhs.gauss_conflicts;
    }
}

impl std::iter::Sum for SolverStats {
    fn sum<I: Iterator<Item = SolverStats>>(iter: I) -> SolverStats {
        let mut total = SolverStats::default();
        for s in iter {
            total += s;
        }
        total
    }
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use veriqec_sat::{SatResult, Solver, Var};
///
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// s.add_clause([a, b]);
/// s.add_clause([!a]);
/// assert_eq!(s.solve(&[]), SatResult::Sat);
/// assert_eq!(s.model_value(b), Some(true));
/// s.add_clause([!b]);
/// assert_eq!(s.solve(&[]), SatResult::Unsat);
/// ```
#[derive(Clone, Debug)]
pub struct Solver {
    config: SolverConfig,
    arena: ClauseArena,
    /// Live original (non-learnt) clauses in the arena.
    num_originals: usize,
    /// Live learnt clauses in the arena.
    num_learnts: usize,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    heap: ActivityHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    qhead: usize,
    ok: bool,
    var_inc: f64,
    cla_inc: f64,
    stats: SolverStats,
    model: Vec<LBool>,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// Reusable buffer holding the clause under construction during
    /// conflict analysis; reused across conflicts so analysis allocates
    /// nothing in steady state.
    learnt_buf: Vec<Lit>,
    /// Worklist of the recursive redundancy walk ([`Solver::lit_redundant`]).
    min_stack: Vec<Lit>,
    /// Every literal whose variable was marked `seen` during minimization,
    /// so the marks can be undone in O(marks) at the end of analysis.
    to_clear: Vec<Lit>,
    /// Per-decision-level stamps backing the O(clause) LBD computation
    /// (no clearing pass between conflicts).
    level_stamp: Vec<u64>,
    lbd_stamp: u64,
    /// Cooperative cancellation: once raised, [`Solver::solve`] aborts at
    /// the next conflict/decision boundary with [`SatResult::Unknown`].
    stop: Stop,
    /// Why the last `solve` returned [`SatResult::Unknown`] (see
    /// [`Solver::unknown_cause`]).
    unknown_cause: Option<UnknownCause>,
    /// The clause pool this solver races in, if any (see
    /// [`Solver::join_pool`]).
    share: Option<Membership>,
    /// The parity rows of [`Solver::add_xor`] and their matrix.
    gauss: Gauss,
    /// Reusable buffer for the clause explaining a Gauss–Jordan result.
    xor_buf: Vec<Lit>,
}

/// What a Gauss–Jordan pass did (see [`Solver::propagate_xor`]).
enum XorStep {
    /// Nothing: the rows imply no unassigned literal.
    Quiet,
    /// Enqueued at least one implied literal.
    Implied,
    /// A violated row, attached as a learnt clause whose literals are all
    /// false.
    Conflict(ClauseRef),
    /// A violated row at the root: the formula is unsatisfiable.
    Unsat,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            config,
            arena: ClauseArena::default(),
            num_originals: 0,
            num_learnts: 0,
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            heap: ActivityHeap::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            qhead: 0,
            ok: true,
            var_inc: 1.0,
            cla_inc: 1.0,
            stats: SolverStats::default(),
            model: Vec::new(),
            seen: Vec::new(),
            learnt_buf: Vec::new(),
            min_stack: Vec::new(),
            to_clear: Vec::new(),
            level_stamp: vec![0],
            lbd_stamp: 0,
            stop: Stop::default(),
            unknown_cause: None,
            share: None,
            gauss: Gauss::default(),
            xor_buf: Vec::new(),
        }
    }

    /// Installs a cooperative [`Stop`], shared with other solvers or a
    /// driving thread. The main CDCL loop polls it between propagations —
    /// i.e. at every conflict/decision boundary — so a solver deep in a
    /// long search aborts promptly (returning [`SatResult::Unknown`]), e.g.
    /// once a racing solver has found the answer or a deadline passed. The
    /// solver never lowers a flag; the owner decides when a stop is
    /// rescinded.
    pub fn set_stop(&mut self, stop: Stop) {
        self.stop = stop;
    }

    /// Joins a [`ClausePool`] shared with other solvers that hold the same
    /// formula: from now on this solver publishes every learnt clause of
    /// LBD ≤ 2 (units and binaries included) and, at decision level 0 — at
    /// the start of each solve and on every restart — adds the clauses the
    /// other members published. A solver that joins no pool searches
    /// exactly as before. Join before the first solve, after the formula is
    /// complete, and add no clauses afterwards: the pool's soundness rests
    /// on every member holding the same formula.
    ///
    /// # Panics
    ///
    /// Panics if this solver's variable or original-clause count differs
    /// from the pool's first member's.
    pub fn join_pool(&mut self, pool: Arc<ClausePool>) {
        self.share = Some(Membership::join(pool, self.num_vars(), self.num_originals));
    }

    /// Adds the clauses other pool members published since the last
    /// import. Runs at decision level 0, where a root-false literal is
    /// false for good and can be dropped, and a root-true one satisfies the
    /// clause for good. Returns `false` when an imported clause is false at
    /// the root, i.e. the formula is unsatisfiable. Leaves propagation of
    /// the imported units to the caller.
    fn import_shared(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        let Some(share) = &mut self.share else {
            return true;
        };
        let pool = Arc::clone(&share.pool);
        let (id, start) = (share.id, share.cursor);
        let log = pool.log();
        share.cursor = log.len();
        let mut lits = Vec::new();
        for c in log[start..].iter().filter(|c| c.from != id) {
            lits.clear();
            let mut satisfied = false;
            for &l in c.lits.iter() {
                match self.value(l) {
                    LBool::True => satisfied = true,
                    LBool::False => {}
                    LBool::Undef => lits.push(l),
                }
            }
            if satisfied {
                continue;
            }
            self.stats.imported += 1;
            match lits.len() {
                0 => return false,
                1 => self.unchecked_enqueue(lits[0], None),
                _ => {
                    self.attach_clause(&lits, true, c.lbd);
                }
            }
        }
        true
    }

    /// Why the most recent [`Solver::solve`] returned
    /// [`SatResult::Unknown`], or `None` if it returned Sat/Unsat (or was
    /// never called). Reset at the start of every solve.
    pub fn unknown_cause(&self) -> Option<UnknownCause> {
        self.unknown_cause
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.polarity.push(false);
        self.activity.push(0.0);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(false);
        self.level_stamp.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live (non-deleted) clauses, including learnt ones. O(1):
    /// maintained as counters by clause attach/detach.
    pub fn num_clauses(&self) -> usize {
        self.num_originals + self.num_learnts
    }

    /// Number of live original (non-learnt) clauses: the formula as added,
    /// after [`Solver::add_clause`]'s root-level simplification (root units
    /// live on the trail, not in the clause database).
    pub fn num_original_clauses(&self) -> usize {
        self.num_originals
    }

    /// Run statistics so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Exports the solver's clause database as a model-equivalent CNF over
    /// the same variable set — the bridge to DIMACS debugging artifacts and
    /// to the tests that pin an encoding clause for clause.
    ///
    /// The solver simplifies clauses as they arrive (dropping satisfied
    /// clauses, stripping root-false literals, enqueuing units straight onto
    /// the trail), so the export reconstructs an equivalent formula: every
    /// root-level trail literal as a unit clause plus every live original
    /// (non-learnt) clause. Each simplification is justified by a root-level
    /// implication, and the implied units are included, so the satisfying
    /// assignments — not just satisfiability — are preserved exactly.
    /// Learnt clauses are implied and therefore omitted. An unsatisfiable
    /// root state exports as the empty clause.
    pub fn export_cnf(&self) -> crate::Cnf {
        let _span = veriqec_obs::span("sat", "export_cnf");
        let mut clauses = Vec::new();
        if !self.ok {
            clauses.push(Vec::new());
        } else {
            let level0 = self.trail_lim.first().copied().unwrap_or(self.trail.len());
            for &l in &self.trail[..level0] {
                clauses.push(vec![l]);
            }
            for cref in self.arena.refs() {
                if !self.arena.is_learnt(cref) {
                    clauses.push(self.arena.lits_vec(cref));
                }
            }
        }
        crate::Cnf {
            num_vars: self.num_vars(),
            clauses,
        }
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state (adding the empty clause, or a root-level conflict).
    ///
    /// Tautologies are dropped and duplicate literals merged.
    ///
    /// # Panics
    ///
    /// Panics if a literal mentions a variable that was never allocated.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        assert_eq!(
            self.decision_level(),
            0,
            "clauses may only be added at the root level"
        );
        if !self.ok {
            return false;
        }
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        for l in &lits {
            assert!(l.var().index() < self.num_vars(), "unknown variable {l:?}");
        }
        lits.sort();
        lits.dedup();
        // Drop tautologies; filter out root-false literals; detect satisfied clauses.
        let mut i = 0;
        while i + 1 < lits.len() {
            if lits[i].var() == lits[i + 1].var() {
                return true; // contains l and ~l: tautology
            }
            i += 1;
        }
        lits.retain(|&l| self.value(l) != LBool::False);
        if lits.iter().any(|&l| self.value(l) == LBool::True) {
            return true;
        }
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(lits[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(&lits, false, 0);
                true
            }
        }
    }

    /// Registers the parity row `Σ vars = rhs` (a variable listed twice
    /// cancels) for Gauss–Jordan propagation. The row must be one the
    /// clauses already imply, such as the output of a Tseitin XOR chain:
    /// the propagator only adds inferences, explaining each as a clause
    /// implied by the formula, so verdicts, models and
    /// [`Solver::export_cnf`] do not change. The matrix is built at the
    /// next [`Solver::solve`], and rebuilt when rows arrive after one.
    ///
    /// # Panics
    ///
    /// Panics if a variable was never allocated.
    pub fn add_xor(&mut self, vars: &[Var], rhs: bool) {
        for v in vars {
            assert!(v.index() < self.num_vars(), "unknown variable {v:?}");
        }
        self.gauss.add(vars, rhs);
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt);
        if learnt {
            self.arena.set_lbd(cref, lbd);
            self.num_learnts += 1;
            self.stats.learnts += 1;
        } else {
            self.num_originals += 1;
        }
        let tag = if lits.len() == 2 { BINARY_TAG } else { 0 };
        self.watches[(!lits[0]).index()].push(Watcher {
            cref: ClauseRef(cref.0 | tag),
            blocker: lits[1],
        });
        self.watches[(!lits[1]).index()].push(Watcher {
            cref: ClauseRef(cref.0 | tag),
            blocker: lits[0],
        });
        self.stats.arena_bytes = self.arena.bytes() as u64;
        cref
    }

    /// Current truth value of a literal.
    fn value(&self, l: Lit) -> LBool {
        let v = self.assigns[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var();
        self.assigns[v.index()] = LBool::from_bool(l.is_positive());
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        if self.config.use_phase_saving {
            self.polarity[v.index()] = l.is_positive();
        }
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Detach the watch list while scanning it: saves re-indexing
            // `watches[p]` on every iteration. Relocated watches always go
            // to *other* lists — the new watch `lk` is non-false, so `!lk`
            // can never be the just-falsified `p`.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                let blocker = w.blocker;
                let bv = self.value(blocker);
                if bv == LBool::True {
                    i += 1;
                    continue;
                }
                let cref = w.clause();
                if w.is_binary() {
                    // Binary clause: the blocker is the only other literal,
                    // so propagate without loading the clause at all. The
                    // reason may be left with the implied literal in slot 1
                    // — consumers normalize via `normalized_reason`.
                    if bv == LBool::False {
                        self.qhead = self.trail.len();
                        self.watches[p.index()] = ws;
                        return Some(cref);
                    }
                    self.unchecked_enqueue(blocker, Some(cref));
                    i += 1;
                    continue;
                }
                // One arena access decodes the clause length and both
                // watched literals; slot 1 is then normalized to hold the
                // false literal.
                let (len, w0, w1) = {
                    let words = self.arena.lit_words(cref);
                    (words.len(), words[0], words[1])
                };
                let first = if w0 == false_lit.index() as u32 {
                    self.arena.swap_lits(cref, 0, 1);
                    Lit::from_index(w1 as usize)
                } else {
                    debug_assert_eq!(w1, false_lit.index() as u32);
                    Lit::from_index(w0 as usize)
                };
                if first != blocker && self.value(first) == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                debug_assert!(len > 2, "binary clauses take the tagged fast path");
                // Look for a new literal to watch.
                let mut new_watch = None;
                for (k, &lw) in self.arena.lit_words(cref)[2..].iter().enumerate() {
                    let lk = Lit::from_index(lw as usize);
                    if self.value(lk) != LBool::False {
                        new_watch = Some((k + 2, lk));
                        break;
                    }
                }
                if let Some((k, lk)) = new_watch {
                    self.arena.swap_lits(cref, 1, k);
                    ws.swap_remove(i);
                    self.watches[(!lk).index()].push(Watcher {
                        cref: w.cref,
                        blocker: first,
                    });
                    continue;
                }
                // Clause is unit or conflicting.
                if self.value(first) == LBool::False {
                    self.qhead = self.trail.len();
                    self.watches[p.index()] = ws;
                    return Some(cref);
                }
                self.unchecked_enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[p.index()] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let a = self.arena.activity(cref) + self.cla_inc as f32;
        self.arena.set_activity(cref, a);
        if a > 1e20 {
            self.arena.rescale_activities(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Leaves the learnt clause in
    /// `self.learnt_buf` (asserting literal first) and returns the backtrack
    /// level and the clause's learn-time LBD. Allocation-free in steady
    /// state: resolution reads antecedents straight out of the arena and
    /// every scratch buffer is reused across conflicts.
    fn analyze(&mut self, conflict: ClauseRef) -> (u32, u32) {
        self.learnt_buf.clear();
        self.learnt_buf.push(Lit::from_index(0)); // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = conflict;
        let dl = self.decision_level();

        loop {
            self.bump_clause(cref);
            let start = usize::from(p.is_some());
            let len = self.arena.len(cref);
            for k in start..len {
                let q = self.arena.lit(cref, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= dl {
                        counter += 1;
                    } else {
                        self.learnt_buf.push(q);
                    }
                }
            }
            // Select next literal from the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                self.learnt_buf[0] = !lit;
                break;
            }
            cref = self.normalized_reason(lit.var());
        }

        // Conflict-clause minimization: drop tail literals implied by the
        // rest of the clause. `to_clear` records every literal whose
        // variable is marked `seen` — the tail itself plus anything the
        // recursive probes mark — so all marks can be undone afterwards.
        self.to_clear.clear();
        self.to_clear.extend_from_slice(&self.learnt_buf[1..]);
        let mut abstract_levels = 0u32;
        for i in 1..self.learnt_buf.len() {
            abstract_levels |= 1 << (self.level[self.learnt_buf[i].var().index()] & 31);
        }
        let before = self.learnt_buf.len();
        let mut j = 1;
        for i in 1..self.learnt_buf.len() {
            let l = self.learnt_buf[i];
            let redundant = self.reason[l.var().index()].is_some()
                && if self.config.use_recursive_minimization {
                    self.lit_redundant(l, abstract_levels)
                } else {
                    self.one_step_redundant(l)
                };
            if !redundant {
                self.learnt_buf[j] = l;
                j += 1;
            }
        }
        self.learnt_buf.truncate(j);
        self.stats.minimized_lits += (before - j) as u64;

        // Find backtrack level: the second-highest level in the clause.
        let bt_level = if self.learnt_buf.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..self.learnt_buf.len() {
                if self.level[self.learnt_buf[i].var().index()]
                    > self.level[self.learnt_buf[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            self.learnt_buf.swap(1, max_i);
            self.level[self.learnt_buf[1].var().index()]
        };

        // LBD must be read off before backtracking invalidates the levels.
        let buf = std::mem::take(&mut self.learnt_buf);
        let lbd = self.lbd(&buf);
        self.learnt_buf = buf;

        self.seen[self.learnt_buf[0].var().index()] = false;
        for i in 0..self.to_clear.len() {
            let v = self.to_clear[i].var();
            self.seen[v.index()] = false;
        }
        (bt_level, lbd)
    }

    /// Number of distinct decision levels among `lits` — the clause's LBD
    /// ("glue"). Uses a stamped per-level scratch array: O(clause length),
    /// no clearing pass.
    fn lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_stamp += 1;
        let mut lbd = 0;
        for l in lits {
            let lvl = self.level[l.var().index()] as usize;
            if self.level_stamp[lvl] != self.lbd_stamp {
                self.level_stamp[lvl] = self.lbd_stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// The reason clause of `v`, normalized so the implied literal is in
    /// slot 0. The propagation paths for wide clauses establish that
    /// invariant eagerly; the binary fast path skips the clause entirely
    /// and may leave the implied literal in slot 1, so consumers that skip
    /// slot 0 (resolution, redundancy walks, the locked check) fetch
    /// reasons through here.
    fn normalized_reason(&mut self, v: Var) -> ClauseRef {
        let cref = self.reason[v.index()].expect("non-decision must have a reason");
        if self.arena.lit(cref, 0).var() != v {
            debug_assert_eq!(self.arena.len(cref), 2);
            debug_assert_eq!(self.arena.lit(cref, 1).var(), v);
            self.arena.swap_lits(cref, 0, 1);
        }
        cref
    }

    /// One-step redundancy: a literal is redundant if its reason clause
    /// consists only of literals already seen (or fixed at the root).
    fn one_step_redundant(&mut self, l: Lit) -> bool {
        if self.reason[l.var().index()].is_none() {
            return false;
        }
        let r = self.normalized_reason(l.var());
        self.arena.lit_words(r)[1..].iter().all(|&w| {
            let q = Lit::from_index(w as usize);
            self.seen[q.var().index()] || self.level[q.var().index()] == 0
        })
    }

    /// Full recursive redundancy test (MiniSat's `litRedundant`): `l` is
    /// redundant iff every path through its implication ancestry terminates
    /// in literals already in the learnt clause or fixed at the root.
    /// `abstract_levels` is a 32-bit Bloom filter of the clause's decision
    /// levels — an antecedent on a level outside the filter can never be
    /// subsumed, which prunes the walk without touching its ancestry.
    /// Variables proven redundant stay marked in `seen` so later probes
    /// reuse the result; on failure, the marks this probe added are rolled
    /// back (everything past `top` in `to_clear`).
    fn lit_redundant(&mut self, l: Lit, abstract_levels: u32) -> bool {
        self.min_stack.clear();
        self.min_stack.push(l);
        let top = self.to_clear.len();
        while let Some(p) = self.min_stack.pop() {
            let cref = self.normalized_reason(p.var());
            for &w in &self.arena.lit_words(cref)[1..] {
                let q = Lit::from_index(w as usize);
                let v = q.var();
                if self.seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                if self.reason[v.index()].is_some()
                    && (1u32 << (self.level[v.index()] & 31)) & abstract_levels != 0
                {
                    self.seen[v.index()] = true;
                    self.min_stack.push(q);
                    self.to_clear.push(q);
                } else {
                    for i in top..self.to_clear.len() {
                        let u = self.to_clear[i].var();
                        self.seen[u.index()] = false;
                    }
                    self.to_clear.truncate(top);
                    return false;
                }
            }
        }
        true
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assigns[v.index()] = LBool::Undef;
            self.reason[v.index()] = None;
            if !self.heap.contains(v) {
                self.heap.insert(v, &self.activity);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.assigns[v.index()] == LBool::Undef {
                let pol = self.config.use_phase_saving && self.polarity[v.index()];
                return Some(Lit::new(v, pol));
            }
        }
        None
    }

    /// True when the clause is the reason of a literal currently on the
    /// trail. O(1): a reason clause always keeps its implied literal in
    /// slot 0 (propagation enqueues `lits[0]`, and the watch scan's swaps
    /// never displace a true `lits[0]`), so it suffices to check that
    /// variable's reason field.
    fn is_locked(&self, cref: ClauseRef) -> bool {
        let l0 = self.arena.lit(cref, 0);
        self.reason[l0.var().index()] == Some(cref)
    }

    /// Learnt-database reduction, glue-tiered: core clauses
    /// (LBD ≤ [`CORE_LBD`]), binary clauses and locked clauses are kept
    /// unconditionally; the rest are ranked worst-first by (high LBD, low
    /// activity) and the worse half tombstoned. The arena GC reclaims the
    /// tombstoned words once they cross the configured waste ratio.
    fn reduce_learnts(&mut self) {
        let mut cands: Vec<(u32, f32, ClauseRef)> = Vec::new();
        for cref in self.arena.refs() {
            if !self.arena.is_learnt(cref)
                || self.arena.len(cref) <= 2
                || self.arena.lbd(cref) <= CORE_LBD
                || self.is_locked(cref)
            {
                continue;
            }
            cands.push((self.arena.lbd(cref), self.arena.activity(cref), cref));
        }
        cands.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.total_cmp(&b.1)));
        for &(_, _, cref) in cands.iter().take(cands.len() / 2) {
            self.detach_clause(cref);
        }
        self.maybe_gc();
    }

    fn detach_clause(&mut self, cref: ClauseRef) {
        let (l0, l1) = (self.arena.lit(cref, 0), self.arena.lit(cref, 1));
        self.watches[(!l0).index()].retain(|w| w.clause() != cref);
        self.watches[(!l1).index()].retain(|w| w.clause() != cref);
        if self.arena.is_learnt(cref) {
            self.num_learnts -= 1;
            self.stats.learnts = self.stats.learnts.saturating_sub(1);
        } else {
            self.num_originals -= 1;
        }
        self.arena.delete(cref);
    }

    /// Runs the arena garbage collector if the tombstoned fraction of the
    /// arena exceeds [`SolverConfig::gc_wasted_ratio`].
    fn maybe_gc(&mut self) {
        let total = self.arena.total_words();
        if total == 0 {
            return;
        }
        if (self.arena.wasted_words() as f64) >= self.config.gc_wasted_ratio * total as f64 {
            self.collect_garbage();
        }
    }

    /// Compacts the clause arena: drops every tombstoned clause and remaps
    /// the watcher lists and trail reasons onto the moved clauses. Runs
    /// automatically after database reductions once the wasted fraction
    /// crosses [`SolverConfig::gc_wasted_ratio`]; public so long-lived
    /// incremental sessions can force a compaction at a quiet point of
    /// their own choosing. A no-op when nothing is tombstoned.
    pub fn collect_garbage(&mut self) {
        if self.arena.wasted_words() == 0 {
            return;
        }
        let compacted = self.arena.begin_gc();
        for ws in &mut self.watches {
            for w in ws {
                let tag = w.cref.0 & BINARY_TAG;
                w.cref = ClauseRef(self.arena.forward(w.clause()).0 | tag);
            }
        }
        for cref in self.reason.iter_mut().flatten() {
            *cref = self.arena.forward(*cref);
        }
        self.arena.finish_gc(compacted);
        self.stats.gc_runs += 1;
        self.stats.arena_bytes = self.arena.bytes() as u64;
        veriqec_obs::instant(
            "sat",
            "clause_gc",
            &[("arena_bytes", self.stats.arena_bytes as f64)],
        );
    }

    /// Solves under the given assumption literals.
    ///
    /// Assumptions are temporary: the solver state is reusable afterwards for
    /// further `add_clause`/`solve` calls (incremental solving).
    pub fn solve(&mut self, assumptions: &[Lit]) -> SatResult {
        self.unknown_cause = None;
        if !self.ok {
            return SatResult::Unsat;
        }
        let _span = veriqec_obs::span("sat", "solve");
        // Cache the observability gate once per solve: the conflict loop
        // below must not pay even an atomic load per iteration when both
        // tracing and the heartbeat are off.
        let track = veriqec_obs::active();
        let solve_t0 = track.then(std::time::Instant::now);
        self.backtrack_to(0);
        self.gauss.build();
        self.stats.gauss_rows = self.gauss.num_rows() as u64;
        if !self.import_shared() || self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }

        let mut conflicts_until_restart = self.restart_interval(0);
        let mut restart_count = 0u64;
        let mut conflicts_this_solve = 0u64;
        let mut max_learnts = (self.num_clauses() / 3).max(self.config.reduce_base) as u64;

        // Every exit path backtracks to the root so the solver is
        // immediately reusable for add_clause/solve (incremental solving).
        loop {
            if self.stop.is_raised() {
                self.backtrack_to(0);
                self.unknown_cause = Some(UnknownCause::Interrupted);
                return SatResult::Unknown;
            }
            let conflict = match self.propagate() {
                None => match self.propagate_xor() {
                    XorStep::Quiet => None,
                    XorStep::Implied => continue,
                    XorStep::Conflict(cref) => Some(cref),
                    XorStep::Unsat => {
                        self.stats.conflicts += 1;
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                },
                conflict => conflict,
            };
            if let Some(conflict) = conflict {
                self.stats.conflicts += 1;
                conflicts_this_solve += 1;
                if track && conflicts_this_solve.is_multiple_of(CONFLICT_SAMPLE) {
                    self.sample_conflicts(conflicts_this_solve, solve_t0);
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let (bt, lbd) = self.analyze(conflict);
                self.backtrack_to(bt);
                self.stats.learned += 1;
                self.stats.lbd_sum += u64::from(lbd);
                if self.learnt_buf.len() == 1 {
                    let l = self.learnt_buf[0];
                    self.unchecked_enqueue(l, None);
                } else {
                    let buf = std::mem::take(&mut self.learnt_buf);
                    let cref = self.attach_clause(&buf, true, lbd);
                    self.unchecked_enqueue(buf[0], Some(cref));
                    self.learnt_buf = buf;
                }
                if lbd <= SHARE_LBD {
                    if let Some(share) = &self.share {
                        share.export(&self.learnt_buf, lbd);
                        self.stats.exported += 1;
                    }
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if let Some(budget) = self.config.conflict_budget {
                    if conflicts_this_solve >= budget {
                        self.backtrack_to(0);
                        self.unknown_cause = Some(UnknownCause::ConflictBudget);
                        veriqec_obs::instant(
                            "sat",
                            "conflict_budget_tripped",
                            &[("budget", budget as f64)],
                        );
                        return SatResult::Unknown;
                    }
                }
                if conflicts_this_solve >= conflicts_until_restart {
                    restart_count += 1;
                    self.stats.restarts += 1;
                    conflicts_until_restart =
                        conflicts_this_solve + self.restart_interval(restart_count);
                    self.backtrack_to(0);
                    if !self.import_shared() {
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                    veriqec_obs::instant(
                        "sat",
                        "restart",
                        &[("conflicts", conflicts_this_solve as f64)],
                    );
                }
                if self.stats.learnts > max_learnts {
                    let before = self.stats.learnts;
                    self.reduce_learnts();
                    max_learnts += max_learnts / 2;
                    veriqec_obs::instant(
                        "sat",
                        "reduce_learnts",
                        &[
                            ("learnts_before", before as f64),
                            ("learnts_after", self.stats.learnts as f64),
                        ],
                    );
                }
            } else {
                // No conflict: extend with assumptions, then decide.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value(a) {
                        LBool::True => {
                            // Already implied; open a dummy level to keep indices aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.backtrack_to(0);
                            return SatResult::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => {
                        self.model = self.assigns.clone();
                        self.backtrack_to(0);
                        return SatResult::Sat;
                    }
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }

    /// The Gauss–Jordan pass after a conflict-free propagation fixpoint
    /// (see [`crate::gauss`]), its results turned into learnt clauses
    /// without level-0 literals. An implied literal is enqueued with its
    /// explanation as reason: implied literal in slot 0, highest-level
    /// false literal in slot 1. A violated row becomes a clause whose
    /// literals are all false, after a backtrack to its highest level if
    /// that is below the current one. At the root an implied literal is a
    /// unit and a violated row makes the formula unsatisfiable; a
    /// one-literal clause above the root backtracks there first.
    fn propagate_xor(&mut self) -> XorStep {
        if self.gauss.num_rows() == 0 {
            return XorStep::Quiet;
        }
        let mut lits = std::mem::take(&mut self.xor_buf);
        let step = if let Some(row) = self.gauss.pass(&self.assigns) {
            self.stats.gauss_conflicts += 1;
            self.gauss
                .explain(row, &self.assigns, &self.level, &mut lits);
            self.raise_highest(&mut lits, 0);
            self.raise_highest(&mut lits, 1);
            match lits.len() {
                0 => {
                    self.backtrack_to(0);
                    XorStep::Unsat
                }
                1 => {
                    self.backtrack_to(0);
                    self.unchecked_enqueue(lits[0], None);
                    XorStep::Implied
                }
                _ => {
                    self.backtrack_to(self.level[lits[0].var().index()]);
                    let lbd = self.lbd(&lits);
                    XorStep::Conflict(self.attach_clause(&lits, true, lbd))
                }
            }
        } else {
            let mut step = XorStep::Quiet;
            for i in 0..self.gauss.implied().len() {
                let row = self.gauss.implied()[i];
                self.stats.gauss_propagations += 1;
                self.gauss
                    .explain(row, &self.assigns, &self.level, &mut lits);
                step = XorStep::Implied;
                if lits.len() == 1 {
                    let above_root = self.decision_level() > 0;
                    self.backtrack_to(0);
                    self.unchecked_enqueue(lits[0], None);
                    if above_root {
                        break; // the other explanations may name unassigned literals now
                    }
                } else {
                    self.raise_highest(&mut lits, 1);
                    // The implied literal lands on the current level.
                    let lbd = self.lbd(&lits[1..])
                        + u32::from(self.level[lits[1].var().index()] < self.decision_level());
                    let cref = self.attach_clause(&lits, true, lbd);
                    self.unchecked_enqueue(lits[0], Some(cref));
                }
            }
            step
        };
        self.xor_buf = lits;
        step
    }

    /// Swaps the highest-level literal of `lits[k..]` into slot `k`.
    fn raise_highest(&self, lits: &mut [Lit], k: usize) {
        if let Some(i) = (k..lits.len()).max_by_key(|&i| self.level[lits[i].var().index()]) {
            lits.swap(k, i);
        }
    }

    fn restart_interval(&self, i: u64) -> u64 {
        self.config.restart_base * luby(i + 1)
    }

    /// Observability sampling point of the CDCL loop, reached every
    /// [`CONFLICT_SAMPLE`] conflicts while tracing or the heartbeat is on:
    /// publishes progress to the global conflict counter and emits
    /// cumulative/rate counter samples for the trace.
    #[cold]
    fn sample_conflicts(&self, conflicts_this_solve: u64, t0: Option<std::time::Instant>) {
        veriqec_obs::heartbeat::CONFLICTS.add(CONFLICT_SAMPLE);
        if veriqec_obs::enabled() {
            veriqec_obs::counter("sat", "conflicts", self.stats.conflicts as f64);
            if let Some(t0) = t0 {
                let secs = t0.elapsed().as_secs_f64();
                if secs > 0.0 {
                    veriqec_obs::counter(
                        "sat",
                        "conflicts_per_sec",
                        conflicts_this_solve as f64 / secs,
                    );
                }
            }
        }
    }

    /// Value of a literal in the last satisfying model.
    ///
    /// Returns `None` if no model is available or the variable was never
    /// assigned (free variables may legitimately be unassigned only when the
    /// formula did not constrain them; this solver assigns all variables).
    pub fn model_value(&self, l: Lit) -> Option<bool> {
        match self.model.get(l.var().index())? {
            LBool::True => Some(l.is_positive()),
            LBool::False => Some(!l.is_positive()),
            LBool::Undef => None,
        }
    }

    /// The complete last model as booleans (unassigned variables read `false`).
    pub fn model(&self) -> Vec<bool> {
        self.model
            .iter()
            .map(|&v| matches!(v, LBool::True))
            .collect()
    }
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
fn luby(mut i: u64) -> u64 {
    loop {
        // Find smallest k with i <= 2^k - 1.
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if i == (1u64 << k) - 1 {
            return 1u64 << (k - 1);
        }
        // Recurse into the copy of the previous subsequence.
        i -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn lit(s: &mut Solver, v: usize, pos: bool) -> Lit {
        while s.num_vars() <= v {
            s.new_var();
        }
        Lit::new(Var(v as u32), pos)
    }

    /// Pigeonhole principle PHP(p, h): each pigeon in some hole, no two
    /// pigeons share a hole. Unsatisfiable whenever `p > h`.
    fn add_php(s: &mut Solver, pigeons: usize, holes: usize) {
        let p = |s: &mut Solver, pigeon: usize, hole: usize| lit(s, pigeon * holes + hole, true);
        for pigeon in 0..pigeons {
            let c: Vec<Lit> = (0..holes).map(|h| p(s, pigeon, h)).collect();
            s.add_clause(c);
        }
        for hole in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    let a = p(s, p1, hole);
                    let b = p(s, p2, hole);
                    s.add_clause([!a, !b]);
                }
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        assert!(s.add_clause([a]));
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.model_value(a), Some(true));
        assert!(!s.add_clause([!a]));
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        assert!(s.add_clause([a, !a]));
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn implication_chain_propagates() {
        let mut s = Solver::new();
        let n = 30;
        for i in 0..n - 1 {
            let x = lit(&mut s, i, true);
            let y = lit(&mut s, i + 1, true);
            s.add_clause([!x, y]); // x_i -> x_{i+1}
        }
        let first = lit(&mut s, 0, true);
        s.add_clause([first]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        for i in 0..n {
            let l = lit(&mut s, i, true);
            assert_eq!(s.model_value(l), Some(true));
        }
    }

    #[test]
    fn xor_chain_parity_unsat() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 1 is unsatisfiable.
        let mut s = Solver::new();
        let x1 = lit(&mut s, 0, true);
        let x2 = lit(&mut s, 1, true);
        let x3 = lit(&mut s, 2, true);
        for (a, b) in [(x1, x2), (x2, x3), (x1, x3)] {
            s.add_clause([a, b]);
            s.add_clause([!a, !b]);
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_3_unsat() {
        let mut s = Solver::new();
        add_php(&mut s, 4, 3);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn raised_stop_flag_aborts_with_unknown() {
        // PHP(6,5) is hard enough that the loop runs many iterations; with
        // the flag pre-raised the solver must bail out immediately.
        let mut s = Solver::new();
        add_php(&mut s, 6, 5);
        let flag = Arc::new(AtomicBool::new(true));
        s.set_stop(Stop::new(vec![flag.clone()], None));
        assert_eq!(s.solve(&[]), SatResult::Unknown);
        // Lowering the flag makes the same solver usable again.
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn passed_deadline_interrupts_at_the_first_poll() {
        let mut s = Solver::new();
        add_php(&mut s, 6, 5);
        s.set_stop(Stop::new(vec![], Some(std::time::Instant::now())));
        assert_eq!(s.solve(&[]), SatResult::Unknown);
        assert_eq!(s.unknown_cause(), Some(UnknownCause::Interrupted));
        assert_eq!(s.stats().conflicts, 0, "no search after the first poll");
    }

    #[test]
    fn solver_stats_aggregate() {
        let a = SolverStats {
            conflicts: 1,
            decisions: 2,
            propagations: 3,
            restarts: 4,
            learnts: 5,
            learned: 6,
            lbd_sum: 12,
            minimized_lits: 7,
            gc_runs: 1,
            arena_bytes: 256,
            exported: 3,
            imported: 2,
            gauss_rows: 161,
            gauss_propagations: 297,
            gauss_conflicts: 87,
        };
        let total: SolverStats = [a, a].into_iter().sum();
        assert_eq!(total.conflicts, 2);
        assert_eq!(total.propagations, 6);
        assert_eq!(total.learnts, 10);
        assert_eq!(total.minimized_lits, 14);
        assert_eq!(total.gc_runs, 2);
        assert_eq!(total.arena_bytes, 512);
        assert_eq!((total.exported, total.imported), (6, 4));
        assert_eq!(
            (
                total.gauss_rows,
                total.gauss_propagations,
                total.gauss_conflicts
            ),
            (322, 594, 174)
        );
        assert!((a.mean_learnt_lbd() - 2.0).abs() < 1e-12);
        assert_eq!(SolverStats::default().mean_learnt_lbd(), 0.0);
    }

    #[test]
    fn learn_time_stats_populated() {
        let mut s = Solver::new();
        add_php(&mut s, 5, 4);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        let st = s.stats();
        assert!(st.learned > 0, "PHP(5,4) must learn clauses");
        assert!(st.lbd_sum >= st.learned, "every learnt clause has LBD >= 1");
        assert!(st.mean_learnt_lbd() >= 1.0);
        assert!(st.arena_bytes > 0);
    }

    #[test]
    fn num_clauses_is_maintained_incrementally() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        let b = lit(&mut s, 1, true);
        let c = lit(&mut s, 2, true);
        assert_eq!(s.num_clauses(), 0);
        s.add_clause([a, b]);
        s.add_clause([!a, c]);
        assert_eq!(s.num_clauses(), 2);
        // Units go straight onto the trail, tautologies are dropped, and
        // satisfied clauses are never stored: the count must not change.
        s.add_clause([b, !b]);
        s.add_clause([c]);
        s.add_clause([c, a]);
        assert_eq!(s.num_clauses(), 2);
    }

    #[test]
    fn gc_bounds_arena_memory() {
        // The same hard instance solved twice: with the GC at its default
        // trigger ratio and with the GC disabled. Both solvers search
        // identically (compaction only renames clause references), but only
        // the collected arena stays bounded — without GC the tombstones of
        // every database reduction accumulate forever.
        let run = |gc_wasted_ratio: f64| {
            let mut s = Solver::with_config(SolverConfig {
                reduce_base: 20,
                gc_wasted_ratio,
                ..SolverConfig::default()
            });
            add_php(&mut s, 7, 6);
            assert_eq!(s.solve(&[]), SatResult::Unsat);
            s.stats()
        };
        let gc = run(0.25);
        let no_gc = run(2.0);
        assert_eq!(
            gc.conflicts, no_gc.conflicts,
            "GC must not perturb the search"
        );
        assert!(gc.gc_runs > 0, "the reduced database must trigger GCs");
        assert_eq!(no_gc.gc_runs, 0);
        assert!(
            gc.arena_bytes < no_gc.arena_bytes,
            "collected arena ({} B) must stay below the monotonically \
             growing uncollected one ({} B)",
            gc.arena_bytes,
            no_gc.arena_bytes
        );
    }

    #[test]
    fn explicit_gc_compacts_and_preserves_state() {
        // Force learnt-clause deletions with a tiny reduction cap, compact
        // explicitly, and check the solver still answers afterwards.
        let mut s = Solver::with_config(SolverConfig {
            reduce_base: 20,
            gc_wasted_ratio: 2.0, // no automatic GC; collect_garbage() only
            ..SolverConfig::default()
        });
        add_php(&mut s, 7, 6);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        let before = s.stats().arena_bytes;
        assert_eq!(s.stats().gc_runs, 0);
        s.collect_garbage();
        assert_eq!(s.stats().gc_runs, 1, "reductions left garbage to collect");
        assert!(
            s.stats().arena_bytes < before,
            "compaction must shrink the arena"
        );
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        let b = lit(&mut s, 1, true);
        s.add_clause([a, b]);
        assert_eq!(s.solve(&[!a, !b]), SatResult::Unsat);
        assert_eq!(s.solve(&[!a]), SatResult::Sat);
        assert_eq!(s.model_value(b), Some(true));
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn all_configs_agree_on_random_instances() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        for round in 0..60 {
            let n = 8;
            let clauses: Vec<Vec<(usize, bool)>> = (0..24)
                .map(|_| {
                    (0..3)
                        .map(|_| (rng.gen_range(0..n), rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();
            // Brute-force reference.
            let brute_sat = (0..1u32 << n).any(|bits| {
                clauses
                    .iter()
                    .all(|c| c.iter().any(|&(v, pos)| ((bits >> v) & 1 == 1) == pos))
            });
            for recursive in [true, false] {
                let mut s = Solver::with_config(SolverConfig {
                    use_recursive_minimization: recursive,
                    ..SolverConfig::default()
                });
                for _ in 0..n {
                    s.new_var();
                }
                for c in &clauses {
                    let lits: Vec<Lit> = c
                        .iter()
                        .map(|&(v, pos)| Lit::new(Var(v as u32), pos))
                        .collect();
                    s.add_clause(lits);
                }
                let got = s.solve(&[]);
                let expect = if brute_sat {
                    SatResult::Sat
                } else {
                    SatResult::Unsat
                };
                assert_eq!(
                    got, expect,
                    "round {round} recursive minimization {recursive}"
                );
                if got == SatResult::Sat {
                    // Verify the model actually satisfies the clauses.
                    let model = s.model();
                    for c in &clauses {
                        assert!(c.iter().any(|&(v, pos)| model[v] == pos));
                    }
                }
            }
        }
    }
}
