//! The BDD kernel: hash-consed reduced ordered binary decision diagrams
//! over a packed arena, with a lossy apply cache, mark-and-sweep garbage
//! collection, and exact (weight-stratified) model counting.
//!
//! Nodes live in one struct-of-arrays arena owned by a [`BddManager`]
//! (see [`crate::arena`]); structural sharing is enforced by an
//! open-addressing unique table, so semantic equality of functions is
//! pointer equality of [`Bdd`] handles. Variable `v` sits at level `v`:
//! the caller fixes the order by how it numbers its variables. Levels run
//! top (0) to bottom (`num_vars − 1`), with the terminals on the sentinel
//! level `u32::MAX`.
//!
//! All traversals — `apply`, counting, GC marking — are iterative with
//! explicit stacks or work lists: recursion depth would otherwise scale
//! with the number of variable levels.

use std::cell::Cell;

use veriqec_sat::Stop;

use crate::arena::{NodeArena, UniqueTable};
use crate::cache::{pack_key, ApplyCache};
use crate::compile::{CompileConfig, CompileError, POLL_EVERY};

/// A handle to a BDD node inside its [`BddManager`].
///
/// Handles are canonical: two handles are equal iff they denote the same
/// boolean function (under the manager's variable order). Handles are
/// renumbered by [`BddManager::collect_garbage`] — hold them through a
/// collection via the root registry ([`BddManager::protect`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-false function.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-true function.
    pub const TRUE: Bdd = Bdd(1);

    /// The arena index (stable until the next garbage collection).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A slot in the manager's root registry: the handle it holds is treated
/// as a GC root and is updated in place when a collection renumbers the
/// arena. Obtained from [`BddManager::protect`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RootId(usize);

const OP_AND: u8 = 0;
const OP_OR: u8 = 1;
const OP_XOR: u8 = 2;

/// A model count that does not fit in `u128`: more than 128 free
/// variables' worth of models, as under a code of 128 or more qubits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountOverflow;

impl std::fmt::Display for CountOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("model count overflows u128")
    }
}

impl std::error::Error for CountOverflow {}

/// Why [`BddManager::weight_count_until`] returned no coefficients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountError {
    /// A coefficient does not fit in `u128` ([`CountOverflow`]).
    Overflow,
    /// The stop was raised before the count finished.
    Cancelled,
}

impl From<CountOverflow> for CountError {
    fn from(_: CountOverflow) -> Self {
        CountError::Overflow
    }
}

impl std::fmt::Display for CountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CountError::Overflow => CountOverflow.fmt(f),
            CountError::Cancelled => f.write_str("model count cancelled"),
        }
    }
}

impl std::error::Error for CountError {}

/// Counters of the decision-diagram kernel, reported alongside
/// [`veriqec_sat::SolverStats`] by the engine's counting jobs.
///
/// Summing (via `+=` / `Sum`) aggregates per-job managers: cumulative
/// counters add naturally; `peak_nodes`, `unique_slots`, `arena_bytes` and
/// `count_peak_bytes` then read as the combined footprint across managers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DdStats {
    /// Decision nodes allocated over the manager's lifetime (shared nodes
    /// count once; reclaimed nodes still count).
    pub nodes: u64,
    /// Decision nodes currently in the arena (exact right after a
    /// collection; in between it includes garbage awaiting the sweep).
    pub live_nodes: u64,
    /// Peak simultaneous decision-node population of the arena.
    pub peak_nodes: u64,
    /// Apply-cache lookups (And/Or/Xor).
    pub cache_lookups: u64,
    /// Apply-cache hits.
    pub cache_hits: u64,
    /// Apply-cache hits whose operands arrived in non-canonical order —
    /// the share of hits owed to commutative key canonicalization.
    pub cache_swapped_hits: u64,
    /// Unique-table probe sequences (one per hash-cons attempt).
    pub unique_lookups: u64,
    /// Unique-table slots inspected across all probe sequences; divide by
    /// `unique_lookups` for the mean probe length.
    pub unique_probes: u64,
    /// Unique-table slot-array capacity.
    pub unique_slots: u64,
    /// Garbage collections run.
    pub gc_runs: u64,
    /// Decision nodes reclaimed across all collections.
    pub gc_reclaimed: u64,
    /// Always 0: the kernel keeps the order it was built with. Kept only
    /// because the `pipebench` package still sets and reads it.
    pub reorder_swaps: u64,
    /// Resident bytes across the arena, unique table and apply cache.
    pub arena_bytes: u64,
    /// Most bytes of weight polynomials a count on the manager held at
    /// once (the largest over its counts).
    pub count_peak_bytes: u64,
}

impl DdStats {
    /// Apply-cache hit rate in `[0, 1]` (0 when idle).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// Mean unique-table probe length (slots inspected per lookup; 0 when
    /// idle, ≥ 1 otherwise).
    pub fn unique_probe_length(&self) -> f64 {
        if self.unique_lookups == 0 {
            0.0
        } else {
            self.unique_probes as f64 / self.unique_lookups as f64
        }
    }

    /// Unique-table load factor in `[0, 1]` (live nodes over slots).
    pub fn unique_load_factor(&self) -> f64 {
        if self.unique_slots == 0 {
            0.0
        } else {
            self.live_nodes as f64 / self.unique_slots as f64
        }
    }

    /// Lowers the stats into a [`veriqec_obs::MetricsSnapshot`] under the
    /// batch reports' `dd_`-prefixed names — the one table the markdown and
    /// JSON DD columns are generated from. Counts merge additively; the
    /// derived rates (`dd_hit_rate`, `dd_probe_len`, `dd_load_factor`) are
    /// computed here once.
    pub fn to_metrics(&self) -> veriqec_obs::MetricsSnapshot {
        let mut m = veriqec_obs::MetricsSnapshot::new();
        m.push_count("dd_nodes", self.nodes);
        m.push_count("dd_peak_nodes", self.peak_nodes);
        m.push_count("dd_cache_lookups", self.cache_lookups);
        m.push_count("dd_cache_hits", self.cache_hits);
        m.push_value("dd_hit_rate", self.cache_hit_rate());
        m.push_value("dd_probe_len", self.unique_probe_length());
        m.push_value("dd_load_factor", self.unique_load_factor());
        m.push_count("dd_gc_runs", self.gc_runs);
        m.push_count("dd_gc_reclaimed", self.gc_reclaimed);
        m.push_count("dd_arena_bytes", self.arena_bytes);
        m.push_count("dd_count_peak_bytes", self.count_peak_bytes);
        m
    }
}

impl std::ops::AddAssign for DdStats {
    fn add_assign(&mut self, rhs: DdStats) {
        self.nodes += rhs.nodes;
        self.live_nodes += rhs.live_nodes;
        self.peak_nodes += rhs.peak_nodes;
        self.cache_lookups += rhs.cache_lookups;
        self.cache_hits += rhs.cache_hits;
        self.cache_swapped_hits += rhs.cache_swapped_hits;
        self.unique_lookups += rhs.unique_lookups;
        self.unique_probes += rhs.unique_probes;
        self.unique_slots += rhs.unique_slots;
        self.gc_runs += rhs.gc_runs;
        self.gc_reclaimed += rhs.gc_reclaimed;
        self.reorder_swaps += rhs.reorder_swaps;
        self.arena_bytes += rhs.arena_bytes;
        self.count_peak_bytes += rhs.count_peak_bytes;
    }
}

impl std::iter::Sum for DdStats {
    fn sum<I: Iterator<Item = DdStats>>(iter: I) -> DdStats {
        let mut total = DdStats::default();
        for s in iter {
            total += s;
        }
        total
    }
}

/// Work items of the iterative `apply` loop.
#[derive(Clone, Copy, Debug)]
enum Frame {
    Visit { a: u32, b: u32 },
    Build { level: u32, a: u32, b: u32 },
}

/// An arena of hash-consed BDD nodes over a fixed variable order.
///
/// # Examples
///
/// ```
/// use veriqec_dd::{Bdd, BddManager};
///
/// let mut m = BddManager::new(3);
/// let (a, b, c) = (m.var(0), m.var(1), m.var(2));
/// let ab = m.and(a, b);
/// let f = m.or(ab, c);
/// assert_eq!(m.model_count(f), Ok(5)); // truth table of a·b + c has 5 ones
/// assert_eq!(m.model_count(Bdd::TRUE), Ok(8));
/// ```
#[derive(Clone, Debug)]
pub struct BddManager {
    arena: NodeArena,
    /// `(level, lo, hi) → node`, the hash-consing table.
    unique: UniqueTable,
    /// `(op, a, b) → result`, lossy, with commutative operands normalized.
    cache: ApplyCache,
    /// Variables in the order; variable `v` sits at level `v`.
    num_vars: usize,
    /// GC roots: handles held by callers across collections.
    roots: Vec<Option<u32>>,
    stats: DdStats,
    /// [`DdStats::count_peak_bytes`]: counting takes `&self`.
    count_peak_bytes: Cell<u64>,
    // Scratch stacks reused across iterative traversals.
    apply_frames: Vec<Frame>,
    apply_results: Vec<u32>,
}

impl BddManager {
    /// A manager over `num_vars` variables, variable `v` at level `v`
    /// (level 0 is the root end).
    pub fn new(num_vars: usize) -> Self {
        BddManager {
            arena: NodeArena::new(),
            unique: UniqueTable::new(),
            cache: ApplyCache::new(),
            num_vars,
            roots: Vec::new(),
            stats: DdStats::default(),
            count_peak_bytes: Cell::new(0),
            apply_frames: Vec::new(),
            apply_results: Vec::new(),
        }
    }

    /// Number of variables in the order.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Decision nodes currently in the arena (terminals excluded; includes
    /// garbage not yet swept).
    pub fn node_count(&self) -> usize {
        self.arena.len() - 2
    }

    /// Kernel counters so far (cache/table counters sampled live).
    pub fn stats(&self) -> DdStats {
        let mut s = self.stats;
        s.live_nodes = self.node_count() as u64;
        s.cache_lookups = self.cache.lookups;
        s.cache_hits = self.cache.hits;
        s.cache_swapped_hits = self.cache.swapped_hits;
        s.unique_lookups = self.unique.lookups;
        s.unique_probes = self.unique.probes;
        s.unique_slots = self.unique.capacity() as u64;
        s.arena_bytes = (self.arena.bytes() + self.unique.bytes() + self.cache.bytes()) as u64;
        s.count_peak_bytes = self.count_peak_bytes.get();
        s
    }

    #[inline]
    fn level(&self, f: u32) -> u32 {
        self.arena.levels[f as usize]
    }

    /// The reduced node for `if var_at(level) then hi else lo`.
    fn mk(&mut self, level: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        debug_assert!(level < self.level(lo) && level < self.level(hi));
        self.unique.reserve(&self.arena);
        match self.unique.find(level, lo, hi, &self.arena) {
            Ok(idx) => idx,
            Err(slot) => {
                let idx = self.arena.push(level, lo, hi);
                self.unique.insert_at(slot, idx);
                self.stats.nodes += 1;
                let occupancy = (self.arena.len() - 2) as u64;
                if occupancy > self.stats.peak_nodes {
                    self.stats.peak_nodes = occupancy;
                }
                idx
            }
        }
    }

    /// The function of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var(&mut self, v: usize) -> Bdd {
        self.literal(v, true)
    }

    /// The literal of variable `v`: the variable itself when `positive`,
    /// its negation otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn literal(&mut self, v: usize, positive: bool) -> Bdd {
        assert!(v < self.num_vars, "variable {v} out of range");
        let level = v as u32;
        if positive {
            Bdd(self.mk(level, 0, 1))
        } else {
            Bdd(self.mk(level, 1, 0))
        }
    }

    // ------------------------------------------------------------ operations

    /// Conjunction.
    pub fn and(&mut self, a: Bdd, b: Bdd) -> Bdd {
        Bdd(infallible(self.apply_iter(OP_AND, a.0, b.0, None)))
    }

    /// Disjunction.
    pub fn or(&mut self, a: Bdd, b: Bdd) -> Bdd {
        Bdd(infallible(self.apply_iter(OP_OR, a.0, b.0, None)))
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: Bdd, b: Bdd) -> Bdd {
        Bdd(infallible(self.apply_iter(OP_XOR, a.0, b.0, None)))
    }

    /// Negation.
    pub fn not(&mut self, a: Bdd) -> Bdd {
        Bdd(infallible(self.apply_iter(OP_XOR, a.0, 1, None)))
    }

    /// Budgeted conjunction: like [`BddManager::and`], but checks the
    /// budget of `config` (its node limit and stop) every 1,024 node
    /// builds, so a single runaway conjunction is caught near the limit
    /// instead of after it completes.
    ///
    /// # Errors
    ///
    /// [`CompileError::NodeLimit`] / [`CompileError::Cancelled`] when the
    /// budget trips; the partially built subgraph stays in the arena as
    /// garbage for the next collection.
    pub fn and_budgeted(
        &mut self,
        a: Bdd,
        b: Bdd,
        config: &CompileConfig,
    ) -> Result<Bdd, CompileError> {
        self.apply_iter(OP_AND, a.0, b.0, Some(config)).map(Bdd)
    }

    /// Budgeted exclusive or; see [`BddManager::and_budgeted`].
    ///
    /// # Errors
    ///
    /// Propagates budget exhaustion exactly like [`BddManager::and_budgeted`].
    pub fn xor_budgeted(
        &mut self,
        a: Bdd,
        b: Bdd,
        config: &CompileConfig,
    ) -> Result<Bdd, CompileError> {
        self.apply_iter(OP_XOR, a.0, b.0, Some(config)).map(Bdd)
    }

    /// Checks the budget of `config`: raised stop first, then the node
    /// limit against the arena's current population.
    pub(crate) fn check_budget(&self, config: &CompileConfig) -> Result<(), CompileError> {
        if config.stop.is_raised() {
            return Err(CompileError::Cancelled);
        }
        if let Some(limit) = config.node_limit {
            let nodes = self.node_count();
            if nodes > limit {
                return Err(CompileError::NodeLimit { nodes });
            }
        }
        Ok(())
    }

    /// The iterative apply loop: an explicit `Visit`/`Build` frame stack
    /// plus a result stack, so depth is heap-bounded. `Visit` resolves
    /// terminals and cache hits; `Build` consumes the two child results.
    fn apply_iter(
        &mut self,
        op: u8,
        a: u32,
        b: u32,
        budget: Option<&CompileConfig>,
    ) -> Result<u32, CompileError> {
        if let Some(r) = apply_terminal(op, a, b) {
            return Ok(r);
        }
        let mut frames = std::mem::take(&mut self.apply_frames);
        let mut results = std::mem::take(&mut self.apply_results);
        frames.push(Frame::Visit { a, b });
        // Poll every `POLL_EVERY` *Build frames*: allocations never outrun
        // frames, so the node limit overshoots by at most `POLL_EVERY`, and
        // a raised stop is honoured even on traversals whose `mk` calls all
        // collapse (e.g. `f ⊕ ¬f`, which allocates nothing).
        let poll_every = budget.map_or(u64::MAX, |_| POLL_EVERY);
        let mut since_poll = 0u64;
        let mut failed = None;
        'work: while let Some(frame) = frames.pop() {
            match frame {
                Frame::Visit { a, b } => {
                    if let Some(r) = apply_terminal(op, a, b) {
                        results.push(r);
                        continue;
                    }
                    // All the cached ops are commutative: canonicalize.
                    let (x, y, swapped) = if a <= b { (a, b, false) } else { (b, a, true) };
                    let key = pack_key(op, x, y);
                    if let Some(r) = self.cache.get(key) {
                        if swapped {
                            self.cache.swapped_hits += 1;
                        }
                        results.push(r);
                        continue;
                    }
                    let (lx, ly) = (self.level(x), self.level(y));
                    let level = lx.min(ly);
                    let (x0, x1) = if lx == level {
                        (self.arena.los[x as usize], self.arena.his[x as usize])
                    } else {
                        (x, x)
                    };
                    let (y0, y1) = if ly == level {
                        (self.arena.los[y as usize], self.arena.his[y as usize])
                    } else {
                        (y, y)
                    };
                    frames.push(Frame::Build { level, a: x, b: y });
                    frames.push(Frame::Visit { a: x1, b: y1 });
                    frames.push(Frame::Visit { a: x0, b: y0 });
                }
                Frame::Build { level, a, b } => {
                    let hi = results.pop().expect("apply: missing hi result");
                    let lo = results.pop().expect("apply: missing lo result");
                    let r = self.mk(level, lo, hi);
                    self.cache.put(pack_key(op, a, b), r);
                    results.push(r);
                    since_poll += 1;
                    if since_poll >= poll_every {
                        since_poll = 0;
                        let budget = budget.expect("a finite poll period implies a budget");
                        if let Err(e) = self.check_budget(budget) {
                            failed = Some(e);
                            break 'work;
                        }
                    }
                }
            }
        }
        let outcome = match failed {
            Some(e) => Err(e),
            None => Ok(results.pop().expect("apply: missing final result")),
        };
        frames.clear();
        results.clear();
        self.apply_frames = frames;
        self.apply_results = results;
        outcome
    }

    // ------------------------------------------------------- roots and GC

    /// Registers `f` as a GC root: it and everything it reaches survive
    /// [`BddManager::collect_garbage`], and the registered handle is
    /// renumbered in place by the sweep (read it back with
    /// [`BddManager::root`]).
    pub fn protect(&mut self, f: Bdd) -> RootId {
        if let Some(slot) = self.roots.iter().position(Option::is_none) {
            self.roots[slot] = Some(f.0);
            RootId(slot)
        } else {
            self.roots.push(Some(f.0));
            RootId(self.roots.len() - 1)
        }
    }

    /// The current handle of a protected root (valid across collections).
    ///
    /// # Panics
    ///
    /// Panics if the slot was unprotected.
    pub fn root(&self, id: RootId) -> Bdd {
        Bdd(self.roots[id.0].expect("root slot was unprotected"))
    }

    /// Repoints a protected root at a new function.
    pub fn update_root(&mut self, id: RootId, f: Bdd) {
        self.roots[id.0] = Some(f.0);
    }

    /// Releases a root slot; the handle (and its subgraph) becomes garbage
    /// unless reachable from another root.
    pub fn unprotect(&mut self, id: RootId) {
        self.roots[id.0] = None;
    }

    /// Mark-and-sweep garbage collection with arena compaction: marks
    /// everything reachable from the protected roots, compacts survivors
    /// to the front of the arena (renumbering handles — protected roots
    /// are updated in place, all other outstanding handles dangle),
    /// rebuilds the unique table and drops the apply cache. Returns the
    /// number of nodes reclaimed.
    pub fn collect_garbage(&mut self) -> usize {
        let (marks, live) = self.mark_live();
        self.sweep(&marks, live)
    }

    /// Collects only when the dead-node share of the arena is at least
    /// `dead_ratio` (the compile loop's trigger between conjunctions).
    /// Returns whether a sweep ran.
    pub fn collect_if_worthwhile(&mut self, dead_ratio: f64) -> bool {
        let total = self.node_count();
        if total == 0 {
            return false;
        }
        let (marks, live) = self.mark_live();
        let dead = total - live;
        if (dead as f64) < dead_ratio * total as f64 {
            return false;
        }
        self.sweep(&marks, live) > 0
    }

    /// Marks nodes reachable from the root registry; returns the mark
    /// bitset and the live decision-node count.
    fn mark_live(&self) -> (Vec<u64>, usize) {
        let len = self.arena.len();
        let mut marks = vec![0u64; len.div_ceil(64)];
        marks[0] |= 0b11; // terminals always survive
        let mut stack: Vec<u32> = self.roots.iter().flatten().copied().collect();
        let mut live = 0usize;
        while let Some(f) = stack.pop() {
            let (word, bit) = (f as usize / 64, 1u64 << (f % 64));
            if marks[word] & bit != 0 {
                continue;
            }
            marks[word] |= bit;
            live += 1; // terminals were pre-marked, so f ≥ 2 here
            stack.push(self.arena.los[f as usize]);
            stack.push(self.arena.his[f as usize]);
        }
        (marks, live)
    }

    fn sweep(&mut self, marks: &[u64], live: usize) -> usize {
        let len = self.arena.len();
        let reclaimed = len - 2 - live;
        if reclaimed == 0 {
            return 0;
        }
        // Pass 1: assign compacted indices (order-preserving), so the full
        // remap exists before any node moves.
        let mut remap = vec![u32::MAX; len];
        remap[0] = 0;
        remap[1] = 1;
        let mut next = 2u32;
        for (idx, slot) in remap.iter_mut().enumerate().skip(2) {
            if marks[idx / 64] & (1 << (idx % 64)) != 0 {
                *slot = next;
                next += 1;
            }
        }
        // Pass 2: move survivors down (destination ≤ source, and every
        // source is read before anything at or above it is overwritten).
        for idx in 2..len {
            let n = remap[idx];
            if n == u32::MAX {
                continue;
            }
            let n = n as usize;
            self.arena.levels[n] = self.arena.levels[idx];
            self.arena.los[n] = remap[self.arena.los[idx] as usize];
            self.arena.his[n] = remap[self.arena.his[idx] as usize];
        }
        self.arena.truncate(next as usize);
        self.unique.rebuild(&self.arena);
        self.cache.clear();
        for r in self.roots.iter_mut().flatten() {
            *r = remap[*r as usize];
        }
        self.stats.gc_runs += 1;
        self.stats.gc_reclaimed += reclaimed as u64;
        reclaimed
    }

    // ---------------------------------------------------------------- counting

    /// Exact number of satisfying assignments of `f` over all
    /// [`BddManager::num_vars`] variables.
    ///
    /// # Errors
    ///
    /// [`CountOverflow`] if the count exceeds `u128` (only possible with
    /// more than 128 variables).
    pub fn model_count(&self, f: Bdd) -> Result<u128, CountOverflow> {
        Ok(self.weight_count(f, &[])?[0])
    }

    /// Weight-stratified model count: `result[w]` is the number of
    /// satisfying assignments of `f` in which exactly `w` of the
    /// `indicators` literals are satisfied (a literal is `(variable,
    /// positive)`). The result has length `indicators.len() + 1` and sums to
    /// [`BddManager::model_count`]. One bottom-up pass over the diagram:
    /// [`BddManager::weight_count_until`] under a stop that is never raised.
    ///
    /// # Errors
    ///
    /// [`CountOverflow`] if a coefficient, or the count of a subdiagram on
    /// the way to it, exceeds `u128`.
    ///
    /// # Panics
    ///
    /// Panics if an indicator variable is out of range or repeated.
    pub fn weight_count(
        &self,
        f: Bdd,
        indicators: &[(usize, bool)],
    ) -> Result<Vec<u128>, CountOverflow> {
        match self.weight_count_until(f, indicators, &Stop::default()) {
            Ok(poly) => Ok(poly),
            Err(CountError::Overflow) => Err(CountOverflow),
            Err(CountError::Cancelled) => unreachable!("the default stop is never raised"),
        }
    }

    /// [`BddManager::weight_count`] under a stop, polled every 1,024 nodes
    /// from the first.
    ///
    /// The count streams through the diagram bottom-up, one level at a
    /// time. A node's weight polynomial is only as long as the indicator
    /// levels at or below it (plus one), and a child's polynomial is freed
    /// as soon as its last parent is built, so the polynomials held at
    /// once are those of the diagram's cut between two levels, not one per
    /// node. The most bytes held at once is the
    /// [`DdStats::count_peak_bytes`] gauge and the `peak_bytes` argument
    /// of the count's `dd/count` span.
    ///
    /// # Errors
    ///
    /// [`CountError::Overflow`] where [`BddManager::weight_count`] returns
    /// [`CountOverflow`]; [`CountError::Cancelled`] once `stop` is raised.
    ///
    /// # Panics
    ///
    /// Panics if an indicator variable is out of range or repeated.
    pub fn weight_count_until(
        &self,
        f: Bdd,
        indicators: &[(usize, bool)],
        stop: &Stop,
    ) -> Result<Vec<u128>, CountError> {
        let mut marker: Vec<Mark> = vec![Mark::Count; self.num_vars];
        for &(v, positive) in indicators {
            assert!(v < self.num_vars, "indicator variable {v} out of range");
            assert!(
                !matches!(marker[v], Mark::Ind(_)),
                "indicator variable {v} repeated"
            );
            marker[v] = Mark::Ind(positive);
        }
        let levels = LevelCounts::new(&marker);
        let span = veriqec_obs::span("dd", "count");
        let mut pass = CountPass::default();
        let poly = self
            .count_levels(f.0, &marker, &levels, stop, &mut pass)
            .and_then(|mut poly| {
                levels.lift(&mut poly, 0, self.cut_level(f.0))?;
                Ok(poly)
            });
        let peak = self.count_peak_bytes.get().max(pass.peak_bytes);
        self.count_peak_bytes.set(peak);
        span.close_with(&[
            ("nodes", pass.nodes as f64),
            ("width", (indicators.len() + 1) as f64),
            ("peak_bytes", pass.peak_bytes as f64),
        ]);
        poly
    }

    /// The level of `f` clamped to the counting range (terminals sit on
    /// the sentinel level, but `lift` iterates real levels only).
    fn cut_level(&self, f: u32) -> u32 {
        self.level(f).min(self.num_vars as u32)
    }

    /// The weight polynomial of `f` over the levels `level(f)..num_vars`
    /// (levels above `f`'s root are the caller's to account for via
    /// [`LevelCounts::lift`]), built bottom-up one level at a time.
    fn count_levels(
        &self,
        f: u32,
        marker: &[Mark],
        levels: &LevelCounts,
        stop: &Stop,
        pass: &mut CountPass,
    ) -> Result<Vec<u128>, CountError> {
        if f <= 1 {
            return Ok(vec![u128::from(f == 1)]);
        }
        // The nodes reachable from `f`, each with its number of edges from
        // reachable nodes: the root is nobody's child, and every other node
        // joins the list on its first edge.
        let mut parents = vec![0u32; self.arena.len()];
        let mut nodes = Vec::with_capacity(self.node_count());
        nodes.push(f);
        let mut next = 0;
        while let Some(&g) = nodes.get(next) {
            next += 1;
            for child in [self.arena.los[g as usize], self.arena.his[g as usize]] {
                if child > 1 {
                    parents[child as usize] += 1;
                    if parents[child as usize] == 1 {
                        nodes.push(child);
                    }
                }
            }
        }
        // Bottom level first: every child is built before its parents.
        nodes.sort_unstable_by_key(|&g| std::cmp::Reverse(self.level(g)));
        pass.nodes = nodes.len();
        let mut polys: Vec<Option<Box<[u128]>>> = vec![None; self.arena.len()];
        let mut lifted = Vec::with_capacity(levels.width(0));
        let mut live_bytes = 0;
        for (built, &g) in nodes.iter().enumerate() {
            if (built as u64).is_multiple_of(POLL_EVERY) && stop.is_raised() {
                return Err(CountError::Cancelled);
            }
            let level = self.level(g);
            let mut p = vec![0u128; levels.width(level)];
            live_bytes += std::mem::size_of_val(&p[..]);
            pass.peak_bytes = pass.peak_bytes.max(live_bytes as u64);
            // Indicator satisfied on the hi edge: hi models shift up one
            // weight; dually for a negative indicator.
            let (lo_shift, hi_shift) = match marker[level as usize] {
                Mark::Ind(true) => (0, 1),
                Mark::Ind(false) => (1, 0),
                Mark::Count => (0, 0),
            };
            let (lo, hi) = (self.arena.los[g as usize], self.arena.his[g as usize]);
            for (child, shift) in [(lo, lo_shift), (hi, hi_shift)] {
                // FALSE adds nothing, and lifting zeros cannot overflow.
                if child == 0 {
                    continue;
                }
                lifted.clear();
                match child {
                    1 => lifted.push(1),
                    _ => lifted.extend_from_slice(
                        polys[child as usize]
                            .as_deref()
                            .expect("children are built first"),
                    ),
                }
                levels.lift(&mut lifted, level + 1, self.cut_level(child))?;
                for (c, &q) in p[shift..].iter_mut().zip(&lifted) {
                    *c = c.checked_add(q).ok_or(CountError::Overflow)?;
                }
                if child > 1 {
                    parents[child as usize] -= 1;
                    if parents[child as usize] == 0 {
                        let freed = polys[child as usize].take().expect("built once");
                        live_bytes -= std::mem::size_of_val(&freed[..]);
                    }
                }
            }
            polys[g as usize] = Some(p.into_boxed_slice());
        }
        Ok(polys[f as usize].take().expect("root counted").into_vec())
    }
}

/// What one counting pass saw: the nodes it built, and the most bytes of
/// polynomials it held at once.
#[derive(Default)]
struct CountPass {
    nodes: usize,
    peak_bytes: u64,
}

/// Resolves an `apply` pair that needs no recursion: constants, identical
/// operands, identity/absorbing elements.
#[inline]
fn apply_terminal(op: u8, a: u32, b: u32) -> Option<u32> {
    match op {
        OP_AND => {
            if a == 0 || b == 0 {
                Some(0)
            } else if a == 1 {
                Some(b)
            } else if b == 1 || a == b {
                Some(a)
            } else {
                None
            }
        }
        OP_OR => {
            if a == 1 || b == 1 {
                Some(1)
            } else if a == 0 {
                Some(b)
            } else if b == 0 || a == b {
                Some(a)
            } else {
                None
            }
        }
        _ => {
            if a == 0 {
                Some(b)
            } else if b == 0 {
                Some(a)
            } else if a == b {
                Some(0)
            } else {
                None
            }
        }
    }
}

/// Unwraps an operation run without a budget (the only error sources are
/// budget trips, so `Err` is unreachable).
fn infallible(r: Result<u32, CompileError>) -> u32 {
    match r {
        Ok(v) => v,
        Err(e) => unreachable!("unbudgeted BDD operation failed: {e}"),
    }
}

/// How a level participates in a count: as an anonymous counted
/// variable, or as a weight indicator with a polarity.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Mark {
    Count,
    Ind(bool),
}

/// Accounts for the free variables at levels `from..to`: a counted level
/// doubles every coefficient, an indicator level convolves with `(1 + x)`
/// (the free variable contributes weight 0 or 1). One step per level: the
/// differential oracle's reference for [`LevelCounts::lift`].
#[cfg(test)]
pub(crate) fn lift(
    mut p: Vec<u128>,
    from: u32,
    to: u32,
    marker: &[Mark],
) -> Result<Vec<u128>, CountOverflow> {
    for level in from..to {
        match marker[level as usize] {
            Mark::Ind(_) => {
                for w in (1..p.len()).rev() {
                    p[w] = p[w].checked_add(p[w - 1]).ok_or(CountOverflow)?;
                }
            }
            Mark::Count => {
                for c in &mut p {
                    *c = c.checked_mul(2).ok_or(CountOverflow)?;
                }
            }
        }
    }
    Ok(p)
}

/// Prefix counts of the indicator levels, which let the arena kernel lift
/// across any level range without visiting each level: with `lift`'s
/// walk, every edge to `FALSE` paid for all the levels below it, which
/// made counting a long chain quadratic.
struct LevelCounts {
    /// `indicators[l]`: the indicator levels among `0..l`.
    indicators: Vec<u32>,
}

impl LevelCounts {
    fn new(marker: &[Mark]) -> Self {
        let running = marker.iter().scan(0, |n, m| {
            *n += u32::from(matches!(m, Mark::Ind(_)));
            Some(*n)
        });
        LevelCounts {
            indicators: std::iter::once(0).chain(running).collect(),
        }
    }

    /// The length of a weight polynomial over the levels `level..`: the
    /// indicator levels among them, plus one for weight 0.
    fn width(&self, level: u32) -> usize {
        let below = self.indicators[self.indicators.len() - 1] - self.indicators[level as usize];
        below as usize + 1
    }

    /// `lift` in `O(width · indicator levels)`: doubling and convolving
    /// with `(1 + x)` commute, so only how many counted and indicator
    /// levels `from..to` holds matters. Each indicator level lengthens `p`
    /// by one, so a polynomial as long as [`LevelCounts::width`] of `to`
    /// ends as long as that of `from`. Both steps only grow coefficients,
    /// so this overflows exactly when `lift` on the full width does.
    fn lift(&self, p: &mut Vec<u128>, from: u32, to: u32) -> Result<(), CountOverflow> {
        let (from, to) = (from as usize, to as usize);
        if from >= to {
            return Ok(());
        }
        let indicators = self.indicators[to] - self.indicators[from];
        for _ in 0..indicators {
            p.push(0);
            for w in (1..p.len()).rev() {
                p[w] = p[w].checked_add(p[w - 1]).ok_or(CountOverflow)?;
            }
        }
        // Every level that is not an indicator is counted.
        let doublings = (to - from) as u32 - indicators;
        for c in p.iter_mut().filter(|c| **c != 0) {
            if c.leading_zeros() < doublings {
                return Err(CountOverflow);
            }
            *c <<= doublings;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use veriqec_sat::Stop;

    #[test]
    fn terminals_and_literals() {
        let mut m = BddManager::new(2);
        assert_eq!(m.model_count(Bdd::TRUE), Ok(4));
        assert_eq!(m.model_count(Bdd::FALSE), Ok(0));
        let a = m.var(0);
        assert_eq!(m.model_count(a), Ok(2));
        let na = m.literal(0, false);
        assert_eq!(m.not(a), na);
        assert_eq!(m.model_count(na), Ok(2));
    }

    #[test]
    fn hash_consing_makes_equality_structural() {
        let mut m = BddManager::new(3);
        let (a, b) = (m.var(0), m.var(1));
        let ab = m.and(a, b);
        let ba = m.and(b, a);
        assert_eq!(ab, ba);
        let lhs = m.or(ab, a); // absorption: a·b + a = a
        assert_eq!(lhs, a);
    }

    #[test]
    fn xor_chain_counts_parity() {
        // x0 ^ x1 ^ x2 = 1 has exactly half the assignments.
        let mut m = BddManager::new(3);
        let mut acc = Bdd::FALSE;
        for v in 0..3 {
            let x = m.var(v);
            acc = m.xor(acc, x);
        }
        assert_eq!(m.model_count(acc), Ok(4));
        // An XOR chain is linear in the number of variables (the arena also
        // holds the intermediate literals/negations, hence the slack).
        assert!(m.node_count() <= 4 * 3, "{}", m.node_count());
    }

    #[test]
    fn weight_count_stratifies() {
        // f = true over 3 vars, indicators = all three positives: binomial
        // coefficients.
        let m = BddManager::new(3);
        let w = m.weight_count(Bdd::TRUE, &[(0, true), (1, true), (2, true)]);
        assert_eq!(w, Ok(vec![1, 3, 3, 1]));
    }

    #[test]
    fn weight_count_respects_polarity() {
        // f = x0 with one *negative* indicator on x0: every model has the
        // indicator unsatisfied.
        let mut m = BddManager::new(2);
        let f = m.var(0);
        assert_eq!(m.weight_count(f, &[(0, false)]), Ok(vec![2, 0]));
        assert_eq!(m.weight_count(f, &[(0, true)]), Ok(vec![0, 2]));
        // Indicator on a variable f does not mention: free, so it splits the
        // count evenly.
        assert_eq!(m.weight_count(f, &[(1, true)]), Ok(vec![1, 1]));
    }

    #[test]
    fn weight_count_sums_to_model_count() {
        let mut m = BddManager::new(4);
        let (a, b, c) = (m.var(0), m.var(1), m.var(3));
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let total = m.model_count(f).unwrap();
        let w = m.weight_count(f, &[(0, true), (2, false), (3, true)]);
        assert_eq!(w.unwrap().iter().sum::<u128>(), total);
    }

    #[test]
    fn custom_order_preserves_semantics() {
        // The caller fixes the order by numbering its variables: the same
        // function with its variables numbered in reverse has the same
        // counts.
        let build = |m: &mut BddManager, var: fn(usize) -> usize| {
            let (a, b, c) = (m.var(var(0)), m.var(var(1)), m.var(var(2)));
            let ab = m.and(a, b);
            m.or(ab, c)
        };
        let mut natural = BddManager::new(3);
        let f1 = build(&mut natural, |v| v);
        let mut reversed = BddManager::new(3);
        let f2 = build(&mut reversed, |v| 2 - v);
        assert_eq!(natural.model_count(f1), reversed.model_count(f2));
        assert_eq!(
            natural.weight_count(f1, &[(1, true)]),
            reversed.weight_count(f2, &[(1, true)])
        );
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn rejects_repeated_indicator() {
        let m = BddManager::new(2);
        let _ = m.weight_count(Bdd::TRUE, &[(0, true), (0, false)]);
    }

    #[test]
    fn counts_past_u128_are_an_error() {
        // 129 variables: a count that fits stays exact right up to the
        // edge; one past it is an error, not a panic.
        let mut m = BddManager::new(129);
        let (a, b) = (m.var(0), m.var(128));
        let f = m.and(a, b);
        assert_eq!(m.model_count(f), Ok(1 << 127));
        assert_eq!(m.model_count(a), Err(CountOverflow));
        assert_eq!(m.weight_count(Bdd::TRUE, &[(5, true)]), Err(CountOverflow));
    }

    #[test]
    fn gc_reclaims_garbage_and_preserves_roots() {
        let mut m = BddManager::new(8);
        // Build a function, then a pile of garbage that only GC can drop.
        let mut f = Bdd::TRUE;
        for v in 0..8 {
            let x = m.var(v);
            f = m.and(f, x);
        }
        let count_before = m.model_count(f);
        let nodes_before = m.node_count();
        for v in 0..7 {
            let x = m.var(v);
            let y = m.var(v + 1);
            let _garbage = m.xor(x, y);
        }
        assert!(m.node_count() > nodes_before);
        let id = m.protect(f);
        let reclaimed = m.collect_garbage();
        assert!(reclaimed > 0, "xor garbage should be reclaimed");
        let f = m.root(id);
        assert_eq!(m.model_count(f), count_before);
        assert_eq!(m.node_count(), 8, "the AND chain is exactly 8 nodes");
        assert_eq!(m.stats().gc_runs, 1);
        assert_eq!(m.stats().gc_reclaimed, reclaimed as u64);
        // The manager stays fully usable after compaction.
        let x = m.var(3);
        let g = m.and(f, x);
        assert_eq!(g, f);
        m.unprotect(id);
    }

    #[test]
    fn gc_respects_dead_ratio_trigger() {
        let mut m = BddManager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let _id = m.protect(ab);
        // Everything reachable: no sweep at any threshold.
        let _also_roots = [a, b].map(|f| m.protect(f));
        assert!(!m.collect_if_worthwhile(0.0));
        assert_eq!(m.stats().gc_runs, 0);
    }

    #[test]
    fn swapped_operands_hit_the_canonical_cache_entry() {
        let mut m = BddManager::new(6);
        // Two distinct non-constant functions so the pair survives the
        // terminal fast path in both orders.
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let bc = m.and(b, c);
        let _f = m.and(ab, bc);
        let swapped_before = m.stats().cache_swapped_hits;
        let _g = m.and(bc, ab);
        let s = m.stats();
        assert!(
            s.cache_swapped_hits > swapped_before,
            "reversed operands should hit the canonicalized entry: {s:?}"
        );
        assert!(s.cache_hit_rate() > 0.0);
        assert!(s.unique_probe_length() >= 1.0);
        assert!(s.unique_load_factor() > 0.0);
    }

    #[test]
    fn budgeted_apply_trips_near_the_node_limit() {
        // Two interleaved AND chains; their conjunction allocates ~n fresh
        // nodes inside ONE apply call. The poll must trip the limit within
        // POLL_EVERY allocations, not after the call completes.
        let n = 20_000usize;
        let mut m = BddManager::new(n);
        let mut build_chain = |start: usize| {
            let mut acc = 1u32;
            for level in (start..n).step_by(2).rev() {
                acc = m.mk(level as u32, 0, acc);
            }
            Bdd(acc)
        };
        let f = build_chain(0);
        let g = build_chain(1);
        let limit = m.node_count() + 5_000;
        let config = CompileConfig {
            node_limit: Some(limit),
            ..CompileConfig::default()
        };
        let err = m.and_budgeted(f, g, &config).unwrap_err();
        match err {
            CompileError::NodeLimit { nodes } => {
                assert!(nodes > limit, "trip implies a breach: {nodes} vs {limit}");
                assert!(
                    nodes <= limit + POLL_EVERY as usize + 2,
                    "overshoot must stay within one poll interval: {nodes} vs {limit}"
                );
            }
            other => panic!("expected NodeLimit, got {other}"),
        }
    }

    #[test]
    fn budgeted_apply_honours_the_stop() {
        // f ⊕ ¬f over a chain longer than one poll interval: every `mk`
        // collapses, so only the frame-counted poll can see the stop.
        let n = 2 * POLL_EVERY as usize;
        let mut m = BddManager::new(n);
        let mut f = Bdd::TRUE;
        for v in (0..n).rev() {
            let x = m.var(v);
            f = m.and(x, f);
        }
        let g = m.not(f);
        let flags = vec![
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(true)),
        ];
        let config = CompileConfig {
            stop: Stop::new(flags, None),
            ..CompileConfig::default()
        };
        // A raised flag aborts as soon as the first poll fires.
        let err = m.xor_budgeted(f, g, &config).unwrap_err();
        assert_eq!(err, CompileError::Cancelled);
    }

    #[test]
    fn level_counts_lift_matches_the_level_walk() {
        let marker = [
            Mark::Count,
            Mark::Ind(true),
            Mark::Count,
            Mark::Ind(false),
            Mark::Count,
        ];
        let levels = LevelCounts::new(&marker);
        let top = marker.len() as u32;
        let full = levels.width(0);
        assert_eq!(full, 3);
        // A polynomial lifted from level `to` is `width(to)` long and grows
        // to `width(from)`; padded with zeros, it must equal the level walk
        // on the full width. The last polynomial overflows u128 once lifted
        // over all three counted levels: both lifts must fail on exactly
        // the same ranges.
        let polys = [
            vec![0, 0, 0],
            vec![1, 0, 0],
            vec![3, 0, 5],
            vec![0, 2, 1],
            vec![1 << 125, 0, 1],
        ];
        let mut overflows = 0;
        for from in 0..=top {
            for to in from..=top {
                for p in &polys {
                    let short = &p[..levels.width(to)];
                    let mut grown = short.to_vec();
                    let grown = levels.lift(&mut grown, from, to).map(|()| {
                        assert_eq!(grown.len(), levels.width(from), "{from}..{to}");
                        grown.resize(full, 0);
                        grown
                    });
                    let mut padded = short.to_vec();
                    padded.resize(full, 0);
                    let walked = lift(padded, from, to, &marker);
                    overflows += usize::from(walked.is_err());
                    assert_eq!(grown, walked, "lift of {short:?} over {from}..{to}");
                }
            }
        }
        assert!(overflows > 0, "the overflowing polynomial must overflow");
    }

    #[test]
    fn counting_holds_the_cut_not_every_node() {
        // A parity chain over n levels with every level an indicator: two
        // nodes per level, each with two parents. The old kernel kept all
        // 2n polynomials at full width (n + 1); streaming by level keeps
        // the cut's four, each no longer than the levels below it.
        let n = 64;
        let mut m = BddManager::new(n);
        let mut f = Bdd::FALSE;
        for v in (0..n).rev() {
            let x = m.var(v);
            f = m.xor(f, x);
        }
        let inds: Vec<(usize, bool)> = (0..n).map(|v| (v, v % 3 != 0)).collect();
        let counts = m.weight_count(f, &inds).unwrap();
        assert_eq!(counts.iter().sum::<u128>(), 1 << (n - 1));
        let peak = m.stats().count_peak_bytes;
        let cut = 4 * (n as u64 + 1) * 16;
        assert!(
            peak > 0 && peak <= cut,
            "{peak} bytes against a cut of {cut}"
        );
    }

    #[test]
    fn a_raised_stop_ends_a_count() {
        // An AND chain longer than one poll interval.
        let n = 2 * POLL_EVERY as usize;
        let mut m = BddManager::new(n);
        let mut f = Bdd::TRUE;
        for v in (0..n).rev() {
            let x = m.var(v);
            f = m.and(x, f);
        }
        let flag = Arc::new(AtomicBool::new(true));
        let stop = Stop::new(vec![Arc::clone(&flag)], None);
        let inds = [(0, true), (n - 1, false)];
        assert_eq!(
            m.weight_count_until(f, &inds, &stop),
            Err(CountError::Cancelled)
        );
        let passed = Stop::new(vec![], Some(std::time::Instant::now()));
        assert_eq!(
            m.weight_count_until(f, &inds, &passed),
            Err(CountError::Cancelled)
        );
        // A cancelled count leaves nothing behind: under the lowered flag
        // the same count is the plain one.
        flag.store(false, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(m.weight_count_until(f, &inds, &stop), Ok(vec![0, 1, 0]));
        assert_eq!(m.weight_count(f, &inds), Ok(vec![0, 1, 0]));
    }

    #[test]
    fn deep_chains_survive_a_tiny_call_stack() {
        // 120k levels: the old recursive kernel needed ~120k stack frames
        // for a single traversal; the iterative loops run in 512 KiB.
        let handle = std::thread::Builder::new()
            .stack_size(512 * 1024)
            .spawn(|| {
                let n = 120_000usize;
                let mut m = BddManager::new(n);
                // Bottom-up AND chain: coefficients stay tiny, so counting
                // cannot overflow u128 despite the variable count.
                let mut acc = 1u32;
                for level in (0..n as u32).rev() {
                    acc = m.mk(level, 0, acc);
                }
                let f = Bdd(acc);
                let nf = m.not(f);
                assert_eq!(m.not(nf), f);
                // Dropping the middle link: the chain with x_mid free.
                let mid = m.literal(n / 2, false);
                let g = m.or(f, mid);
                let g = m.and(g, f);
                assert_eq!(g, f);
                // Weight count over two indicators walks the whole chain.
                let w = m.weight_count(f, &[(0, true), (n - 1, true)]);
                assert_eq!(w, Ok(vec![0, 0, 1]));
                let id = m.protect(f);
                m.collect_garbage();
                let f = m.root(id);
                assert_eq!(m.node_count(), n);
                assert_eq!(m.model_count(f), Ok(1));
            })
            .expect("spawn small-stack thread");
        handle.join().expect("deep-chain thread panicked");
    }
}
