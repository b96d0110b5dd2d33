//! The BDD kernel: hash-consed reduced ordered binary decision diagrams
//! over a packed arena, with a lossy apply cache, mark-and-sweep garbage
//! collection, and exact (weight-stratified) model counting.
//!
//! Nodes live in one struct-of-arrays arena owned by a [`BddManager`]
//! (see [`crate::arena`]); structural sharing is enforced by an
//! open-addressing unique table, so semantic equality of functions is
//! pointer equality of [`Bdd`] handles. The manager fixes a variable order
//! at construction ([`BddManager::with_order`], which the CNF compiler
//! seeds with its first-use order); levels run top (0) to bottom
//! (`num_vars − 1`), with the terminals on the sentinel level `u32::MAX`.
//!
//! All traversals — `apply`, `exists`, counting, GC marking — are
//! iterative with explicit stacks: recursion depth would otherwise scale
//! with the number of variable levels, and the frame-based CNF exports
//! routinely exceed 100k variables.

use veriqec_sat::Stop;

use crate::arena::{NodeArena, UniqueTable};
use crate::cache::{pack_key, ApplyCache};
use crate::compile::CompileError;

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
const OP_EXISTS: u8 = 3;

/// Counters of the decision-diagram kernel, reported alongside
/// [`veriqec_sat::SolverStats`] by the engine's counting jobs.
///
/// Summing (via `+=` / `Sum`) aggregates per-job managers: cumulative
/// counters add naturally; `peak_nodes`, `unique_slots` and `arena_bytes`
/// then read as the combined footprint across managers.
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
    /// Apply-cache lookups (And/Or/Xor/Exists).
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

/// A cooperative budget for the `*_budgeted` operations: polled inside
/// `apply`/`exists` every [`OpBudget::poll_every`] node allocations, so a
/// single runaway conjunction is caught near the limit instead of after
/// it completes (the old clause-granularity blind spot).
#[derive(Clone, Debug)]
pub struct OpBudget<'a> {
    /// Abort once the arena holds this many decision nodes.
    pub node_limit: Option<usize>,
    /// Abort once this is raised.
    pub stop: &'a Stop,
    /// Node allocations between polls. The budget may overshoot by at most
    /// this many nodes.
    pub poll_every: u64,
}

/// Work items of the iterative `apply` loop.
#[derive(Clone, Copy, Debug)]
enum Frame {
    Visit { a: u32, b: u32 },
    Build { level: u32, a: u32, b: u32 },
}

/// Work items of the iterative `exists` loop.
#[derive(Clone, Copy, Debug)]
enum EFrame {
    Visit(u32),
    Build(u32),
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
/// assert_eq!(m.model_count(f), 5); // truth table of a·b + c has 5 ones
/// assert_eq!(m.model_count(Bdd::TRUE), 8);
/// ```
#[derive(Clone, Debug)]
pub struct BddManager {
    arena: NodeArena,
    /// `(level, lo, hi) → node`, the hash-consing table.
    unique: UniqueTable,
    /// `(op, a, b) → result`, lossy, with commutative operands normalized.
    cache: ApplyCache,
    /// `var → level` (a permutation of `0..num_vars`).
    var_to_level: Vec<u32>,
    /// `level → var`, the inverse permutation.
    level_to_var: Vec<u32>,
    /// GC roots: handles held by callers across collections.
    roots: Vec<Option<u32>>,
    stats: DdStats,
    // Scratch stacks reused across iterative traversals.
    apply_frames: Vec<Frame>,
    apply_results: Vec<u32>,
    exists_frames: Vec<EFrame>,
    exists_results: Vec<u32>,
}

impl BddManager {
    /// A manager over `num_vars` variables in natural order (variable `v` at
    /// level `v`).
    pub fn new(num_vars: usize) -> Self {
        BddManager::with_order((0..num_vars as u32).collect())
    }

    /// A manager with an explicit order: `var_to_level[v]` is the level of
    /// variable `v` (level 0 is the root end). The CNF compiler builds its
    /// manager this way, from its first-use order.
    ///
    /// # Panics
    ///
    /// Panics if `var_to_level` is not a permutation of `0..len`.
    pub fn with_order(var_to_level: Vec<u32>) -> Self {
        let n = var_to_level.len();
        let mut level_to_var = vec![u32::MAX; n];
        for (v, &l) in var_to_level.iter().enumerate() {
            assert!(
                (l as usize) < n && level_to_var[l as usize] == u32::MAX,
                "variable order must be a permutation of 0..{n}"
            );
            level_to_var[l as usize] = v as u32;
        }
        BddManager {
            arena: NodeArena::new(),
            unique: UniqueTable::new(),
            cache: ApplyCache::new(),
            var_to_level,
            level_to_var,
            roots: Vec::new(),
            stats: DdStats::default(),
            apply_frames: Vec::new(),
            apply_results: Vec::new(),
            exists_frames: Vec::new(),
            exists_results: Vec::new(),
        }
    }

    /// Number of variables in the order.
    pub fn num_vars(&self) -> usize {
        self.var_to_level.len()
    }

    /// The level of variable `v` under the manager's order.
    pub fn level_of(&self, v: usize) -> u32 {
        self.var_to_level[v]
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

    /// Internal node constructor for the CNF compiler's clause chains
    /// (callers must keep `level` strictly above both children's levels).
    pub(crate) fn mk_raw(&mut self, level: u32, lo: Bdd, hi: Bdd) -> Bdd {
        Bdd(self.mk(level, lo.0, hi.0))
    }

    /// The function of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var(&mut self, v: usize) -> Bdd {
        let level = self.var_to_level[v];
        Bdd(self.mk(level, 0, 1))
    }

    /// The literal of variable `v`: the variable itself when `positive`,
    /// its negation otherwise.
    pub fn literal(&mut self, v: usize, positive: bool) -> Bdd {
        let level = self.var_to_level[v];
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

    /// Budgeted conjunction: like [`BddManager::and`], but polls `budget`
    /// every [`OpBudget::poll_every`] node allocations.
    ///
    /// # Errors
    ///
    /// [`CompileError::NodeLimit`] / [`CompileError::Cancelled`] when the
    /// budget trips; the partially built subgraph stays in the arena as
    /// garbage for the next collection.
    pub fn and_budgeted(&mut self, a: Bdd, b: Bdd, budget: &OpBudget) -> Result<Bdd, CompileError> {
        self.apply_iter(OP_AND, a.0, b.0, Some(budget)).map(Bdd)
    }

    /// Budgeted exclusive or; see [`BddManager::and_budgeted`].
    ///
    /// # Errors
    ///
    /// Propagates budget exhaustion exactly like [`BddManager::and_budgeted`].
    pub fn xor_budgeted(&mut self, a: Bdd, b: Bdd, budget: &OpBudget) -> Result<Bdd, CompileError> {
        self.apply_iter(OP_XOR, a.0, b.0, Some(budget)).map(Bdd)
    }

    /// Existential quantification of variable `v`: `∃v. f`.
    ///
    /// Used by the projected CNF compiler to eliminate auxiliary variables
    /// (Tseitin definitions, reified parities) the moment their last clause
    /// has been conjoined — the bucket-elimination discipline that keeps
    /// intermediate diagrams near the size of the final projection.
    pub fn exists(&mut self, f: Bdd, v: usize) -> Bdd {
        Bdd(infallible(self.exists_iter(f.0, v, None)))
    }

    /// Budgeted quantification; see [`BddManager::and_budgeted`].
    ///
    /// # Errors
    ///
    /// Propagates budget exhaustion exactly like [`BddManager::and_budgeted`].
    pub fn exists_budgeted(
        &mut self,
        f: Bdd,
        v: usize,
        budget: &OpBudget,
    ) -> Result<Bdd, CompileError> {
        self.exists_iter(f.0, v, Some(budget)).map(Bdd)
    }

    fn poll_budget(&self, budget: &OpBudget) -> Result<(), CompileError> {
        if budget.stop.is_raised() {
            return Err(CompileError::Cancelled);
        }
        if let Some(limit) = budget.node_limit {
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
        budget: Option<&OpBudget>,
    ) -> Result<u32, CompileError> {
        if let Some(r) = apply_terminal(op, a, b) {
            return Ok(r);
        }
        let mut frames = std::mem::take(&mut self.apply_frames);
        let mut results = std::mem::take(&mut self.apply_results);
        frames.push(Frame::Visit { a, b });
        // Poll every `poll_every` *Build frames*: allocations never outrun
        // frames, so the node limit overshoots by at most `poll_every`, and
        // a raised stop is honoured even on traversals whose `mk` calls all
        // collapse (e.g. `f ⊕ ¬f`, which allocates nothing).
        let poll_every = budget.map_or(u64::MAX, |b| b.poll_every);
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
                        if let Err(e) = self.poll_budget(budget) {
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

    /// The iterative quantification loop; memoized through the shared
    /// apply cache under an `Exists` tag keyed by variable id.
    fn exists_iter(
        &mut self,
        f: u32,
        v: usize,
        budget: Option<&OpBudget>,
    ) -> Result<u32, CompileError> {
        let target = self.var_to_level[v];
        let vkey = v as u32;
        let mut frames = std::mem::take(&mut self.exists_frames);
        let mut results = std::mem::take(&mut self.exists_results);
        frames.push(EFrame::Visit(f));
        let poll_every = budget.map_or(u64::MAX, |b| b.poll_every);
        let mut since_poll = 0u64;
        let mut failed = None;
        'work: while let Some(frame) = frames.pop() {
            match frame {
                EFrame::Visit(f) => {
                    let level = self.level(f);
                    if level > target {
                        // The variable cannot occur below this node (this
                        // also covers the terminals).
                        results.push(f);
                        continue;
                    }
                    if level == target {
                        let (lo, hi) = (self.arena.los[f as usize], self.arena.his[f as usize]);
                        match self.apply_iter(OP_OR, lo, hi, budget) {
                            Ok(r) => results.push(r),
                            Err(e) => {
                                failed = Some(e);
                                break 'work;
                            }
                        }
                        continue;
                    }
                    let key = pack_key(OP_EXISTS, f, vkey);
                    if let Some(r) = self.cache.get(key) {
                        results.push(r);
                        continue;
                    }
                    frames.push(EFrame::Build(f));
                    frames.push(EFrame::Visit(self.arena.his[f as usize]));
                    frames.push(EFrame::Visit(self.arena.los[f as usize]));
                }
                EFrame::Build(f) => {
                    let hi = results.pop().expect("exists: missing hi result");
                    let lo = results.pop().expect("exists: missing lo result");
                    let r = self.mk(self.level(f), lo, hi);
                    self.cache.put(pack_key(OP_EXISTS, f, vkey), r);
                    results.push(r);
                    since_poll += 1;
                    if since_poll >= poll_every {
                        since_poll = 0;
                        let budget = budget.expect("a finite poll period implies a budget");
                        if let Err(e) = self.poll_budget(budget) {
                            failed = Some(e);
                            break 'work;
                        }
                    }
                }
            }
        }
        let outcome = match failed {
            Some(e) => Err(e),
            None => Ok(results.pop().expect("exists: missing final result")),
        };
        frames.clear();
        results.clear();
        self.exists_frames = frames;
        self.exists_results = results;
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
    /// `dead_ratio` (the compiler's trigger between clause conjunctions).
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
    /// # Panics
    ///
    /// Panics if the count exceeds `u128` (only possible with more than 128
    /// variables and a near-vacuous function).
    pub fn model_count(&self, f: Bdd) -> u128 {
        self.weight_count(f, &[])[0]
    }

    /// Weight-stratified model count: `result[w]` is the number of
    /// satisfying assignments of `f` in which exactly `w` of the
    /// `indicators` literals are satisfied (a literal is `(variable,
    /// positive)`). The result has length `indicators.len() + 1` and sums to
    /// [`BddManager::model_count`]. One bottom-up pass over the diagram.
    ///
    /// # Panics
    ///
    /// Panics if an indicator variable is out of range or repeated, or if a
    /// coefficient exceeds `u128`.
    pub fn weight_count(&self, f: Bdd, indicators: &[(usize, bool)]) -> Vec<u128> {
        let counted: Vec<usize> = (0..self.num_vars()).collect();
        self.weight_count_over(f, &counted, indicators)
    }

    /// Weight-stratified *projected* model count: like
    /// [`BddManager::weight_count`], but assignments range over the
    /// `counted` variables only — every other variable must have been
    /// eliminated from `f` (see [`BddManager::exists`] and the projected
    /// CNF compiler) and contributes no factor. Indicator variables are
    /// implicitly counted.
    ///
    /// # Panics
    ///
    /// Panics if `f` still depends on a variable outside `counted` ∪
    /// `indicators`, if an indicator repeats, or on `u128` overflow.
    pub fn weight_count_over(
        &self,
        f: Bdd,
        counted: &[usize],
        indicators: &[(usize, bool)],
    ) -> Vec<u128> {
        let mut marker: Vec<Mark> = vec![Mark::Skip; self.num_vars()];
        for &v in counted {
            assert!(v < self.num_vars(), "counted variable {v} out of range");
            marker[self.var_to_level[v] as usize] = Mark::Count;
        }
        for &(v, positive) in indicators {
            assert!(v < self.num_vars(), "indicator variable {v} out of range");
            let l = self.var_to_level[v] as usize;
            assert!(
                !matches!(marker[l], Mark::Ind(_)),
                "indicator variable {v} repeated"
            );
            marker[l] = Mark::Ind(positive);
        }
        let width = indicators.len() + 1;
        let levels = LevelCounts::new(&marker);
        let poly = self.count_iter(f.0, &marker, &levels, width);
        levels.lift(poly, 0, self.cut_level(f.0))
    }

    /// The level of `f` clamped to the counting range (terminals sit on
    /// the sentinel level, but `lift` iterates real levels only).
    fn cut_level(&self, f: u32) -> u32 {
        self.level(f).min(self.num_vars() as u32)
    }

    /// Iterative bottom-up weight polynomial of `f` over the levels
    /// `level(f)..num_vars` (levels above `f`'s root are the caller's to
    /// account for via [`LevelCounts::lift`]). Memoized per arena index.
    fn count_iter(&self, f: u32, marker: &[Mark], levels: &LevelCounts, width: usize) -> Vec<u128> {
        if f == 0 {
            return vec![0; width];
        }
        if f == 1 {
            let mut p = vec![0; width];
            p[0] = 1;
            return p;
        }
        enum CFrame {
            Visit(u32),
            Build(u32),
        }
        let mut memo: Vec<Option<Box<[u128]>>> = vec![None; self.arena.len()];
        let poly_of = |memo: &[Option<Box<[u128]>>], g: u32| -> Vec<u128> {
            if g == 0 {
                vec![0; width]
            } else if g == 1 {
                let mut p = vec![0; width];
                p[0] = 1;
                p
            } else {
                memo[g as usize]
                    .as_deref()
                    .expect("child counted first")
                    .to_vec()
            }
        };
        let mut frames = vec![CFrame::Visit(f)];
        while let Some(frame) = frames.pop() {
            match frame {
                CFrame::Visit(g) => {
                    if g <= 1 || memo[g as usize].is_some() {
                        continue;
                    }
                    frames.push(CFrame::Build(g));
                    frames.push(CFrame::Visit(self.arena.his[g as usize]));
                    frames.push(CFrame::Visit(self.arena.los[g as usize]));
                }
                CFrame::Build(g) => {
                    let level = self.level(g);
                    let (lo, hi) = (self.arena.los[g as usize], self.arena.his[g as usize]);
                    let lo_p = levels.lift(poly_of(&memo, lo), level + 1, self.cut_level(lo));
                    let hi_p = levels.lift(poly_of(&memo, hi), level + 1, self.cut_level(hi));
                    let mut p = vec![0u128; width];
                    for w in 0..width {
                        let (lo_w, hi_w) = match marker[level as usize] {
                            // Indicator satisfied on the hi edge: hi models
                            // shift up one weight; dually for a negative
                            // indicator.
                            Mark::Ind(true) => (lo_p[w], if w > 0 { hi_p[w - 1] } else { 0 }),
                            Mark::Ind(false) => (if w > 0 { lo_p[w - 1] } else { 0 }, hi_p[w]),
                            Mark::Count => (lo_p[w], hi_p[w]),
                            Mark::Skip => panic!(
                                "projected-out variable {} still occurs in the diagram",
                                self.level_to_var[level as usize]
                            ),
                        };
                        p[w] = lo_w.checked_add(hi_w).expect("model count overflows u128");
                    }
                    memo[g as usize] = Some(p.into_boxed_slice());
                }
            }
        }
        memo[f as usize].take().expect("root counted").into_vec()
    }
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

/// How a level participates in a count: not at all (projected out), as an
/// anonymous counted variable, or as a weight indicator with a polarity.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Mark {
    Skip,
    Count,
    Ind(bool),
}

/// Accounts for the free variables at levels `from..to`: a counted level
/// doubles every coefficient, an indicator level convolves with `(1 + x)`
/// (the free variable contributes weight 0 or 1), a projected-out level
/// contributes nothing. One step per level: the differential oracle's
/// reference for [`LevelCounts::lift`].
#[cfg(test)]
pub(crate) fn lift(
    mut p: Vec<u128>,
    from: u32,
    to: u32,
    marker: &[Mark],
    width: usize,
) -> Vec<u128> {
    for level in from..to {
        match marker[level as usize] {
            Mark::Ind(_) => {
                let mut next = vec![0u128; width];
                for w in 0..width {
                    let mut c = p[w];
                    if w > 0 {
                        c = c.checked_add(p[w - 1]).expect("model count overflows u128");
                    }
                    next[w] = c;
                }
                p = next;
            }
            Mark::Count => {
                for c in &mut p {
                    *c = c.checked_mul(2).expect("model count overflows u128");
                }
            }
            Mark::Skip => {}
        }
    }
    p
}

/// Prefix counts of the counted and indicator levels, which let the arena
/// kernel lift across any level range without visiting each level: with
/// `lift`'s walk, every edge to `FALSE` paid for all the levels below it,
/// which made counting a long chain quadratic.
struct LevelCounts {
    /// `counted[l]`: the counted levels among `0..l`.
    counted: Vec<u32>,
    /// `indicators[l]`: the indicator levels among `0..l`.
    indicators: Vec<u32>,
}

impl LevelCounts {
    fn new(marker: &[Mark]) -> Self {
        let prefix = |pick: fn(&Mark) -> bool| -> Vec<u32> {
            let running = marker.iter().scan(0, |n, m| {
                *n += u32::from(pick(m));
                Some(*n)
            });
            std::iter::once(0).chain(running).collect()
        };
        LevelCounts {
            counted: prefix(|m| matches!(m, Mark::Count)),
            indicators: prefix(|m| matches!(m, Mark::Ind(_))),
        }
    }

    /// `lift` in `O(width · indicator levels)`: doubling and convolving
    /// with `(1 + x)` commute, so only how many counted and indicator
    /// levels `from..to` holds matters. Both steps only grow coefficients,
    /// so this overflows exactly when `lift` does.
    fn lift(&self, mut p: Vec<u128>, from: u32, to: u32) -> Vec<u128> {
        let (from, to) = (from as usize, to as usize);
        if from >= to {
            return p;
        }
        for _ in self.indicators[from]..self.indicators[to] {
            for w in (1..p.len()).rev() {
                p[w] = p[w]
                    .checked_add(p[w - 1])
                    .expect("model count overflows u128");
            }
        }
        let doublings = self.counted[to] - self.counted[from];
        for c in p.iter_mut().filter(|c| **c != 0) {
            assert!(c.leading_zeros() >= doublings, "model count overflows u128");
            *c <<= doublings;
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn terminals_and_literals() {
        let mut m = BddManager::new(2);
        assert_eq!(m.model_count(Bdd::TRUE), 4);
        assert_eq!(m.model_count(Bdd::FALSE), 0);
        let a = m.var(0);
        assert_eq!(m.model_count(a), 2);
        let na = m.literal(0, false);
        assert_eq!(m.not(a), na);
        assert_eq!(m.model_count(na), 2);
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
        assert_eq!(m.model_count(acc), 4);
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
        assert_eq!(w, vec![1, 3, 3, 1]);
    }

    #[test]
    fn weight_count_respects_polarity() {
        // f = x0 with one *negative* indicator on x0: every model has the
        // indicator unsatisfied.
        let mut m = BddManager::new(2);
        let f = m.var(0);
        assert_eq!(m.weight_count(f, &[(0, false)]), vec![2, 0]);
        assert_eq!(m.weight_count(f, &[(0, true)]), vec![0, 2]);
        // Indicator on a variable f does not mention: free, so it splits the
        // count evenly.
        assert_eq!(m.weight_count(f, &[(1, true)]), vec![1, 1]);
    }

    #[test]
    fn weight_count_sums_to_model_count() {
        let mut m = BddManager::new(4);
        let (a, b, c) = (m.var(0), m.var(1), m.var(3));
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let total = m.model_count(f);
        let w = m.weight_count(f, &[(0, true), (2, false), (3, true)]);
        assert_eq!(w.iter().sum::<u128>(), total);
    }

    #[test]
    fn exists_quantifies_one_variable() {
        // ∃b. (a ∧ b) = a;  ∃a. (a ∧ b) = b;  ∃a. (a ⊕ b) = true.
        let mut m = BddManager::new(2);
        let (a, b) = (m.var(0), m.var(1));
        let ab = m.and(a, b);
        assert_eq!(m.exists(ab, 1), a);
        assert_eq!(m.exists(ab, 0), b);
        let x = m.xor(a, b);
        assert_eq!(m.exists(x, 0), Bdd::TRUE);
        // Quantifying a variable the function ignores is the identity.
        assert_eq!(m.exists(a, 1), a);
    }

    #[test]
    #[should_panic(expected = "projected-out")]
    fn counting_over_live_projected_variable_panics() {
        let mut m = BddManager::new(2);
        let a = m.var(0);
        let _ = m.weight_count_over(a, &[1], &[]);
    }

    #[test]
    fn custom_order_preserves_semantics() {
        // Same function under reversed order: same counts.
        let build = |m: &mut BddManager| {
            let (a, b, c) = (m.var(0), m.var(1), m.var(2));
            let ab = m.and(a, b);
            m.or(ab, c)
        };
        let mut natural = BddManager::new(3);
        let f1 = build(&mut natural);
        let mut reversed = BddManager::with_order(vec![2, 1, 0]);
        let f2 = build(&mut reversed);
        assert_eq!(natural.model_count(f1), reversed.model_count(f2));
        assert_eq!(
            natural.weight_count(f1, &[(1, true)]),
            reversed.weight_count(f2, &[(1, true)])
        );
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rejects_non_permutation_order() {
        let _ = BddManager::with_order(vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn rejects_repeated_indicator() {
        let m = BddManager::new(2);
        let _ = m.weight_count(Bdd::TRUE, &[(0, true), (0, false)]);
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
        // poll_every allocations, not after the call completes.
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
        let budget = OpBudget {
            node_limit: Some(limit),
            stop: &Stop::default(),
            poll_every: 256,
        };
        let err = m.and_budgeted(f, g, &budget).unwrap_err();
        match err {
            CompileError::NodeLimit { nodes } => {
                assert!(nodes > limit, "trip implies a breach: {nodes} vs {limit}");
                assert!(
                    nodes <= limit + 256 + 2,
                    "overshoot must stay within one poll interval: {nodes} vs {limit}"
                );
            }
            other => panic!("expected NodeLimit, got {other}"),
        }
    }

    #[test]
    fn budgeted_apply_honours_the_stop() {
        let mut m = BddManager::new(64);
        let mut f = Bdd::TRUE;
        for v in 0..64 {
            let x = m.var(v);
            f = m.and(f, x);
        }
        let g = m.not(f);
        let flags = vec![
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(true)),
        ];
        let budget = OpBudget {
            node_limit: None,
            stop: &Stop::new(flags, None),
            poll_every: 1,
        };
        // A raised flag aborts as soon as the first poll fires.
        let err = m.xor_budgeted(f, g, &budget).unwrap_err();
        assert_eq!(err, CompileError::Cancelled);
    }

    #[test]
    fn level_counts_lift_matches_the_level_walk() {
        let marker = [
            Mark::Count,
            Mark::Ind(true),
            Mark::Skip,
            Mark::Count,
            Mark::Ind(false),
            Mark::Skip,
            Mark::Count,
        ];
        let levels = LevelCounts::new(&marker);
        let top = marker.len() as u32;
        // The last polynomial overflows u128 once lifted over all three
        // counted levels: both lifts must panic on exactly the same ranges.
        let polys = [
            vec![0, 0, 0],
            vec![1, 0, 0],
            vec![3, 0, 5],
            vec![0, 2, 1],
            vec![1 << 125, 0, 1],
        ];
        for from in 0..=top {
            for to in from..=top {
                for p in &polys {
                    let fast = std::panic::catch_unwind(|| levels.lift(p.clone(), from, to)).ok();
                    let walk =
                        std::panic::catch_unwind(|| lift(p.clone(), from, to, &marker, 3)).ok();
                    assert_eq!(fast, walk, "lift of {p:?} over {from}..{to}");
                }
            }
        }
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
                // ∃x_mid over the chain: or(lo, hi) collapses one link.
                let g = m.exists(f, n / 2);
                assert_eq!(m.node_count() as u64, m.stats().nodes);
                // Weight count over two indicators walks the whole chain.
                let w = m.weight_count_over(
                    f,
                    &(0..n).collect::<Vec<_>>(),
                    &[(0, true), (n - 1, true)],
                );
                assert_eq!(w, vec![0, 0, 1]);
                let id = m.protect(g);
                m.collect_garbage();
                let g = m.root(id);
                let wg = m.weight_count_over(g, &(0..n).collect::<Vec<_>>(), &[]);
                assert_eq!(wg, vec![2]);
            })
            .expect("spawn small-stack thread");
        handle.join().expect("deep-chain thread panicked");
    }
}
