//! Sifting-based dynamic variable reordering (Rudell 1993).
//!
//! Each candidate variable is moved through every position of the order by
//! repeated adjacent-level swaps, then parked at the position that
//! minimised the live node count. A swap of levels `i`/`i+1` rewrites the
//! interacting nodes of level `i` **in place** — every handle keeps
//! denoting the same boolean function — so caller-held roots and the apply
//! cache survive the permutation (the cache is still dropped at the end of
//! a pass: nodes that *died* during swaps are no longer relabelled, so
//! entries mentioning them would go stale).
//!
//! Node death is tracked by reference counts during the pass (a swap can
//! orphan cofactor nodes); dead nodes are unhooked from the unique table
//! immediately and reclaimed by the mark-and-sweep pass that closes the
//! sift, so the size signal steering the search is the true live count.
//!
//! Invariants the swap relies on (and why it preserves canonicity):
//! - children sit on strictly deeper levels, so a level-`i` node's child on
//!   level `i+1` is never another level-`i` node;
//! - a rewritten interacting node keeps at least one child on level `i+1`
//!   (both collapsing would force its old children to be equal, violating
//!   reducedness), so it can never collide with a risen level-`i+1` node,
//!   whose children are all deeper than `i+1`;
//! - two interacting nodes cannot rewrite to the same key, since equal
//!   rewritten cofactors would make their original functions equal.

use veriqec_sat::Stop;

use crate::bdd::BddManager;
use crate::compile::CompileError;

/// Knobs for growth-triggered dynamic reordering.
#[derive(Clone, Debug, PartialEq)]
pub struct ReorderConfig {
    /// First sift once the compiler's diagram holds this many nodes.
    ///
    /// Deliberately high by default: sifting is a *rescue* for orders the
    /// static heuristics got wrong, not routine maintenance. It minimises
    /// the current diagram, and on instances whose clause schedule suits
    /// the static order (the zoo under first-use + projection) that local
    /// optimum makes the *remaining* conjunctions far more expensive —
    /// measured on carbon \[\[12,2,4\]\], eager sifting costs 7x. Garbage
    /// collection keeps well-ordered compilations under a few hundred
    /// thousand live nodes, so only genuinely blowing-up diagrams get here.
    pub trigger_nodes: usize,
    /// Re-trigger when the live count grows by this factor past the size
    /// reached after the previous sift.
    pub growth: f64,
    /// Abort a variable's walk in one direction once the live count
    /// exceeds this factor of its starting size (Rudell's max-growth).
    pub max_growth: f64,
    /// Total adjacent-level swaps a compilation may spend across all
    /// sifting passes (the return-to-best walks ride for free so a pass
    /// always ends in a consistent minimum).
    pub swap_budget: usize,
    /// Only sift variables whose level holds at least this many nodes.
    pub min_level_size: usize,
}

impl Default for ReorderConfig {
    fn default() -> Self {
        ReorderConfig {
            trigger_nodes: 1 << 20,
            growth: 2.0,
            max_growth: 1.2,
            swap_budget: 500_000,
            min_level_size: 16,
        }
    }
}

/// What one sifting pass accomplished.
#[derive(Clone, Copy, Debug, Default)]
pub struct SiftOutcome {
    /// Adjacent-level swaps performed (exploration plus return walks).
    pub swaps: usize,
    /// Live nodes before the pass (after its opening collection).
    pub nodes_before: usize,
    /// Live nodes after the pass (after its closing collection).
    pub nodes_after: usize,
}

impl BddManager {
    /// One sifting pass over the candidate variables (largest levels
    /// first), bounded by `swap_budget` (decremented in place so repeated
    /// passes share one budget) and cancellable between variables via
    /// `stop`.
    ///
    /// Every function handle survives with its meaning intact, but
    /// *unprotected* garbage is reclaimed by the pass's collections:
    /// callers must hold their diagrams via [`BddManager::protect`] and
    /// re-read them afterwards ([`BddManager::root`]).
    ///
    /// # Errors
    ///
    /// [`CompileError::Cancelled`] if `stop` was raised; the diagram
    /// is left consistent (swap boundaries are safe points).
    pub fn reorder_sift(
        &mut self,
        cfg: &ReorderConfig,
        stop: &Stop,
        swap_budget: &mut usize,
    ) -> Result<SiftOutcome, CompileError> {
        self.collect_garbage();
        let nodes_before = self.node_count();
        let n = self.num_vars();
        if n < 2 || nodes_before == 0 {
            return Ok(SiftOutcome {
                swaps: 0,
                nodes_before,
                nodes_after: nodes_before,
            });
        }
        let mut session = Sift::new(self);
        // Largest levels first: that is where a better position pays most.
        let mut candidates: Vec<(usize, u32)> = (0..n)
            .filter(|&l| session.level_size[l] >= cfg.min_level_size.max(1))
            .map(|l| (session.level_size[l], session.m.level_to_var[l]))
            .collect();
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        let mut cancelled = false;
        for &(_, var) in &candidates {
            if stop.is_raised() {
                cancelled = true;
                break;
            }
            if *swap_budget == 0 {
                break;
            }
            session.sift_var(var as usize, cfg, swap_budget);
        }
        let swaps = session.swaps;
        drop(session);
        self.stats.reorder_swaps += swaps as u64;
        // Swaps may have orphaned nodes; sweep them and (always) drop the
        // apply cache — entries can mention dead nodes whose recorded
        // levels are now stale.
        self.cache.clear();
        self.collect_garbage();
        if cancelled {
            return Err(CompileError::Cancelled);
        }
        Ok(SiftOutcome {
            swaps,
            nodes_before,
            nodes_after: self.node_count(),
        })
    }
}

/// Per-pass bookkeeping: reference counts, per-level node lists, live
/// sizes. Built from a freshly collected arena (everything live).
struct Sift<'a> {
    m: &'a mut BddManager,
    refs: Vec<u32>,
    dead: Vec<bool>,
    level_nodes: Vec<Vec<u32>>,
    level_size: Vec<usize>,
    live: usize,
    swaps: usize,
    deref_stack: Vec<u32>,
}

impl<'a> Sift<'a> {
    fn new(m: &'a mut BddManager) -> Self {
        let len = m.arena.len();
        let n = m.num_vars();
        let mut refs = vec![0u32; len];
        let mut level_nodes = vec![Vec::new(); n];
        let mut level_size = vec![0usize; n];
        for idx in 2..len {
            refs[m.arena.los[idx] as usize] += 1;
            refs[m.arena.his[idx] as usize] += 1;
            let l = m.arena.levels[idx] as usize;
            level_nodes[l].push(idx as u32);
            level_size[l] += 1;
        }
        for r in m.roots.iter().flatten() {
            refs[*r as usize] += 1;
        }
        let live = len - 2;
        Sift {
            m,
            refs,
            dead: vec![false; len],
            level_nodes,
            level_size,
            live,
            swaps: 0,
            deref_stack: Vec::new(),
        }
    }

    /// Sifts one variable: walk to the nearer end of the order, sweep to
    /// the far end, then return to the best position encountered. The
    /// exploration phases draw down `budget`; the return walk is exempt so
    /// the variable always lands somewhere deliberate.
    fn sift_var(&mut self, var: usize, cfg: &ReorderConfig, budget: &mut usize) {
        let n = self.m.num_vars();
        let start = self.m.var_to_level[var] as usize;
        let limit = ((self.live as f64) * cfg.max_growth) as usize + 16;
        let mut best_live = self.live;
        let mut best = start;
        let mut cur = start;
        let down_first = start >= n / 2;
        let phases: [isize; 2] = if down_first { [1, -1] } else { [-1, 1] };
        for dir in phases {
            loop {
                let next = cur as isize + dir;
                if next < 0 || next as usize >= n || *budget == 0 {
                    break;
                }
                self.swap(cur.min(next as usize));
                *budget -= 1;
                cur = next as usize;
                if self.live < best_live {
                    best_live = self.live;
                    best = cur;
                }
                if self.live > limit {
                    break;
                }
            }
        }
        while cur != best {
            let dir: isize = if best > cur { 1 } else { -1 };
            let next = (cur as isize + dir) as usize;
            self.swap(cur.min(next));
            cur = next;
        }
        debug_assert_eq!(
            self.live, best_live,
            "returning to a position must reproduce its size"
        );
    }

    /// Swaps levels `i` and `i + 1` in place.
    fn swap(&mut self, i: usize) {
        let li = i as u32;
        let lj = li + 1;
        let upper = std::mem::take(&mut self.level_nodes[i]);
        let lower = std::mem::take(&mut self.level_nodes[i + 1]);

        // Partition the upper level: nodes with a child on level i+1 must
        // be rewritten; the rest just sink one level unchanged.
        let mut interacting = Vec::new();
        let mut moved = Vec::new();
        for &f in &upper {
            if self.dead[f as usize] {
                continue;
            }
            let (lo, hi) = (self.m.arena.los[f as usize], self.m.arena.his[f as usize]);
            if self.m.arena.levels[lo as usize] == lj || self.m.arena.levels[hi as usize] == lj {
                interacting.push(f);
            } else {
                moved.push(f);
            }
        }

        // Unhook both levels from the unique table before relabelling.
        for &f in interacting.iter().chain(&moved) {
            self.m.unique.remove(
                li,
                self.m.arena.los[f as usize],
                self.m.arena.his[f as usize],
                f,
            );
        }
        let mut new_upper: Vec<u32> = Vec::with_capacity(lower.len() + interacting.len());
        for &w in &lower {
            if self.dead[w as usize] {
                continue;
            }
            self.m.unique.remove(
                lj,
                self.m.arena.los[w as usize],
                self.m.arena.his[w as usize],
                w,
            );
            new_upper.push(w);
        }

        // The two variables trade places.
        let u = self.m.level_to_var[i];
        let v = self.m.level_to_var[i + 1];
        self.m.level_to_var[i] = v;
        self.m.level_to_var[i + 1] = u;
        self.m.var_to_level[u as usize] = lj;
        self.m.var_to_level[v as usize] = li;

        // Old lower nodes rise unchanged (their children are strictly
        // deeper than the old level i+1, so they cannot mention `u`).
        for &w in &new_upper {
            self.m.arena.levels[w as usize] = li;
            let (lo, hi) = (self.m.arena.los[w as usize], self.m.arena.his[w as usize]);
            self.m.unique.insert(li, lo, hi, w, &self.m.arena);
        }
        // Non-interacting upper nodes sink unchanged.
        for &f in &moved {
            self.m.arena.levels[f as usize] = lj;
            let (lo, hi) = (self.m.arena.los[f as usize], self.m.arena.his[f as usize]);
            self.m.unique.insert(lj, lo, hi, f, &self.m.arena);
        }
        self.level_size[i] = new_upper.len();
        self.level_size[i + 1] = moved.len();
        // `level_nodes[i + 1]` is empty right now (taken above); the sunk
        // nodes go back in, and the rewrite loop below appends the fresh
        // G-nodes it allocates via `lookup_or_create` — do not overwrite
        // the list after that loop, or those nodes vanish from the
        // per-level bookkeeping and later swaps corrupt their labels.
        self.level_nodes[i + 1] = moved;

        // Rewrite each interacting node in place: f = ite(u, f1, f0)
        // becomes ite(v, G1, G0) with G_b = ite(u, f1_b, f0_b).
        for &f in &interacting {
            let (f0, f1) = (self.m.arena.los[f as usize], self.m.arena.his[f as usize]);
            // Cofactors w.r.t. v, whose nodes now sit on level i.
            let (f00, f01) = if self.m.arena.levels[f0 as usize] == li {
                (self.m.arena.los[f0 as usize], self.m.arena.his[f0 as usize])
            } else {
                (f0, f0)
            };
            let (f10, f11) = if self.m.arena.levels[f1 as usize] == li {
                (self.m.arena.los[f1 as usize], self.m.arena.his[f1 as usize])
            } else {
                (f1, f1)
            };
            let g0 = if f00 == f10 {
                f00
            } else {
                self.lookup_or_create(lj, f00, f10)
            };
            let g1 = if f01 == f11 {
                f01
            } else {
                self.lookup_or_create(lj, f01, f11)
            };
            debug_assert_ne!(g0, g1, "an interacting node cannot become redundant");
            // New children gain references before the old children lose
            // theirs, so shared grandchildren never dip to zero in between.
            self.refs[g0 as usize] += 1;
            self.refs[g1 as usize] += 1;
            self.deref(f0);
            self.deref(f1);
            self.m.arena.los[f as usize] = g0;
            self.m.arena.his[f as usize] = g1;
            self.m.unique.insert(li, g0, g1, f, &self.m.arena);
            new_upper.push(f);
            self.level_size[i] += 1;
        }
        self.level_nodes[i] = new_upper;
        self.swaps += 1;
    }

    /// Finds the node `(level, lo, hi)` in the unique table or allocates
    /// it, wiring the session bookkeeping (refcounts, level lists).
    fn lookup_or_create(&mut self, level: u32, lo: u32, hi: u32) -> u32 {
        debug_assert_ne!(lo, hi);
        self.m.unique.reserve(&self.m.arena);
        match self.m.unique.find(level, lo, hi, &self.m.arena) {
            Ok(idx) => idx,
            Err(slot) => {
                let idx = self.m.arena.push(level, lo, hi);
                self.m.unique.insert_at(slot, idx);
                self.m.stats.nodes += 1;
                let occupancy = (self.m.arena.len() - 2) as u64;
                if occupancy > self.m.stats.peak_nodes {
                    self.m.stats.peak_nodes = occupancy;
                }
                self.refs.push(0);
                self.dead.push(false);
                self.refs[lo as usize] += 1;
                self.refs[hi as usize] += 1;
                self.level_nodes[level as usize].push(idx);
                self.level_size[level as usize] += 1;
                self.live += 1;
                idx
            }
        }
    }

    /// Drops one reference to `start`, cascading: a node whose count hits
    /// zero dies (unhooked from the unique table, excluded from the size
    /// signal) and releases its own children. Iterative — cascades can be
    /// as deep as the order.
    fn deref(&mut self, start: u32) {
        self.deref_stack.push(start);
        while let Some(x) = self.deref_stack.pop() {
            if x <= 1 {
                continue;
            }
            let xi = x as usize;
            debug_assert!(self.refs[xi] > 0, "deref of an unreferenced node");
            self.refs[xi] -= 1;
            if self.refs[xi] == 0 && !self.dead[xi] {
                self.dead[xi] = true;
                let level = self.m.arena.levels[xi];
                self.m
                    .unique
                    .remove(level, self.m.arena.los[xi], self.m.arena.his[xi], x);
                self.level_size[level as usize] -= 1;
                self.live -= 1;
                self.deref_stack.push(self.m.arena.los[xi]);
                self.deref_stack.push(self.m.arena.his[xi]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdd::Bdd;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// The classic sifting benchmark: ⋁ᵢ aᵢ·bᵢ is linear when partners are
    /// adjacent and exponential when all a's precede all b's.
    fn conjoined_pairs(m: &mut BddManager, pairs: usize) -> Bdd {
        let mut f = Bdd::FALSE;
        for i in 0..pairs {
            let a = m.var(i);
            let b = m.var(pairs + i);
            let ab = m.and(a, b);
            f = m.or(f, ab);
        }
        f
    }

    #[test]
    fn sifting_shrinks_a_bad_order_and_preserves_counts() {
        let pairs = 8;
        let mut m = BddManager::new(2 * pairs);
        let f = conjoined_pairs(&mut m, pairs);
        let count = m.model_count(f);
        let weights = m.weight_count(f, &[(0, true), (pairs, true), (1, false)]);
        let id = m.protect(f);
        let cfg = ReorderConfig {
            min_level_size: 1,
            ..ReorderConfig::default()
        };
        let mut budget = cfg.swap_budget;
        let out = m.reorder_sift(&cfg, &Stop::default(), &mut budget).unwrap();
        assert!(out.swaps > 0);
        assert!(
            out.nodes_after * 2 < out.nodes_before,
            "interleaving the pairs must at least halve the diagram: {out:?}"
        );
        let f = m.root(id);
        assert_eq!(m.model_count(f), count);
        assert_eq!(
            m.weight_count(f, &[(0, true), (pairs, true), (1, false)]),
            weights
        );
        assert_eq!(m.stats().reorder_swaps, out.swaps as u64);
        // The manager stays fully operational under the permuted order.
        let g = m.not(f);
        assert_eq!(m.model_count(g), (1u128 << (2 * pairs)) - count);
    }

    #[test]
    fn sifting_is_a_no_op_on_an_already_good_order() {
        // Partners adjacent: the linear order is (near) optimal, so
        // sifting must not make it worse.
        let pairs = 6;
        // a_i at level 2i, b_i right below it at 2i + 1.
        let mut var_to_level = vec![0u32; 2 * pairs];
        for i in 0..pairs {
            var_to_level[i] = 2 * i as u32;
            var_to_level[pairs + i] = 2 * i as u32 + 1;
        }
        let mut m = BddManager::with_order(var_to_level);
        let f = conjoined_pairs(&mut m, pairs);
        let count = m.model_count(f);
        let id = m.protect(f);
        let cfg = ReorderConfig {
            min_level_size: 1,
            ..ReorderConfig::default()
        };
        let mut budget = cfg.swap_budget;
        let out = m.reorder_sift(&cfg, &Stop::default(), &mut budget).unwrap();
        assert!(out.nodes_after <= out.nodes_before);
        assert_eq!(m.model_count(m.root(id)), count);
    }

    #[test]
    fn sifting_respects_the_swap_budget() {
        let pairs = 6;
        let mut m = BddManager::new(2 * pairs);
        let f = conjoined_pairs(&mut m, pairs);
        let _id = m.protect(f);
        let cfg = ReorderConfig {
            min_level_size: 1,
            ..ReorderConfig::default()
        };
        let mut budget = 5usize;
        let out = m.reorder_sift(&cfg, &Stop::default(), &mut budget).unwrap();
        assert_eq!(budget, 0);
        // Exploration stopped at 5 draws; only return walks ride on top,
        // and a return walk never exceeds the exploration that led out.
        assert!(out.swaps <= 10, "{out:?}");
    }

    #[test]
    fn sifting_cancels_between_variables() {
        let pairs = 6;
        let mut m = BddManager::new(2 * pairs);
        let f = conjoined_pairs(&mut m, pairs);
        let id = m.protect(f);
        let count = m.model_count(f);
        let stop = Stop::new(vec![Arc::new(AtomicBool::new(true))], None);
        let mut budget = 1_000_000usize;
        let err = m
            .reorder_sift(&ReorderConfig::default(), &stop, &mut budget)
            .unwrap_err();
        assert_eq!(err, CompileError::Cancelled);
        // Cancellation leaves a consistent diagram behind.
        assert_eq!(m.model_count(m.root(id)), count);
    }
}
