//! The pre-arena BDD manager, retained verbatim as a differential oracle.
//!
//! This is the naive hash-cons design the packed-arena kernel replaced: a
//! SipHash `HashMap` unique table, an unbounded `HashMap` apply cache, and
//! recursive `apply`/`exists`/`count`. It is deliberately boring — no GC,
//! no budgets — which is exactly what makes it a trustworthy reference: the
//! proptests in `lib.rs` compile random CNFs through both kernels (with GC
//! enabled on the fast one) and demand identical counts.
//!
//! Compiled for tests only; the enumerator and engine build on
//! [`crate::BddManager`].

use std::collections::HashMap;

use veriqec_sat::{Cnf, Lit};

use crate::bdd::{lift, Mark};

/// A handle into an [`OracleManager`] (a separate type from [`crate::Bdd`]
/// so the two kernels' handles cannot be mixed up in differential tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OBdd(u32);

impl OBdd {
    /// The constant-false function.
    pub const FALSE: OBdd = OBdd(0);
    /// The constant-true function.
    pub const TRUE: OBdd = OBdd(1);
}

#[derive(Clone, Copy, Debug)]
struct Node {
    level: u32,
    lo: OBdd,
    hi: OBdd,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
}

/// The reference manager: recursive traversals over `HashMap` tables.
#[derive(Clone, Debug)]
pub struct OracleManager {
    nodes: Vec<Node>,
    unique: HashMap<(u32, OBdd, OBdd), OBdd>,
    cache: HashMap<(Op, OBdd, OBdd), OBdd>,
    var_to_level: Vec<u32>,
    level_to_var: Vec<u32>,
}

impl OracleManager {
    /// A manager over `num_vars` variables in natural order.
    pub fn new(num_vars: usize) -> Self {
        OracleManager::with_order((0..num_vars as u32).collect())
    }

    /// A manager with an explicit `var → level` order.
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
        let terminal_level = n as u32;
        OracleManager {
            nodes: vec![
                Node {
                    level: terminal_level,
                    lo: OBdd::FALSE,
                    hi: OBdd::FALSE,
                },
                Node {
                    level: terminal_level,
                    lo: OBdd::TRUE,
                    hi: OBdd::TRUE,
                },
            ],
            unique: HashMap::new(),
            cache: HashMap::new(),
            var_to_level,
            level_to_var,
        }
    }

    /// Number of variables in the order.
    pub fn num_vars(&self) -> usize {
        self.var_to_level.len()
    }

    fn level(&self, f: OBdd) -> u32 {
        self.nodes[f.0 as usize].level
    }

    fn mk(&mut self, level: u32, lo: OBdd, hi: OBdd) -> OBdd {
        if lo == hi {
            return lo;
        }
        if let Some(&id) = self.unique.get(&(level, lo, hi)) {
            return id;
        }
        let id = OBdd(self.nodes.len() as u32);
        self.nodes.push(Node { level, lo, hi });
        self.unique.insert((level, lo, hi), id);
        id
    }

    /// The function of variable `v`.
    pub fn var(&mut self, v: usize) -> OBdd {
        let level = self.var_to_level[v];
        self.mk(level, OBdd::FALSE, OBdd::TRUE)
    }

    /// Conjunction.
    pub fn and(&mut self, a: OBdd, b: OBdd) -> OBdd {
        self.apply(Op::And, a, b)
    }

    /// Disjunction.
    pub fn or(&mut self, a: OBdd, b: OBdd) -> OBdd {
        self.apply(Op::Or, a, b)
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: OBdd, b: OBdd) -> OBdd {
        self.apply(Op::Xor, a, b)
    }

    fn apply(&mut self, op: Op, a: OBdd, b: OBdd) -> OBdd {
        match op {
            Op::And => {
                if a == OBdd::FALSE || b == OBdd::FALSE {
                    return OBdd::FALSE;
                }
                if a == OBdd::TRUE {
                    return b;
                }
                if b == OBdd::TRUE || a == b {
                    return a;
                }
            }
            Op::Or => {
                if a == OBdd::TRUE || b == OBdd::TRUE {
                    return OBdd::TRUE;
                }
                if a == OBdd::FALSE {
                    return b;
                }
                if b == OBdd::FALSE || a == b {
                    return a;
                }
            }
            Op::Xor => {
                if a == OBdd::FALSE {
                    return b;
                }
                if b == OBdd::FALSE {
                    return a;
                }
                if a == b {
                    return OBdd::FALSE;
                }
            }
        }
        let key = if a <= b { (op, a, b) } else { (op, b, a) };
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let (la, lb) = (self.level(a), self.level(b));
        let level = la.min(lb);
        let (a0, a1) = if la == level {
            let n = self.nodes[a.0 as usize];
            (n.lo, n.hi)
        } else {
            (a, a)
        };
        let (b0, b1) = if lb == level {
            let n = self.nodes[b.0 as usize];
            (n.lo, n.hi)
        } else {
            (b, b)
        };
        let lo = self.apply(op, a0, b0);
        let hi = self.apply(op, a1, b1);
        let r = self.mk(level, lo, hi);
        self.cache.insert(key, r);
        r
    }

    /// Existential quantification of variable `v`: `∃v. f`.
    pub fn exists(&mut self, f: OBdd, v: usize) -> OBdd {
        let target = self.var_to_level[v];
        let mut memo = HashMap::new();
        self.exists_rec(f, target, &mut memo)
    }

    fn exists_rec(&mut self, f: OBdd, target: u32, memo: &mut HashMap<OBdd, OBdd>) -> OBdd {
        let level = self.level(f);
        if level > target {
            return f;
        }
        if level == target {
            let Node { lo, hi, .. } = self.nodes[f.0 as usize];
            return self.apply(Op::Or, lo, hi);
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let Node { level, lo, hi } = self.nodes[f.0 as usize];
        let nlo = self.exists_rec(lo, target, memo);
        let nhi = self.exists_rec(hi, target, memo);
        let r = self.mk(level, nlo, nhi);
        memo.insert(f, r);
        r
    }

    /// Exact model count over all variables.
    pub fn model_count(&self, f: OBdd) -> u128 {
        let counted: Vec<usize> = (0..self.num_vars()).collect();
        self.weight_count_over(f, &counted, &[])[0]
    }

    /// Weight-stratified projected model count; semantics identical to
    /// [`crate::BddManager::weight_count_over`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the arena kernel's version.
    pub fn weight_count_over(
        &self,
        f: OBdd,
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
        let mut memo: HashMap<OBdd, Vec<u128>> = HashMap::new();
        let poly = self.count_rec(f, &marker, width, &mut memo);
        lift(poly, 0, self.level(f), &marker, width)
    }

    fn count_rec(
        &self,
        f: OBdd,
        marker: &[Mark],
        width: usize,
        memo: &mut HashMap<OBdd, Vec<u128>>,
    ) -> Vec<u128> {
        if f == OBdd::FALSE {
            return vec![0; width];
        }
        if f == OBdd::TRUE {
            let mut p = vec![0; width];
            p[0] = 1;
            return p;
        }
        if let Some(p) = memo.get(&f) {
            return p.clone();
        }
        let Node { level, lo, hi } = self.nodes[f.0 as usize];
        let lo_p = {
            let p = self.count_rec(lo, marker, width, memo);
            lift(p, level + 1, self.level(lo), marker, width)
        };
        let hi_p = {
            let p = self.count_rec(hi, marker, width, memo);
            lift(p, level + 1, self.level(hi), marker, width)
        };
        let mut p = vec![0u128; width];
        for w in 0..width {
            let (lo_w, hi_w) = match marker[level as usize] {
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
        memo.insert(f, p.clone());
        p
    }
}

/// Projected CNF compilation through the oracle kernel, mirroring
/// [`crate::compile_cnf_projected`]'s bucket-elimination schedule (clause
/// order conjunction, eliminate each non-kept variable at its last use).
/// Pass `keep = None` for an unprojected compile.
pub fn oracle_compile_projected(
    cnf: &Cnf,
    var_to_level: Vec<u32>,
    keep: Option<&[usize]>,
) -> (OracleManager, OBdd) {
    let mut manager = OracleManager::with_order(var_to_level);
    let mut last_use = vec![usize::MAX; cnf.num_vars];
    if let Some(keep) = keep {
        for (ci, clause) in cnf.clauses.iter().enumerate() {
            for l in clause {
                last_use[l.var().index()] = ci;
            }
        }
        for &v in keep {
            last_use[v] = usize::MAX;
        }
    }
    let mut root = OBdd::TRUE;
    for (ci, clause) in cnf.clauses.iter().enumerate() {
        let f = clause_bdd(&mut manager, clause);
        root = manager.and(root, f);
        if root == OBdd::FALSE {
            break;
        }
        for l in clause {
            let v = l.var().index();
            if last_use[v] == ci {
                root = manager.exists(root, v);
                last_use[v] = usize::MAX;
            }
        }
    }
    (manager, root)
}

fn clause_bdd(manager: &mut OracleManager, clause: &[Lit]) -> OBdd {
    let mut lits: Vec<(u32, bool)> = clause
        .iter()
        .map(|l| (manager.var_to_level[l.var().index()], l.is_positive()))
        .collect();
    lits.sort_unstable();
    lits.dedup();
    for pair in lits.windows(2) {
        if pair[0].0 == pair[1].0 {
            return OBdd::TRUE;
        }
    }
    let mut acc = OBdd::FALSE;
    for &(level, positive) in lits.iter().rev() {
        acc = if positive {
            manager.mk(level, acc, OBdd::TRUE)
        } else {
            manager.mk(level, OBdd::TRUE, acc)
        };
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_counts_a_tseitin_projection() {
        // x3 ↔ x1 ⊕ x2 with x3 asserted: projecting x3 leaves the two odd
        // assignments — the same instance the arena compiler's tests pin.
        let cnf = Cnf::parse("p cnf 3 5\n-3 1 2 0\n-3 -1 -2 0\n3 -1 2 0\n3 1 -2 0\n3 0\n").unwrap();
        let order: Vec<u32> = (0..3).collect();
        let (m, root) = oracle_compile_projected(&cnf, order, Some(&[0, 1]));
        assert_eq!(m.weight_count_over(root, &[0, 1], &[]), vec![2]);
        assert_eq!(
            m.weight_count_over(root, &[0, 1], &[(0, true), (1, true)]),
            vec![0, 2, 0]
        );
    }

    #[test]
    fn oracle_matches_basic_algebra() {
        let mut m = OracleManager::new(3);
        let (a, b) = (m.var(0), m.var(1));
        let ab = m.and(a, b);
        assert_eq!(m.and(b, a), ab);
        assert_eq!(m.or(ab, a), a);
        assert_eq!(m.model_count(ab), 2);
        let x = m.xor(a, b);
        assert_eq!(m.exists(x, 0), OBdd::TRUE);
    }
}
