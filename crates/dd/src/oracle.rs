//! The pre-arena BDD manager, retained as a differential oracle.
//!
//! This is the naive hash-cons design the packed-arena kernel replaced: a
//! SipHash `HashMap` unique table, an unbounded `HashMap` apply cache, and
//! recursive `apply`/`count`. It is deliberately boring — no GC, no
//! budgets — which is exactly what makes it a trustworthy reference: the
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
    num_vars: usize,
}

impl OracleManager {
    /// A manager over `num_vars` variables in natural order.
    pub fn new(num_vars: usize) -> Self {
        let terminal_level = num_vars as u32;
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
            num_vars,
        }
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
        self.mk(v as u32, OBdd::FALSE, OBdd::TRUE)
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

    /// Exact model count over all variables.
    pub fn model_count(&self, f: OBdd) -> u128 {
        self.weight_count(f, &[])[0]
    }

    /// Weight-stratified model count; semantics identical to
    /// [`crate::BddManager::weight_count`].
    ///
    /// # Panics
    ///
    /// Panics where the arena kernel's version panics or errs.
    pub fn weight_count(&self, f: OBdd, indicators: &[(usize, bool)]) -> Vec<u128> {
        let mut marker: Vec<Mark> = vec![Mark::Count; self.num_vars];
        for &(v, positive) in indicators {
            assert!(v < self.num_vars, "indicator variable {v} out of range");
            assert!(
                !matches!(marker[v], Mark::Ind(_)),
                "indicator variable {v} repeated"
            );
            marker[v] = Mark::Ind(positive);
        }
        let width = indicators.len() + 1;
        let mut memo: HashMap<OBdd, Vec<u128>> = HashMap::new();
        let poly = self.count_rec(f, &marker, width, &mut memo);
        lift(poly, 0, self.level(f), &marker).expect("model count overflows u128")
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
            lift(p, level + 1, self.level(lo), marker).expect("model count overflows u128")
        };
        let hi_p = {
            let p = self.count_rec(hi, marker, width, memo);
            lift(p, level + 1, self.level(hi), marker).expect("model count overflows u128")
        };
        let mut p = vec![0u128; width];
        for w in 0..width {
            let (lo_w, hi_w) = match marker[level as usize] {
                Mark::Ind(true) => (lo_p[w], if w > 0 { hi_p[w - 1] } else { 0 }),
                Mark::Ind(false) => (if w > 0 { lo_p[w - 1] } else { 0 }, hi_p[w]),
                Mark::Count => (lo_p[w], hi_p[w]),
            };
            p[w] = lo_w.checked_add(hi_w).expect("model count overflows u128");
        }
        memo.insert(f, p.clone());
        p
    }
}

/// CNF compilation through the oracle kernel, mirroring the arena
/// kernel's test harness (`compile_clauses`): one clause per conjunct, in
/// clause order.
pub fn oracle_compile(cnf: &Cnf) -> (OracleManager, OBdd) {
    let mut manager = OracleManager::new(cnf.num_vars);
    let mut root = OBdd::TRUE;
    for clause in &cnf.clauses {
        let f = clause_bdd(&mut manager, clause);
        root = manager.and(root, f);
        if root == OBdd::FALSE {
            break;
        }
    }
    (manager, root)
}

fn clause_bdd(manager: &mut OracleManager, clause: &[Lit]) -> OBdd {
    let mut f = OBdd::FALSE;
    for l in clause {
        let x = manager.var(l.var().index());
        let lit = if l.is_positive() {
            x
        } else {
            manager.xor(x, OBdd::TRUE)
        };
        f = manager.or(f, lit);
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_matches_basic_algebra() {
        let mut m = OracleManager::new(3);
        let (a, b) = (m.var(0), m.var(1));
        let ab = m.and(a, b);
        assert_eq!(m.and(b, a), ab);
        assert_eq!(m.or(ab, a), a);
        assert_eq!(m.model_count(ab), 2);
        let x = m.xor(a, b);
        assert_eq!(m.model_count(x), 4);
        assert_eq!(m.weight_count(x, &[(0, true), (1, true)]), vec![0, 4, 0]);
    }
}
