//! Reference model of [`crate::Affine`] backed by a `BTreeSet<VarId>`.
//!
//! This is the representation the pipeline carried before phases were
//! bit-packed: a sorted tree set of variable ids, rebalanced and reallocated
//! on every XOR. It is compiled for tests only, as the differential oracle
//! of the packed form: [`crate::Affine`] must be extensionally equal to
//! this model under arbitrary XOR/subst/eval sequences (see the crate's
//! proptests).

use crate::{CMem, VarId};
use std::collections::BTreeSet;

/// A set-backed affine form over GF(2): `c ⊕ v₁ ⊕ v₂ ⊕ …`.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct SetAffine {
    constant: bool,
    vars: BTreeSet<VarId>,
}

impl SetAffine {
    /// The zero form.
    pub fn zero() -> Self {
        SetAffine::default()
    }

    /// A single variable.
    pub fn var(v: VarId) -> Self {
        SetAffine {
            constant: false,
            vars: BTreeSet::from([v]),
        }
    }

    /// A constant.
    pub fn constant(c: bool) -> Self {
        SetAffine {
            constant: c,
            vars: BTreeSet::new(),
        }
    }

    /// The constant part.
    pub fn constant_part(&self) -> bool {
        self.constant
    }

    /// True when this is the constant 0.
    pub fn is_zero(&self) -> bool {
        !self.constant && self.vars.is_empty()
    }

    /// The variables with odd coefficient, ascending.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.vars.iter().copied()
    }

    /// XORs in a single variable.
    pub fn xor_var(&mut self, v: VarId) {
        if !self.vars.remove(&v) {
            self.vars.insert(v);
        }
    }

    /// XORs in a constant.
    pub fn xor_const(&mut self, c: bool) {
        self.constant ^= c;
    }

    /// Substitutes variable `v` by another form.
    pub fn subst(&self, v: VarId, e: &SetAffine) -> SetAffine {
        if !self.vars.contains(&v) {
            return self.clone();
        }
        let mut out = self.clone();
        out.vars.remove(&v);
        out ^ e.clone()
    }

    /// Evaluates under a classical memory.
    pub fn eval(&self, m: &CMem) -> bool {
        self.vars
            .iter()
            .fold(self.constant, |acc, &v| acc ^ m.get(v).as_bool())
    }

    /// Converts to the packed representation.
    pub fn to_packed(&self) -> crate::Affine {
        let mut a = crate::Affine::constant(self.constant);
        for &v in &self.vars {
            a.xor_var(v);
        }
        a
    }
}

impl std::ops::BitXor for SetAffine {
    type Output = SetAffine;

    fn bitxor(self, rhs: SetAffine) -> SetAffine {
        let mut out = SetAffine {
            constant: self.constant ^ rhs.constant,
            vars: self.vars,
        };
        for v in rhs.vars {
            out.xor_var(v);
        }
        out
    }
}

impl std::ops::BitXorAssign for SetAffine {
    fn bitxor_assign(&mut self, rhs: SetAffine) {
        self.constant ^= rhs.constant;
        for v in rhs.vars {
            self.xor_var(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_packed_preserves_extension() {
        let mut s = SetAffine::var(VarId(3));
        s.xor_var(VarId(200));
        s.xor_const(true);
        let p = s.to_packed();
        assert_eq!(p.constant_part(), s.constant_part());
        assert_eq!(p.vars().collect::<Vec<_>>(), s.vars().collect::<Vec<_>>());
    }
}
