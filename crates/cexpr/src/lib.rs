//! Classical expressions and memories for QEC program verification.
//!
//! This crate implements the classical side of the paper's hybrid
//! classical–quantum language (Appendix A.1): integer and boolean expression
//! ASTs ([`IExp`], [`BExp`]), classical memories ([`CMem`]), a variable
//! registry ([`VarTable`]) and the XOR-affine forms ([`Affine`]) used as the
//! symbolic phases of Pauli expressions throughout the verification pipeline.
//!
//! # Examples
//!
//! ```
//! use veriqec_cexpr::{Affine, BExp, CMem, IExp, Value, VarRole, VarTable};
//!
//! let mut vt = VarTable::new();
//! let e1 = vt.fresh("e_1", VarRole::Error);
//! let e2 = vt.fresh("e_2", VarRole::Error);
//!
//! // The error-weight constraint  e_1 + e_2 <= 1.
//! let pc = BExp::weight_le([e1, e2], 1);
//! let mut m = CMem::new();
//! m.set(e1, Value::Bool(true));
//! assert!(pc.eval(&m));
//!
//! // A symbolic phase (-1)^(e_1 ⊕ e_2).
//! let phi = Affine::var(e1) ^ Affine::var(e2);
//! assert!(phi.eval(&m));
//! ```

#![forbid(unsafe_code)]

mod affine;
#[cfg(test)]
mod baseline;
mod expr;
mod mem;
mod vars;

pub use affine::Affine;
pub use expr::{BExp, IExp};
pub use mem::{CMem, Value};
pub use vars::{VarId, VarRole, VarTable};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_affine() -> impl Strategy<Value = Affine> {
        (
            any::<bool>(),
            proptest::collection::btree_set(0u32..8, 0..5),
        )
            .prop_map(|(c, vars)| {
                let mut a = Affine::constant(c);
                for v in vars {
                    a.xor_var(VarId(v));
                }
                a
            })
    }

    fn arb_mem() -> impl Strategy<Value = CMem> {
        proptest::collection::vec(any::<bool>(), 8).prop_map(|bits| {
            bits.into_iter()
                .enumerate()
                .map(|(i, b)| (VarId(i as u32), Value::Bool(b)))
                .collect()
        })
    }

    proptest! {
        #[test]
        fn affine_xor_is_pointwise(a in arb_affine(), b in arb_affine(), m in arb_mem()) {
            prop_assert_eq!((a.clone() ^ b.clone()).eval(&m), a.eval(&m) ^ b.eval(&m));
        }

        #[test]
        fn affine_subst_is_semantic(a in arb_affine(), e in arb_affine(), m in arb_mem(), v in 0u32..8) {
            // a[v := e] evaluated at m equals a evaluated at m[v := e(m)].
            let v = VarId(v);
            let m2 = m.updated(v, Value::Bool(e.eval(&m)));
            prop_assert_eq!(a.subst(v, &e).eval(&m), a.eval(&m2));
        }

        #[test]
        fn to_bexp_roundtrip(a in arb_affine(), m in arb_mem()) {
            prop_assert_eq!(a.to_bexp().eval(&m), a.eval(&m));
        }
    }
}

#[cfg(test)]
mod packed_vs_set_model {
    //! Differential tests: the packed [`Affine`] must be extensionally equal
    //! to the [`baseline::SetAffine`] reference model under arbitrary
    //! operation sequences, including ids far beyond the inline 128-bit span.

    use super::*;
    use baseline::SetAffine;
    use proptest::prelude::*;

    /// One mutation step applied to both representations.
    #[derive(Clone, Debug)]
    enum Op {
        XorVar(u32),
        XorConst(bool),
        XorForm(Vec<u32>, bool),
        Subst(u32, Vec<u32>, bool),
    }

    fn arb_var() -> impl Strategy<Value = u32> {
        // Mix of inline-range and heap-range ids, crossing word boundaries.
        proptest::sample::select(vec![0u32, 1, 7, 63, 64, 65, 127, 128, 129, 200, 500])
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        (
            0u32..4,
            arb_var(),
            proptest::collection::vec(arb_var(), 0..4),
            any::<bool>(),
        )
            .prop_map(|(tag, v, vs, c)| match tag {
                0 => Op::XorVar(v),
                1 => Op::XorConst(c),
                2 => Op::XorForm(vs, c),
                _ => Op::Subst(v, vs, c),
            })
    }

    fn agree(p: &Affine, s: &SetAffine) -> Result<(), String> {
        if p.constant_part() != s.constant_part() {
            return Err(format!("constant mismatch: {p} vs {s:?}"));
        }
        let pv: Vec<VarId> = p.vars().collect();
        let sv: Vec<VarId> = s.vars().collect();
        if pv != sv {
            return Err(format!("var-set mismatch: {pv:?} vs {sv:?}"));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn packed_equals_set_model(ops in proptest::collection::vec(arb_op(), 0..24)) {
            let mut p = Affine::zero();
            let mut s = SetAffine::zero();
            for op in ops {
                match op {
                    Op::XorVar(v) => {
                        p.xor_var(VarId(v));
                        s.xor_var(VarId(v));
                    }
                    Op::XorConst(c) => {
                        p.xor_const(c);
                        s.xor_const(c);
                    }
                    Op::XorForm(vs, c) => {
                        let mut dp = Affine::constant(c);
                        let mut ds = SetAffine::constant(c);
                        for v in vs {
                            dp.xor_var(VarId(v));
                            ds.xor_var(VarId(v));
                        }
                        p ^= &dp;
                        s ^= ds;
                    }
                    Op::Subst(v, vs, c) => {
                        let mut ep = Affine::constant(c);
                        let mut es = SetAffine::constant(c);
                        for w in vs {
                            ep.xor_var(VarId(w));
                            es.xor_var(VarId(w));
                        }
                        p = p.subst(VarId(v), &ep);
                        s = s.subst(VarId(v), &es);
                    }
                }
                agree(&p, &s)?;
                prop_assert_eq!(&p, &s.to_packed());
            }
            // Evaluation agrees on a spot-check memory (odd-id vars true).
            let mut m = CMem::new();
            for v in p.vars() {
                m.set(v, Value::Bool(v.0 % 2 == 1));
            }
            prop_assert_eq!(p.eval(&m), s.eval(&m));
            prop_assert_eq!(p.num_vars(), s.vars().count());
            prop_assert_eq!(p.is_zero(), s.is_zero());
        }
    }
}
