//! An SMT-style formula layer over the CDCL SAT core.
//!
//! The paper's Veri-QEC encodes its classical verification conditions in
//! SMT-LIBv2 and discharges them with Z3/CVC5. After the reduction of §5.1
//! those conditions live in a small fragment: boolean structure over
//! GF(2) (XOR) phase equations and cardinality comparisons between sums of
//! indicator bits (error weights vs. correction weights). This crate encodes
//! exactly that fragment to CNF:
//!
//! * Tseitin transformation for arbitrary [`veriqec_cexpr::BExp`] structure,
//! * XOR chains for [`veriqec_cexpr::Affine`] phase forms. The hard rows
//!   asserted through [`SmtContext::assert_affine_eq`] are also kept as one
//!   GF(2) echelon basis, and a reified form those rows decide comes back
//!   as its constant, with no chain,
//! * totalizer-based cardinality (`Σ ≤ k`, `Σ = k`, `Σ_a ≤ Σ_b`). A
//!   comparison under negation, inside `reify`, or behind a
//!   [`CardinalityHandle`] gets a full, reified totalizer. A hard bound
//!   `Σ ≤ k` caps its totalizer at k + 1 outputs and shares it with every
//!   later hard constraint on the same input multiset, and an asserted
//!   `Σ_a ≤ Σ_b` is capped the same way once `Σ_b` has a hard bound. Caps
//!   come only from asserted bounds, so every encoding stays exact.
//!
//! # Examples
//!
//! ```
//! use veriqec_cexpr::{BExp, VarRole, VarTable};
//! use veriqec_smt::SmtContext;
//!
//! let mut vt = VarTable::new();
//! let e: Vec<_> = (0..5).map(|i| vt.fresh_indexed("e", i, VarRole::Error)).collect();
//! let mut ctx = SmtContext::new();
//! // weight(e) <= 1  and  e_0 XOR e_3  (so exactly one of them) is satisfiable
//! ctx.assert(&BExp::weight_le(e.iter().copied(), 1)).unwrap();
//! ctx.assert(&BExp::xor(BExp::var(e[0]), BExp::var(e[3]))).unwrap();
//! assert!(ctx.check(&[]).is_sat());
//! let m = ctx.model();
//! assert_eq!(m.get(e[0]).as_bool() as u8 + m.get(e[3]).as_bool() as u8, 1);
//! ```

#![forbid(unsafe_code)]

mod context;

pub use context::{CardinalityHandle, CheckResult, EncodeError, SmtContext};
