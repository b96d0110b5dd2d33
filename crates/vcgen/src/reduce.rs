//! The verification-condition reduction of §5.1.
//!
//! Input: the left-hand side of the entailment (an independent commuting
//! generating set with symbolic phases — stabilizer generators plus
//! `(−1)^{b_i}`-signed logical operators) and the weakest precondition in QEC
//! normal form. Output: a purely classical system of GF(2) equations
//! (*targets*), branch *guards* and side conditions, ready for the solver.
//!
//! Case 1 of the paper ({P'} ⊆ {P}) and case 2 (all commuting) are both
//! realized by decomposing each right-hand conjunct over the left-hand
//! generating set (Prop. 5.2): `P'_j = (−1)^{α_j} Π_{i∈I_j} P_i` yields the
//! phase equation `ψ_j ⊕ α_j ⊕ ⨁_{i∈I_j} φ_i = 0`. Case 3 (non-commuting
//! conjuncts from non-Pauli errors) is handled by [`crate::nonpauli`].

use std::fmt;

use veriqec_cexpr::{Affine, BExp, VarId};
use veriqec_logic::QecAssertion;
use veriqec_pauli::{StabilizerGroup, SymPauli};

/// A fully classical verification condition.
#[derive(Clone, Debug)]
pub struct ReducedVc {
    /// Syndrome variables bound by the big disjunction.
    pub or_vars: Vec<VarId>,
    /// Branch guards: each affine form must be 0 for the branch to exist
    /// (duplicate-conjunct merges, e.g. decoder/syndrome consistency).
    pub guards: Vec<Affine>,
    /// Phase-match targets: each affine form must be 0 for the entailment.
    pub targets: Vec<Affine>,
    /// Classical side conditions carried from the assertion.
    pub classical: Vec<BExp>,
}

impl ReducedVc {
    /// Resolves the `⋁_s` binding soundly for the refutation query.
    ///
    /// Each syndrome outcome is *determined* by the errors and earlier
    /// corrections (measuring a stabilizer on an eigenstate is
    /// deterministic), so the existential over branches collapses: Gaussian
    /// elimination over GF(2) pivots every or-variable out of the combined
    /// equation system (guards ∪ targets). The pivot rows become *pinning
    /// constraints* `s_i = affine(e, c)` (moved into `guards`); the or-free
    /// residuals are the genuine proof obligations (the new `targets`).
    ///
    /// Without this step a refutation query could "violate" an equation
    /// simply by picking a non-actual branch, producing spurious
    /// counterexamples — or, worse, over-constrain the adversary.
    ///
    /// The elimination is genuine GF(2) row reduction over a system
    /// assembled once: the combined equations (guards ∪ targets) are the
    /// packed rows — each [`Affine`] *is* a bit-packed row over the
    /// variable columns — and a single forward pass reduces every row
    /// against the pivots found so far with word-level masked first-bit
    /// scans and word XORs (the shared `veriqec_gf2::words` kernels). A row
    /// that claims an unpivoted or-variable column becomes that variable's
    /// frozen pivot (a pin); a row that runs out of or-variable bits is a
    /// residual proof obligation. No per-pivot set clones, no per-element
    /// tree surgery. The row XORs ride the widened 4×u64-lane kernels:
    /// forms whose variable ids fit `Affine`'s inline span (ids below 256 —
    /// every single-cycle surface workload up to `d = 7`) combine in one
    /// fixed-shape lane XOR with no length dispatch.
    ///
    /// [`veriqec_gf2::BitMatrix::pivot_reduce_masked`] implements the same
    /// elimination at the explicit-matrix level; a property test
    /// cross-checks the two paths row for row.
    pub fn resolve_branches(&mut self) {
        let mut system: Vec<Affine> = self
            .guards
            .drain(..)
            .chain(self.targets.drain(..))
            .collect();
        if system.is_empty() {
            return;
        }
        // Union (not XOR-sum) of the or-variables: a duplicated entry must
        // not cancel itself out of the mask.
        let mut mask = Affine::zero();
        for &s in &self.or_vars {
            if !mask.contains(s) {
                mask.xor_var(s);
            }
        }
        let n_cols = mask.max_var().map_or(0, |v| v.0 as usize + 1);
        let mut pivot_of: Vec<Option<usize>> = vec![None; n_cols];
        let mut pivot_rows: Vec<usize> = Vec::new();
        for r in 0..system.len() {
            // Each XOR clears the row's lowest or-variable bit and can only
            // introduce or-bits above it (the pivot's lowest masked bit is
            // the one being cleared), so this loop terminates.
            while let Some(v) = system[r].first_var_masked(&mask) {
                match pivot_of[v.0 as usize] {
                    Some(p) => {
                        // XOR the frozen pivot row into row r in place.
                        debug_assert!(p < r);
                        let (lo, hi) = system.split_at_mut(r);
                        hi[0] ^= &lo[p];
                    }
                    None => {
                        pivot_of[v.0 as usize] = Some(r);
                        pivot_rows.push(r);
                        break;
                    }
                }
            }
        }
        let mut is_pin = vec![false; system.len()];
        for &r in &pivot_rows {
            is_pin[r] = true;
        }
        // Pivot rows become pins (in discovery order); residual rows — now
        // free of every or-variable — the remaining proof obligations (in
        // original order).
        self.guards = pivot_rows
            .iter()
            .map(|&r| std::mem::take(&mut system[r]))
            .collect();
        self.targets = system
            .into_iter()
            .zip(is_pin)
            .filter(|(e, pin)| !pin && !e.is_zero())
            .map(|(e, _)| e)
            .collect();
    }
}

/// Why the commuting reduction could not be applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReduceError {
    /// A right-hand conjunct is a genuine Pauli-expression sum (non-Pauli
    /// error): use the case-3 pipeline.
    NonCommutingConjunct {
        /// Index of the conjunct.
        index: usize,
    },
    /// A conjunct's letters are not generated by the left-hand side — the
    /// entailment is refuted structurally.
    NotInGroup {
        /// Index of the conjunct.
        index: usize,
    },
    /// The left-hand side is not a valid generating set.
    BadLhs {
        /// Description.
        message: String,
    },
}

impl fmt::Display for ReduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReduceError::NonCommutingConjunct { index } => {
                write!(f, "conjunct {index} is a Pauli-expression sum (case 3)")
            }
            ReduceError::NotInGroup { index } => {
                write!(f, "conjunct {index} lies outside the left-hand group")
            }
            ReduceError::BadLhs { message } => write!(f, "bad left-hand side: {message}"),
        }
    }
}

impl std::error::Error for ReduceError {}

/// Reduces `⋀ lhs ⊨ wp` to a classical system (cases 1–2 of §5.1).
///
/// # Errors
///
/// See [`ReduceError`].
pub fn reduce_commuting(lhs: &[SymPauli], wp: &QecAssertion) -> Result<ReducedVc, ReduceError> {
    let group = StabilizerGroup::new(lhs.to_vec()).map_err(|e| ReduceError::BadLhs {
        message: e.to_string(),
    })?;
    let mut targets = Vec::with_capacity(wp.conjuncts.len());
    for (index, conjunct) in wp.conjuncts.iter().enumerate() {
        let single = conjunct
            .as_single()
            .ok_or(ReduceError::NonCommutingConjunct { index })?;
        let (_, product) = group
            .decompose(single.pauli())
            .ok_or(ReduceError::NotInGroup { index })?;
        // Entailment needs ψ_j = phase forced by the LHS product. A
        // constant-1 target (structural impossibility) is kept like any
        // other: the solver reports the refutation.
        let mut target = single.phase().clone();
        target ^= product.phase();
        if !target.is_zero() {
            targets.push(target);
        }
    }
    Ok(ReducedVc {
        or_vars: wp.or_vars.clone(),
        guards: wp.guards.clone(),
        targets,
        classical: wp.classical.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use veriqec_cexpr::{VarRole, VarTable};
    use veriqec_pauli::{ExtPauli, PauliString};

    fn sp(s: &str) -> SymPauli {
        SymPauli::plain(PauliString::from_letters(s).unwrap())
    }

    #[test]
    fn identical_conjuncts_give_phase_equations() {
        // LHS ⟨ZZI, IZZ⟩; RHS conjunct (−1)^e ZZI: target e = 0.
        let mut vt = VarTable::new();
        let e = vt.fresh("e", VarRole::Error);
        let lhs = vec![sp("ZZI"), sp("IZZ"), sp("ZII")];
        let rhs = QecAssertion::from_conjuncts(
            3,
            vec![ExtPauli::from_sym(SymPauli::new(
                PauliString::from_letters("ZZI").unwrap(),
                Affine::var(e),
            ))],
        );
        let vc = reduce_commuting(&lhs, &rhs).unwrap();
        assert_eq!(vc.targets, vec![Affine::var(e)]);
    }

    #[test]
    fn case2_products_accumulate_lhs_phases() {
        // LHS: (−1)^a XX, (−1)^b ZZ. RHS conjunct: −YY = (−1)^1 (XX·ZZ·(−1)).
        // XX·ZZ = −YY numerically, so the target is a ⊕ b ⊕ (1 ⊕ 1) = a ⊕ b.
        let mut vt = VarTable::new();
        let a = vt.fresh("a", VarRole::Param);
        let b = vt.fresh("b", VarRole::Param);
        let lhs = vec![
            SymPauli::new(PauliString::from_letters("XX").unwrap(), Affine::var(a)),
            SymPauli::new(PauliString::from_letters("ZZ").unwrap(), Affine::var(b)),
        ];
        let rhs = QecAssertion::from_conjuncts(2, vec![ExtPauli::from_sym(sp("-YY"))]);
        let vc = reduce_commuting(&lhs, &rhs).unwrap();
        assert_eq!(vc.targets.len(), 1);
        assert_eq!(vc.targets[0], Affine::var(a) ^ Affine::var(b));
    }

    #[test]
    fn outside_group_is_detected() {
        let lhs = vec![sp("ZZ")];
        let rhs = QecAssertion::from_conjuncts(2, vec![ExtPauli::from_sym(sp("XI"))]);
        assert_eq!(
            reduce_commuting(&lhs, &rhs).unwrap_err(),
            ReduceError::NotInGroup { index: 0 }
        );
    }

    #[test]
    fn sums_are_routed_to_case3() {
        use veriqec_pauli::{conj1_ext, Gate1};
        let lhs = vec![sp("X")];
        let ext = conj1_ext(Gate1::T, 0, &sp("X").into());
        let rhs = QecAssertion::from_conjuncts(1, vec![ext]);
        assert_eq!(
            reduce_commuting(&lhs, &rhs).unwrap_err(),
            ReduceError::NonCommutingConjunct { index: 0 }
        );
    }
}

#[cfg(test)]
mod resolve_tests {
    use super::*;
    use veriqec_cexpr::{VarRole, VarTable};

    #[test]
    fn resolve_pins_syndromes_and_keeps_residuals() {
        // Memory-cycle shape: guard s ⊕ r(c), target r(c) ⊕ h(e).
        let mut vt = VarTable::new();
        let s = vt.fresh("s", VarRole::Syndrome);
        let c = vt.fresh("c", VarRole::Correction);
        let e = vt.fresh("e", VarRole::Error);
        let mut vc = ReducedVc {
            or_vars: vec![s],
            guards: vec![Affine::var(s) ^ Affine::var(c)],
            targets: vec![Affine::var(c) ^ Affine::var(e)],
            classical: vec![],
        };
        vc.resolve_branches();
        assert_eq!(vc.guards, vec![Affine::var(s) ^ Affine::var(c)]);
        assert_eq!(vc.targets, vec![Affine::var(c) ^ Affine::var(e)]);
    }

    #[test]
    fn resolve_extracts_residual_from_two_pinnings() {
        // Two equations pin the same s: s ⊕ A and s ⊕ B → pin + residual A⊕B.
        let mut vt = VarTable::new();
        let s = vt.fresh("s", VarRole::Syndrome);
        let a = vt.fresh("a", VarRole::Error);
        let b = vt.fresh("b", VarRole::Error);
        let mut vc = ReducedVc {
            or_vars: vec![s],
            guards: vec![Affine::var(s) ^ Affine::var(a)],
            targets: vec![Affine::var(s) ^ Affine::var(b)],
            classical: vec![],
        };
        vc.resolve_branches();
        assert_eq!(vc.guards.len(), 1);
        assert_eq!(vc.targets, vec![Affine::var(a) ^ Affine::var(b)]);
    }

    #[test]
    fn unpinned_or_var_is_left_free() {
        let mut vt = VarTable::new();
        let s = vt.fresh("s", VarRole::Syndrome);
        let e = vt.fresh("e", VarRole::Error);
        let mut vc = ReducedVc {
            or_vars: vec![s],
            guards: vec![],
            targets: vec![Affine::var(e)],
            classical: vec![],
        };
        vc.resolve_branches();
        assert!(vc.guards.is_empty());
        assert_eq!(vc.targets, vec![Affine::var(e)]);
    }

    #[test]
    fn empty_system_is_untouched() {
        let mut vt = VarTable::new();
        let s = vt.fresh("s", VarRole::Syndrome);
        let mut vc = ReducedVc {
            or_vars: vec![s],
            guards: vec![],
            targets: vec![],
            classical: vec![],
        };
        vc.resolve_branches();
        assert!(vc.guards.is_empty() && vc.targets.is_empty());
    }
}

#[cfg(test)]
mod resolve_proptests {
    //! `resolve_branches` is pure bookkeeping: pivoting the or-variables out
    //! must not change which assignments satisfy the combined system
    //! guards ∪ targets (all equations = 0). It must also agree row for row
    //! with the explicit-matrix elimination
    //! [`veriqec_gf2::BitMatrix::pivot_reduce_masked`].

    use super::*;
    use proptest::prelude::*;
    use veriqec_cexpr::{CMem, Value};
    use veriqec_gf2::{BitMatrix, BitVec};

    const NVARS: u32 = 7;

    fn arb_affine() -> impl Strategy<Value = Affine> {
        (any::<bool>(), proptest::collection::vec(0u32..NVARS, 0..4)).prop_map(|(c, vars)| {
            let mut a = Affine::constant(c);
            for v in vars {
                a.xor_var(VarId(v));
            }
            a
        })
    }

    fn solutions(equations: &[Affine]) -> Vec<u32> {
        (0..1u32 << NVARS)
            .filter(|&bits| {
                let mut m = CMem::new();
                for v in 0..NVARS {
                    m.set(VarId(v), Value::Bool(bits >> v & 1 == 1));
                }
                equations.iter().all(|e| !e.eval(&m))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn resolve_preserves_solution_set(
            guards in proptest::collection::vec(arb_affine(), 0..4),
            targets in proptest::collection::vec(arb_affine(), 0..5),
            or_bits in proptest::collection::vec(0u32..NVARS, 0..4),
        ) {
            let mut or_vars: Vec<VarId> = or_bits.into_iter().map(VarId).collect();
            or_vars.dedup();
            let before: Vec<Affine> = guards.iter().chain(&targets).cloned().collect();
            let mut vc = ReducedVc {
                or_vars,
                guards,
                targets,
                classical: vec![],
            };
            vc.resolve_branches();
            let after: Vec<Affine> = vc.guards.iter().chain(&vc.targets).cloned().collect();
            prop_assert_eq!(solutions(&before), solutions(&after));
            // Residual targets mention no or-variable at all: each either
            // found a pivot (eliminated) or would have claimed one.
            for t in &vc.targets {
                for &s in &vc.or_vars {
                    prop_assert!(!t.contains(s), "target {t} still mentions {s:?}");
                }
            }
            // Cross-check against the explicit BitMatrix elimination.
            if before.is_empty() {
                return Ok(());
            }
            let width = NVARS as usize;
            let mut matrix =
                BitMatrix::from_rows(before.iter().map(|e| e.to_row(width)).collect());
            let or_cols: Vec<usize> = vc.or_vars.iter().map(|&s| s.0 as usize).collect();
            let pivots = matrix.pivot_reduce_masked(&BitVec::from_ones(width + 1, &or_cols));
            let matrix_pins: Vec<Affine> = pivots
                .iter()
                .map(|&(_, r)| Affine::from_row(matrix.row(r)))
                .collect();
            prop_assert_eq!(&vc.guards, &matrix_pins);
            let pin_rows: Vec<usize> = pivots.iter().map(|&(_, r)| r).collect();
            let matrix_residuals: Vec<Affine> = (0..matrix.num_rows())
                .filter(|r| !pin_rows.contains(r))
                .map(|r| Affine::from_row(matrix.row(r)))
                .filter(|e| !e.is_zero())
                .collect();
            prop_assert_eq!(&vc.targets, &matrix_residuals);
        }
    }
}
