//! Birkhoff–von Neumann quantum logic: closed subspaces of a
//! finite-dimensional Hilbert space with meet, join, orthocomplement and
//! Sasaki implication (Appendix A.3 of the paper).
//!
//! Used as the executable semantics of the assertion language on small
//! systems — the ground truth against which the symbolic pipeline is tested.

use crate::complex::{inner, vec_norm, C64};
use crate::DenseState;
use veriqec_pauli::{ExtPauli, PauliString};

const TOL: f64 = 1e-8;

/// A subspace of C^(2^n), stored as an orthonormal basis.
///
/// # Examples
///
/// ```
/// use veriqec_qsim::Subspace;
/// use veriqec_pauli::PauliString;
///
/// // The +1 eigenspace of Z0 on two qubits is 2-dimensional.
/// let s = Subspace::pauli_plus_eigenspace(&PauliString::from_letters("ZI").unwrap());
/// assert_eq!(s.dim(), 2);
/// assert_eq!(s.complement().dim(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Subspace {
    ambient: usize,
    basis: Vec<Vec<C64>>,
}

impl Subspace {
    /// The zero subspace `{0}` of dimension-`ambient` space.
    pub fn zero(ambient: usize) -> Self {
        Subspace {
            ambient,
            basis: Vec::new(),
        }
    }

    /// The full space.
    pub fn full(ambient: usize) -> Self {
        let mut basis = Vec::with_capacity(ambient);
        for i in 0..ambient {
            let mut v = vec![C64::zero(); ambient];
            v[i] = C64::one();
            basis.push(v);
        }
        Subspace { ambient, basis }
    }

    /// Span of the given vectors (Gram–Schmidt with tolerance).
    ///
    /// # Panics
    ///
    /// Panics if vectors have inconsistent lengths.
    pub fn span(ambient: usize, vectors: &[Vec<C64>]) -> Self {
        let mut s = Subspace::zero(ambient);
        for v in vectors {
            assert_eq!(v.len(), ambient, "vector length mismatch");
            s.absorb(v.clone());
        }
        s
    }

    /// Absorbs a vector into the basis if it adds a new direction.
    fn absorb(&mut self, mut v: Vec<C64>) {
        for b in &self.basis {
            let c = inner(b, &v);
            for (vi, bi) in v.iter_mut().zip(b) {
                *vi = *vi - *bi * c;
            }
        }
        let norm = vec_norm(&v);
        if norm > TOL {
            for vi in &mut v {
                *vi = *vi * (1.0 / norm);
            }
            self.basis.push(v);
        }
    }

    /// Ambient dimension.
    pub fn ambient_dim(&self) -> usize {
        self.ambient
    }

    /// Dimension of the subspace.
    pub fn dim(&self) -> usize {
        self.basis.len()
    }

    /// The orthonormal basis vectors.
    pub fn basis(&self) -> &[Vec<C64>] {
        &self.basis
    }

    /// Projection of `v` onto the subspace.
    pub fn project(&self, v: &[C64]) -> Vec<C64> {
        let mut out = vec![C64::zero(); self.ambient];
        for b in &self.basis {
            let c = inner(b, v);
            for (o, bi) in out.iter_mut().zip(b) {
                *o += *bi * c;
            }
        }
        out
    }

    /// True when `v` lies in the subspace (within tolerance).
    pub fn contains(&self, v: &[C64]) -> bool {
        let p = self.project(v);
        v.iter().zip(&p).all(|(a, b)| (*a - *b).norm() < 1e-6)
    }

    /// True when `self ⊆ other`.
    pub fn is_subspace_of(&self, other: &Subspace) -> bool {
        self.basis.iter().all(|b| other.contains(b))
    }

    /// Subspace equality (mutual inclusion).
    pub fn equals(&self, other: &Subspace) -> bool {
        self.dim() == other.dim() && self.is_subspace_of(other)
    }

    /// Orthocomplement `S⊥`.
    pub fn complement(&self) -> Subspace {
        let mut out = Subspace::zero(self.ambient);
        for i in 0..self.ambient {
            let mut v = vec![C64::zero(); self.ambient];
            v[i] = C64::one();
            // Remove the component inside self.
            let p = self.project(&v);
            for (vi, pi) in v.iter_mut().zip(&p) {
                *vi = *vi - *pi;
            }
            out.absorb(v);
        }
        out
    }

    /// Join `S ∨ T` — span of the union (the quantum-logic disjunction).
    pub fn join(&self, other: &Subspace) -> Subspace {
        let mut out = self.clone();
        for b in &other.basis {
            out.absorb(b.clone());
        }
        out
    }

    /// Meet `S ∧ T` — intersection, computed as `(S⊥ ∨ T⊥)⊥`.
    pub fn meet(&self, other: &Subspace) -> Subspace {
        self.complement().join(&other.complement()).complement()
    }

    /// Sasaki implication `S ⇝ T = S⊥ ∨ (S ∧ T)`.
    pub fn sasaki_implies(&self, other: &Subspace) -> Subspace {
        self.complement().join(&self.meet(other))
    }

    /// Sasaki projection `S ⋒ T = S ∧ (S⊥ ∨ T)`.
    pub fn sasaki_project(&self, other: &Subspace) -> Subspace {
        self.meet(&self.complement().join(other))
    }

    /// Commutativity of subspaces: `S C T` iff `S = (S∧T) ∨ (S∧T⊥)`.
    pub fn commutes_with(&self, other: &Subspace) -> bool {
        let rebuilt = self.meet(other).join(&self.meet(&other.complement()));
        self.equals(&rebuilt)
    }

    /// The `+1` eigenspace of a Hermitian Pauli operator — the semantics of
    /// an atomic Pauli proposition (Def. 3.2).
    pub fn pauli_plus_eigenspace(p: &PauliString) -> Subspace {
        let n = p.num_qubits();
        let dim = 1usize << n;
        // Columns of the projector (I + P)/2 span the eigenspace.
        let mut vectors = Vec::with_capacity(dim);
        for col in 0..dim {
            let mut st = DenseState::from_amplitudes({
                let mut v = vec![C64::zero(); dim];
                v[col] = C64::one();
                v
            });
            st.apply_pauli(p);
            let mut v: Vec<C64> = st.amplitudes().to_vec();
            v[col] += C64::one();
            for a in &mut v {
                *a = *a * 0.5;
            }
            vectors.push(v);
        }
        Subspace::span(dim, &vectors)
    }

    /// The `+1` eigenspace of a Hermitian Pauli-expression sum under a given
    /// classical memory: solves `(M − I)v = 0` by projecting out the image of
    /// `M − I` (power iteration-free exact approach via Gram–Schmidt on the
    /// kernel complement).
    pub fn ext_pauli_plus_eigenspace(e: &ExtPauli, m: &veriqec_cexpr::CMem) -> Subspace {
        let n = e.num_qubits();
        let dim = 1usize << n;
        if e.is_zero() {
            return Subspace::zero(dim.max(1));
        }
        // Build the dense matrix of (M − I) column by column, then return the
        // orthocomplement of the row space of (M − I)† — i.e. the kernel.
        let mut rows: Vec<Vec<C64>> = Vec::with_capacity(dim);
        // (M − I) columns: apply to basis vectors.
        let mut columns: Vec<Vec<C64>> = Vec::with_capacity(dim);
        for col in 0..dim {
            let mut acc = vec![C64::zero(); dim];
            for term in e.terms() {
                let mut st = DenseState::from_amplitudes({
                    let mut v = vec![C64::zero(); dim];
                    v[col] = C64::one();
                    v
                });
                let mut p = term.pauli().clone();
                if term.phase().eval(m) {
                    p.add_ipow(2);
                }
                st.apply_pauli(&p);
                let coeff = C64::real(term.coeff().to_f64());
                for (a, b) in acc.iter_mut().zip(st.amplitudes()) {
                    *a += *b * coeff;
                }
            }
            acc[col] = acc[col] - C64::one();
            columns.push(acc);
        }
        // Kernel of A = (M−I): v ⊥ every row of A†A... simpler: v in kernel
        // iff v ⊥ all conjugated rows of A. Row i of A is (A e_i-th component):
        rows.extend((0..dim).map(|i| {
            columns
                .iter()
                .map(|column| column[i].conj())
                .collect::<Vec<C64>>()
        }));
        // kernel(A) = (row space of conj(A))⊥.
        Subspace::span(dim, &rows).complement()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veriqec_pauli::SymPauli;

    fn ps(s: &str) -> PauliString {
        PauliString::from_letters(s).unwrap()
    }

    #[test]
    fn eigenspace_dimensions() {
        assert_eq!(Subspace::pauli_plus_eigenspace(&ps("Z")).dim(), 1);
        assert_eq!(Subspace::pauli_plus_eigenspace(&ps("ZI")).dim(), 2);
        assert_eq!(Subspace::pauli_plus_eigenspace(&ps("XX")).dim(), 2);
    }

    #[test]
    fn complement_is_involutive() {
        let s = Subspace::pauli_plus_eigenspace(&ps("XZ"));
        assert!(s.complement().complement().equals(&s));
        assert_eq!(s.dim() + s.complement().dim(), 4);
    }

    #[test]
    fn meet_of_stabilizer_conjunction_is_codespace() {
        // Bell state: XX ∧ ZZ has dimension 1.
        let a = Subspace::pauli_plus_eigenspace(&ps("XX"));
        let b = Subspace::pauli_plus_eigenspace(&ps("ZZ"));
        let c = a.meet(&b);
        assert_eq!(c.dim(), 1);
        // The Bell vector is inside.
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let bell = vec![C64::real(h), C64::zero(), C64::zero(), C64::real(h)];
        assert!(c.contains(&bell));
    }

    #[test]
    fn example_3_3_quantum_join() {
        // J(X1 ∧ Z2) ∨ (X1 ∧ −Z2)K = JX1K under the quantum interpretation.
        let x1z2 = Subspace::pauli_plus_eigenspace(&ps("XI"))
            .meet(&Subspace::pauli_plus_eigenspace(&ps("IZ")));
        let x1mz2 = Subspace::pauli_plus_eigenspace(&ps("XI"))
            .meet(&Subspace::pauli_plus_eigenspace(&ps("-IZ")));
        let joined = x1z2.join(&x1mz2);
        let x1 = Subspace::pauli_plus_eigenspace(&ps("XI"));
        assert!(joined.equals(&x1));
    }

    #[test]
    fn sasaki_birkhoff_von_neumann_requirement() {
        // S ⇝ T = full iff S ⊆ T.
        let s = Subspace::pauli_plus_eigenspace(&ps("ZZ"));
        let t = Subspace::pauli_plus_eigenspace(&ps("ZI"));
        let sub = s.meet(&t);
        assert!(sub.sasaki_implies(&s).equals(&Subspace::full(4)));
        assert!(!s.sasaki_implies(&sub).equals(&Subspace::full(4)));
    }

    #[test]
    fn commuting_distributivity() {
        // For commuting subspaces distributivity holds.
        let a = Subspace::pauli_plus_eigenspace(&ps("ZI"));
        let b = Subspace::pauli_plus_eigenspace(&ps("IZ"));
        let c = Subspace::pauli_plus_eigenspace(&ps("ZZ"));
        assert!(a.commutes_with(&b));
        assert!(a.commutes_with(&c));
        let lhs = a.meet(&b.join(&c));
        let rhs = a.meet(&b).join(&a.meet(&c));
        assert!(lhs.equals(&rhs));
    }

    #[test]
    fn noncommuting_pair_detected() {
        let x = Subspace::pauli_plus_eigenspace(&ps("X"));
        let z = Subspace::pauli_plus_eigenspace(&ps("Z"));
        assert!(!x.commutes_with(&z));
    }

    #[test]
    fn ext_pauli_eigenspace_matches_plain() {
        // A single-term ExtPauli must agree with the plain eigenspace.
        let p = ps("XZ");
        let e = ExtPauli::from_sym(SymPauli::plain(p.clone()));
        let m = veriqec_cexpr::CMem::new();
        let a = Subspace::ext_pauli_plus_eigenspace(&e, &m);
        let b = Subspace::pauli_plus_eigenspace(&p);
        assert!(a.equals(&b));
    }

    #[test]
    fn ext_pauli_t_conjugated_eigenspace() {
        // (X − Y)/√2 is a Hermitian involution; +1 eigenspace has dim 1.
        use veriqec_pauli::{conj1_ext, Gate1};
        let x = SymPauli::plain(ps("X"));
        let e = conj1_ext(Gate1::T, 0, &x.into());
        let m = veriqec_cexpr::CMem::new();
        let s = Subspace::ext_pauli_plus_eigenspace(&e, &m);
        assert_eq!(s.dim(), 1);
        // And it equals T†|+⟩ direction: T†HT|0⟩... verify via stabilization:
        // v in s implies ((X−Y)/√2) v = v; checked implicitly by kernel calc.
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use veriqec_pauli::PauliString;

    /// Random subspaces as meets/joins of random 2-qubit Pauli eigenspaces.
    fn arb_subspace() -> impl Strategy<Value = Subspace> {
        let letters = proptest::sample::select(vec![
            "XI", "IX", "ZI", "IZ", "XX", "ZZ", "YY", "XZ", "-ZZ", "-XI", "YI", "IY",
        ]);
        proptest::collection::vec((letters, any::<bool>()), 1..3).prop_map(|parts| {
            let mut acc: Option<Subspace> = None;
            for (s, join) in parts {
                let e =
                    Subspace::pauli_plus_eigenspace(&PauliString::from_letters(s).expect("valid"));
                acc = Some(match acc {
                    None => e,
                    Some(a) => {
                        if join {
                            a.join(&e)
                        } else {
                            a.meet(&e)
                        }
                    }
                });
            }
            acc.expect("nonempty")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn de_morgan(a in arb_subspace(), b in arb_subspace()) {
            prop_assert!(a.join(&b).complement().equals(&a.complement().meet(&b.complement())));
            prop_assert!(a.meet(&b).complement().equals(&a.complement().join(&b.complement())));
        }

        #[test]
        fn orthomodular_law(a in arb_subspace(), b in arb_subspace()) {
            // If A ⊆ B then B = A ∨ (B ∧ A⊥) — the weakening of
            // distributivity that quantum logic retains.
            let a = a.meet(&b); // force A ⊆ B
            let rebuilt = a.join(&b.meet(&a.complement()));
            prop_assert!(rebuilt.equals(&b));
        }

        #[test]
        fn sasaki_bvn_requirement(a in arb_subspace(), b in arb_subspace()) {
            // A ⇝ B is the full space iff A ⊆ B.
            let full = a.sasaki_implies(&b).dim() == a.ambient_dim();
            prop_assert_eq!(full, a.is_subspace_of(&b));
        }

        #[test]
        fn sasaki_projection_duality(a in arb_subspace(), b in arb_subspace()) {
            // (A ⋒ B)⊥ = A ⇝ B⊥.
            prop_assert!(a
                .sasaki_project(&b)
                .complement()
                .equals(&a.sasaki_implies(&b.complement())));
        }

        #[test]
        fn commuting_distributivity(a in arb_subspace()) {
            // Subspaces built from Z-type operators all commute; check the
            // conditional distributive law on a commuting triple.
            let z1 = Subspace::pauli_plus_eigenspace(&PauliString::from_letters("ZI").expect("ok"));
            let z2 = Subspace::pauli_plus_eigenspace(&PauliString::from_letters("IZ").expect("ok"));
            if a.commutes_with(&z1) && a.commutes_with(&z2) {
                let lhs = a.meet(&z1.join(&z2));
                let rhs = a.meet(&z1).join(&a.meet(&z2));
                prop_assert!(lhs.equals(&rhs));
            }
        }
    }
}
