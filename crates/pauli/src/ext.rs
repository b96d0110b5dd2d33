//! Extended Pauli expressions: ring-weighted sums of symbolic Paulis.
//!
//! These realize the `PExp` syntax of Eqn. 4 — closing Pauli expressions
//! under conjugation by `T` (Theorem 3.1) requires sums with coefficients in
//! Z[1/√2], e.g. `T† X T = (X − Y)/√2`.

use crate::{Dyadic, PauliString, SymPauli};
use std::fmt;
use veriqec_cexpr::Affine;

/// One summand: `coeff · i^{iodd} · (−1)^φ · P` with `P` an unsigned Pauli
/// string.
///
/// The numeric `±` sign of the constructed string is folded into `coeff`,
/// keeping `P` canonical. A residual factor `i` (odd power) is recorded in
/// `iodd`: it arises only in *intermediate* products of anticommuting terms
/// (e.g. during the non-commuting elimination of §5.1 case 3) and must cancel
/// in any final Hermitian expression.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ExtTerm {
    coeff: Dyadic,
    pauli: PauliString,
    phase: Affine,
    iodd: bool,
}

impl ExtTerm {
    /// Creates a term, canonicalizing the sign.
    ///
    /// # Panics
    ///
    /// Panics if `pauli` carries a `±i` phase (use [`ExtTerm::new_general`]
    /// for intermediate non-Hermitian terms).
    pub fn new(coeff: Dyadic, pauli: PauliString, phase: Affine) -> Self {
        let t = ExtTerm::new_general(coeff, pauli, phase);
        assert!(!t.iodd, "extended Pauli terms must be Hermitian");
        t
    }

    /// Creates a term allowing a residual `i` factor.
    pub fn new_general(coeff: Dyadic, pauli: PauliString, phase: Affine) -> Self {
        let d = (pauli.ipow() + 4 - (pauli.y_count() % 4) as u8) % 4;
        let (coeff, iodd) = match d {
            0 => (coeff, false),
            1 => (coeff, true),
            2 => (-coeff, false),
            _ => (-coeff, true),
        };
        ExtTerm {
            coeff,
            pauli: pauli.unsigned(),
            phase,
            iodd,
        }
    }

    /// The ring coefficient.
    pub fn coeff(&self) -> Dyadic {
        self.coeff
    }

    /// The unsigned Pauli string.
    pub fn pauli(&self) -> &PauliString {
        &self.pauli
    }

    /// The symbolic phase.
    pub fn phase(&self) -> &Affine {
        &self.phase
    }

    /// True when the term carries a residual factor of `i`.
    pub fn is_iodd(&self) -> bool {
        self.iodd
    }
}

impl fmt::Display for ExtTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.coeff.is_one() {
            // no coefficient shown
        } else {
            write!(f, "{}·", self.coeff)?;
        }
        if self.iodd {
            write!(f, "i·")?;
        }
        if !self.phase.is_zero() {
            write!(f, "(-1)^({})·", self.phase)?;
        }
        write!(f, "{}", self.pauli)
    }
}

impl fmt::Debug for ExtTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A sum of [`ExtTerm`]s — a general Pauli expression.
///
/// # Examples
///
/// ```
/// use veriqec_pauli::{conj1_ext, Gate1, PauliString, SymPauli};
/// let x = SymPauli::plain(PauliString::from_letters("X").unwrap());
/// let e = conj1_ext(Gate1::T, 0, &x, true); // (X − Y)/√2
/// assert_eq!(e.terms().len(), 2);
/// assert!(e.as_single().is_none());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct ExtPauli {
    terms: Vec<ExtTerm>,
}

impl ExtPauli {
    /// The zero expression.
    pub fn zero() -> Self {
        ExtPauli { terms: Vec::new() }
    }

    /// A single symbolic Pauli as an expression.
    pub fn from_sym(p: SymPauli) -> Self {
        ExtPauli {
            terms: vec![ExtTerm {
                coeff: Dyadic::one(),
                pauli: p.pauli().clone(),
                phase: p.phase().clone(),
                iodd: false,
            }],
        }
    }

    /// Builds from raw terms, simplifying.
    pub fn from_terms(terms: Vec<ExtTerm>) -> Self {
        let mut e = ExtPauli { terms };
        e.simplify();
        e
    }

    /// The summands.
    pub fn terms(&self) -> &[ExtTerm] {
        &self.terms
    }

    /// If the expression is a single unit-coefficient term, views it as a
    /// [`SymPauli`]. A coefficient of `−1` folds into the phase.
    pub fn as_single(&self) -> Option<SymPauli> {
        if self.terms.len() != 1 {
            return None;
        }
        let t = &self.terms[0];
        if t.iodd {
            return None;
        }
        if t.coeff.is_one() {
            Some(SymPauli::new(t.pauli.clone(), t.phase.clone()))
        } else if t.coeff == -Dyadic::one() {
            let mut phase = t.phase.clone();
            phase.xor_const(true);
            Some(SymPauli::new(t.pauli.clone(), phase))
        } else {
            None
        }
    }

    /// Sum of two expressions.
    pub fn add(&self, other: &ExtPauli) -> ExtPauli {
        let mut terms = self.terms.clone();
        terms.extend(other.terms.iter().cloned());
        ExtPauli::from_terms(terms)
    }

    /// Scales all coefficients.
    pub fn scale(&self, k: Dyadic) -> ExtPauli {
        ExtPauli::from_terms(
            self.terms
                .iter()
                .map(|t| ExtTerm {
                    coeff: t.coeff * k,
                    pauli: t.pauli.clone(),
                    phase: t.phase.clone(),
                    iodd: t.iodd,
                })
                .collect(),
        )
    }

    /// Multiplies on the right by a symbolic Pauli that commutes or
    /// anticommutes with each term; phases are tracked exactly.
    ///
    /// # Panics
    ///
    /// Panics if any term's product with `p` is non-Hermitian (`±i` phase),
    /// which cannot arise for the commuting multiplications used by the
    /// verification-condition reduction.
    pub fn mul_sym(&self, p: &SymPauli) -> ExtPauli {
        ExtPauli::from_terms(
            self.terms
                .iter()
                .map(|t| {
                    let prod = t.pauli.mul(p.pauli());
                    let mut phase = t.phase.clone();
                    phase ^= p.phase();
                    ExtTerm::new(t.coeff, prod, phase)
                })
                .collect(),
        )
    }

    /// The general operator product of two Pauli expressions (distributing
    /// over sums, tracking every phase exactly). Intermediate terms may carry
    /// a residual `i`; they cancel whenever the result is Hermitian.
    ///
    /// Used by the non-commuting elimination step of VC-reduction case 3,
    /// where e.g. `conj_T(g1) · conj_T(g3) = conj_T(g1·g3)` becomes a single
    /// plain Pauli again because the `(X−Y)/√2` local factors square to 1.
    pub fn mul_ext(&self, other: &ExtPauli) -> ExtPauli {
        let mut terms = Vec::with_capacity(self.terms.len() * other.terms.len());
        for a in &self.terms {
            for b in &other.terms {
                let mut prod = a.pauli.mul(&b.pauli);
                if a.iodd {
                    prod.add_ipow(1);
                }
                if b.iodd {
                    prod.add_ipow(1);
                }
                let mut phase = a.phase.clone();
                phase ^= &b.phase;
                terms.push(ExtTerm::new_general(a.coeff * b.coeff, prod, phase));
            }
        }
        ExtPauli::from_terms(terms)
    }

    /// Combines like terms (same letters, same symbolic phase, same `i`
    /// parity) and removes zero-coefficient terms.
    pub fn simplify(&mut self) {
        let mut combined: Vec<ExtTerm> = Vec::with_capacity(self.terms.len());
        for t in self.terms.drain(..) {
            if let Some(existing) = combined
                .iter_mut()
                .find(|e| e.pauli == t.pauli && e.phase == t.phase && e.iodd == t.iodd)
            {
                existing.coeff = existing.coeff + t.coeff;
            } else {
                combined.push(t);
            }
        }
        combined.retain(|t| !t.coeff.is_zero());
        combined.sort_by(|a, b| {
            a.pauli
                .symplectic_row()
                .cmp(&b.pauli.symplectic_row())
                .then_with(|| a.phase.cmp(&b.phase))
        });
        self.terms = combined;
    }

    /// True when the expression is the (empty) zero sum.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of qubits (0 for the zero expression).
    pub fn num_qubits(&self) -> usize {
        self.terms.first().map_or(0, |t| t.pauli.num_qubits())
    }
}

impl fmt::Display for ExtPauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for ExtPauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<SymPauli> for ExtPauli {
    fn from(p: SymPauli) -> Self {
        ExtPauli::from_sym(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> SymPauli {
        SymPauli::plain(PauliString::from_letters("X").unwrap())
    }

    fn y() -> SymPauli {
        SymPauli::plain(PauliString::from_letters("Y").unwrap())
    }

    #[test]
    fn like_terms_combine() {
        let a = ExtPauli::from_sym(x());
        let b = ExtPauli::from_sym(x());
        let s = a.add(&b);
        assert_eq!(s.terms().len(), 1);
        assert_eq!(s.terms()[0].coeff(), Dyadic::from_int(2));
    }

    #[test]
    fn opposite_terms_cancel() {
        let a = ExtPauli::from_sym(x());
        let b = a.scale(-Dyadic::one());
        assert!(a.add(&b).is_zero());
    }

    #[test]
    fn as_single_folds_minus_one() {
        let e = ExtPauli::from_sym(x()).scale(-Dyadic::one());
        let s = e.as_single().unwrap();
        assert!(s.phase().is_one());
    }

    #[test]
    fn t_image_squares_back() {
        // ((X−Y)/√2 multiplied by itself via mul_sym is not defined (terms
        // anticommute), but scaling and adding works:
        // (X−Y)/√2 + (X+Y)/√2 = √2·X.
        let c = Dyadic::inv_sqrt2();
        let e1 = ExtPauli::from_terms(vec![
            ExtTerm::new(c, PauliString::from_letters("X").unwrap(), Affine::zero()),
            ExtTerm::new(-c, PauliString::from_letters("Y").unwrap(), Affine::zero()),
        ]);
        let e2 = ExtPauli::from_terms(vec![
            ExtTerm::new(c, PauliString::from_letters("X").unwrap(), Affine::zero()),
            ExtTerm::new(c, PauliString::from_letters("Y").unwrap(), Affine::zero()),
        ]);
        let s = e1.add(&e2);
        assert_eq!(s.terms().len(), 1);
        assert_eq!(s.terms()[0].coeff(), Dyadic::sqrt2());
        let _ = y();
    }

    #[test]
    fn mul_sym_by_commuting_stabilizer() {
        // (X₀X₁) · (Z₀Z₁) = −Y₀Y₁ — commuting, sign folds into coefficient.
        let xx = SymPauli::plain(PauliString::from_letters("XX").unwrap());
        let zz = SymPauli::plain(PauliString::from_letters("ZZ").unwrap());
        let e = ExtPauli::from_sym(xx).mul_sym(&zz);
        assert_eq!(e.terms().len(), 1);
        assert_eq!(e.terms()[0].coeff(), -Dyadic::one());
        assert_eq!(e.terms()[0].pauli().to_string(), "YY");
    }
}

#[cfg(test)]
mod mul_ext_tests {
    use super::*;
    use crate::{conj1_ext, Gate1};

    #[test]
    fn t_images_multiply_back_to_plain() {
        // conj_T(X ⊗ X) localizes: conj(X0)·conj(X0·?) — use two 2-qubit
        // operators sharing the T-affected qubit: conj(X0X1)·conj(X0Z1)
        // must equal conj((X0X1)(X0Z1)) = conj(i? X1·Z1...) — verify against
        // direct computation.
        let a = SymPauli::plain(PauliString::from_letters("XX").unwrap());
        let b = SymPauli::plain(PauliString::from_letters("XZ").unwrap());
        let ca = conj1_ext(Gate1::T, 0, &a, true);
        let cb = conj1_ext(Gate1::T, 0, &b, true);
        let prod = ca.mul_ext(&cb);
        // (X0X1)(X0Z1) = X0X0 ⊗ X1Z1 = (−i)·I⊗Y = non-Hermitian global −iY1;
        // use commuting pair instead: (X0X1)(X0X1) = I.
        let sq = ca.mul_ext(&ca);
        assert_eq!(sq.terms().len(), 1);
        assert_eq!(sq.terms()[0].coeff(), Dyadic::one());
        assert!(sq.terms()[0].pauli().is_identity_up_to_phase());
        // The mixed product collapses to a single i-odd term.
        assert_eq!(prod.terms().len(), 1);
        assert!(prod.terms()[0].is_iodd());
    }

    #[test]
    fn paper_step_i_localization() {
        // §5.2.2 Step I: g'_1 · g'_3 is a plain Pauli again (the (X−Y)/√2
        // factors on the shared qubit square away).
        let g1 = SymPauli::plain(PauliString::from_letters("XIXIXIX").unwrap());
        let g3 = SymPauli::plain(PauliString::from_letters("IIIXXXX").unwrap());
        let c1 = conj1_ext(Gate1::T, 4, &g1, true);
        let c3 = conj1_ext(Gate1::T, 4, &g3, true);
        assert_eq!(c1.terms().len(), 2);
        assert_eq!(c3.terms().len(), 2);
        let prod = c1.mul_ext(&c3);
        let single = prod.as_single().expect("localized to plain Pauli");
        // g1·g3 = X0 X2 X3 X5 (X4 and X6 cancel; qubits 0-based).
        assert_eq!(single.pauli().to_string(), "XIXXIXI");
        assert!(single.phase().is_constant());
    }
}
