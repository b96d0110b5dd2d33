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

    /// Edits every term's phase in place: `f` sees the term's letters and
    /// its phase. Letters and coefficients never change, so a single term
    /// stays simplified; a sum is re-simplified, because an edit can make
    /// two terms with the same letters equal and the term order sorts on
    /// the phase.
    pub fn update_phases(&mut self, mut f: impl FnMut(&PauliString, &mut Affine)) {
        for t in &mut self.terms {
            f(&t.pauli, &mut t.phase);
        }
        if self.terms.len() > 1 {
            self.simplify();
        }
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

    fn term(coeff: Dyadic, letters: &str) -> ExtTerm {
        ExtTerm::new(
            coeff,
            PauliString::from_letters(letters).unwrap(),
            Affine::zero(),
        )
    }

    #[test]
    fn like_terms_combine() {
        let s = ExtPauli::from_terms(vec![term(Dyadic::one(), "X"), term(Dyadic::one(), "X")]);
        assert_eq!(s.terms().len(), 1);
        assert_eq!(s.terms()[0].coeff(), Dyadic::from_int(2));
    }

    #[test]
    fn opposite_terms_cancel() {
        let s = ExtPauli::from_terms(vec![term(Dyadic::one(), "X"), term(-Dyadic::one(), "X")]);
        assert!(s.is_zero());
    }

    #[test]
    fn as_single_folds_minus_one() {
        let e = ExtPauli::from_sym(x()).scale(-Dyadic::one());
        let s = e.as_single().unwrap();
        assert!(s.phase().is_one());
    }

    #[test]
    fn t_image_squares_back() {
        // The sum of the T images of X and Y:
        // (X−Y)/√2 + (X+Y)/√2 = √2·X.
        let c = Dyadic::inv_sqrt2();
        let s = ExtPauli::from_terms(vec![
            term(c, "X"),
            term(-c, "Y"),
            term(c, "X"),
            term(c, "Y"),
        ]);
        assert_eq!(s.terms().len(), 1);
        assert_eq!(s.terms()[0].coeff(), Dyadic::sqrt2());
    }
}

#[cfg(test)]
mod update_phases_tests {
    use super::*;
    use proptest::prelude::*;
    use veriqec_cexpr::VarId;

    /// The reference: every term rebuilt with its new phase, then the
    /// whole sum simplified from scratch.
    fn rebuild(e: &ExtPauli, f: impl Fn(&PauliString, &Affine) -> Affine) -> ExtPauli {
        ExtPauli::from_terms(
            e.terms()
                .iter()
                .map(|t| ExtTerm::new(t.coeff(), t.pauli().clone(), f(t.pauli(), t.phase())))
                .collect(),
        )
    }

    /// An affine form over `v0..v3`: bit `i` of `mask` selects `v_i`, bit 4
    /// the constant.
    fn form(mask: u8) -> Affine {
        let mut a = Affine::constant(mask & 16 != 0);
        for i in 0..4 {
            if mask >> i & 1 == 1 {
                a.xor_var(VarId(i));
            }
        }
        a
    }

    /// 1–4 terms over 3 qubits with coefficients ±1 or ±1/√2. The first
    /// term's letters repeat with probability one half, so sums of two
    /// terms with the same letters and different phases are common.
    fn arb_expr() -> impl Strategy<Value = ExtPauli> {
        let letters = (0u8..4, 0u8..4, 0u8..4).prop_map(|(a, b, c)| {
            [a, b, c]
                .iter()
                .map(|&l| ['I', 'X', 'Y', 'Z'][l as usize])
                .collect::<String>()
        });
        let coeff = (any::<bool>(), any::<bool>()).prop_map(|(neg, half)| {
            let c = if half {
                Dyadic::inv_sqrt2()
            } else {
                Dyadic::one()
            };
            if neg {
                -c
            } else {
                c
            }
        });
        let term = (letters, coeff, 0u8..32, any::<bool>());
        proptest::collection::vec(term, 1..5).prop_map(|terms| {
            let first = terms[0].0.clone();
            ExtPauli::from_terms(
                terms
                    .into_iter()
                    .map(|(letters, c, phase, repeat)| {
                        let letters = if repeat { first.clone() } else { letters };
                        let p = PauliString::from_letters(&letters).unwrap();
                        ExtTerm::new(c, p, form(phase))
                    })
                    .collect(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn update_phases_matches_the_per_term_rebuild(
            e in arb_expr(),
            error in (0usize..3, 1u8..4),
            guard in 0u8..32,
            var in 0u32..4,
            image in 0u8..32,
            merge in any::<bool>(),
        ) {
            // A conditional Pauli error: XOR the guard into every term that
            // anticommutes with the one-qubit error.
            let (q, letter) = error;
            let err = PauliString::single(3, ['X', 'Y', 'Z'][letter as usize - 1], q);
            let guard = form(guard);
            let mut fast = e.clone();
            fast.update_phases(|p, phase| {
                if p.anticommutes_with(&err) {
                    *phase ^= &guard;
                }
            });
            let slow = rebuild(&e, |p, phase| {
                let mut phase = phase.clone();
                if p.anticommutes_with(&err) {
                    phase ^= &guard;
                }
                phase
            });
            prop_assert_eq!(&fast, &slow);

            // A substitution `v := image`. With `merge`, the image is
            // `a ⊕ b ⊕ v` for the first two terms' phases `a` and `b`: when
            // exactly one of them contains `v`, the two phases become
            // equal, and terms with the same letters combine.
            let v = VarId(var);
            let image = match (merge, fast.terms()) {
                (true, [a, b, ..]) => {
                    let mut diff = a.phase().clone();
                    diff ^= b.phase();
                    diff ^= &Affine::var(v);
                    diff
                }
                _ => form(image),
            };
            let mut fast2 = fast.clone();
            fast2.update_phases(|_, phase| *phase = phase.subst(v, &image));
            let slow2 = rebuild(&fast, |_, phase| phase.subst(v, &image));
            prop_assert_eq!(&fast2, &slow2);
        }
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
