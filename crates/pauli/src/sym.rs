//! Symbolic Pauli operators: `(−1)^φ · P` with an XOR-affine phase `φ`.
//!
//! This is the paper's key representational device (Observation 3.1): by
//! letting the sign of a Pauli expression be a symbolic function of classical
//! variables, one assertion covers a whole family of stabilizer states, and
//! every proof rule of Fig. 3 acts on `φ` by an affine update.

use crate::PauliString;
use std::fmt;
use veriqec_cexpr::{Affine, CMem};

/// A Hermitian symbolic Pauli: `(−1)^φ · P` where `P` is a `+1`-signed Pauli
/// string and `φ` an XOR-affine form over classical variables.
///
/// The numeric sign of the underlying [`PauliString`] is folded into the
/// constant part of `φ` on construction, keeping a canonical form.
///
/// # Examples
///
/// ```
/// use veriqec_cexpr::{Affine, VarId};
/// use veriqec_pauli::{PauliString, SymPauli};
///
/// let g = SymPauli::new(
///     PauliString::from_letters("-XXXX").unwrap(),
///     Affine::var(VarId(0)),
/// );
/// // The explicit minus sign merged into the phase: (−1)^(1 ⊕ v0) XXXX
/// assert_eq!(g.to_string(), "(-1)^(1 + v0) XXXX");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SymPauli {
    pauli: PauliString,
    phase: Affine,
}

impl SymPauli {
    /// Creates a symbolic Pauli, normalizing the sign into the phase.
    ///
    /// # Panics
    ///
    /// Panics if `pauli` carries a `±i` global phase (non-Hermitian).
    pub fn new(mut pauli: PauliString, mut phase: Affine) -> Self {
        fold_sign(&mut pauli, &mut phase);
        SymPauli { pauli, phase }
    }

    /// A positively-signed Pauli with constant phase `+1`.
    pub fn plain(pauli: PauliString) -> Self {
        SymPauli::new(pauli, Affine::zero())
    }

    /// The underlying (unsigned) Pauli string.
    pub fn pauli(&self) -> &PauliString {
        &self.pauli
    }

    /// The symbolic phase exponent `φ`.
    pub fn phase(&self) -> &Affine {
        &self.phase
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.pauli.num_qubits()
    }

    /// Product of two symbolic Paulis (phases XOR; the numeric sign of the
    /// string product is folded into the phase).
    ///
    /// # Panics
    ///
    /// Panics if the product carries a `±i` phase, i.e. the operands
    /// anticommute — products are only defined within commuting families.
    pub fn mul(&self, other: &SymPauli) -> SymPauli {
        let prod = self.pauli.mul(&other.pauli);
        let mut phase = self.phase.clone();
        phase ^= &other.phase;
        SymPauli::new(prod, phase)
    }

    /// Conjugates in place: `edit` maps the string to its image under a
    /// Clifford conjugation, e.g. [`PauliString::conjugate1`]. The image's
    /// sign folds into the phase's constant, as in [`SymPauli::new`].
    ///
    /// # Panics
    ///
    /// Panics if the edited string is not Hermitian.
    pub fn conjugate(&mut self, edit: impl FnOnce(&mut PauliString)) {
        edit(&mut self.pauli);
        fold_sign(&mut self.pauli, &mut self.phase);
    }

    /// Evaluates to a concrete signed Pauli under a classical memory.
    pub fn eval(&self, m: &CMem) -> PauliString {
        let mut p = self.pauli.clone();
        if self.phase.eval(m) {
            p.add_ipow(2);
        }
        p
    }
}

/// Folds the sign of a Hermitian string into the phase's constant, leaving
/// the string unsigned.
///
/// # Panics
///
/// Panics if `pauli` carries a `±i` global phase (non-Hermitian).
pub(crate) fn fold_sign(pauli: &mut PauliString, phase: &mut Affine) {
    let negative = pauli
        .hermitian_sign()
        .expect("symbolic Pauli must be Hermitian (±1 sign)");
    if negative {
        pauli.add_ipow(2);
        phase.xor_const(true);
    }
}

impl fmt::Display for SymPauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.phase.is_zero() {
            write!(f, "{}", self.pauli)
        } else if self.phase.is_one() {
            write!(f, "-{}", self.pauli)
        } else {
            write!(f, "(-1)^({}) {}", self.phase, self.pauli)
        }
    }
}

impl fmt::Debug for SymPauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<PauliString> for SymPauli {
    fn from(p: PauliString) -> Self {
        SymPauli::new(p, Affine::zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veriqec_cexpr::{Value, VarId};

    #[test]
    fn sign_folds_into_phase() {
        let g = SymPauli::plain(PauliString::from_letters("-ZZ").unwrap());
        assert!(g.phase().is_one());
        assert_eq!(g.pauli().to_string(), "ZZ");
    }

    #[test]
    fn mul_products_commuting() {
        let a = SymPauli::new(
            PauliString::from_letters("XX").unwrap(),
            Affine::var(VarId(0)),
        );
        let b = SymPauli::new(
            PauliString::from_letters("ZZ").unwrap(),
            Affine::var(VarId(1)),
        );
        let c = a.mul(&b);
        // XX · ZZ = (X·Z)⊗(X·Z) = (−iY)(−iY) = −YY
        assert_eq!(c.pauli().to_string(), "YY");
        let mut m = CMem::new();
        m.set(VarId(0), Value::Bool(false));
        m.set(VarId(1), Value::Bool(false));
        // numeric sign −1 folded into phase
        assert!(c.phase().eval(&m));
    }

    #[test]
    #[should_panic(expected = "Hermitian")]
    fn mul_anticommuting_panics() {
        let a = SymPauli::plain(PauliString::from_letters("X").unwrap());
        let b = SymPauli::plain(PauliString::from_letters("Z").unwrap());
        let _ = a.mul(&b);
    }

    #[test]
    fn eval_respects_phase() {
        let g = SymPauli::new(
            PauliString::from_letters("XZ").unwrap(),
            Affine::var(VarId(5)),
        );
        let mut m = CMem::new();
        assert_eq!(g.eval(&m).to_string(), "XZ");
        m.set(VarId(5), Value::Bool(true));
        assert_eq!(g.eval(&m).to_string(), "-XZ");
    }
}
