//! Clifford (+T) conjugation of Pauli operators.
//!
//! The proof rules for unitary statements in Fig. 3 substitute each
//! elementary Pauli `p` by `U† p U`. [`PauliString::conjugate1`] and
//! [`PauliString::conjugate2`] do this in place by table lookup on the
//! gate's one or two qubits, with exact phase tracking; the simulators'
//! forward direction `U p U†` is the wp direction of `gate.inverse()`.
//! [`SymPauli::conjugate`](crate::SymPauli::conjugate) and
//! [`ExtPauli::conjugate`] fold the image's sign into the phase.
//! Conjugation by `T`/`T†` leaves the Clifford frame and returns an
//! [`ExtPauli`] sum (Theorem 3.1): [`conj1_ext`] is the one conjugation that
//! builds new terms.

use crate::{Dyadic, ExtPauli, ExtTerm, PauliString};
use std::fmt;

/// Single-qubit gates of the language (§4.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Gate1 {
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate `diag(1, i)`.
    S,
    /// Inverse phase gate `diag(1, −i)`.
    Sdg,
    /// T gate `diag(1, e^{iπ/4})` (non-Clifford).
    T,
    /// Inverse T gate (non-Clifford).
    Tdg,
}

/// Two-qubit gates of the language (§4.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Gate2 {
    /// Controlled-NOT (first index = control).
    Cnot,
    /// Controlled-Z.
    Cz,
    /// iSWAP.
    ISwap,
    /// Inverse iSWAP (internal; needed to derive forward images).
    ISwapDg,
}

impl Gate1 {
    /// True for the non-Clifford gates `T`, `T†`.
    pub fn is_clifford(self) -> bool {
        !matches!(self, Gate1::T | Gate1::Tdg)
    }

    /// The inverse gate.
    pub fn inverse(self) -> Gate1 {
        match self {
            Gate1::S => Gate1::Sdg,
            Gate1::Sdg => Gate1::S,
            Gate1::T => Gate1::Tdg,
            Gate1::Tdg => Gate1::T,
            g => g,
        }
    }
}

impl Gate2 {
    /// The inverse gate.
    pub fn inverse(self) -> Gate2 {
        match self {
            Gate2::ISwap => Gate2::ISwapDg,
            Gate2::ISwapDg => Gate2::ISwap,
            g => g,
        }
    }
}

impl fmt::Display for Gate1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Gate1::X => "X",
            Gate1::Y => "Y",
            Gate1::Z => "Z",
            Gate1::H => "H",
            Gate1::S => "S",
            Gate1::Sdg => "Sdg",
            Gate1::T => "T",
            Gate1::Tdg => "Tdg",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for Gate2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Gate2::Cnot => "CNOT",
            Gate2::Cz => "CZ",
            Gate2::ISwap => "iSWAP",
            Gate2::ISwapDg => "iSWAPdg",
        };
        write!(f, "{s}")
    }
}

/// Local conjugation table for a single-qubit Clifford gate, in the *wp*
/// direction `U† (X^x Z^z) U`, as `(x', z', Δipow)` indexed by the local
/// operator: `[X, Z, XZ]`.
///
/// The local operator convention is `X^x Z^z` (NOT the letter `Y`): e.g.
/// `XZ = −iY`. Global strings factor per qubit without extra phase, so local
/// updates compose soundly.
fn table1(gate: Gate1) -> [(bool, bool, u8); 3] {
    match gate {
        // Pauli conjugation only flips signs.
        Gate1::X => [(true, false, 0), (false, true, 2), (true, true, 2)],
        Gate1::Y => [(true, false, 2), (false, true, 2), (true, true, 0)],
        Gate1::Z => [(true, false, 2), (false, true, 0), (true, true, 2)],
        // H: X↔Z; XZ → ZX = −XZ.
        Gate1::H => [(false, true, 0), (true, false, 0), (true, true, 2)],
        // S (wp): X → −Y = i³·XZ ; Z → Z ; XZ → −Y·Z = i³·X.
        Gate1::S => [(true, true, 3), (false, true, 0), (true, false, 3)],
        // S† (wp): X → Y = i·XZ ; Z → Z ; XZ → Y·Z = i·X.
        Gate1::Sdg => [(true, true, 1), (false, true, 0), (true, false, 1)],
        Gate1::T | Gate1::Tdg => panic!("T is not Clifford; use conj1_ext"),
    }
}

/// The bits of a local operator `X_i^a X_j^b Z_i^c Z_j^d` on a two-qubit
/// gate's qubits `(i, j)`: the mask `a | b<<1 | c<<2 | d<<3`.
const XI: u8 = 1;
const XJ: u8 = 2;
const ZI: u8 = 4;
const ZJ: u8 = 8;

/// Local conjugation table for a two-qubit gate on `(i, j)`, in the *wp*
/// direction: the images `U† X_i U`, `U† X_j U`, `U† Z_i U`, `U† Z_j U`
/// (entry `k` is the image of the local bit `1 << k`) as `(mask, Δipow)`.
fn table2(gate: Gate2) -> [(u8, u8); 4] {
    match gate {
        // CNOT (self-inverse): X_i → X_i X_j, Z_j → Z_i Z_j.
        Gate2::Cnot => [(XI | XJ, 0), (XJ, 0), (ZI, 0), (ZI | ZJ, 0)],
        // CZ (self-inverse): X_i → X_i Z_j, X_j → Z_i X_j.
        Gate2::Cz => [(XI | ZJ, 0), (XJ | ZI, 0), (ZI, 0), (ZJ, 0)],
        // iSWAP (wp, from rule U-iSWAP): X_i → Z_i Y_j = i·X_j Z_i Z_j,
        // X_j → Y_i Z_j = i·X_i Z_i Z_j, Z_i → Z_j, Z_j → Z_i.
        Gate2::ISwap => [(XJ | ZI | ZJ, 1), (XI | ZI | ZJ, 1), (ZJ, 0), (ZI, 0)],
        // iSWAP† (wp) == iSWAP (forward), the inverse of the map above:
        // X_i → −Z_i Y_j, X_j → −Y_i Z_j, Z_i → Z_j, Z_j → Z_i.
        Gate2::ISwapDg => [(XJ | ZI | ZJ, 3), (XI | ZI | ZJ, 3), (ZJ, 0), (ZI, 0)],
    }
}

impl PauliString {
    /// Conjugates in place by a single-qubit Clifford gate on qubit `q`, in
    /// the wp direction `U† P U`, with the exact `i^t` phase; only qubit `q`
    /// changes. For the forward direction `U P U†`, pass `gate.inverse()`.
    ///
    /// # Panics
    ///
    /// Panics on `T`/`T†` (use [`conj1_ext`]) or `q` out of range.
    pub fn conjugate1(&mut self, gate: Gate1, q: usize) {
        let idx = match (self.x_bit(q), self.z_bit(q)) {
            (false, false) => return,
            (true, false) => 0,
            (false, true) => 1,
            (true, true) => 2,
        };
        let (x, z, d) = table1(gate)[idx];
        self.set_local(q, x, z);
        self.add_ipow(d);
    }

    /// Conjugates in place by a two-qubit gate on qubits `(i, j)`, in the wp
    /// direction `U† P U`, with the exact `i^t` phase; only qubits `i` and
    /// `j` change. For the forward direction pass `gate.inverse()`.
    ///
    /// The local operator `X_i^a X_j^b Z_i^c Z_j^d` maps to the product of
    /// the selected images in that order, where
    /// `(X^x Z^z)(X^x' Z^z') = (−1)^{z·x'} X^{x⊕x'} Z^{z⊕z'}`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub fn conjugate2(&mut self, gate: Gate2, i: usize, j: usize) {
        assert_ne!(i, j, "two-qubit gate requires distinct qubits");
        let local = u8::from(self.x_bit(i))
            | u8::from(self.x_bit(j)) << 1
            | u8::from(self.z_bit(i)) << 2
            | u8::from(self.z_bit(j)) << 3;
        if local == 0 {
            return;
        }
        let (mut bits, mut ipow) = (0u8, 0u8);
        for (k, (image, d)) in table2(gate).into_iter().enumerate() {
            if local >> k & 1 == 1 {
                let sign = (bits >> 2 & image).count_ones() as u8 & 1;
                bits ^= image;
                ipow += d + 2 * sign;
            }
        }
        self.set_local(i, bits & XI != 0, bits & ZI != 0);
        self.set_local(j, bits & XJ != 0, bits & ZJ != 0);
        self.add_ipow(ipow % 4);
    }
}

/// Conjugates a Pauli expression by `T`/`T†` on qubit `q` in the wp
/// direction — the one conjugation that builds new terms (Theorem 3.1).
///
/// `T† X T = (X − Y)/√2`, `T† Y T = (X + Y)/√2`, `Z` fixed; `T†` swaps the
/// signs. For the forward direction pass `gate.inverse()`.
///
/// # Panics
///
/// Panics if `gate` is not `T`/`T†`.
pub fn conj1_ext(gate: Gate1, q: usize, e: &ExtPauli) -> ExtPauli {
    assert!(
        matches!(gate, Gate1::T | Gate1::Tdg),
        "conj1_ext only handles T/T†"
    );
    let c = Dyadic::inv_sqrt2();
    let cy = if gate == Gate1::T { -c } else { c };
    let mut terms = Vec::with_capacity(2 * e.terms().len());
    for t in e.terms() {
        if !t.pauli().x_bit(q) {
            // Z and I are fixed by T.
            terms.push(t.clone());
            continue;
        }
        // The local operator X Z^z maps to conj(X) · Z^z: the term's own
        // letters, plus Y Z^z = i·X Z^{1⊕z}.
        let mut x = t.pauli().clone();
        if t.is_iodd() {
            x.add_ipow(1);
        }
        let mut y = x.clone();
        y.set_local(q, true, !t.pauli().z_bit(q));
        y.add_ipow(1);
        terms.push(ExtTerm::new_general(t.coeff() * c, x, t.phase().clone()));
        terms.push(ExtTerm::new_general(t.coeff() * cy, y, t.phase().clone()));
    }
    ExtPauli::from_terms(terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymPauli;
    use veriqec_cexpr::Affine;

    fn sp(s: &str) -> SymPauli {
        SymPauli::plain(PauliString::from_letters(s).unwrap())
    }

    /// `U† P U` for a one-qubit gate, through [`SymPauli::conjugate`].
    fn wp1(gate: Gate1, q: usize, p: &SymPauli) -> SymPauli {
        let mut p = p.clone();
        p.conjugate(|s| s.conjugate1(gate, q));
        p
    }

    /// `U† P U` for a two-qubit gate, through [`SymPauli::conjugate`].
    fn wp2(gate: Gate2, i: usize, j: usize, p: &SymPauli) -> SymPauli {
        let mut p = p.clone();
        p.conjugate(|s| s.conjugate2(gate, i, j));
        p
    }

    #[test]
    fn h_rule_matches_paper() {
        // (U-H): X → Z, Z → X, Y → −Y.
        assert_eq!(wp1(Gate1::H, 0, &sp("X")).to_string(), "Z");
        assert_eq!(wp1(Gate1::H, 0, &sp("Z")).to_string(), "X");
        assert_eq!(wp1(Gate1::H, 0, &sp("Y")).to_string(), "-Y");
    }

    #[test]
    fn s_rule_matches_paper() {
        // (U-S): X → −Y, Y → X, Z → Z.
        assert_eq!(wp1(Gate1::S, 0, &sp("X")).to_string(), "-Y");
        assert_eq!(wp1(Gate1::S, 0, &sp("Y")).to_string(), "X");
        assert_eq!(wp1(Gate1::S, 0, &sp("Z")).to_string(), "Z");
        // Forward: S X S† = Y.
        assert_eq!(wp1(Gate1::S.inverse(), 0, &sp("X")).to_string(), "Y");
    }

    #[test]
    fn cnot_rule_matches_paper() {
        // (U-CNOT): X_i → X_i X_j, Y_i → Y_i X_j, Y_j → Z_i Y_j, Z_j → Z_i Z_j.
        assert_eq!(wp2(Gate2::Cnot, 0, 1, &sp("XI")).to_string(), "XX");
        assert_eq!(wp2(Gate2::Cnot, 0, 1, &sp("YI")).to_string(), "YX");
        assert_eq!(wp2(Gate2::Cnot, 0, 1, &sp("IY")).to_string(), "ZY");
        assert_eq!(wp2(Gate2::Cnot, 0, 1, &sp("IZ")).to_string(), "ZZ");
        assert_eq!(wp2(Gate2::Cnot, 0, 1, &sp("ZI")).to_string(), "ZI");
        assert_eq!(wp2(Gate2::Cnot, 0, 1, &sp("IX")).to_string(), "IX");
    }

    #[test]
    fn cz_rule_matches_paper() {
        // (U-CZ): X_i → X_i Z_j, Y_i → Y_i Z_j, X_j → Z_i X_j, Y_j → Z_i Y_j.
        assert_eq!(wp2(Gate2::Cz, 0, 1, &sp("XI")).to_string(), "XZ");
        assert_eq!(wp2(Gate2::Cz, 0, 1, &sp("YI")).to_string(), "YZ");
        assert_eq!(wp2(Gate2::Cz, 0, 1, &sp("IX")).to_string(), "ZX");
        assert_eq!(wp2(Gate2::Cz, 0, 1, &sp("IY")).to_string(), "ZY");
    }

    #[test]
    fn iswap_rule_matches_paper() {
        // (U-iSWAP): X_i → Z_i Y_j, Y_i → −Z_i X_j, Z_i → Z_j,
        //            X_j → Y_i Z_j, Y_j → −X_i Z_j, Z_j → Z_i.
        assert_eq!(wp2(Gate2::ISwap, 0, 1, &sp("XI")).to_string(), "ZY");
        assert_eq!(wp2(Gate2::ISwap, 0, 1, &sp("YI")).to_string(), "-ZX");
        assert_eq!(wp2(Gate2::ISwap, 0, 1, &sp("ZI")).to_string(), "IZ");
        assert_eq!(wp2(Gate2::ISwap, 0, 1, &sp("IX")).to_string(), "YZ");
        assert_eq!(wp2(Gate2::ISwap, 0, 1, &sp("IY")).to_string(), "-XZ");
        assert_eq!(wp2(Gate2::ISwap, 0, 1, &sp("IZ")).to_string(), "ZI");
    }

    #[test]
    fn wp_and_forward_are_inverse() {
        let cases = ["XIZ", "YYI", "ZXY", "IXX", "XYZ"];
        for s in cases {
            let p = sp(s);
            for g in [Gate1::X, Gate1::Y, Gate1::Z, Gate1::H, Gate1::S, Gate1::Sdg] {
                for q in 0..3 {
                    let there = wp1(g, q, &p);
                    let back = wp1(g.inverse(), q, &there);
                    assert_eq!(back, p, "gate {g} on {s} qubit {q}");
                }
            }
            for g in [Gate2::Cnot, Gate2::Cz, Gate2::ISwap] {
                for (i, j) in [(0, 1), (1, 2), (2, 0), (1, 0)] {
                    let there = wp2(g, i, j, &p);
                    let back = wp2(g.inverse(), i, j, &there);
                    assert_eq!(back, p, "gate {g} on {s} at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn conjugation_preserves_symbolic_phase_vars() {
        // CNOT† (X⊗Z) CNOT = −Y⊗Y: the numeric sign flips the constant part
        // of the phase, but the symbolic (variable) part must be untouched.
        let v = veriqec_cexpr::VarId(7);
        let p = SymPauli::new(PauliString::from_letters("XZ").unwrap(), Affine::var(v));
        let q = wp2(Gate2::Cnot, 0, 1, &p);
        assert_eq!(q.pauli().to_string(), "YY");
        assert!(q.phase().contains(v));
        assert!(
            q.phase().constant_part(),
            "sign of −YY folds into the phase"
        );
        // A sign-free case keeps the phase exactly.
        let p2 = SymPauli::new(PauliString::from_letters("XX").unwrap(), Affine::var(v));
        let q2 = wp2(Gate2::Cnot, 0, 1, &p2);
        assert_eq!(q2.pauli().to_string(), "XI");
        assert_eq!(q2.phase(), p2.phase());
    }

    #[test]
    fn t_conjugation_splits_x() {
        let p = ExtPauli::from_sym(sp("X"));
        let e = conj1_ext(Gate1::T, 0, &p);
        assert_eq!(e.terms().len(), 2);
        // (X − Y)/√2
        let s = e.to_string();
        assert!(s.contains("X"), "{s}");
        assert!(s.contains("Y"), "{s}");
    }

    #[test]
    fn t_fixes_z() {
        let p = ExtPauli::from_sym(sp("Z"));
        let e = conj1_ext(Gate1::T, 0, &p);
        assert_eq!(e.terms().len(), 1);
    }
}
