//! Pauli strings in symplectic representation with exact `i^t` phases.

use std::fmt;
use veriqec_gf2::BitVec;

/// An `n`-qubit Pauli operator `i^t · X^x · Z^z` in symplectic form.
///
/// The bit vectors `x` and `z` record which qubits carry an `X` / `Z` factor;
/// the letter `Y` on qubit `q` is `i·X_q·Z_q`, i.e. both bits set plus one
/// factor of `i` in `t`. Multiplication tracks phases exactly.
///
/// # Examples
///
/// ```
/// use veriqec_pauli::PauliString;
/// // Two anticommuting overlaps cancel: XZI and ZXI commute overall.
/// let a = PauliString::from_letters("XZI").unwrap();
/// let b = PauliString::from_letters("ZXI").unwrap();
/// assert!(a.commutes_with(&b));
/// // A single overlap anticommutes, and X·Z = −i·Y exactly.
/// let c = PauliString::from_letters("XI").unwrap();
/// let d = PauliString::from_letters("ZI").unwrap();
/// assert!(!c.commutes_with(&d));
/// assert_eq!(c.mul(&d).to_string(), "-iYI");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PauliString {
    x: BitVec,
    z: BitVec,
    /// Exponent of `i`, mod 4.
    ipow: u8,
}

/// Error from [`PauliString::from_letters`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePauliError {
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParsePauliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid Pauli string: {}", self.message)
    }
}

impl std::error::Error for ParsePauliError {}

impl PauliString {
    /// The identity on `n` qubits.
    pub fn identity(n: usize) -> Self {
        PauliString {
            x: BitVec::zeros(n),
            z: BitVec::zeros(n),
            ipow: 0,
        }
    }

    /// A single-letter Pauli `p ∈ {X, Y, Z}` on qubit `q` of an `n`-qubit
    /// system.
    ///
    /// # Panics
    ///
    /// Panics if `q >= n` or the letter is not `X`/`Y`/`Z`.
    pub fn single(n: usize, letter: char, q: usize) -> Self {
        let mut p = PauliString::identity(n);
        match letter {
            'X' => p.x.set(q, true),
            'Z' => p.z.set(q, true),
            'Y' => {
                p.x.set(q, true);
                p.z.set(q, true);
                p.ipow = 1;
            }
            other => panic!("not a Pauli letter: {other}"),
        }
        p
    }

    /// Builds from explicit bit vectors (`i^ipow · X^x · Z^z`).
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn from_bits(x: BitVec, z: BitVec, ipow: u8) -> Self {
        assert_eq!(x.len(), z.len(), "x/z length mismatch");
        PauliString {
            x,
            z,
            ipow: ipow % 4,
        }
    }

    /// Parses a letter string like `"XIYZ"`, optionally prefixed by a sign
    /// (`+`, `-`, `i`, `-i`).
    ///
    /// # Errors
    ///
    /// Returns [`ParsePauliError`] on characters outside `IXYZ` (after the
    /// optional sign prefix).
    pub fn from_letters(s: &str) -> Result<Self, ParsePauliError> {
        let (sign_ipow, rest) = if let Some(r) = s.strip_prefix("-i") {
            (3u8, r)
        } else if let Some(r) = s.strip_prefix('i') {
            (1u8, r)
        } else if let Some(r) = s.strip_prefix('-') {
            (2u8, r)
        } else if let Some(r) = s.strip_prefix('+') {
            (0u8, r)
        } else {
            (0u8, s)
        };
        let n = rest.chars().count();
        let mut p = PauliString::identity(n);
        for (q, c) in rest.chars().enumerate() {
            match c {
                'I' | '_' => {}
                'X' => p.x.set(q, true),
                'Z' => p.z.set(q, true),
                'Y' => {
                    p.x.set(q, true);
                    p.z.set(q, true);
                    p.ipow = (p.ipow + 1) % 4;
                }
                other => {
                    return Err(ParsePauliError {
                        message: format!("unexpected character `{other}`"),
                    })
                }
            }
        }
        p.ipow = (p.ipow + sign_ipow) % 4;
        Ok(p)
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.x.len()
    }

    /// The X-part bit vector.
    pub fn x_bits(&self) -> &BitVec {
        &self.x
    }

    /// The Z-part bit vector.
    pub fn z_bits(&self) -> &BitVec {
        &self.z
    }

    /// The exponent of `i` (mod 4).
    pub fn ipow(&self) -> u8 {
        self.ipow
    }

    /// Local X bit at qubit `q`.
    pub fn x_bit(&self, q: usize) -> bool {
        self.x.get(q)
    }

    /// Local Z bit at qubit `q`.
    pub fn z_bit(&self, q: usize) -> bool {
        self.z.get(q)
    }

    /// Sets the local `(x, z)` bits at qubit `q`.
    pub fn set_local(&mut self, q: usize, x: bool, z: bool) {
        self.x.set(q, x);
        self.z.set(q, z);
    }

    /// Adds `d` to the `i` exponent (mod 4).
    pub fn add_ipow(&mut self, d: u8) {
        self.ipow = (self.ipow + d) % 4;
    }

    /// True when the string is the identity up to phase.
    pub fn is_identity_up_to_phase(&self) -> bool {
        self.x.is_zero() && self.z.is_zero()
    }

    /// Number of qubits acted on non-trivially (the Hamming weight of the
    /// Pauli error).
    pub fn weight(&self) -> usize {
        self.x.ored(&self.z).weight()
    }

    /// The symplectic (commutation) product: `false` = commute,
    /// `true` = anticommute.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn anticommutes_with(&self, other: &PauliString) -> bool {
        self.x.dot(&other.z) ^ self.z.dot(&other.x)
    }

    /// True when the operators commute.
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        !self.anticommutes_with(other)
    }

    /// The operator product `self · other`, with exact phase.
    ///
    /// `(i^s X^a Z^b)(i^t X^c Z^d) = i^{s+t} (−1)^{b·c} X^{a⊕c} Z^{b⊕d}`.
    pub fn mul(&self, other: &PauliString) -> PauliString {
        let sign = self.z.dot(&other.x); // moving Z^b past X^c
        PauliString {
            x: self.x.xored(&other.x),
            z: self.z.xored(&other.z),
            ipow: (self.ipow + other.ipow + if sign { 2 } else { 0 }) % 4,
        }
    }

    /// The Hermitian adjoint (conjugate transpose).
    pub fn adjoint(&self) -> PauliString {
        // (i^t X^x Z^z)† = (−i)^t Z^z X^x = i^{-t} (−1)^{x·z} X^x Z^z
        let overlap = self.x.dot(&self.z);
        PauliString {
            x: self.x.clone(),
            z: self.z.clone(),
            ipow: ((4 - self.ipow) + if overlap { 2 } else { 0 }) % 4,
        }
    }

    /// Number of `Y` letters (both bits set).
    pub fn y_count(&self) -> usize {
        let (x, z) = (self.x.as_words(), self.z.as_words());
        x.iter()
            .zip(z)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// For Hermitian `±1` Pauli operators: returns `Some(negative)` where
    /// `negative` is true iff the sign is `−1`; `None` when the operator has
    /// an `±i` global phase (non-Hermitian).
    pub fn hermitian_sign(&self) -> Option<bool> {
        let d = (self.ipow + 4 - (self.y_count() % 4) as u8) % 4;
        match d {
            0 => Some(false),
            2 => Some(true),
            _ => None,
        }
    }

    /// Drops the sign: returns the same letters with `+1` phase.
    pub fn unsigned(&self) -> PauliString {
        PauliString {
            x: self.x.clone(),
            z: self.z.clone(),
            ipow: (self.y_count() % 4) as u8,
        }
    }

    /// The symplectic row `[x | z]` of length `2n` (used in check matrices).
    pub fn symplectic_row(&self) -> BitVec {
        self.x.concat(&self.z)
    }

    /// Rebuilds from a symplectic row `[x | z]` with `+1` sign.
    ///
    /// # Panics
    ///
    /// Panics if the row length is odd.
    pub fn from_symplectic_row(row: &BitVec) -> PauliString {
        assert_eq!(row.len() % 2, 0, "symplectic row must have even length");
        let n = row.len() / 2;
        let x = row.slice(0, n);
        let z = row.slice(n, n);
        let y = x.anded(&z).weight();
        PauliString {
            x,
            z,
            ipow: (y % 4) as u8,
        }
    }

    /// Letter at qubit `q` as a char (`I`, `X`, `Y`, `Z`).
    pub fn letter(&self, q: usize) -> char {
        match (self.x.get(q), self.z.get(q)) {
            (false, false) => 'I',
            (true, false) => 'X',
            (false, true) => 'Z',
            (true, true) => 'Y',
        }
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let leftover = (self.ipow + 4 - (self.y_count() % 4) as u8) % 4;
        match leftover {
            0 => {}
            1 => write!(f, "i")?,
            2 => write!(f, "-")?,
            3 => write!(f, "-i")?,
            _ => unreachable!(),
        }
        for q in 0..self.num_qubits() {
            write!(f, "{}", self.letter(q))?;
        }
        Ok(())
    }
}

impl fmt::Debug for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_roundtrip() {
        for s in ["XIYZ", "-XZ", "iYY", "-iZXI", "III"] {
            let p = PauliString::from_letters(s).unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn single_qubit_products() {
        let n = 1;
        let x = PauliString::single(n, 'X', 0);
        let y = PauliString::single(n, 'Y', 0);
        let z = PauliString::single(n, 'Z', 0);
        // XY = iZ, YZ = iX, ZX = iY, YX = -iZ, XX = I
        assert_eq!(x.mul(&y).to_string(), "iZ");
        assert_eq!(y.mul(&z).to_string(), "iX");
        assert_eq!(z.mul(&x).to_string(), "iY");
        assert_eq!(y.mul(&x).to_string(), "-iZ");
        assert_eq!(x.mul(&x).to_string(), "I");
        assert_eq!(y.mul(&y).to_string(), "I");
    }

    #[test]
    fn commutation_rules() {
        let x = PauliString::from_letters("XI").unwrap();
        let z = PauliString::from_letters("ZI").unwrap();
        let zz = PauliString::from_letters("ZZ").unwrap();
        let xx = PauliString::from_letters("XX").unwrap();
        assert!(x.anticommutes_with(&z));
        assert!(xx.commutes_with(&zz));
        assert!(x.commutes_with(&PauliString::from_letters("IX").unwrap()));
    }

    #[test]
    fn adjoint_of_hermitian_is_self() {
        for s in ["XYZ", "-YY", "ZIZ"] {
            let p = PauliString::from_letters(s).unwrap();
            assert_eq!(p.adjoint(), p, "{s}");
        }
        // iX is not Hermitian: (iX)† = -iX
        let p = PauliString::from_letters("iX").unwrap();
        assert_eq!(p.adjoint().to_string(), "-iX");
    }

    #[test]
    fn hermitian_sign_detection() {
        assert_eq!(
            PauliString::from_letters("XY").unwrap().hermitian_sign(),
            Some(false)
        );
        assert_eq!(
            PauliString::from_letters("-XY").unwrap().hermitian_sign(),
            Some(true)
        );
        assert_eq!(
            PauliString::from_letters("iXY").unwrap().hermitian_sign(),
            None
        );
    }

    #[test]
    fn symplectic_roundtrip() {
        let p = PauliString::from_letters("XYZI").unwrap();
        let row = p.symplectic_row();
        let q = PauliString::from_symplectic_row(&row);
        assert_eq!(p, q);
        assert_eq!(row.len(), 8);
    }

    #[test]
    fn weight_counts_nonidentity() {
        let p = PauliString::from_letters("XIYZ").unwrap();
        assert_eq!(p.weight(), 3);
        assert_eq!(p.y_count(), 1);
    }

    #[test]
    fn product_phase_is_associative() {
        let ps: Vec<PauliString> = ["XYZI", "IZZY", "YYXX", "ZIXZ"]
            .iter()
            .map(|s| PauliString::from_letters(s).unwrap())
            .collect();
        for a in &ps {
            for b in &ps {
                for c in &ps {
                    assert_eq!(a.mul(b).mul(c), a.mul(&b.mul(c)));
                }
            }
        }
    }
}
