//! Stabilizer groups: validation, syndrome maps, generator decomposition and
//! logical-operator completion, all on one elimination of the generators
//! that the group keeps.

use crate::{PauliString, SymPauli};
use std::fmt;
use veriqec_gf2::{BitMatrix, BitVec, RowBasis};

/// Error from [`StabilizerGroup::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StabilizerGroupError {
    /// Two generators anticommute.
    NonCommuting {
        /// Indices of the offending generator pair.
        first: usize,
        /// Second index.
        second: usize,
    },
    /// The generators are linearly dependent over the symplectic space.
    Dependent,
    /// Generators act on different qubit counts.
    MixedSizes,
}

impl fmt::Display for StabilizerGroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StabilizerGroupError::NonCommuting { first, second } => {
                write!(f, "generators {first} and {second} anticommute")
            }
            StabilizerGroupError::Dependent => write!(f, "generators are not independent"),
            StabilizerGroupError::MixedSizes => write!(f, "generators have mixed qubit counts"),
        }
    }
}

impl std::error::Error for StabilizerGroupError {}

/// An abelian subgroup of the Pauli group given by independent, commuting
/// generators (with symbolic signs), i.e. a stabilizer group `⟨g₁,…,g_m⟩`.
///
/// # Examples
///
/// ```
/// use veriqec_pauli::{PauliString, StabilizerGroup, SymPauli};
/// // The 3-qubit repetition (bit-flip) code.
/// let gens = vec![
///     SymPauli::plain(PauliString::from_letters("ZZI").unwrap()),
///     SymPauli::plain(PauliString::from_letters("IZZ").unwrap()),
/// ];
/// let g = StabilizerGroup::new(gens).unwrap();
/// assert_eq!(g.num_qubits(), 3);
/// assert_eq!(g.num_logical_qubits(), 1);
/// let x1 = PauliString::from_letters("XII").unwrap();
/// assert_eq!(g.syndrome_of(&x1).to_string(), "10");
/// ```
#[derive(Clone, Debug)]
pub struct StabilizerGroup {
    gens: Vec<SymPauli>,
    n: usize,
    /// The generators' symplectic rows `[x | z]`, each tagged with its unit
    /// vector, eliminated once: a reduction's tags name the generators it
    /// multiplied.
    basis: RowBasis,
}

impl StabilizerGroup {
    /// Validates and creates a stabilizer group.
    ///
    /// # Errors
    ///
    /// Returns [`StabilizerGroupError`] if generators anticommute, are
    /// dependent, or act on different qubit counts.
    pub fn new(gens: Vec<SymPauli>) -> Result<Self, StabilizerGroupError> {
        let n = gens.first().map_or(0, SymPauli::num_qubits);
        if gens.iter().any(|g| g.num_qubits() != n) {
            return Err(StabilizerGroupError::MixedSizes);
        }
        for i in 0..gens.len() {
            for j in (i + 1)..gens.len() {
                if gens[i].pauli().anticommutes_with(gens[j].pauli()) {
                    return Err(StabilizerGroupError::NonCommuting {
                        first: i,
                        second: j,
                    });
                }
            }
        }
        let m = gens.len();
        let mut basis = RowBasis::new(2 * n + m, 2 * n);
        for (i, g) in gens.iter().enumerate() {
            let mut row = g.pauli().symplectic_row().concat(&BitVec::zeros(m));
            row.set(2 * n + i, true);
            if basis.insert(row).is_err() {
                return Err(StabilizerGroupError::Dependent);
            }
        }
        Ok(StabilizerGroup { gens, n, basis })
    }

    /// The generators.
    pub fn generators(&self) -> &[SymPauli] {
        &self.gens
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// `k = n − (number of generators)`.
    pub fn num_logical_qubits(&self) -> usize {
        self.n - self.gens.len()
    }

    /// Syndrome of a Pauli error: bit `i` is set iff the error anticommutes
    /// with generator `i`.
    pub fn syndrome_of(&self, error: &PauliString) -> BitVec {
        BitVec::from_bools(self.gens.iter().map(|g| g.pauli().anticommutes_with(error)))
    }

    /// True when `error` commutes with every generator (undetected).
    pub fn is_undetected(&self, error: &PauliString) -> bool {
        self.syndrome_of(error).is_zero()
    }

    /// Decomposes a target Pauli (up to sign) over the generators: returns
    /// the selection of generator indices and the exact product as a
    /// [`SymPauli`] (whose phase accumulates the generators' symbolic phases
    /// and the numeric sign of the multiplication).
    ///
    /// Returns `None` when the target's letters are not in the group's row
    /// space.
    pub fn decompose(&self, target: &PauliString) -> Option<(Vec<usize>, SymPauli)> {
        let data = 2 * self.n;
        let mut v = target
            .symplectic_row()
            .concat(&BitVec::zeros(self.gens.len()));
        self.basis.reduce(&mut v);
        // In the group iff the letters reduce away; the tags are then the
        // (unique) generator selection.
        if v.iter_ones().next().is_some_and(|c| c < data) {
            return None;
        }
        let indices: Vec<usize> = v.iter_ones().map(|c| c - data).collect();
        let mut acc = SymPauli::plain(PauliString::identity(self.n));
        for &i in &indices {
            acc = acc.mul(&self.gens[i]);
        }
        Some((indices, acc))
    }

    /// Completes the group with `k` pairs of logical operators
    /// `(X̄_i, Z̄_i)`: each commutes with all generators and with every other
    /// logical, while `X̄_i` anticommutes with `Z̄_i`.
    ///
    /// Uses the symplectic Gram–Schmidt procedure over the centralizer.
    ///
    /// # Panics
    ///
    /// Panics if the internal pairing fails, which would contradict the
    /// non-degeneracy of the symplectic form (i.e. indicates a bug).
    pub fn logical_operators(&self) -> Vec<(SymPauli, SymPauli)> {
        let k = self.num_logical_qubits();
        if k == 0 {
            return Vec::new();
        }
        let n = self.n;
        // Centralizer: vectors v with symplectic product 0 against all rows.
        // Symplectic product of u, v = u · Λ(v), Λ swaps the x/z halves.
        let swapped = BitMatrix::from_rows(
            self.gens
                .iter()
                .map(|g| g.pauli().z_bits().concat(g.pauli().x_bits()))
                .collect(),
        );
        let centralizer = swapped.nullspace(); // dim = 2n − (n−k) = n + k

        // Extend the stabilizer rows to a basis of the centralizer.
        let mut basis = self.basis.clone();
        let untagged = BitVec::zeros(self.gens.len());
        let extension: Vec<BitVec> = centralizer
            .into_iter()
            .filter(|v| basis.insert(v.concat(&untagged)).is_ok())
            .collect();
        assert_eq!(
            extension.len(),
            2 * k,
            "centralizer extension has wrong size"
        );

        let anticommutes = |u: &BitVec, v: &BitVec| -> bool {
            let ux = u.slice(0, n);
            let uz = u.slice(n, n);
            let vx = v.slice(0, n);
            let vz = v.slice(n, n);
            ux.dot(&vz) ^ uz.dot(&vx)
        };

        // Symplectic Gram–Schmidt pairing on the extension vectors.
        let mut pool = extension;
        let mut pairs = Vec::with_capacity(k);
        while let Some(u) = pool.first().cloned() {
            pool.remove(0);
            let w_idx = pool
                .iter()
                .position(|w| anticommutes(&u, w))
                .expect("symplectic pairing must succeed on a non-degenerate form");
            let w = pool.remove(w_idx);
            for v in &mut pool {
                let a = anticommutes(v, &w);
                let b = anticommutes(v, &u);
                if a {
                    v.xor_assign(&u);
                }
                if b {
                    v.xor_assign(&w);
                }
            }
            pairs.push((u, w));
        }

        pairs
            .into_iter()
            .map(|(u, w)| {
                let pu = PauliString::from_symplectic_row(&u);
                let pw = PauliString::from_symplectic_row(&w);
                // Convention: the representative with more X-letters is X̄.
                let (px, pz) = if pu.x_bits().weight() >= pw.x_bits().weight() {
                    (pu, pw)
                } else {
                    (pw, pu)
                };
                (SymPauli::plain(px), SymPauli::plain(pz))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steane_generators() -> Vec<SymPauli> {
        // g1..g6 of §2.2 (qubits 1..7 → indices 0..6).
        [
            "XIXIXIX", "IXXIIXX", "IIIXXXX", "ZIZIZIZ", "IZZIIZZ", "IIIZZZZ",
        ]
        .iter()
        .map(|s| SymPauli::plain(PauliString::from_letters(s).unwrap()))
        .collect()
    }

    #[test]
    fn steane_group_is_valid() {
        let g = StabilizerGroup::new(steane_generators()).unwrap();
        assert_eq!(g.num_qubits(), 7);
        assert_eq!(g.num_logical_qubits(), 1);
    }

    #[test]
    fn anticommuting_pair_rejected() {
        let gens = vec![
            SymPauli::plain(PauliString::from_letters("XI").unwrap()),
            SymPauli::plain(PauliString::from_letters("ZI").unwrap()),
        ];
        assert!(matches!(
            StabilizerGroup::new(gens),
            Err(StabilizerGroupError::NonCommuting { .. })
        ));
    }

    #[test]
    fn dependent_generators_rejected() {
        let gens = vec![
            SymPauli::plain(PauliString::from_letters("ZZI").unwrap()),
            SymPauli::plain(PauliString::from_letters("IZZ").unwrap()),
            SymPauli::plain(PauliString::from_letters("ZIZ").unwrap()),
        ];
        assert!(matches!(
            StabilizerGroup::new(gens),
            Err(StabilizerGroupError::Dependent)
        ));
    }

    #[test]
    fn syndrome_of_steane_y_error() {
        let g = StabilizerGroup::new(steane_generators()).unwrap();
        // Y on qubit 2 (index 2) anticommutes with X-checks containing Z-part
        // and Z-checks containing X-part at qubit 2.
        let e = PauliString::single(7, 'Y', 2);
        let s = g.syndrome_of(&e);
        // g1 = XIXIXIX has X at 2: Y anticommutes with X → bit set, etc.
        assert_eq!(s.to_string(), "110110");
    }

    #[test]
    fn decompose_product_of_generators() {
        let g = StabilizerGroup::new(steane_generators()).unwrap();
        let target = g.generators()[0].pauli().mul(g.generators()[2].pauli());
        let (idx, prod) = g.decompose(&target).unwrap();
        assert_eq!(idx, vec![0, 2]);
        assert_eq!(prod.pauli(), &target.unsigned());
        assert!(prod.phase().is_constant());
    }

    #[test]
    fn decompose_rejects_outsiders() {
        let g = StabilizerGroup::new(steane_generators()).unwrap();
        let x1 = PauliString::single(7, 'X', 0);
        assert!(g.decompose(&x1).is_none());
    }

    #[test]
    fn steane_logicals() {
        let g = StabilizerGroup::new(steane_generators()).unwrap();
        let logicals = g.logical_operators();
        assert_eq!(logicals.len(), 1);
        let (lx, lz) = &logicals[0];
        assert!(lx.pauli().anticommutes_with(lz.pauli()));
        for gen in g.generators() {
            assert!(lx.pauli().commutes_with(gen.pauli()));
            assert!(lz.pauli().commutes_with(gen.pauli()));
        }
        // The logicals must be outside the stabilizer group.
        assert!(g.decompose(lx.pauli()).is_none());
        assert!(g.decompose(lz.pauli()).is_none());
    }

    #[test]
    fn five_qubit_code_logicals() {
        // The [[5,1,3]] code: a non-CSS sanity case.
        let gens: Vec<SymPauli> = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
            .iter()
            .map(|s| SymPauli::plain(PauliString::from_letters(s).unwrap()))
            .collect();
        let g = StabilizerGroup::new(gens).unwrap();
        let logicals = g.logical_operators();
        assert_eq!(logicals.len(), 1);
        let (lx, lz) = &logicals[0];
        assert!(lx.pauli().anticommutes_with(lz.pauli()));
        for gen in g.generators() {
            assert!(lx.pauli().commutes_with(gen.pauli()));
            assert!(lz.pauli().commutes_with(gen.pauli()));
        }
    }

    #[test]
    fn multi_logical_code() {
        // [[4,2,2]] code: gens XXXX, ZZZZ.
        let gens: Vec<SymPauli> = ["XXXX", "ZZZZ"]
            .iter()
            .map(|s| SymPauli::plain(PauliString::from_letters(s).unwrap()))
            .collect();
        let g = StabilizerGroup::new(gens).unwrap();
        let logicals = g.logical_operators();
        assert_eq!(logicals.len(), 2);
        for (i, (lx, lz)) in logicals.iter().enumerate() {
            assert!(lx.pauli().anticommutes_with(lz.pauli()), "pair {i}");
            for gen in g.generators() {
                assert!(lx.pauli().commutes_with(gen.pauli()));
                assert!(lz.pauli().commutes_with(gen.pauli()));
            }
        }
        // Cross-pair commutation.
        let (lx0, lz0) = &logicals[0];
        let (lx1, lz1) = &logicals[1];
        assert!(lx0.pauli().commutes_with(lx1.pauli()));
        assert!(lx0.pauli().commutes_with(lz1.pauli()));
        assert!(lz0.pauli().commutes_with(lx1.pauli()));
        assert!(lz0.pauli().commutes_with(lz1.pauli()));
    }
}
