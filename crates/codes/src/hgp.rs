//! Hypergraph-product codes (Tillich–Zémor) and the toric code as a special
//! case. These reproduce the "Hypergraph Product" row of Table 3 and stand in
//! for the quantum Tanner codes (see `DESIGN.md` on substitutions).

use crate::{css_code, StabilizerCode};
use veriqec_gf2::{BitMatrix, BitVec, RowBasis};

/// Keeps a maximal independent subset of the rows: each row independent of
/// the rows kept before it.
fn independent_rows(m: &BitMatrix) -> BitMatrix {
    let mut basis = RowBasis::new(m.num_cols(), m.num_cols());
    let mut out = BitMatrix::zeros(0, m.num_cols());
    for row in m.iter() {
        if basis.insert(row.clone()).is_ok() {
            out.push_row(row.clone());
        }
    }
    out
}

/// Kronecker product of GF(2) matrices.
fn kron(a: &BitMatrix, b: &BitMatrix) -> BitMatrix {
    let mut out = BitMatrix::zeros(a.num_rows() * b.num_rows(), a.num_cols() * b.num_cols());
    for i in 0..a.num_rows() {
        for j in 0..a.num_cols() {
            if a.get(i, j) {
                for p in 0..b.num_rows() {
                    for q in 0..b.num_cols() {
                        if b.get(p, q) {
                            out.set(i * b.num_rows() + p, j * b.num_cols() + q, true);
                        }
                    }
                }
            }
        }
    }
    out
}

/// The hypergraph product `HGP(H1, H2)` of two classical parity-check
/// matrices: a CSS code with
/// `Hx = [H1 ⊗ I | I ⊗ H2ᵀ]` and `Hz = [I ⊗ H2 | H1ᵀ ⊗ I]` on
/// `n1·n2 + r1·r2` qubits. Dependent checks are pruned to a generating set.
///
/// # Panics
///
/// Panics if the construction produces an invalid CSS pair (cannot happen for
/// well-formed inputs; the orthogonality is an algebraic identity).
pub fn hypergraph_product(
    name: impl Into<String>,
    h1: &BitMatrix,
    h2: &BitMatrix,
    claimed_distance: Option<usize>,
) -> StabilizerCode {
    let (r1, n1) = (h1.num_rows(), h1.num_cols());
    let (r2, n2) = (h2.num_rows(), h2.num_cols());
    let hx =
        kron(h1, &BitMatrix::identity(n2)).hstack(&kron(&BitMatrix::identity(r1), &h2.transpose()));
    let hz =
        kron(&BitMatrix::identity(n1), h2).hstack(&kron(&h1.transpose(), &BitMatrix::identity(r2)));
    let hx = independent_rows(&hx);
    let hz = independent_rows(&hz);
    css_code(name, &hx, &hz, claimed_distance).expect("hypergraph product is CSS by construction")
}

/// The circulant parity-check matrix of the cyclic repetition code of length
/// `d` (rows `e_i + e_{i+1 mod d}`).
pub fn repetition_circulant(d: usize) -> BitMatrix {
    let mut rows = Vec::with_capacity(d);
    for i in 0..d {
        rows.push(BitVec::from_ones(d, &[i, (i + 1) % d]));
    }
    BitMatrix::from_rows(rows)
}

/// The toric code `[[2d², 2, d]]` as the hypergraph product of two cyclic
/// repetition codes.
///
/// # Panics
///
/// Panics if `d < 2`.
pub fn toric(d: usize) -> StabilizerCode {
    assert!(d >= 2, "toric code needs d >= 2");
    let h = repetition_circulant(d);
    hypergraph_product(format!("toric d={d}"), &h, &h, Some(d))
}

/// The parity-check matrix of the `[7,4,3]` Hamming code.
pub fn hamming_7_4() -> BitMatrix {
    BitMatrix::parse(&["1010101", "0110011", "0001111"])
}

/// The hypergraph product of the `[7,4,3]` Hamming code with itself:
/// `[[58, 16, 3]]` — the scaled instance of Table 3's hypergraph-product row.
pub fn hgp_hamming() -> StabilizerCode {
    hypergraph_product(
        "HGP(Hamming 7_4) [[58,16,3]]",
        &hamming_7_4(),
        &hamming_7_4(),
        Some(3),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toric_parameters() {
        for d in [2usize, 3] {
            let c = toric(d);
            c.validate().unwrap();
            assert_eq!((c.n(), c.k()), (2 * d * d, 2), "d={d}");
        }
        assert_eq!(toric(3).brute_force_distance(3), Some(3));
    }

    #[test]
    fn hgp_hamming_parameters() {
        let c = hgp_hamming();
        c.validate().unwrap();
        assert_eq!((c.n(), c.k()), (58, 16));
        // Weight-1 and weight-2 errors are all detected or stabilizers.
        assert_eq!(c.brute_force_distance(2), None);
    }

    #[test]
    fn toric_d4_distance_lower_bound() {
        let c = toric(4);
        c.validate().unwrap();
        assert_eq!((c.n(), c.k()), (32, 2));
        assert_eq!(c.brute_force_distance(3), None); // d >= 4
    }
}
