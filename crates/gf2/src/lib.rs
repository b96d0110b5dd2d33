//! Bit-packed linear algebra over GF(2).
//!
//! This crate is the lowest-level substrate of the Veri-QEC reproduction:
//! everything from the symplectic representation of Pauli operators to
//! parity-check matrices, decoder conditions and the generator-decomposition
//! step of the verification-condition reduction is built on [`BitVec`] and
//! [`BitMatrix`]. Elimination is written once, as the incremental echelon
//! basis [`RowBasis`]: matrix rank, solving and nullspaces, stabilizer
//! decomposition and every independence test run on it.
//!
//! # Examples
//!
//! ```
//! use veriqec_gf2::{BitMatrix, BitVec};
//!
//! // Syndrome computation for the 3-bit repetition code.
//! let h = BitMatrix::parse(&["110", "011"]);
//! let error = BitVec::parse("010");
//! assert_eq!(h.mul_vec(&error).to_string(), "11");
//! ```

#![forbid(unsafe_code)]

mod basis;
mod bitvec;
mod matrix;
pub mod words;

pub use basis::RowBasis;
pub use bitvec::{BitVec, IterOnes};
pub use matrix::BitMatrix;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_bitvec(len: usize) -> impl Strategy<Value = BitVec> {
        proptest::collection::vec(any::<bool>(), len).prop_map(BitVec::from_bools)
    }

    fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = BitMatrix> {
        proptest::collection::vec(arb_bitvec(cols), rows).prop_map(BitMatrix::from_rows)
    }

    proptest! {
        #[test]
        fn xor_is_involutive(a in arb_bitvec(40), b in arb_bitvec(40)) {
            prop_assert_eq!(a.xored(&b).xored(&b), a);
        }

        #[test]
        fn dot_is_bilinear(a in arb_bitvec(30), b in arb_bitvec(30), c in arb_bitvec(30)) {
            // <a + b, c> = <a,c> + <b,c>
            prop_assert_eq!(a.xored(&b).dot(&c), a.dot(&c) ^ b.dot(&c));
        }

        #[test]
        fn weight_matches_iter_ones(a in arb_bitvec(100)) {
            prop_assert_eq!(a.weight(), a.iter_ones().count());
        }

        #[test]
        fn rank_bounded(m in arb_matrix(6, 9)) {
            let rk = m.rank();
            prop_assert!(rk <= 6);
            prop_assert_eq!(rk, m.transpose().rank());
        }

        #[test]
        fn solve_returns_actual_solutions(m in arb_matrix(5, 7), x in arb_bitvec(7)) {
            // Construct a consistent system and verify the returned solution.
            let b = m.mul_vec(&x);
            let sol = m.solve(std::slice::from_ref(&b)).remove(0).expect("constructed to be consistent");
            prop_assert_eq!(m.mul_vec(&sol), b);
        }

        #[test]
        fn nullspace_dimension_theorem(m in arb_matrix(6, 10)) {
            prop_assert_eq!(m.rank() + m.nullspace().len(), 10);
            for v in m.nullspace() {
                prop_assert!(m.mul_vec(&v).is_zero());
            }
        }

        #[test]
        fn matrix_mul_associates_with_vec(m in arb_matrix(4, 5), n in arb_matrix(5, 6), v in arb_bitvec(6)) {
            prop_assert_eq!(m.mul(&n).mul_vec(&v), m.mul_vec(&n.mul_vec(&v)));
        }
    }
}
