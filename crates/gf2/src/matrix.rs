//! Dense GF(2) matrices: products, rank, solving and nullspaces, the last
//! three on the incremental [`RowBasis`] elimination.

use crate::{BitVec, RowBasis};
use std::fmt;

/// A dense matrix over GF(2), stored as a list of bit-packed rows.
///
/// Used for parity-check matrices, symplectic check matrices and the
/// destabilizer systems of codeword preparation. (The generator
/// decomposition of case 2 of §5.1 reduces against the [`RowBasis`] each
/// stabilizer group keeps.)
///
/// # Examples
///
/// ```
/// use veriqec_gf2::BitMatrix;
/// // The parity-check matrix of the [7,4,3] Hamming code.
/// let h = BitMatrix::parse(&[
///     "1010101",
///     "0110011",
///     "0001111",
/// ]);
/// assert_eq!(h.rank(), 3);
/// assert_eq!(h.nullspace().len(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    rows: Vec<BitVec>,
    cols: usize,
}

impl BitMatrix {
    /// Creates an all-zero matrix of shape `rows x cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        BitMatrix {
            rows: vec![BitVec::zeros(cols); rows],
            cols,
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = BitMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: Vec<BitVec>) -> Self {
        let cols = rows.first().map_or(0, BitVec::len);
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "rows must have equal length"
        );
        BitMatrix { rows, cols }
    }

    /// Parses rows of `'0'`/`'1'` strings (whitespace ignored).
    pub fn parse(rows: &[&str]) -> Self {
        BitMatrix::from_rows(rows.iter().map(|s| BitVec::parse(s)).collect())
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Reads entry `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.rows[r].get(c)
    }

    /// Writes entry `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: bool) {
        self.rows[r].set(c, v);
    }

    /// Borrows row `r`.
    pub fn row(&self, r: usize) -> &BitVec {
        &self.rows[r]
    }

    /// Iterates over the rows.
    pub fn iter(&self) -> std::slice::Iter<'_, BitVec> {
        self.rows.iter()
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from `num_cols` (unless the matrix is empty).
    pub fn push_row(&mut self, row: BitVec) {
        if self.rows.is_empty() && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.rows.push(row);
    }

    /// XORs row `src` into row `dst`.
    pub fn xor_row_into(&mut self, src: usize, dst: usize) {
        assert_ne!(src, dst, "cannot xor a row into itself");
        let (a, b) = if src < dst {
            let (lo, hi) = self.rows.split_at_mut(dst);
            (&lo[src], &mut hi[0])
        } else {
            let (lo, hi) = self.rows.split_at_mut(src);
            (&hi[0], &mut lo[dst])
        };
        b.xor_assign(a);
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> BitMatrix {
        let mut t = BitMatrix::zeros(self.cols, self.rows.len());
        for (r, row) in self.rows.iter().enumerate() {
            for c in row.iter_ones() {
                t.set(c, r, true);
            }
        }
        t
    }

    /// Matrix-vector product over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != num_cols`.
    pub fn mul_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        BitVec::from_bools(self.rows.iter().map(|r| r.dot(v)))
    }

    /// Matrix-matrix product over GF(2).
    pub fn mul(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!(self.cols, other.rows.len(), "dimension mismatch in mul");
        let ot = other.transpose();
        let mut out = BitMatrix::zeros(self.rows.len(), other.cols);
        for (i, row) in self.rows.iter().enumerate() {
            for (j, col) in ot.rows.iter().enumerate() {
                if row.dot(col) {
                    out.set(i, j, true);
                }
            }
        }
        out
    }

    /// Rank of the matrix: the rows an incremental [`RowBasis`] keeps.
    pub fn rank(&self) -> usize {
        let mut basis = RowBasis::new(self.cols, self.cols);
        self.rows
            .iter()
            .filter(|row| basis.insert((*row).clone()).is_ok())
            .count()
    }

    /// Partial Gaussian elimination restricted to the columns set in `mask`:
    /// a single forward pass over the rows where each row is reduced against
    /// the pivots found so far (word-level first-set-bit scans and row XORs)
    /// until it either runs out of masked bits — a *residual* row — or
    /// claims an unpivoted masked column and becomes that column's frozen
    /// pivot. Pivot rows are never modified after they are claimed.
    ///
    /// Returns `(column, pivot_row)` pairs in discovery (row) order. This is
    /// the elimination shape of the branch-resolution step in
    /// `veriqec_vcgen` (`ReducedVc::resolve_branches`), where each pivot row
    /// becomes a pinning constraint and the residual rows the genuine proof
    /// obligations. After the call, residual rows contain no masked column
    /// that found a pivot.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != num_cols`.
    pub fn pivot_reduce_masked(&mut self, mask: &BitVec) -> Vec<(usize, usize)> {
        assert_eq!(mask.len(), self.cols, "mask width mismatch");
        let mut pivot_of: Vec<Option<usize>> = vec![None; self.cols];
        let mut pivots = Vec::new();
        for r in 0..self.rows.len() {
            // Each XOR clears the row's lowest masked bit and can only
            // introduce masked bits above it (the pivot's own lowest masked
            // bit is the one being cleared), so this loop terminates.
            while let Some(c) = self.rows[r].first_one_masked(mask) {
                match pivot_of[c] {
                    Some(p) => self.xor_row_into(p, r),
                    None => {
                        pivot_of[c] = Some(r);
                        pivots.push((c, r));
                        break;
                    }
                }
            }
        }
        pivots
    }

    /// The columns, inserted left to right into one basis, each tagged with
    /// its unit vector: `[column j | e_j]`. Column `j` is kept exactly when
    /// it is a pivot column of the reduced row echelon form, and every kept
    /// row is `[self * t | t]` for a `t` supported on kept columns. Also
    /// returns the tag of each dependent column's reduction, in column
    /// order: a null vector supported on that column and the pivot columns
    /// before it.
    fn column_basis(&self) -> (RowBasis, Vec<BitVec>) {
        let (m, n) = (self.rows.len(), self.cols);
        let mut basis = RowBasis::new(m + n, m);
        let mut null = Vec::new();
        for (j, column) in self.transpose().rows.iter().enumerate() {
            let mut tagged = column.concat(&BitVec::zeros(n));
            tagged.set(m + j, true);
            if let Err(reduced) = basis.insert(tagged) {
                null.push(reduced.slice(m, n));
            }
        }
        (basis, null)
    }

    /// Solves `self * x = b` for every right-hand side `b` against one
    /// elimination of the columns. Each entry is `None` when its system is
    /// inconsistent, and otherwise its one solution supported on the pivot
    /// columns.
    ///
    /// # Panics
    ///
    /// Panics if some `b.len() != num_rows`.
    pub fn solve(&self, rhs: &[BitVec]) -> Vec<Option<BitVec>> {
        let (m, n) = (self.rows.len(), self.cols);
        let (basis, _) = self.column_basis();
        rhs.iter()
            .map(|b| {
                assert_eq!(b.len(), m, "dimension mismatch in solve");
                let mut v = b.concat(&BitVec::zeros(n));
                basis.reduce(&mut v);
                // Consistent iff `b` reduced to zero: then the tag `x`
                // satisfies `self * x = b`.
                match v.iter_ones().next() {
                    Some(c) if c < m => None,
                    _ => Some(v.slice(m, n)),
                }
            })
            .collect()
    }

    /// A basis of the (right) nullspace: all `v` with `self * v = 0`, one
    /// vector per non-pivot column, in column order.
    pub fn nullspace(&self) -> Vec<BitVec> {
        self.column_basis().1
    }

    /// Horizontally concatenates `self | other`.
    pub fn hstack(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!(self.rows.len(), other.rows.len(), "row count mismatch");
        BitMatrix::from_rows(
            self.rows
                .iter()
                .zip(&other.rows)
                .map(|(a, b)| a.concat(b))
                .collect(),
        )
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix {}x{} [", self.rows.len(), self.cols)?;
        for r in &self.rows {
            writeln!(f, "  {r}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rank_of_dependent_rows() {
        let m = BitMatrix::parse(&["110", "011", "101"]); // row3 = row1 + row2
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn solve_consistent_system() {
        let m = BitMatrix::parse(&["110", "011"]);
        let b = BitVec::parse("11");
        let x = m
            .solve(std::slice::from_ref(&b))
            .remove(0)
            .expect("consistent");
        assert_eq!(m.mul_vec(&x), b);
    }

    #[test]
    fn solve_inconsistent_system() {
        let m = BitMatrix::parse(&["110", "110"]);
        let b = BitVec::parse("10");
        assert_eq!(m.solve(&[b]), [None]);
    }

    #[test]
    fn nullspace_vectors_annihilate() {
        let m = BitMatrix::parse(&["1010101", "0110011", "0001111"]);
        let ns = m.nullspace();
        assert_eq!(ns.len(), 4);
        for v in &ns {
            assert!(m.mul_vec(v).is_zero());
        }
        // Basis is independent.
        assert_eq!(BitMatrix::from_rows(ns).rank(), 4);
    }

    #[test]
    fn transpose_involution() {
        let m = BitMatrix::parse(&["101", "010"]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn mul_against_identity() {
        let m = BitMatrix::parse(&["101", "110"]);
        assert_eq!(m.mul(&BitMatrix::identity(3)), m);
    }

    #[test]
    fn pivot_reduce_masked_pins_and_clears() {
        // Rows: s+a, s+b, a+b over columns [s, a, b]; only column s masked.
        let mut m = BitMatrix::parse(&["110", "101", "011"]);
        let pivots = m.pivot_reduce_masked(&BitVec::parse("100"));
        assert_eq!(pivots, vec![(0, 0)]);
        // Pivot row untouched; row 1 had col 0 cleared (now a+b); row 2 untouched.
        assert_eq!(m.row(0).to_string(), "110");
        assert_eq!(m.row(1).to_string(), "011");
        assert_eq!(m.row(2).to_string(), "011");
    }

    #[test]
    fn pivot_reduce_masked_freezes_pivot_rows() {
        // Eliminating col 1 after col 0 must not fold back into row 0's pin.
        let mut m = BitMatrix::parse(&["110", "011"]);
        let pivots = m.pivot_reduce_masked(&BitVec::parse("110"));
        assert_eq!(pivots, vec![(0, 0), (1, 1)]);
        assert_eq!(m.row(0).to_string(), "110");
        assert_eq!(m.row(1).to_string(), "011");
    }

    #[test]
    fn pivot_reduce_masked_chains_reductions() {
        // Row 2 = row0 ^ row1 over the masked columns: it must reduce to its
        // unmasked residue through two chained XORs.
        let mut m = BitMatrix::parse(&["1001", "0101", "1100"]);
        let pivots = m.pivot_reduce_masked(&BitVec::parse("1110"));
        assert_eq!(pivots, vec![(0, 0), (1, 1)]);
        // row2: ^row0 -> 0101, ^row1 -> 0000... then col-3 residue: 1001^0101^1100 = 0000.
        assert!(m.row(2).is_zero());
        // Residual rows carry no pivoted masked column.
        for &(c, _) in &pivots {
            assert!(!m.row(2).get(c));
        }
    }

    /// Textbook Gauss–Jordan elimination to reduced row echelon form, kept
    /// verbatim as the differential oracle of the incremental elimination.
    fn rref_reference(m: &mut BitMatrix) -> Vec<usize> {
        let mut pivots = Vec::new();
        let mut next_row = 0;
        for col in 0..m.cols {
            let Some(pivot_row) = (next_row..m.rows.len()).find(|&r| m.rows[r].get(col)) else {
                continue;
            };
            m.rows.swap(next_row, pivot_row);
            for r in 0..m.rows.len() {
                if r != next_row && m.rows[r].get(col) {
                    m.xor_row_into(next_row, r);
                }
            }
            pivots.push(col);
            next_row += 1;
            if next_row == m.rows.len() {
                break;
            }
        }
        pivots
    }

    /// The solution of `m * x = b` the reference RREF of `[m | b]` reads
    /// off: `None` when a pivot lands in the augmented column, else `x`
    /// supported on the pivot columns.
    fn solve_reference(m: &BitMatrix, b: &BitVec) -> Option<BitVec> {
        let mut aug = m.hstack(&BitMatrix::from_rows(
            b.to_bools()
                .into_iter()
                .map(|bit| BitVec::from_bools([bit]))
                .collect(),
        ));
        let pivots = rref_reference(&mut aug);
        if pivots.last() == Some(&m.cols) {
            return None;
        }
        let mut x = BitVec::zeros(m.cols);
        for (i, &p) in pivots.iter().enumerate() {
            x.set(p, aug.get(i, m.cols));
        }
        Some(x)
    }

    /// The reference nullspace: one vector per free column of the RREF.
    fn nullspace_reference(m: &BitMatrix) -> Vec<BitVec> {
        let mut r = m.clone();
        let pivots = rref_reference(&mut r);
        (0..m.cols)
            .filter(|c| !pivots.contains(c))
            .map(|free| {
                let mut v = BitVec::zeros(m.cols);
                v.set(free, true);
                for (i, &p) in pivots.iter().enumerate() {
                    v.set(p, r.get(i, free));
                }
                v
            })
            .collect()
    }

    /// Matrices of 1–13 rows and 129–200 columns (three or four storage
    /// words), where a flagged row is the sum of the two rows above it, so
    /// that rank deficits and inconsistent systems occur.
    fn arb_wide_matrix() -> impl Strategy<Value = BitMatrix> {
        (1usize..14, 129usize..201).prop_flat_map(|(rows, cols)| {
            let row = proptest::collection::vec(any::<bool>(), cols).prop_map(BitVec::from_bools);
            proptest::collection::vec((any::<bool>(), row), rows).prop_map(|flagged| {
                let mut rows: Vec<BitVec> = Vec::new();
                for (dependent, row) in flagged {
                    let row = match rows.len() {
                        n if dependent && n >= 2 => rows[n - 1].xored(&rows[n - 2]),
                        _ => row,
                    };
                    rows.push(row);
                }
                BitMatrix::from_rows(rows)
            })
        })
    }

    proptest! {
        #[test]
        fn elimination_matches_reference_gauss_jordan(
            m in arb_wide_matrix(),
            seed in proptest::collection::vec(any::<bool>(), 200 + 13),
        ) {
            let mut r = m.clone();
            prop_assert_eq!(m.rank(), rref_reference(&mut r).len());
            prop_assert_eq!(m.nullspace(), nullspace_reference(&m));
            // One right-hand side in the column space and one drawn at
            // random, which a rank deficit can make inconsistent.
            let x = BitVec::from_bools(seed[..m.num_cols()].iter().copied());
            let b = BitVec::from_bools(seed[200..200 + m.num_rows()].iter().copied());
            let rhs = [m.mul_vec(&x), b];
            let expected: Vec<_> = rhs.iter().map(|b| solve_reference(&m, b)).collect();
            prop_assert!(expected[0].is_some());
            prop_assert_eq!(m.solve(&rhs), expected);
        }

        #[test]
        fn row_basis_tags_name_rows_with_the_same_sum(
            m in arb_wide_matrix(),
            pick in proptest::collection::vec(any::<bool>(), 13),
        ) {
            let (rows, cols) = (m.num_rows(), m.num_cols());
            let sum_of = |tags: &BitVec| {
                let mut sum = BitVec::zeros(cols);
                for i in tags.iter_ones() {
                    sum.xor_assign(m.row(i));
                }
                sum
            };
            // Every row tagged with its unit vector; a dependent row's
            // reduction names rows (itself among them) that sum to zero.
            let mut basis = RowBasis::new(cols + rows, cols);
            for (i, row) in m.iter().enumerate() {
                let mut tagged = row.concat(&BitVec::zeros(rows));
                tagged.set(cols + i, true);
                if let Err(reduced) = basis.insert(tagged) {
                    prop_assert!(reduced.slice(0, cols).is_zero());
                    let tags = reduced.slice(cols, rows);
                    prop_assert!(tags.get(i));
                    prop_assert!(sum_of(&tags).is_zero());
                }
            }
            let mut r = m.clone();
            prop_assert_eq!(basis.rank(), rref_reference(&mut r).len());
            // A combination of rows reduces to zero data, and its tags name
            // rows with the same sum.
            let chosen = BitVec::from_bools(pick[..rows].iter().copied());
            let combination = sum_of(&chosen);
            let mut v = combination.concat(&BitVec::zeros(rows));
            basis.reduce(&mut v);
            prop_assert!(v.slice(0, cols).is_zero());
            prop_assert_eq!(sum_of(&v.slice(cols, rows)), combination);
        }
    }
}
