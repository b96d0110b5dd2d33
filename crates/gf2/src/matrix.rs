//! Dense GF(2) matrices with row-reduction, solving and nullspace computation.

use crate::words::BITS;
use crate::BitVec;
use std::fmt;

/// Pivot-block width used by [`BitMatrix::rref`]. Back-substitution applies
/// this many pivot rows to each target row per sweep, so a block of target
/// rows and the pivot block stay resident in cache together.
const RREF_BLOCK: usize = 32;

/// A dense matrix over GF(2), stored as a list of bit-packed rows.
///
/// Used for parity-check matrices, symplectic check matrices and the
/// generator-decomposition step of the verification-condition reduction
/// (case 2 of §5.1 in the paper).
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

    /// XORs row `src` into row `dst`, starting at storage word `from_word`.
    /// Only valid as a full row operation when row `src` is zero below
    /// `from_word * 64` (an echelon-form pivot row), which is how the
    /// elimination passes use it.
    fn xor_row_into_from_word(&mut self, src: usize, dst: usize, from_word: usize) {
        debug_assert_ne!(src, dst, "cannot xor a row into itself");
        let (a, b) = if src < dst {
            let (lo, hi) = self.rows.split_at_mut(dst);
            (&lo[src], &mut hi[0])
        } else {
            let (lo, hi) = self.rows.split_at_mut(src);
            (&hi[0], &mut lo[dst])
        };
        b.xor_assign_from_word(a, from_word);
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

    /// In-place reduction to *reduced row echelon form*.
    ///
    /// Returns the pivot columns, one per nonzero row of the result; rows are
    /// permuted so that row `i` has its pivot at `pivots[i]` and zero rows sink
    /// to the bottom.
    ///
    /// Delegates to [`BitMatrix::rref_blocked`] with a cache-sized pivot
    /// block; the result (row permutation included) is identical to classic
    /// one-pivot-at-a-time Gauss–Jordan.
    pub fn rref(&mut self) -> Vec<usize> {
        self.rref_blocked(RREF_BLOCK)
    }

    /// Cache-blocked Gauss–Jordan elimination.
    ///
    /// Two passes instead of the classic eliminate-everything-at-pivot-time
    /// loop:
    ///
    /// 1. **Forward, windowed.** Eliminate only *below* each pivot, and start
    ///    every row XOR at the pivot column's storage word — the pivot row is
    ///    in echelon form, so its words below the pivot column are zero and
    ///    the XOR skips them. This halves the memory traffic of the forward
    ///    pass on average.
    /// 2. **Back-substitution, blocked right-to-left.** Take the pivots in
    ///    blocks of `block` (rightmost block first), finish the block's own
    ///    rows against each other (descending, so each used row is already
    ///    fully reduced), then sweep each earlier row once against the whole
    ///    block. The block's pivot rows stay hot in cache across the sweep
    ///    instead of being streamed in again for every pivot.
    ///
    /// Pivot selection — and therefore the row permutation and the final
    /// RREF — matches the unblocked elimination exactly: candidate rows have
    /// been reduced against all earlier pivots in both variants by the time
    /// a column is searched, and elimination above the pivot never affects
    /// the search. `block` must be at least 1; `rref_blocked(1)` is plain
    /// per-pivot back-substitution and is used as the differential oracle in
    /// the tests.
    pub fn rref_blocked(&mut self, block: usize) -> Vec<usize> {
        assert!(block >= 1, "block must be at least 1");
        let mut pivots = Vec::new();
        let mut next_row = 0;
        for col in 0..self.cols {
            let Some(pivot_row) = (next_row..self.rows.len()).find(|&r| self.rows[r].get(col))
            else {
                continue;
            };
            self.rows.swap(next_row, pivot_row);
            let word = col / BITS;
            for r in next_row + 1..self.rows.len() {
                if self.rows[r].get(col) {
                    self.xor_row_into_from_word(next_row, r, word);
                }
            }
            pivots.push(col);
            next_row += 1;
            if next_row == self.rows.len() {
                break;
            }
        }
        let mut hi = pivots.len();
        while hi > 0 {
            let lo = hi.saturating_sub(block);
            for i in (lo..hi).rev() {
                for (j, &pivot) in pivots.iter().enumerate().take(hi).skip(i + 1) {
                    if self.rows[i].get(pivot) {
                        self.xor_row_into_from_word(j, i, pivot / BITS);
                    }
                }
            }
            for r in 0..lo {
                for (j, &pivot) in pivots.iter().enumerate().take(hi).skip(lo) {
                    if self.rows[r].get(pivot) {
                        self.xor_row_into_from_word(j, r, pivot / BITS);
                    }
                }
            }
            hi = lo;
        }
        pivots
    }

    /// Rank of the matrix.
    pub fn rank(&self) -> usize {
        self.clone().rref().len()
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

    /// Solves `self * x = b`, returning one solution if the system is consistent.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != num_rows`.
    pub fn solve(&self, b: &BitVec) -> Option<BitVec> {
        assert_eq!(b.len(), self.rows.len(), "dimension mismatch in solve");
        // Row-reduce the augmented matrix [A | b].
        let mut aug = BitMatrix::from_rows(
            self.rows
                .iter()
                .zip(b.to_bools())
                .map(|(row, bi)| row.concat(&BitVec::from_bools([bi])))
                .collect(),
        );
        let pivots = aug.rref();
        // Inconsistent iff a pivot lands in the augmented column.
        if pivots.last() == Some(&self.cols) {
            return None;
        }
        let mut x = BitVec::zeros(self.cols);
        for (i, &p) in pivots.iter().enumerate() {
            if aug.rows[i].get(self.cols) {
                x.set(p, true);
            }
        }
        Some(x)
    }

    /// A basis of the (right) nullspace: all `v` with `self * v = 0`.
    pub fn nullspace(&self) -> Vec<BitVec> {
        let mut m = self.clone();
        let pivots = m.rref();
        let pivot_set: std::collections::HashSet<usize> = pivots.iter().copied().collect();
        let mut basis = Vec::new();
        for free in (0..self.cols).filter(|c| !pivot_set.contains(c)) {
            let mut v = BitVec::zeros(self.cols);
            v.set(free, true);
            for (i, &p) in pivots.iter().enumerate() {
                if m.rows[i].get(free) {
                    v.set(p, true);
                }
            }
            basis.push(v);
        }
        basis
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

    /// True if `v` lies in the row space.
    pub fn row_space_contains(&self, v: &BitVec) -> bool {
        self.transpose().solve(v).is_some()
    }

    /// Expresses `v` as a combination of the rows: returns `c` with
    /// `c * self = v` (as a row-selector vector), if one exists.
    pub fn express_in_rows(&self, v: &BitVec) -> Option<BitVec> {
        self.transpose().solve(v)
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

    #[test]
    fn rref_identity_is_fixed_point() {
        let mut m = BitMatrix::identity(4);
        let pivots = m.rref();
        assert_eq!(pivots, vec![0, 1, 2, 3]);
        assert_eq!(m, BitMatrix::identity(4));
    }

    #[test]
    fn rank_of_dependent_rows() {
        let m = BitMatrix::parse(&["110", "011", "101"]); // row3 = row1 + row2
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn solve_consistent_system() {
        let m = BitMatrix::parse(&["110", "011"]);
        let b = BitVec::parse("11");
        let x = m.solve(&b).expect("consistent");
        assert_eq!(m.mul_vec(&x), b);
    }

    #[test]
    fn solve_inconsistent_system() {
        let m = BitMatrix::parse(&["110", "110"]);
        let b = BitVec::parse("10");
        assert!(m.solve(&b).is_none());
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

    /// The pre-blocking Gauss–Jordan loop, kept verbatim as the oracle for
    /// the blocked elimination.
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

    #[test]
    fn blocked_rref_matches_reference_on_fixed_cases() {
        let cases: &[&[&str]] = &[
            &["1010101", "0110011", "0001111"],
            &["110", "011", "101"],
            &["0000", "0000"],
            &["1"],
            &["01", "10", "11"],
        ];
        for rows in cases {
            for block in [1, 2, 3, 64] {
                let mut blocked = BitMatrix::parse(rows);
                let mut reference = BitMatrix::parse(rows);
                let bp = blocked.rref_blocked(block);
                let rp = rref_reference(&mut reference);
                assert_eq!(bp, rp, "pivots, block {block}");
                assert_eq!(blocked, reference, "rref, block {block}");
            }
        }
    }

    #[test]
    fn express_in_rows_finds_combination() {
        let m = BitMatrix::parse(&["1100", "0110", "0011"]);
        let v = BitVec::parse("1010"); // rows 0 + 1
        let c = m.express_in_rows(&v).expect("in row space");
        let mut acc = BitVec::zeros(4);
        for i in c.iter_ones() {
            acc.xor_assign(m.row(i));
        }
        assert_eq!(acc, v);
        assert!(m.express_in_rows(&BitVec::parse("1000")).is_none());
    }
}
