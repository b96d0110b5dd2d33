//! The one GF(2) elimination of the workspace: an echelon basis built one
//! row at a time.

use crate::words::BITS;
use crate::BitVec;

/// An echelon basis of GF(2) rows, built one row at a time.
///
/// Each kept row is reduced against the rows before it and pivots on its
/// lowest set bit among the first `pivot_cols` columns, so it is zero below
/// its pivot. Later columns are *tags*: they never pivot. Tag each inserted
/// row with its unit vector and the tags of a reduction name the inserted
/// rows it summed.
///
/// ```
/// use veriqec_gf2::{BitVec, RowBasis};
/// // Three data columns, then one tag column per row.
/// let mut basis = RowBasis::new(6, 3);
/// assert!(basis.insert(BitVec::parse("110 100")).is_ok());
/// assert!(basis.insert(BitVec::parse("011 010")).is_ok());
/// // 101 = row 0 + row 1.
/// let reduced = basis.insert(BitVec::parse("101 001")).unwrap_err();
/// assert_eq!(reduced.to_string(), "000111");
/// assert_eq!(basis.rank(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct RowBasis {
    pivot_cols: usize,
    /// The kept rows, in insertion order.
    rows: Vec<BitVec>,
    /// `row_of[c]` is the row pivoting on `c`, for the columns in `pivots`.
    row_of: Vec<usize>,
    /// The pivot columns: the mask of the word-level scans.
    pivots: BitVec,
}

impl RowBasis {
    /// An empty basis of `width`-bit rows whose first `pivot_cols` columns
    /// may pivot.
    pub fn new(width: usize, pivot_cols: usize) -> Self {
        RowBasis {
            pivot_cols,
            rows: Vec::new(),
            row_of: vec![0; pivot_cols],
            pivots: BitVec::zeros(width),
        }
    }

    /// Number of kept rows.
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Adds kept rows to `v` until no pivot column is set. Each XOR clears
    /// the lowest pivot left and toggles only columns above it (starting at
    /// its word, as the row is zero below), so this takes at most `rank`
    /// XORs.
    pub fn reduce(&self, v: &mut BitVec) {
        while let Some(c) = v.first_one_masked(&self.pivots) {
            v.xor_assign_from_word(&self.rows[self.row_of[c]], c / BITS);
        }
    }

    /// Keeps `v` if its first `pivot_cols` columns are independent of the
    /// kept rows'; otherwise returns its reduction, zero on those columns.
    pub fn insert(&mut self, mut v: BitVec) -> Result<(), BitVec> {
        self.reduce(&mut v);
        match v.iter_ones().next() {
            Some(pivot) if pivot < self.pivot_cols => {
                self.row_of[pivot] = self.rows.len();
                self.pivots.set(pivot, true);
                self.rows.push(v);
                Ok(())
            }
            _ => Err(v),
        }
    }
}
