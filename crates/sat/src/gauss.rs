//! Gauss–Jordan propagation over the parity rows registered through
//! [`crate::Solver::add_xor`].
//!
//! Each row `Σ vars = rhs` is one the clauses already imply (a Tseitin XOR
//! chain, say), so the propagator only adds inferences: it finds what a
//! *sum* of rows implies, which resolution over the chains rediscovers one
//! step at a time. The rows form one bit-packed matrix, one column per
//! variable that occurs in some row, kept in this reduced form:
//!
//! - every matrix row is a sum of input rows;
//! - each row has at most one pivot column, and a pivot column occurs in
//!   no other row;
//! - after each pass, every row with an unassigned column has an
//!   unassigned pivot.
//!
//! A pass runs after every conflict-free unit-propagation fixpoint. It
//! first re-pivots every row whose pivot is assigned, or that has none, on
//! its lowest unassigned column, and eliminates that column from every
//! other row. The old pivot's row holds no other row's pivot, so no other
//! pivot is disturbed. The pass then reads each row off the assignment: a
//! row with no unassigned column and the wrong parity is violated, and a
//! row whose only unassigned column is its pivot implies the pivot's
//! value. Pivots are unique, so this finds every literal the rows and the
//! assignment imply (an implied `x` has `e_x` in the row space restricted
//! to the unassigned columns, and only the row pivoted on `x` can supply
//! it) and every inconsistency (only rows without a pivot sum to zero
//! there).
//!
//! The matrix is never restored on backtrack: its rows stay sums of input
//! rows and its pivots stay unique, a column that becomes unassigned is
//! simply a non-pivot again, and the next pass repairs any row that needs a
//! pivot. The solver turns each result into an ordinary clause
//! ([`Gauss::explain`]), so learning, clause deletion and clause sharing
//! treat it like any other.

use crate::{LBool, Lit, Var};

/// Bits per matrix word.
const BITS: usize = 64;

/// The parity rows and their matrix.
#[derive(Clone, Debug, Default)]
pub(crate) struct Gauss {
    /// The rows as registered: sorted variables and right-hand side.
    inputs: Vec<(Vec<Var>, bool)>,
    /// Set when rows arrived since the matrix was built.
    stale: bool,
    /// The variable of each column, ascending.
    vars: Vec<Var>,
    /// Words per matrix row.
    width: usize,
    /// The matrix, row-major, `width` words per row.
    words: Vec<u64>,
    /// The right-hand side of each matrix row.
    rhs: Vec<bool>,
    /// The pivot column of each matrix row.
    pivot: Vec<Option<usize>>,
    /// The unassigned columns at the last pass.
    open: Vec<u64>,
    /// The columns assigned true at the last pass.
    ones: Vec<u64>,
    /// The rows whose pivot the last pass implied.
    implied: Vec<usize>,
}

impl Gauss {
    /// Registers the row `Σ vars = rhs`. A variable listed twice cancels;
    /// a row left with no variable is dropped.
    pub fn add(&mut self, vars: &[Var], rhs: bool) {
        let mut sorted = vars.to_vec();
        sorted.sort_unstable();
        let mut row: Vec<Var> = Vec::with_capacity(sorted.len());
        for v in sorted {
            if row.last() == Some(&v) {
                row.pop();
            } else {
                row.push(v);
            }
        }
        if !row.is_empty() {
            self.inputs.push((row, rhs));
            self.stale = true;
        }
    }

    /// Number of rows in the matrix (as of the last [`Gauss::build`]).
    pub fn num_rows(&self) -> usize {
        self.rhs.len()
    }

    /// Builds the matrix from every registered row, unless it is current.
    /// A rebuild starts the pivots over.
    pub fn build(&mut self) {
        if !self.stale {
            return;
        }
        self.stale = false;
        let mut vars: Vec<Var> = self.inputs.iter().flat_map(|(vs, _)| vs.clone()).collect();
        vars.sort_unstable();
        vars.dedup();
        let width = vars.len().div_ceil(BITS);
        self.words = vec![0; self.inputs.len() * width];
        for (r, (vs, _)) in self.inputs.iter().enumerate() {
            for v in vs {
                let c = vars
                    .binary_search(v)
                    .expect("every row variable has a column");
                self.words[r * width + c / BITS] |= 1 << (c % BITS);
            }
        }
        self.rhs = self.inputs.iter().map(|&(_, rhs)| rhs).collect();
        self.pivot = vec![None; self.rhs.len()];
        self.open = vec![0; width];
        self.ones = vec![0; width];
        self.vars = vars;
        self.width = width;
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.width..(r + 1) * self.width]
    }

    /// One pass against the assignment `assigns`. Returns a violated row,
    /// if any; otherwise [`Gauss::implied`] lists the rows whose pivot the
    /// assignment implies.
    pub fn pass(&mut self, assigns: &[LBool]) -> Option<usize> {
        self.open.fill(0);
        self.ones.fill(0);
        for (c, v) in self.vars.iter().enumerate() {
            match assigns[v.index()] {
                LBool::Undef => self.open[c / BITS] |= 1 << (c % BITS),
                LBool::True => self.ones[c / BITS] |= 1 << (c % BITS),
                LBool::False => {}
            }
        }
        let w = self.width;
        for r in 0..self.rhs.len() {
            if self.pivot[r].is_some_and(|p| self.open[p / BITS] >> (p % BITS) & 1 == 1) {
                continue;
            }
            self.pivot[r] = first_common_one(self.row(r), &self.open);
            let Some(c) = self.pivot[r] else {
                continue;
            };
            for other in 0..self.rhs.len() {
                if other != r && self.words[other * w + c / BITS] >> (c % BITS) & 1 == 1 {
                    for i in 0..w {
                        self.words[other * w + i] ^= self.words[r * w + i];
                    }
                    self.rhs[other] ^= self.rhs[r];
                }
            }
        }
        self.implied.clear();
        for r in 0..self.rhs.len() {
            match self.pivot[r] {
                None if dot(self.row(r), &self.ones) != self.rhs[r] => return Some(r),
                None => {}
                Some(p) if !has_open_besides(self.row(r), &self.open, p) => self.implied.push(r),
                Some(_) => {}
            }
        }
        None
    }

    /// The rows whose pivot the last [`Gauss::pass`] implied.
    pub fn implied(&self) -> &[usize] {
        &self.implied
    }

    /// Writes the clause that explains row `r` after a pass into `out`: for
    /// an implied row, the pivot's implied literal first; then, for every
    /// other column, the literal that is false now. Columns fixed at
    /// level 0 are left out. The row's columns keep their values while the
    /// solver enqueues the other rows' implied pivots, since a pivot occurs
    /// in no other row.
    pub fn explain(&self, r: usize, assigns: &[LBool], level: &[u32], out: &mut Vec<Lit>) {
        out.clear();
        let row = self.row(r);
        if let Some(p) = self.pivot[r] {
            out.push(Lit::new(self.vars[p], self.rhs[r] ^ dot(row, &self.ones)));
        }
        for (i, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let c = i * BITS + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = self.vars[c];
                if Some(c) != self.pivot[r] && level[v.index()] > 0 {
                    out.push(Lit::new(v, assigns[v.index()] == LBool::False));
                }
            }
        }
    }
}

/// Index of the lowest bit set in both `a` and `b`.
fn first_common_one(a: &[u64], b: &[u64]) -> Option<usize> {
    a.iter()
        .zip(b)
        .enumerate()
        .find_map(|(i, (x, y))| (x & y != 0).then(|| i * BITS + (x & y).trailing_zeros() as usize))
}

/// Parity of the bits set in both `a` and `b`.
fn dot(a: &[u64], b: &[u64]) -> bool {
    a.iter()
        .zip(b)
        .fold(0, |acc, (x, y)| acc ^ (x & y).count_ones())
        & 1
        == 1
}

/// True when `a` and `b` share a set bit other than bit `p`.
fn has_open_besides(a: &[u64], b: &[u64], p: usize) -> bool {
    a.iter().zip(b).enumerate().any(|(i, (x, y))| {
        let skip = if i == p / BITS { 1 << (p % BITS) } else { 0 };
        x & y & !skip != 0
    })
}
