//! XOR-affine boolean forms: the phases `(-1)^φ` of symbolic Pauli operators.
//!
//! Every proof rule of the paper's Fig. 3 that a QEC program exercises maps a
//! phase `φ` to `φ ⊕ δ` with `δ` affine in the classical variables, so the
//! whole weakest-precondition pipeline can carry phases in this closed form.
//!
//! The variable set is stored as a dense bit-packed word set (bit `i` set ⇔
//! `VarId(i)` occurs), sharing the word kernels of [`veriqec_gf2::words`]:
//! XOR of two forms is a handful of 64-bit word XORs, membership is a bit
//! test, and iteration is a word scan. Forms over variable ids below 256
//! live in a fixed inline 4-word lane — one XOR step of the widened
//! [`veriqec_gf2::words`] kernels, and wide enough for the full syndrome
//! variable space of a `d = 7` surface-code cycle — with no heap
//! allocation; larger id spaces (multi-cycle, multi-block scenarios) spill
//! to a heap vector. Two inline forms combine through
//! [`veriqec_gf2::words::xor_lane`], a fixed-shape 4×u64 XOR with no length
//! dispatch at all. `VarId`s are allocated densely by `VarTable`, which
//! keeps the bitset dense in practice.

use crate::{BExp, CMem, VarId};
use std::cmp::Ordering;
use std::fmt;
use veriqec_gf2::words::{self, WordOnes, BITS, LANE_WORDS};

/// Word count of the inline small-form representation: variable ids below
/// `4 * 64 = 256` never allocate. Matches
/// [`veriqec_gf2::words::LANE_WORDS`] so an inline×inline XOR is exactly
/// one lane step of the widened kernels.
const INLINE_WORDS: usize = LANE_WORDS;

/// The packed variable set of an [`Affine`] form.
///
/// Canonical-form invariant (maintained by [`Affine::normalize`]): `Heap` is
/// used exactly when more than [`INLINE_WORDS`] significant words are needed,
/// and a `Heap` vector never has a zero last word. Every set of variables
/// therefore has a unique representation, which lets `PartialEq`/`Eq`/`Hash`
/// be derived structurally.
#[derive(Clone, PartialEq, Eq, Hash)]
enum VarWords {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

impl VarWords {
    #[inline]
    fn as_slice(&self) -> &[u64] {
        match self {
            VarWords::Inline(w) => w,
            VarWords::Heap(v) => v,
        }
    }
}

/// An affine form over GF(2): `c ⊕ v₁ ⊕ v₂ ⊕ …` with distinct variables.
///
/// # Examples
///
/// ```
/// use veriqec_cexpr::{Affine, VarId};
/// let e = Affine::var(VarId(0)) ^ Affine::var(VarId(1)) ^ Affine::one();
/// assert_eq!(e.to_string(), "1 + v0 + v1");
/// // x ⊕ x = 0
/// assert!((Affine::var(VarId(0)) ^ Affine::var(VarId(0))).is_zero());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Affine {
    constant: bool,
    vars: VarWords,
}

impl Default for Affine {
    fn default() -> Self {
        Affine {
            constant: false,
            vars: VarWords::Inline([0; INLINE_WORDS]),
        }
    }
}

impl Affine {
    /// The zero form (phase `+1`).
    pub fn zero() -> Self {
        Affine::default()
    }

    /// The constant-one form (phase `-1`).
    pub fn one() -> Self {
        Affine::constant(true)
    }

    /// A single variable.
    pub fn var(v: VarId) -> Self {
        let mut a = Affine::zero();
        a.xor_var(v);
        a
    }

    /// A constant.
    pub fn constant(c: bool) -> Self {
        Affine {
            constant: c,
            vars: VarWords::Inline([0; INLINE_WORDS]),
        }
    }

    /// The XOR of several variables.
    pub fn sum_vars<I: IntoIterator<Item = VarId>>(vars: I) -> Self {
        let mut a = Affine::zero();
        for v in vars {
            a.xor_var(v);
        }
        a
    }

    /// The raw storage words of the variable set.
    #[inline]
    fn words(&self) -> &[u64] {
        self.vars.as_slice()
    }

    /// Grows the representation so at least `min_words` words are
    /// addressable, returning the mutable word slice.
    #[inline]
    fn words_mut(&mut self, min_words: usize) -> &mut [u64] {
        if min_words > INLINE_WORDS {
            if let VarWords::Inline(w) = self.vars {
                let mut v = w.to_vec();
                v.resize(min_words, 0);
                self.vars = VarWords::Heap(v);
            }
        }
        match &mut self.vars {
            VarWords::Inline(w) => w,
            VarWords::Heap(v) => {
                if v.len() < min_words {
                    v.resize(min_words, 0);
                }
                v
            }
        }
    }

    /// Restores the canonical-form invariant after a mutation: heap storage
    /// is trimmed of trailing zero words and demoted to the inline pair when
    /// it fits.
    #[inline]
    fn normalize(&mut self) {
        if let VarWords::Heap(v) = &mut self.vars {
            let sig = words::significant_len(v);
            if sig <= INLINE_WORDS {
                let mut w = [0u64; INLINE_WORDS];
                w[..sig].copy_from_slice(&v[..sig]);
                self.vars = VarWords::Inline(w);
            } else {
                v.truncate(sig);
            }
        }
    }

    /// True when this is the constant 0.
    pub fn is_zero(&self) -> bool {
        !self.constant && self.is_constant()
    }

    /// True when this is the constant 1.
    pub fn is_one(&self) -> bool {
        self.constant && self.is_constant()
    }

    /// True when no variables occur.
    pub fn is_constant(&self) -> bool {
        words::is_zero(self.words())
    }

    /// The constant part.
    pub fn constant_part(&self) -> bool {
        self.constant
    }

    /// The set of variables with odd coefficient, ascending. This is a word
    /// scan over the packed set — no per-element tree walk.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        WordOnes::new(self.words()).map(|i| VarId(i as u32))
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        words::popcount(self.words())
    }

    /// The largest variable occurring in the form, if any.
    pub fn max_var(&self) -> Option<VarId> {
        let w = self.words();
        let sig = words::significant_len(w);
        if sig == 0 {
            return None;
        }
        let top = w[sig - 1];
        Some(VarId(
            ((sig - 1) * BITS + (BITS - 1 - top.leading_zeros() as usize)) as u32,
        ))
    }

    /// True when `v` occurs in the form.
    pub fn contains(&self, v: VarId) -> bool {
        words::get_bit(self.words(), v.0 as usize)
    }

    /// The lowest variable occurring in both `self` and `mask` — a
    /// word-level scan, no per-variable probing. The workhorse of the
    /// branch-resolution elimination in `veriqec_vcgen`, where `mask` is the
    /// XOR of the or-bound syndrome variables.
    pub fn first_var_masked(&self, mask: &Affine) -> Option<VarId> {
        words::first_common_one(self.words(), mask.words()).map(|i| VarId(i as u32))
    }

    /// XORs in a single variable.
    pub fn xor_var(&mut self, v: VarId) {
        let i = v.0 as usize;
        self.words_mut(i / BITS + 1)[i / BITS] ^= 1u64 << (i % BITS);
        self.normalize();
    }

    /// XORs in a constant.
    pub fn xor_const(&mut self, c: bool) {
        self.constant ^= c;
    }

    /// Substitutes variable `v` by another affine form.
    pub fn subst(&self, v: VarId, e: &Affine) -> Affine {
        if !self.contains(v) {
            return self.clone();
        }
        let mut out = self.clone();
        out.xor_var(v);
        out ^= e;
        out
    }

    /// Evaluates under a classical memory.
    pub fn eval(&self, m: &CMem) -> bool {
        self.vars()
            .fold(self.constant, |acc, v| acc ^ m.get(v).as_bool())
    }

    /// Converts to a general boolean expression (an XOR chain).
    pub fn to_bexp(&self) -> BExp {
        self.vars().fold(BExp::Const(self.constant), |acc, v| {
            BExp::xor(acc, BExp::var(v))
        })
    }

    /// Packs the form into a check-matrix row of `width + 1` columns:
    /// columns `0..width` are the variables (column = variable id) and the
    /// final column holds the constant. Inverse of [`Affine::from_row`].
    ///
    /// # Panics
    ///
    /// Panics if a variable id is `>= width`.
    pub fn to_row(&self, width: usize) -> veriqec_gf2::BitVec {
        assert!(
            self.max_var().is_none_or(|v| (v.0 as usize) < width),
            "variable id out of range for row width {width}"
        );
        // Single zero-filled allocation of the exact row width; the packed
        // variable words drop straight in.
        let n_blocks = (width + 1).div_ceil(BITS);
        let mut blocks = vec![0u64; n_blocks];
        let w = self.words();
        let k = w.len().min(n_blocks);
        blocks[..k].copy_from_slice(&w[..k]);
        if self.constant {
            blocks[width / BITS] |= 1u64 << (width % BITS);
        }
        veriqec_gf2::BitVec::from_words(width + 1, blocks)
    }

    /// Unpacks a check-matrix row produced by [`Affine::to_row`] (last
    /// column = constant, earlier columns = variable ids). Rows whose
    /// variables fit the inline span come back allocation-free.
    pub fn from_row(row: &veriqec_gf2::BitVec) -> Affine {
        assert!(!row.is_empty(), "row must have a constant column");
        let width = row.len() - 1;
        let constant = row.get(width);
        let w = row.as_words();
        let sig = words::significant_len(w);
        let mut a = Affine::constant(constant);
        let dst = a.words_mut(sig.max(1));
        dst[..sig].copy_from_slice(&w[..sig]);
        // Clear the constant bit out of the variable words.
        if width / BITS < dst.len() {
            dst[width / BITS] &= !(1u64 << (width % BITS));
        }
        a.normalize();
        a
    }
}

impl std::ops::BitXorAssign<&Affine> for Affine {
    fn bitxor_assign(&mut self, rhs: &Affine) {
        self.constant ^= rhs.constant;
        // Inline×inline — the per-gate common case — is a fixed 4-word lane
        // XOR: no significant-length scan, no growth check, no normalize
        // (inline is always canonical).
        if let (VarWords::Inline(dst), VarWords::Inline(src)) = (&mut self.vars, &rhs.vars) {
            words::xor_lane(dst, src);
            return;
        }
        let rw = rhs.words();
        let sig = words::significant_len(rw);
        words::xor_into(self.words_mut(sig), &rw[..sig]);
        self.normalize();
    }
}

impl std::ops::BitXorAssign for Affine {
    fn bitxor_assign(&mut self, rhs: Affine) {
        *self ^= &rhs;
    }
}

impl std::ops::BitXor for Affine {
    type Output = Affine;

    fn bitxor(mut self, rhs: Affine) -> Affine {
        self ^= &rhs;
        self
    }
}

impl std::ops::BitXor<&Affine> for Affine {
    type Output = Affine;

    fn bitxor(mut self, rhs: &Affine) -> Affine {
        self ^= rhs;
        self
    }
}

// Order mirrors the historical `(bool, BTreeSet<VarId>)` derive: constant
// first, then the sorted variable sequences compared lexicographically.
impl Ord for Affine {
    fn cmp(&self, other: &Self) -> Ordering {
        self.constant
            .cmp(&other.constant)
            .then_with(|| WordOnes::new(self.words()).cmp(WordOnes::new(other.words())))
    }
}

impl PartialOrd for Affine {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        if self.constant {
            write!(f, "1")?;
            first = false;
        }
        for v in self.vars() {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "v{}", v.0)?;
            first = false;
        }
        Ok(())
    }
}

impl fmt::Debug for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<VarId> for Affine {
    fn from(v: VarId) -> Self {
        Affine::var(v)
    }
}

impl From<bool> for Affine {
    fn from(c: bool) -> Self {
        Affine::constant(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn xor_cancels_duplicates() {
        let a = Affine::var(VarId(1)) ^ Affine::var(VarId(2)) ^ Affine::var(VarId(1));
        assert_eq!(a, Affine::var(VarId(2)));
    }

    #[test]
    fn subst_expands() {
        // (v0 ⊕ v1)[v0 := v1 ⊕ 1] = 1
        let a = Affine::var(VarId(0)) ^ Affine::var(VarId(1));
        let r = a.subst(VarId(0), &(Affine::var(VarId(1)) ^ Affine::one()));
        assert!(r.is_one());
    }

    #[test]
    fn eval_and_to_bexp_agree() {
        let a = Affine::var(VarId(0)) ^ Affine::var(VarId(1)) ^ Affine::one();
        for bits in 0..4u8 {
            let mut m = CMem::new();
            m.set(VarId(0), Value::Bool(bits & 1 == 1));
            m.set(VarId(1), Value::Bool(bits & 2 == 2));
            assert_eq!(a.eval(&m), a.to_bexp().eval(&m));
        }
    }

    #[test]
    fn subst_absent_var_is_identity() {
        let a = Affine::var(VarId(3));
        assert_eq!(a.subst(VarId(9), &Affine::one()), a);
    }

    #[test]
    fn large_ids_spill_to_heap_and_demote_back() {
        let mut a = Affine::var(VarId(5));
        a.xor_var(VarId(1000));
        assert!(matches!(a.vars, VarWords::Heap(_)));
        assert!(a.contains(VarId(1000)) && a.contains(VarId(5)));
        assert_eq!(a.max_var(), Some(VarId(1000)));
        a.xor_var(VarId(1000)); // removing the high bit demotes to inline
        assert!(matches!(a.vars, VarWords::Inline(_)));
        assert_eq!(a, Affine::var(VarId(5)));
        assert_eq!(a.max_var(), Some(VarId(5)));
    }

    #[test]
    fn inline_span_covers_ids_below_256() {
        // Ids up to 255 stay in the fixed 4-word lane; 256 spills.
        let mut a = Affine::var(VarId(255));
        assert!(matches!(a.vars, VarWords::Inline(_)));
        a.xor_var(VarId(256));
        assert!(matches!(a.vars, VarWords::Heap(_)));
        assert!(a.contains(VarId(255)) && a.contains(VarId(256)));
    }

    #[test]
    fn inline_fast_path_matches_general_xor() {
        // Inline×inline takes the fixed-lane path; forcing one operand to
        // heap width first takes the general path. Same result either way.
        let a = Affine::var(VarId(7)) ^ Affine::var(VarId(200)) ^ Affine::one();
        let b = Affine::var(VarId(200)) ^ Affine::var(VarId(63));
        let mut fast = a.clone();
        fast ^= &b;
        let mut general = a.clone();
        general.xor_var(VarId(300)); // promote to heap
        assert!(matches!(general.vars, VarWords::Heap(_)));
        general ^= &b; // heap×inline: the general path
        general.xor_var(VarId(300)); // drop the spill bit, demote back
        assert_eq!(fast, general);
        assert_eq!(
            fast,
            Affine::var(VarId(7)) ^ Affine::var(VarId(63)) ^ Affine::one()
        );
    }

    #[test]
    fn canonical_form_makes_eq_and_hash_agree() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Build the same value along two different mutation paths.
        let mut a = Affine::var(VarId(200));
        a.xor_var(VarId(3));
        a.xor_var(VarId(200)); // heap → inline demotion
        let b = Affine::var(VarId(3));
        assert_eq!(a, b);
        let hash = |x: &Affine| {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn ord_matches_set_lexicographic_order() {
        let v = |i| Affine::var(VarId(i));
        // {1} < {1,2} < {2}; constant dominates.
        assert!(v(1) < (v(1) ^ v(2)));
        assert!((v(1) ^ v(2)) < v(2));
        assert!(Affine::zero() < Affine::one());
        assert!(v(1) < (Affine::one() ^ v(1)));
    }

    #[test]
    fn row_roundtrip_preserves_form() {
        let a = Affine::var(VarId(0)) ^ Affine::var(VarId(130)) ^ Affine::one();
        let row = a.to_row(131);
        assert_eq!(row.len(), 132);
        assert!(row.get(131)); // constant column
        assert_eq!(Affine::from_row(&row), a);
        // Constant lands exactly on a word boundary too.
        let b = Affine::var(VarId(63));
        assert_eq!(Affine::from_row(&b.to_row(64)), b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn to_row_rejects_narrow_width() {
        let _ = Affine::var(VarId(9)).to_row(9);
    }
}
