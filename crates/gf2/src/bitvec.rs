//! Bit-packed vectors over GF(2).

use crate::words::{self, WordOnes, BITS};
use std::fmt;

/// A fixed-length vector over GF(2), packed into 64-bit blocks.
///
/// `BitVec` is the workhorse of the symplectic Pauli representation and of
/// all parity-check-matrix manipulation in this workspace.
///
/// # Examples
///
/// ```
/// use veriqec_gf2::BitVec;
/// let mut v = BitVec::zeros(70);
/// v.set(3, true);
/// v.set(69, true);
/// assert_eq!(v.weight(), 2);
/// assert!(v.get(3) && v.get(69) && !v.get(4));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitVec {
    blocks: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            blocks: vec![0; len.div_ceil(BITS)],
            len,
        }
    }

    /// Creates a vector from an iterator of booleans.
    pub fn from_bools<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        let mut v = BitVec::zeros(bits.len());
        for (i, b) in bits.iter().enumerate() {
            v.set(i, *b);
        }
        v
    }

    /// Creates a vector of length `len` with exactly the listed positions set.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    pub fn from_ones(len: usize, ones: &[usize]) -> Self {
        let mut v = BitVec::zeros(len);
        for &i in ones {
            v.set(i, true);
        }
        v
    }

    /// Parses a string of `'0'`/`'1'` characters (other characters are ignored
    /// separators, so `"101 10"` is accepted).
    pub fn parse(s: &str) -> Self {
        BitVec::from_bools(s.chars().filter_map(|c| match c {
            '0' => Some(false),
            '1' => Some(true),
            _ => None,
        }))
    }

    /// Builds a vector of length `len` directly from storage words (bit `i`
    /// in word `i / 64` at position `i % 64`). Bits at positions `>= len`
    /// are masked off; missing high words are zero-filled.
    pub fn from_words(len: usize, mut blocks: Vec<u64>) -> Self {
        let n_blocks = len.div_ceil(BITS);
        blocks.resize(n_blocks, 0);
        if !len.is_multiple_of(BITS) {
            if let Some(last) = blocks.last_mut() {
                *last &= (1u64 << (len % BITS)) - 1;
            }
        }
        BitVec { blocks, len }
    }

    /// The raw storage words (little-endian bit order). Bits at positions
    /// `>= len()` are guaranteed zero.
    pub fn as_words(&self) -> &[u64] {
        &self.blocks
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.blocks[i / BITS] >> (i % BITS)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % BITS);
        if value {
            self.blocks[i / BITS] |= mask;
        } else {
            self.blocks[i / BITS] &= !mask;
        }
    }

    /// Flips bit `i` and returns its new value.
    pub fn flip(&mut self, i: usize) -> bool {
        let v = !self.get(i);
        self.set(i, v);
        v
    }

    /// In-place XOR with another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch in xor_assign");
        words::xor_into(&mut self.blocks, &other.blocks);
    }

    /// In-place XOR with another vector of the same length, starting at
    /// storage word `from_word` (bits below `from_word * 64` are left
    /// untouched in `self` and ignored in `other`).
    ///
    /// This is the windowed kernel of [`crate::RowBasis::reduce`]: when the
    /// source row is known to have a zero prefix (an echelon-form pivot
    /// row), skipping its leading zero words does the same XOR with a
    /// fraction of the memory traffic.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_assign_from_word(&mut self, other: &BitVec, from_word: usize) {
        assert_eq!(
            self.len, other.len,
            "length mismatch in xor_assign_from_word"
        );
        let start = from_word.min(self.blocks.len());
        words::xor_into(&mut self.blocks[start..], &other.blocks[start..]);
    }

    /// Returns `self XOR other`.
    pub fn xored(&self, other: &BitVec) -> BitVec {
        let mut r = self.clone();
        r.xor_assign(other);
        r
    }

    /// Returns `self AND other`.
    pub fn anded(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "length mismatch in anded");
        let mut r = self.clone();
        for (a, b) in r.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
        r
    }

    /// Returns `self OR other`.
    pub fn ored(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "length mismatch in ored");
        let mut r = self.clone();
        for (a, b) in r.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
        r
    }

    /// Hamming weight (number of set bits).
    pub fn weight(&self) -> usize {
        words::popcount(&self.blocks)
    }

    /// True when no bit is set.
    pub fn is_zero(&self) -> bool {
        words::is_zero(&self.blocks)
    }

    /// Inner product over GF(2): parity of the AND of the two vectors.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn dot(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "length mismatch in dot");
        words::dot(&self.blocks, &other.blocks)
    }

    /// Iterator over the indices of set bits, in increasing order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        WordOnes::new(&self.blocks)
    }

    /// Index of the lowest bit set in both `self` and `mask`, if any — a
    /// word-level scan, no per-bit probing.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn first_one_masked(&self, mask: &BitVec) -> Option<usize> {
        assert_eq!(self.len, mask.len, "length mismatch in first_one_masked");
        words::first_common_one(&self.blocks, &mask.blocks)
    }

    /// Concatenates two vectors.
    pub fn concat(&self, other: &BitVec) -> BitVec {
        let mut r = BitVec::zeros(self.len + other.len);
        for i in self.iter_ones() {
            r.set(i, true);
        }
        for i in other.iter_ones() {
            r.set(self.len + i, true);
        }
        r
    }

    /// Extracts bits `[start, start+len)` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the vector length.
    pub fn slice(&self, start: usize, len: usize) -> BitVec {
        assert!(start + len <= self.len, "slice out of range");
        let mut r = BitVec::zeros(len);
        for i in 0..len {
            if self.get(start + i) {
                r.set(i, true);
            }
        }
        r
    }

    /// Collects into a `Vec<bool>`.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec({self})")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec::from_bools(iter)
    }
}

/// Iterator over set-bit indices of a [`BitVec`]. Produced by
/// [`BitVec::iter_ones`]; the bit-scan loop itself lives in
/// [`crate::words::WordOnes`] and is shared with the packed affine phases.
/// (`BitVec` keeps all bits at positions `>= len()` zero, so no length guard
/// is needed here.)
pub type IterOnes<'a> = WordOnes<'a>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            v.set(i, true);
            assert!(v.get(i), "bit {i}");
        }
        assert_eq!(v.weight(), 8);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.weight(), 7);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let v = BitVec::parse("1010 0111");
        assert_eq!(v.to_string(), "10100111");
        assert_eq!(v.len(), 8);
        assert_eq!(v.weight(), 5);
    }

    #[test]
    fn xor_and_dot() {
        let a = BitVec::parse("1100");
        let b = BitVec::parse("1010");
        assert_eq!(a.xored(&b).to_string(), "0110");
        assert!(a.dot(&b)); // overlap in position 0 only -> parity 1
        let c = BitVec::parse("0011");
        assert!(!a.dot(&c));
    }

    #[test]
    fn iter_ones_crosses_blocks() {
        let v = BitVec::from_ones(200, &[0, 63, 64, 150, 199]);
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, vec![0, 63, 64, 150, 199]);
    }

    #[test]
    fn concat_and_slice() {
        let a = BitVec::parse("101");
        let b = BitVec::parse("01");
        let c = a.concat(&b);
        assert_eq!(c.to_string(), "10101");
        assert_eq!(c.slice(1, 3).to_string(), "010");
    }

    #[test]
    fn from_words_masks_and_pads() {
        let v = BitVec::from_words(70, vec![u64::MAX, u64::MAX]);
        assert_eq!(v.len(), 70);
        assert_eq!(v.weight(), 70);
        assert_eq!(v.as_words()[1], (1u64 << 6) - 1);
        let w = BitVec::from_words(130, vec![1]);
        assert_eq!(w.as_words().len(), 3);
        assert_eq!(w.weight(), 1);
    }

    #[test]
    fn xor_assign_from_word_skips_prefix() {
        let a = BitVec::from_ones(200, &[1, 64, 130, 199]);
        let b = BitVec::from_ones(200, &[1, 65, 130]);
        // Window starting at word 1 leaves bits 0..64 of `a` untouched and
        // ignores bits 0..64 of `b`; above that it is a plain XOR.
        let mut windowed = a.clone();
        windowed.xor_assign_from_word(&b, 1);
        let mut expect = a.clone();
        expect.xor_assign(&b);
        expect.set(1, true); // undo the bit-1 toggle that the window skipped
        assert_eq!(windowed, expect);
        // Window 0 is exactly xor_assign; out-of-range windows are no-ops.
        let mut full = a.clone();
        full.xor_assign_from_word(&b, 0);
        assert_eq!(full, a.xored(&b));
        let mut none = a.clone();
        none.xor_assign_from_word(&b, 100);
        assert_eq!(none, a);
    }

    #[test]
    fn flip_toggles() {
        let mut v = BitVec::zeros(5);
        assert!(v.flip(2));
        assert!(!v.flip(2));
        assert!(v.is_zero());
    }
}
