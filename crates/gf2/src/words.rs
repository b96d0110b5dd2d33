//! Word-level GF(2) kernels shared by [`crate::BitVec`] and the bit-packed
//! XOR-affine phases in `veriqec_cexpr`.
//!
//! Everything in this module operates on raw little-endian `u64` slices
//! (bit `i` lives in word `i / 64` at position `i % 64`), so callers with
//! different container shapes — fixed inline arrays, heap vectors, matrix
//! rows — all funnel through the same XOR / popcount / bit-scan loops.
//!
//! The bulk kernels (`xor_into`, `popcount`, `dot`, `is_zero`) process
//! [`LANE_WORDS`]` = 4` words per step with a scalar tail, written as
//! manual lane unrolls so the compiler emits 256-bit vector code without
//! any external SIMD crate. The straight one-word-at-a-time loops are kept,
//! for tests only, in `scalar` as the differential-test oracle; every
//! widened kernel is property-tested against its scalar twin on random
//! lengths, including non-multiple-of-4 tails.

/// Bits per storage word.
pub const BITS: usize = 64;

/// Words processed per unrolled lane step of the bulk kernels (4 × u64 =
/// one 256-bit vector register).
pub const LANE_WORDS: usize = 4;

/// Reference one-word-at-a-time kernels: the pre-widening loops, compiled
/// for tests only as the oracle of the 4-lane differential proptests.
#[cfg(test)]
mod scalar {
    /// One-word-at-a-time [`super::xor_into`].
    ///
    /// # Panics
    ///
    /// Panics if `dst` is shorter than `src`.
    #[inline]
    pub fn xor_into(dst: &mut [u64], src: &[u64]) {
        assert!(dst.len() >= src.len(), "xor_into: destination too short");
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
    }

    /// One-word-at-a-time [`super::popcount`].
    #[inline]
    pub fn popcount(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// One-word-at-a-time [`super::dot`].
    #[inline]
    pub fn dot(a: &[u64], b: &[u64]) -> bool {
        a.iter()
            .zip(b)
            .fold(0u32, |acc, (x, y)| acc ^ (x & y).count_ones())
            & 1
            == 1
    }

    /// One-word-at-a-time [`super::is_zero`].
    #[inline]
    pub fn is_zero(words: &[u64]) -> bool {
        words.iter().all(|&w| w == 0)
    }
}

/// XORs `src` into the front of `dst`, four words per lane step.
///
/// # Panics
///
/// Panics if `dst` is shorter than `src` (callers grow the destination
/// first; silently dropping high words would corrupt the value).
#[inline]
pub fn xor_into(dst: &mut [u64], src: &[u64]) {
    assert!(dst.len() >= src.len(), "xor_into: destination too short");
    let n = src.len();
    let mut dst4 = dst[..n].chunks_exact_mut(LANE_WORDS);
    let mut src4 = src.chunks_exact(LANE_WORDS);
    for (d, s) in dst4.by_ref().zip(src4.by_ref()) {
        d[0] ^= s[0];
        d[1] ^= s[1];
        d[2] ^= s[2];
        d[3] ^= s[3];
    }
    for (d, s) in dst4.into_remainder().iter_mut().zip(src4.remainder()) {
        *d ^= s;
    }
}

/// XORs one fixed inline lane into another — the allocation-free fast path
/// for `veriqec_cexpr::Affine` forms whose variable ids fit the inline
/// span (`LANE_WORDS * 64 = 256` ids).
#[inline]
pub fn xor_lane(dst: &mut [u64; LANE_WORDS], src: &[u64; LANE_WORDS]) {
    dst[0] ^= src[0];
    dst[1] ^= src[1];
    dst[2] ^= src[2];
    dst[3] ^= src[3];
}

/// Number of set bits across the slice, four partial counters per lane
/// step (summed once at the end, so the lanes stay independent).
#[inline]
pub fn popcount(words: &[u64]) -> usize {
    let mut c = [0usize; LANE_WORDS];
    let mut it = words.chunks_exact(LANE_WORDS);
    for w in it.by_ref() {
        c[0] += w[0].count_ones() as usize;
        c[1] += w[1].count_ones() as usize;
        c[2] += w[2].count_ones() as usize;
        c[3] += w[3].count_ones() as usize;
    }
    let mut total = c[0] + c[1] + c[2] + c[3];
    for w in it.remainder() {
        total += w.count_ones() as usize;
    }
    total
}

/// True when no bit is set; OR-accumulates four words per lane step.
#[inline]
pub fn is_zero(words: &[u64]) -> bool {
    let mut it = words.chunks_exact(LANE_WORDS);
    let mut acc = 0u64;
    for w in it.by_ref() {
        acc |= w[0] | w[1] | w[2] | w[3];
    }
    for &w in it.remainder() {
        acc |= w;
    }
    acc == 0
}

/// Length of the slice with trailing zero words trimmed: the smallest `n`
/// such that `words[n..]` is all zeros.
#[inline]
pub fn significant_len(words: &[u64]) -> usize {
    words.len() - words.iter().rev().take_while(|&&w| w == 0).count()
}

/// Reads bit `i`, treating out-of-range bits as 0.
#[inline]
pub fn get_bit(words: &[u64], i: usize) -> bool {
    words
        .get(i / BITS)
        .is_some_and(|w| (w >> (i % BITS)) & 1 == 1)
}

/// Index of the lowest bit set in both slices (`a AND b`), if any; the
/// shorter slice is implicitly zero-extended.
#[inline]
pub fn first_common_one(a: &[u64], b: &[u64]) -> Option<usize> {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let w = x & y;
        if w != 0 {
            return Some(i * BITS + w.trailing_zeros() as usize);
        }
    }
    None
}

/// Parity of the bitwise AND of two slices (the GF(2) inner product); the
/// shorter slice is implicitly zero-extended. Four independent parity
/// accumulators per lane step, folded once at the end.
#[inline]
pub fn dot(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let mut a4 = a[..n].chunks_exact(LANE_WORDS);
    let mut b4 = b[..n].chunks_exact(LANE_WORDS);
    let mut c = [0u32; LANE_WORDS];
    for (x, y) in a4.by_ref().zip(b4.by_ref()) {
        c[0] ^= (x[0] & y[0]).count_ones();
        c[1] ^= (x[1] & y[1]).count_ones();
        c[2] ^= (x[2] & y[2]).count_ones();
        c[3] ^= (x[3] & y[3]).count_ones();
    }
    let mut acc = c[0] ^ c[1] ^ c[2] ^ c[3];
    for (x, y) in a4.remainder().iter().zip(b4.remainder()) {
        acc ^= (x & y).count_ones();
    }
    acc & 1 == 1
}

/// Iterator over the indices of set bits in a word slice, ascending.
///
/// This is the single bit-scan loop behind [`crate::BitVec::iter_ones`] and
/// `veriqec_cexpr::Affine::vars`: it skips zero words wholesale and peels
/// set bits off each nonzero word with `trailing_zeros`.
#[derive(Clone)]
pub struct WordOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> WordOnes<'a> {
    /// Creates an iterator over the set bits of `words`.
    pub fn new(words: &'a [u64]) -> Self {
        WordOnes {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for WordOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * BITS + tz);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_popcount_roundtrip() {
        let mut a = [0b1010u64, 0];
        xor_into(&mut a, &[0b0110, 1]);
        assert_eq!(a, [0b1100, 1]);
        assert_eq!(popcount(&a), 3);
        assert!(!is_zero(&a));
        assert!(is_zero(&[0, 0]));
    }

    #[test]
    #[should_panic(expected = "destination too short")]
    fn xor_into_rejects_short_destination() {
        xor_into(&mut [0u64], &[1, 2]);
    }

    #[test]
    fn significant_len_trims_trailing_zeros() {
        assert_eq!(significant_len(&[1, 0, 2, 0, 0]), 3);
        assert_eq!(significant_len(&[0, 0]), 0);
        assert_eq!(significant_len(&[]), 0);
    }

    #[test]
    fn get_bit_is_total() {
        let w = [1u64 << 63, 1];
        assert!(get_bit(&w, 63));
        assert!(get_bit(&w, 64));
        assert!(!get_bit(&w, 65));
        assert!(!get_bit(&w, 100_000));
    }

    #[test]
    fn dot_zero_extends() {
        assert!(dot(&[0b11], &[0b01, 0xFF]));
        assert!(!dot(&[0b11], &[0b11, 0xFF]));
    }

    #[test]
    fn first_common_one_scans_words() {
        assert_eq!(first_common_one(&[0b100, 0], &[0b110, 1]), Some(2));
        assert_eq!(first_common_one(&[0, 1 << 3], &[0, 1 << 3]), Some(67));
        assert_eq!(first_common_one(&[0b01], &[0b10]), None);
        assert_eq!(first_common_one(&[], &[1]), None);
    }

    #[test]
    fn word_ones_crosses_words() {
        let w = [1u64 | (1 << 63), 0, 1 << 5];
        let ones: Vec<usize> = WordOnes::new(&w).collect();
        assert_eq!(ones, vec![0, 63, 133]);
        assert!(WordOnes::new(&[]).next().is_none());
    }

    #[test]
    fn xor_lane_matches_xor_into() {
        let mut a = [1u64, 2, 3, 4];
        let mut b = a;
        xor_lane(&mut a, &[5, 6, 7, 8]);
        xor_into(&mut b, &[5, 6, 7, 8]);
        assert_eq!(a, b);
    }

    #[test]
    fn lane_kernels_handle_exact_multiples_and_tails() {
        // Lengths straddling the 4-word lane boundary.
        for len in [0usize, 1, 3, 4, 5, 7, 8, 11, 12] {
            let a: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
            let b: Vec<u64> = (0..len as u64).map(|i| !i ^ 0xABCD).collect();
            let mut wide = a.clone();
            let mut narrow = a.clone();
            xor_into(&mut wide, &b);
            scalar::xor_into(&mut narrow, &b);
            assert_eq!(wide, narrow, "len {len}");
            assert_eq!(popcount(&a), scalar::popcount(&a), "len {len}");
            assert_eq!(dot(&a, &b), scalar::dot(&a, &b), "len {len}");
            assert_eq!(is_zero(&a), scalar::is_zero(&a), "len {len}");
        }
    }
}

#[cfg(test)]
mod lane_proptests {
    //! The 4-lane kernels must agree bit for bit with the one-word scalar
    //! loops on every input shape — random lengths (including tails that
    //! are not a multiple of 4 words), mismatched operand lengths for
    //! `dot`, and dense/sparse contents.

    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn widened_xor_matches_scalar(
            dst in proptest::collection::vec(any::<u64>(), 0..13),
            src_extra in 0usize..4,
            seed in any::<u64>(),
        ) {
            // src no longer than dst (the panic contract), arbitrary tail.
            let src_len = dst.len().saturating_sub(src_extra);
            let src: Vec<u64> = (0..src_len as u64)
                .map(|i| seed.wrapping_mul(i.wrapping_add(0x9E37_79B9)))
                .collect();
            let mut wide = dst.clone();
            let mut narrow = dst.clone();
            xor_into(&mut wide, &src);
            scalar::xor_into(&mut narrow, &src);
            prop_assert_eq!(wide, narrow);
        }

        #[test]
        fn widened_popcount_and_is_zero_match_scalar(
            words in proptest::collection::vec(any::<u64>(), 0..13),
        ) {
            prop_assert_eq!(popcount(&words), scalar::popcount(&words));
            prop_assert_eq!(is_zero(&words), scalar::is_zero(&words));
        }

        #[test]
        fn widened_dot_matches_scalar(
            a in proptest::collection::vec(any::<u64>(), 0..13),
            b in proptest::collection::vec(any::<u64>(), 0..13),
        ) {
            prop_assert_eq!(dot(&a, &b), scalar::dot(&a, &b));
        }
    }
}
