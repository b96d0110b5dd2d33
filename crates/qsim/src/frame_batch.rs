//! Bit-sliced Pauli-frame batches: 64 frames per machine word.
//!
//! [`crate::FrameCircuit::sample`] propagates one Pauli frame at a time and
//! pays a `PauliString` conjugation per gate. But a frame is phaseless data
//! — only its X/Z support matters for syndrome records — and every Clifford
//! frame update is a fixed XOR/swap pattern on that support. So a batch of
//! 64 frames can share one pass over the op stream: store, per qubit, one
//! X-plane word and one Z-plane word whose bit `l` belongs to frame (lane)
//! `l`, and every gate update becomes one or two word XORs regardless of
//! how many lanes are active. This is stim's bit-slicing layout turned
//! column-major per qubit.
//!
//! The update rules are the phaseless image of the conjugation tables in
//! `veriqec_pauli::clifford` (forward direction), pinned against the
//! single-frame sampler by unit tests and a differential proptest over
//! random circuits: batch lane `i` must reproduce sequential frame `i`'s
//! syndrome history exactly, measurement flips included.

use crate::frame::{FrameCircuit, FrameOp};
use veriqec_pauli::{Gate1, Gate2, PauliString};

/// Frames per batch: one per bit of the plane words.
pub const LANES: usize = 64;

/// A batch of [`LANES`] Pauli frames over `n` qubits, bit-sliced per qubit.
///
/// Lane `l` (bit `l` of every plane word) is an independent frame: qubit
/// `q` of frame `l` carries an X iff bit `l` of `x[q]` is set, a Z iff bit
/// `l` of `z[q]` is set (both ⇒ Y). Phases are not tracked — frame
/// sampling only ever consumes anticommutation parities.
#[derive(Clone, Debug)]
pub struct FrameBatch {
    /// X-plane: `x[q]` holds the X component of qubit `q` across all lanes.
    x: Vec<u64>,
    /// Z-plane: `z[q]` holds the Z component of qubit `q` across all lanes.
    z: Vec<u64>,
}

impl FrameBatch {
    /// A batch of identity frames over `num_qubits` qubits.
    pub fn identity(num_qubits: usize) -> Self {
        FrameBatch {
            x: vec![0; num_qubits],
            z: vec![0; num_qubits],
        }
    }

    /// Number of qubits per frame.
    pub fn num_qubits(&self) -> usize {
        self.x.len()
    }

    /// Conjugates every lane's frame by a single-qubit Clifford gate.
    ///
    /// Phaseless image of `PauliString::conjugate1`: Paulis fix the frame, `H`
    /// swaps the planes, `S`/`S†` fold X into Z.
    ///
    /// # Panics
    ///
    /// Panics on the non-Clifford `T`/`T†`.
    pub fn apply_gate1(&mut self, g: Gate1, q: usize) {
        match g {
            Gate1::X | Gate1::Y | Gate1::Z => {}
            Gate1::H => std::mem::swap(&mut self.x[q], &mut self.z[q]),
            Gate1::S | Gate1::Sdg => self.z[q] ^= self.x[q],
            Gate1::T | Gate1::Tdg => panic!("frame propagation is Clifford-only"),
        }
    }

    /// Conjugates every lane's frame by a two-qubit gate.
    pub fn apply_gate2(&mut self, g: Gate2, i: usize, j: usize) {
        match g {
            Gate2::Cnot => {
                self.x[j] ^= self.x[i];
                self.z[i] ^= self.z[j];
            }
            Gate2::Cz => {
                self.z[j] ^= self.x[i];
                self.z[i] ^= self.x[j];
            }
            // iSWAP and its inverse share one phaseless action: swap the
            // qubits and fold both X components into both Z components.
            Gate2::ISwap | Gate2::ISwapDg => {
                let (xi, zi) = (self.x[i], self.z[i]);
                let (xj, zj) = (self.x[j], self.z[j]);
                let fold = xi ^ xj;
                self.x[i] = xj;
                self.z[i] = fold ^ zj;
                self.x[j] = xi;
                self.z[j] = fold ^ zi;
            }
        }
    }

    /// Multiplies `p` into every lane selected by `mask` (bit `l` set ⇒
    /// lane `l` picks up the error). One XOR per support qubit of `p`,
    /// independent of how many lanes fire.
    ///
    /// # Panics
    ///
    /// Panics if `p` is over a different number of qubits.
    pub fn apply_pauli_masked(&mut self, p: &PauliString, mask: u64) {
        assert_eq!(p.num_qubits(), self.x.len(), "qubit count mismatch");
        for q in p.x_bits().iter_ones() {
            self.x[q] ^= mask;
        }
        for q in p.z_bits().iter_ones() {
            self.z[q] ^= mask;
        }
    }

    /// Per-lane anticommutation parity with `op`: bit `l` of the result is
    /// set iff lane `l`'s frame anticommutes with `op`. This is the
    /// symplectic form `x·z' ⊕ z·x'` evaluated across all lanes at once.
    ///
    /// # Panics
    ///
    /// Panics if `op` is over a different number of qubits.
    pub fn anticommute_lanes(&self, op: &PauliString) -> u64 {
        assert_eq!(op.num_qubits(), self.x.len(), "qubit count mismatch");
        let mut acc = 0u64;
        for q in op.z_bits().iter_ones() {
            acc ^= self.x[q];
        }
        for q in op.x_bits().iter_ones() {
            acc ^= self.z[q];
        }
        acc
    }

    /// Extracts lane `l` as an (unsigned) `PauliString` — test/debug helper
    /// for comparing against the single-frame sampler.
    pub fn extract_lane(&self, lane: usize) -> PauliString {
        assert!(lane < LANES, "lane {lane} out of range");
        let n = self.x.len();
        let mut p = PauliString::identity(n);
        for q in 0..n {
            let x = self.x[q] >> lane & 1 == 1;
            let z = self.z[q] >> lane & 1 == 1;
            let letter = match (x, z) {
                (false, false) => continue,
                (true, false) => 'X',
                (false, true) => 'Z',
                (true, true) => 'Y',
            };
            p = p.mul(&PauliString::single(n, letter, q));
        }
        p.unsigned()
    }
}

impl FrameCircuit {
    /// Propagates up to [`LANES`] error configurations through the circuit
    /// in one pass. `errors[i]` is the lane mask of error site `i`: bit `l`
    /// set means configuration `l` activates that site. Returns one word
    /// per measurement; bit `l` is the outcome recorded by configuration
    /// `l`, so lane `l` of the result equals `self.sample` of the unpacked
    /// configuration `l`.
    ///
    /// Cost: O(ops) word operations for all 64 configurations together —
    /// no per-frame `PauliString` allocation, no tableau.
    ///
    /// # Panics
    ///
    /// Panics if `errors` has the wrong length.
    pub fn sample_batch(&self, errors: &[u64]) -> Vec<u64> {
        assert_eq!(errors.len(), self.num_error_sites(), "error vector length");
        let mut batch = FrameBatch::identity(self.num_qubits());
        let mut outcomes = Vec::new();
        for op in self.ops() {
            match op {
                FrameOp::Gate1(g, q) => batch.apply_gate1(*g, *q),
                FrameOp::Gate2(g, i, j) => batch.apply_gate2(*g, *i, *j),
                FrameOp::ErrorSite(idx, p) => batch.apply_pauli_masked(p, errors[*idx]),
                FrameOp::Measure {
                    op,
                    reference,
                    flip,
                } => {
                    let mut w = batch.anticommute_lanes(op);
                    if *reference {
                        w = !w;
                    }
                    if let Some(i) = flip {
                        w ^= errors[*i];
                    }
                    outcomes.push(w);
                }
            }
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        PauliString::from_letters(s).unwrap()
    }

    /// Runs `circuit.sample` once per lane and packs the histories into
    /// lane-mask words — the oracle for `sample_batch`.
    fn sample_lanes(fc: &FrameCircuit, errors: &[u64], lanes: usize) -> Vec<u64> {
        let mut packed = Vec::new();
        for lane in 0..lanes {
            let cfg: Vec<bool> = errors.iter().map(|w| w >> lane & 1 == 1).collect();
            for (m, bit) in fc.sample(&cfg).into_iter().enumerate() {
                if packed.len() <= m {
                    packed.push(0u64);
                }
                packed[m] |= (bit as u64) << lane;
            }
        }
        packed
    }

    #[test]
    fn batch_lanes_are_independent() {
        // Four configurations of the 3-qubit repetition cycle at once.
        let mut fc = FrameCircuit::new(3);
        fc.error_site(ps("XII"));
        fc.error_site(ps("IXI"));
        fc.error_site(ps("IIX"));
        fc.measure(ps("ZZI"), false);
        fc.measure(ps("IZZ"), false);
        // lane 0: no error; lane 1: e0; lane 2: e1; lane 3: e0+e2.
        let errors = [0b1010u64, 0b0100, 0b1000];
        let out = fc.sample_batch(&errors);
        assert_eq!(out, sample_lanes(&fc, &errors, 4));
        assert_eq!(out[0] & 0b1111, 0b1110); // ZZI fires for e0 (lanes 1, 3) and e1 (lane 2)
        assert_eq!(out[1] & 0b1111, 0b1100); // IZZ fires for e1 (lane 2) and e2 (lane 3)
    }

    #[test]
    fn gate_rules_match_single_frame_path() {
        // Every gate in the op set, exercised with X, Z and Y inputs on
        // separate lanes and pinned lane-by-lane against `sample`.
        let gates1 = [Gate1::X, Gate1::Y, Gate1::Z, Gate1::H, Gate1::S, Gate1::Sdg];
        let gates2 = [Gate2::Cnot, Gate2::Cz, Gate2::ISwap, Gate2::ISwapDg];
        for g in gates1 {
            let mut fc = FrameCircuit::new(2);
            fc.error_site(ps("XI"));
            fc.error_site(ps("ZI"));
            fc.error_site(ps("YI"));
            fc.gate1(g, 0);
            for obs in ["XI", "ZI", "YI", "XZ"] {
                fc.measure(ps(obs), false);
            }
            let errors = [0b001u64, 0b010, 0b100];
            assert_eq!(
                fc.sample_batch(&errors),
                sample_lanes(&fc, &errors, 3),
                "gate {g:?}"
            );
        }
        for g in gates2 {
            let mut fc = FrameCircuit::new(2);
            fc.error_site(ps("XI"));
            fc.error_site(ps("ZI"));
            fc.error_site(ps("IY"));
            fc.error_site(ps("YZ"));
            fc.gate2(g, 0, 1);
            for obs in ["XI", "ZI", "IX", "IZ", "XX", "ZZ"] {
                fc.measure(ps(obs), false);
            }
            let errors = [0b0001u64, 0b0010, 0b0100, 0b1000];
            assert_eq!(
                fc.sample_batch(&errors),
                sample_lanes(&fc, &errors, 4),
                "gate {g:?}"
            );
        }
    }

    #[test]
    fn measure_noisy_flip_masks_differ_per_lane() {
        // Two noisy rounds of the same check with *different* flip masks:
        // each lane's record must pick up exactly its own flips, and the
        // frame (hence the later perfect round) must be untouched.
        let mut fc = FrameCircuit::new(2);
        let data = fc.error_site(ps("XI"));
        let m0 = fc.measure_noisy(ps("ZZ"), false);
        let m1 = fc.measure_noisy(ps("ZZ"), false);
        fc.measure(ps("ZZ"), false);
        let mut errors = vec![0u64; fc.num_error_sites()];
        errors[data] = 0b0011; // lanes 0, 1 inject the data error
        errors[m0] = 0b0101; // lanes 0, 2 flip round 0's record
        errors[m1] = 0b1001; // lanes 0, 3 flip round 1's record
        let out = fc.sample_batch(&errors);
        assert_eq!(out.len(), 3);
        // Round 0: data error (lanes 0,1) ⊕ flip m0 (lanes 0,2) = lanes 1,2.
        assert_eq!(out[0] & 0xF, 0b0110);
        // Round 1: data error ⊕ flip m1 = lanes 1, 3.
        assert_eq!(out[1] & 0xF, 0b1010);
        // Perfect round sees only the data error: flips never touch the frame.
        assert_eq!(out[2] & 0xF, 0b0011);
        assert_eq!(out, sample_lanes(&fc, &errors, 4));
    }

    #[test]
    fn extract_lane_reads_back_planes() {
        let mut b = FrameBatch::identity(3);
        b.apply_pauli_masked(&ps("XIZ"), 0b01);
        b.apply_pauli_masked(&ps("IYI"), 0b10);
        assert_eq!(b.extract_lane(0), ps("XIZ").unsigned());
        assert_eq!(b.extract_lane(1), ps("IYI").unsigned());
        assert_eq!(b.extract_lane(2), PauliString::identity(3).unsigned());
    }

    #[test]
    #[should_panic(expected = "Clifford-only")]
    fn batch_rejects_t_gate() {
        FrameBatch::identity(1).apply_gate1(Gate1::T, 0);
    }
}

#[cfg(test)]
mod proptests {
    //! Differential pin: on a random Clifford circuit with random error
    //! sites, references and flips, batch lane `i` must equal the
    //! sequential sampler run on unpacked configuration `i` — same syndrome
    //! history bit for bit. (`sample` computes `reference ⊕ anticommute ⊕
    //! flip` for arbitrary references, so the oracle needs no tableau.)

    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn batch_lane_equals_sequential_frame(
            n in 2usize..6,
            raw in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..20),
            seeds in proptest::collection::vec(any::<u64>(), 8),
        ) {
            let mut fc = FrameCircuit::new(n);
            for &(kind, a, b, c) in &raw {
                match kind % 4 {
                    0 => {
                        let g = [Gate1::H, Gate1::S, Gate1::Sdg, Gate1::X,
                                 Gate1::Y, Gate1::Z][a as usize % 6];
                        fc.gate1(g, b as usize % n);
                    }
                    1 => {
                        let g = [Gate2::Cnot, Gate2::Cz, Gate2::ISwap,
                                 Gate2::ISwapDg][a as usize % 4];
                        let i = b as usize % n;
                        let j = (i + 1 + c as usize % (n - 1)) % n;
                        fc.gate2(g, i, j);
                    }
                    2 => {
                        let letter = ['X', 'Y', 'Z'][a as usize % 3];
                        fc.error_site(PauliString::single(n, letter, b as usize % n));
                    }
                    _ => {
                        let letter = ['X', 'Y', 'Z'][a as usize % 3];
                        let op = PauliString::single(n, letter, b as usize % n);
                        if c % 2 == 1 {
                            fc.measure_noisy(op, a % 2 == 1);
                        } else {
                            fc.measure(op, a % 2 == 1);
                        }
                    }
                }
            }
            let errors: Vec<u64> = (0..fc.num_error_sites())
                .map(|i| seeds[i % seeds.len()].rotate_left(i as u32))
                .collect();
            let batch = fc.sample_batch(&errors);
            for lane in 0..LANES {
                let cfg: Vec<bool> =
                    errors.iter().map(|w| w >> lane & 1 == 1).collect();
                let sequential = fc.sample(&cfg);
                let unpacked: Vec<bool> =
                    batch.iter().map(|w| w >> lane & 1 == 1).collect();
                prop_assert_eq!(&unpacked, &sequential);
            }
        }
    }
}
