//! Pauli-frame sampling: Stim's fast-sampling trick.
//!
//! For a *fixed* Clifford reference circuit, the effect of injecting Pauli
//! errors is fully described by propagating a Pauli "frame" through the
//! circuit: gates conjugate the frame, and a measurement's outcome flips
//! exactly when the frame anticommutes with the measured operator. One
//! reference tableau simulation then supports millions of cheap error
//! samples — this is what makes testing fast and is the honest baseline for
//! the paper's §7.2 comparison.

use veriqec_pauli::{Gate1, Gate2, PauliString};

/// One step of a compiled Clifford reference circuit.
#[derive(Clone, Debug)]
pub enum FrameOp {
    /// A single-qubit Clifford gate.
    Gate1(Gate1, usize),
    /// A two-qubit gate.
    Gate2(Gate2, usize, usize),
    /// A potential error-injection site: index into the error vector; the
    /// Pauli applied when the corresponding indicator is set.
    ErrorSite(usize, PauliString),
    /// A Pauli measurement with its reference outcome (from the noiseless
    /// run); the sampled outcome is
    /// `reference ⊕ anticommute(frame, op) ⊕ flip`, where `flip` reads the
    /// error vector at the given measurement-flip site (`None` for perfect
    /// readout). This is the frame-level mirror of the program statement
    /// `x := meas[P] ⊕ m`: the flip corrupts the record only — the frame
    /// itself is untouched, exactly as the quantum state is.
    Measure {
        /// The measured operator.
        op: PauliString,
        /// Outcome of the noiseless reference execution.
        reference: bool,
        /// Measurement-flip error site, if the readout is faulty.
        flip: Option<usize>,
    },
}

/// A compiled frame-sampling circuit.
#[derive(Clone, Debug)]
pub struct FrameCircuit {
    ops: Vec<FrameOp>,
    num_qubits: usize,
    num_error_sites: usize,
}

impl FrameCircuit {
    /// Creates a circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        FrameCircuit {
            ops: Vec::new(),
            num_qubits,
            num_error_sites: 0,
        }
    }

    /// Appends a single-qubit gate.
    pub fn gate1(&mut self, g: Gate1, q: usize) -> &mut Self {
        assert!(g.is_clifford(), "frame propagation is Clifford-only");
        self.ops.push(FrameOp::Gate1(g, q));
        self
    }

    /// Appends a two-qubit gate.
    pub fn gate2(&mut self, g: Gate2, i: usize, j: usize) -> &mut Self {
        self.ops.push(FrameOp::Gate2(g, i, j));
        self
    }

    /// Appends an error site; returns its index in the error vector.
    pub fn error_site(&mut self, p: PauliString) -> usize {
        let idx = self.num_error_sites;
        self.num_error_sites += 1;
        self.ops.push(FrameOp::ErrorSite(idx, p));
        idx
    }

    /// Appends a perfect measurement with the given noiseless reference
    /// outcome.
    pub fn measure(&mut self, op: PauliString, reference: bool) -> &mut Self {
        self.ops.push(FrameOp::Measure {
            op,
            reference,
            flip: None,
        });
        self
    }

    /// Appends a *faulty* measurement: the recorded outcome is additionally
    /// XORed with a fresh measurement-flip error site, whose index in the
    /// error vector is returned.
    pub fn measure_noisy(&mut self, op: PauliString, reference: bool) -> usize {
        let idx = self.num_error_sites;
        self.num_error_sites += 1;
        self.ops.push(FrameOp::Measure {
            op,
            reference,
            flip: Some(idx),
        });
        idx
    }

    /// Number of error sites.
    pub fn num_error_sites(&self) -> usize {
        self.num_error_sites
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The compiled op stream, shared with the bit-sliced batch sampler.
    pub(crate) fn ops(&self) -> &[FrameOp] {
        &self.ops
    }

    /// Propagates one error configuration through the circuit, returning the
    /// measurement outcomes. `errors[i]` activates error site `i`.
    ///
    /// Cost: O(ops · n) bit operations per sample — no state vector, no
    /// tableau.
    ///
    /// # Panics
    ///
    /// Panics if `errors` has the wrong length.
    pub fn sample(&self, errors: &[bool]) -> Vec<bool> {
        assert_eq!(errors.len(), self.num_error_sites, "error vector length");
        let mut frame = PauliString::identity(self.num_qubits);
        let mut outcomes = Vec::new();
        for op in &self.ops {
            match op {
                // The frame's phase never reaches an outcome.
                FrameOp::Gate1(g, q) => frame.conjugate1(g.inverse(), *q),
                FrameOp::Gate2(g, i, j) => frame.conjugate2(g.inverse(), *i, *j),
                FrameOp::ErrorSite(idx, p) => {
                    if errors[*idx] {
                        frame = frame.mul(p);
                    }
                }
                FrameOp::Measure {
                    op,
                    reference,
                    flip,
                } => {
                    let flipped = flip.map(|i| errors[i]).unwrap_or(false);
                    outcomes.push(reference ^ frame.anticommutes_with(op) ^ flipped);
                }
            }
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tableau;

    fn ps(s: &str) -> PauliString {
        PauliString::from_letters(s).unwrap()
    }

    #[test]
    fn measurement_flip_corrupts_the_record_only() {
        // A flip site inverts its measurement's record but leaves the frame
        // (and therefore every later measurement) untouched.
        let mut fc = FrameCircuit::new(2);
        let m = fc.measure_noisy(ps("ZZ"), false);
        fc.measure(ps("ZZ"), false);
        let mut errors = vec![false; fc.num_error_sites()];
        assert_eq!(fc.sample(&errors), vec![false, false]);
        errors[m] = true;
        assert_eq!(
            fc.sample(&errors),
            vec![true, false],
            "only the flipped round's record changes"
        );
    }

    #[test]
    fn frame_matches_tableau_on_repetition_cycle() {
        // Bit-flip code: reference = noiseless syndrome measurement (0, 0).
        let mut fc = FrameCircuit::new(3);
        let e0 = fc.error_site(ps("XII"));
        let e1 = fc.error_site(ps("IXI"));
        let e2 = fc.error_site(ps("IIX"));
        fc.measure(ps("ZZI"), false);
        fc.measure(ps("IZZ"), false);
        for bits in 0u8..8 {
            let errors = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
            let frame_out = fc.sample(&errors);
            // Ground truth via tableau.
            let mut tab = Tableau::zero_state(3);
            for (i, &(b, p)) in [(errors[0], e0), (errors[1], e1), (errors[2], e2)]
                .iter()
                .enumerate()
            {
                let _ = (p, i);
                if b {
                    tab.apply_pauli(&ps(["XII", "IXI", "IIX"][i]));
                }
            }
            let s0 = tab.measure_pauli(&ps("ZZI"), || unreachable!("deterministic"));
            let s1 = tab.measure_pauli(&ps("IZZ"), || unreachable!("deterministic"));
            assert_eq!(frame_out, vec![s0, s1], "errors {errors:?}");
        }
    }

    #[test]
    fn frame_propagates_through_gates() {
        // X error before CNOT(0,1) fans out to both qubits.
        let mut fc = FrameCircuit::new(2);
        let e = fc.error_site(ps("XI"));
        fc.gate2(Gate2::Cnot, 0, 1);
        fc.measure(ps("ZI"), false);
        fc.measure(ps("IZ"), false);
        assert_eq!(fc.sample(&[true]), vec![true, true]);
        let _ = e;
        // Z error on the control stays put.
        let mut fc2 = FrameCircuit::new(2);
        fc2.error_site(ps("ZI"));
        fc2.gate2(Gate2::Cnot, 0, 1);
        fc2.measure(ps("XX"), false);
        fc2.measure(ps("IX"), false);
        assert_eq!(fc2.sample(&[true]), vec![true, false]);
    }

    #[test]
    fn sampling_throughput_is_state_free() {
        // A larger circuit: many samples must not allocate state vectors.
        let n = 30;
        let mut fc = FrameCircuit::new(n);
        for q in 0..n {
            fc.error_site(PauliString::single(n, 'Y', q));
        }
        for q in 0..n - 1 {
            fc.gate2(Gate2::Cnot, q, q + 1);
        }
        for q in 0..n - 1 {
            let z2 = PauliString::single(n, 'Z', q).mul(&PauliString::single(n, 'Z', q + 1));
            fc.measure(z2, false);
        }
        let mut errors = vec![false; n];
        errors[7] = true;
        let out = fc.sample(&errors);
        assert_eq!(out.len(), n - 1);
        assert!(out.iter().any(|&b| b));
    }
}

#[cfg(test)]
mod proptests {
    //! The frame sampler and the tableau simulator must agree on the
    //! *syndrome history* of any Clifford circuit with injected Pauli data
    //! errors and measurement flips — same error configuration, same
    //! records. This is the shared-semantics pin for the measurement-noise
    //! model: both backends read one circuit description, so a divergence
    //! is a bug in one of the two noise implementations.

    use super::*;
    use crate::Tableau;
    use proptest::prelude::*;

    /// A measurement-free or measurement step decoded from raw tuples.
    enum Step {
        G1(Gate1, usize),
        G2(Gate2, usize, usize),
        /// Data-error site: the Pauli applied when the indicator fires.
        Error(PauliString, usize),
        /// Measurement of a product of the *current* stabilizer generators
        /// (deterministic by construction), optionally with a flip site.
        Meas(PauliString, Option<usize>),
    }

    /// Decodes raw tuples into a circuit, building the frame circuit and
    /// the noiseless reference run along the way.
    fn build(n: usize, raw: &[(u8, u8, u8, u8)]) -> (FrameCircuit, Vec<Step>) {
        let mut fc = FrameCircuit::new(n);
        let mut steps = Vec::new();
        // Current stabilizer generators: U Z_i U† for the gates so far.
        let mut gens: Vec<PauliString> = (0..n).map(|q| PauliString::single(n, 'Z', q)).collect();
        // Noiseless reference state.
        let mut reference = Tableau::zero_state(n);
        for &(kind, a, b, c) in raw {
            match kind % 4 {
                0 => {
                    let g = [Gate1::H, Gate1::S, Gate1::X, Gate1::Z][a as usize % 4];
                    let q = b as usize % n;
                    fc.gate1(g, q);
                    reference.apply_gate1(g, q);
                    for gen in &mut gens {
                        gen.conjugate1(g.inverse(), q);
                    }
                    steps.push(Step::G1(g, q));
                }
                1 => {
                    let g = [Gate2::Cnot, Gate2::Cz][a as usize % 2];
                    let i = b as usize % n;
                    let j = (i + 1 + c as usize % (n - 1)) % n;
                    fc.gate2(g, i, j);
                    reference.apply_gate2(g, i, j);
                    for gen in &mut gens {
                        gen.conjugate2(g.inverse(), i, j);
                    }
                    steps.push(Step::G2(g, i, j));
                }
                2 => {
                    let letter = ['X', 'Y', 'Z'][a as usize % 3];
                    let p = PauliString::single(n, letter, b as usize % n);
                    let site = fc.error_site(p.clone());
                    steps.push(Step::Error(p, site));
                }
                _ => {
                    let mask = 1 + a as usize % ((1 << n) - 1);
                    let mut op = PauliString::identity(n);
                    for (i, gen) in gens.iter().enumerate() {
                        if mask >> i & 1 == 1 {
                            op = op.mul(gen);
                        }
                    }
                    let outcome =
                        reference.measure_pauli(&op, || unreachable!("stabilizer product"));
                    let flip = if b % 2 == 1 {
                        Some(fc.measure_noisy(op.clone(), outcome))
                    } else {
                        fc.measure(op.clone(), outcome);
                        None
                    };
                    steps.push(Step::Meas(op, flip));
                }
            }
        }
        (fc, steps)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn frame_matches_tableau_with_data_and_measurement_errors(
            n in 2usize..5,
            raw in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..14),
            error_seed in any::<u64>(),
        ) {
            let (fc, steps) = build(n, &raw);
            let errors: Vec<bool> = (0..fc.num_error_sites())
                .map(|i| error_seed >> (i % 64) & 1 == 1)
                .collect();
            let frame_history = fc.sample(&errors);
            // Ground truth: tableau run with the same error configuration.
            let mut tab = Tableau::zero_state(n);
            let mut tableau_history = Vec::new();
            for step in &steps {
                match step {
                    Step::G1(g, q) => tab.apply_gate1(*g, *q),
                    Step::G2(g, i, j) => tab.apply_gate2(*g, *i, *j),
                    Step::Error(p, site) => {
                        if errors[*site] {
                            tab.apply_pauli(p);
                        }
                    }
                    Step::Meas(op, flip) => {
                        // Pauli errors preserve commutation with the
                        // stabilizer, so outcomes stay deterministic.
                        let outcome =
                            tab.measure_pauli(op, || unreachable!("deterministic"));
                        let flipped = flip.map(|s| errors[s]).unwrap_or(false);
                        tableau_history.push(outcome ^ flipped);
                    }
                }
            }
            // Same error configuration ⇒ same syndrome history.
            prop_assert_eq!(frame_history, tableau_history);
        }
    }
}
