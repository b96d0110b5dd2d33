//! Dense state-vector simulation of Clifford+T circuits with projective
//! Pauli measurements.
//!
//! This backend is the executable ground truth for the program semantics
//! (Fig. 2) and for the soundness tests of the proof system — the role the
//! Coq/CoqQ formalization plays in the paper (see `DESIGN.md`).

use crate::complex::{inner, C64};
use veriqec_pauli::{Gate1, Gate2, PauliString};

/// A pure state of `n` qubits as a dense amplitude vector.
///
/// Qubit 0 is the most significant bit of the basis index, so basis state
/// `|q0 q1 … q_{n-1}⟩` has index `q0·2^{n-1} + … + q_{n-1}`.
///
/// # Examples
///
/// ```
/// use veriqec_qsim::DenseState;
/// use veriqec_pauli::{Gate1, PauliString};
///
/// let mut st = DenseState::zero_state(2);
/// st.apply_gate1(Gate1::H, 0);
/// // Now stabilized by X0 and Z1.
/// assert!(st.is_stabilized_by(&PauliString::from_letters("XI").unwrap()));
/// assert!(st.is_stabilized_by(&PauliString::from_letters("IZ").unwrap()));
/// ```
#[derive(Clone, Debug)]
pub struct DenseState {
    n: usize,
    amps: Vec<C64>,
}

const TOL: f64 = 1e-9;

impl DenseState {
    /// The all-zeros computational basis state `|0…0⟩`.
    pub fn zero_state(n: usize) -> Self {
        assert!(n <= 20, "dense simulation limited to 20 qubits");
        let mut amps = vec![C64::zero(); 1 << n];
        amps[0] = C64::one();
        DenseState { n, amps }
    }

    /// Builds from raw amplitudes (must have power-of-two length).
    ///
    /// # Panics
    ///
    /// Panics if the length is not `2^n` for some `n`.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        let n = amps.len().trailing_zeros() as usize;
        assert_eq!(1usize << n, amps.len(), "length must be a power of two");
        DenseState { n, amps }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The amplitude vector.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Squared norm (≤ 1 after projective measurements).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|c| c.norm_sqr()).sum()
    }

    /// Renormalizes to unit norm.
    ///
    /// # Panics
    ///
    /// Panics when the state is (numerically) zero.
    pub fn normalize(&mut self) {
        let norm = self.norm_sqr().sqrt();
        assert!(norm > TOL, "cannot normalize a zero state");
        for a in &mut self.amps {
            *a = *a * (1.0 / norm);
        }
    }

    fn bit_of(&self, index: usize, q: usize) -> bool {
        (index >> (self.n - 1 - q)) & 1 == 1
    }

    /// Applies a single-qubit gate.
    pub fn apply_gate1(&mut self, gate: Gate1, q: usize) {
        let m = gate1_matrix(gate);
        self.apply_matrix1(&m, q);
    }

    /// Applies an arbitrary 2×2 matrix to qubit `q`.
    pub fn apply_matrix1(&mut self, m: &[[C64; 2]; 2], q: usize) {
        assert!(q < self.n, "qubit index out of range");
        let stride = 1usize << (self.n - 1 - q);
        let len = self.amps.len();
        let mut i = 0;
        while i < len {
            if i & stride == 0 {
                let a0 = self.amps[i];
                let a1 = self.amps[i | stride];
                self.amps[i] = m[0][0] * a0 + m[0][1] * a1;
                self.amps[i | stride] = m[1][0] * a0 + m[1][1] * a1;
            }
            i += 1;
        }
    }

    /// Applies a two-qubit gate to qubits `(i, j)` (i = first index of the
    /// matrix's 2-bit input, i.e. the control for CNOT).
    pub fn apply_gate2(&mut self, gate: Gate2, i: usize, j: usize) {
        let m = gate2_matrix(gate);
        self.apply_matrix2(&m, i, j);
    }

    /// Applies an arbitrary 4×4 matrix to qubits `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or indices are out of range.
    pub fn apply_matrix2(&mut self, m: &[[C64; 4]; 4], i: usize, j: usize) {
        assert!(i < self.n && j < self.n && i != j, "bad qubit pair");
        let si = 1usize << (self.n - 1 - i);
        let sj = 1usize << (self.n - 1 - j);
        for base in 0..self.amps.len() {
            if base & si == 0 && base & sj == 0 {
                let idx = [base, base | sj, base | si, base | si | sj];
                let old: Vec<C64> = idx.iter().map(|&k| self.amps[k]).collect();
                for (r, &k) in idx.iter().enumerate() {
                    let mut acc = C64::zero();
                    for (c, &o) in old.iter().enumerate() {
                        acc += m[r][c] * o;
                    }
                    self.amps[k] = acc;
                }
            }
        }
    }

    /// Applies a Pauli string operator (including its exact phase).
    pub fn apply_pauli(&mut self, p: &PauliString) {
        assert_eq!(p.num_qubits(), self.n, "qubit count mismatch");
        let phase = C64::i_pow(p.ipow());
        let mut out = vec![C64::zero(); self.amps.len()];
        for (idx, &a) in self.amps.iter().enumerate() {
            if a.is_zero_within(1e-300) {
                continue;
            }
            // i^t X^x Z^z |s⟩ = i^t (−1)^{z·s} |s ⊕ x⟩
            let mut sign = false;
            let mut target = idx;
            for q in 0..self.n {
                let bit = self.bit_of(idx, q);
                if p.z_bit(q) && bit {
                    sign = !sign;
                }
                if p.x_bit(q) {
                    target ^= 1 << (self.n - 1 - q);
                }
            }
            let mut amp = phase * a;
            if sign {
                amp = -amp;
            }
            out[target] += amp;
        }
        self.amps = out;
    }

    /// `P|ψ⟩` as a new vector without mutating the state.
    pub fn pauli_applied(&self, p: &PauliString) -> DenseState {
        let mut c = self.clone();
        c.apply_pauli(p);
        c
    }

    /// True when `P|ψ⟩ = |ψ⟩` within numerical tolerance (the satisfaction
    /// relation `|ψ⟩⟨ψ| ⊨ P` of Def. 3.4 for pure states).
    pub fn is_stabilized_by(&self, p: &PauliString) -> bool {
        let applied = self.pauli_applied(p);
        self.amps
            .iter()
            .zip(&applied.amps)
            .all(|(a, b)| (*a - *b).norm() < 1e-7)
    }

    /// Projects onto the `(−1)^outcome` eigenspace of the Hermitian Pauli
    /// `p`, returning the squared norm of the projection (the probability,
    /// for a normalized input). The state is left *unnormalized*.
    pub fn project_pauli(&mut self, p: &PauliString, outcome: bool) -> f64 {
        let applied = self.pauli_applied(p);
        let sign = if outcome { -1.0 } else { 1.0 };
        for (a, b) in self.amps.iter_mut().zip(&applied.amps) {
            *a = (*a + *b * sign) * 0.5;
        }
        self.norm_sqr()
    }

    /// Measures a Hermitian Pauli, choosing the outcome by the Born rule via
    /// the supplied uniform random number in `[0,1)`. Collapses and
    /// renormalizes. Returns the outcome (`false` = +1 eigenvalue).
    pub fn measure_pauli(&mut self, p: &PauliString, coin: f64) -> bool {
        let mut plus = self.clone();
        let p_plus = plus.project_pauli(p, false) / self.norm_sqr();
        let outcome = coin >= p_plus;
        let _ = self.project_pauli(p, outcome);
        self.normalize();
        outcome
    }

    /// Resets qubit `q` to `|0⟩` (the `q := |0⟩` statement: measure in the
    /// computational basis and flip on outcome 1).
    pub fn reset_qubit(&mut self, q: usize, coin: f64) {
        let z = PauliString::single(self.n, 'Z', q);
        let outcome = self.measure_pauli(&z, coin);
        if outcome {
            self.apply_gate1(Gate1::X, q);
        }
    }

    /// Fidelity |⟨a|b⟩|² between normalized states.
    pub fn fidelity(&self, other: &DenseState) -> f64 {
        inner(&self.amps, &other.amps).norm_sqr() / (self.norm_sqr() * other.norm_sqr())
    }

    /// Global-phase-insensitive equality.
    pub fn equals_up_to_phase(&self, other: &DenseState) -> bool {
        (self.fidelity(other) - 1.0).abs() < 1e-7
    }
}

/// The 2×2 matrix of a single-qubit gate.
pub fn gate1_matrix(gate: Gate1) -> [[C64; 2]; 2] {
    let o = C64::one();
    let z = C64::zero();
    let i = C64::i();
    let h = C64::real(std::f64::consts::FRAC_1_SQRT_2);
    let t = C64::new(
        std::f64::consts::FRAC_1_SQRT_2,
        std::f64::consts::FRAC_1_SQRT_2,
    );
    match gate {
        Gate1::X => [[z, o], [o, z]],
        Gate1::Y => [[z, -i], [i, z]],
        Gate1::Z => [[o, z], [z, -o]],
        Gate1::H => [[h, h], [h, -h]],
        Gate1::S => [[o, z], [z, i]],
        Gate1::Sdg => [[o, z], [z, -i]],
        Gate1::T => [[o, z], [z, t]],
        Gate1::Tdg => [[o, z], [z, t.conj()]],
    }
}

/// The 4×4 matrix of a two-qubit gate (first qubit = high bit).
pub fn gate2_matrix(gate: Gate2) -> [[C64; 4]; 4] {
    let o = C64::one();
    let z = C64::zero();
    let i = C64::i();
    match gate {
        Gate2::Cnot => [[o, z, z, z], [z, o, z, z], [z, z, z, o], [z, z, o, z]],
        Gate2::Cz => [[o, z, z, z], [z, o, z, z], [z, z, o, z], [z, z, z, -o]],
        // Matches the paper's iSWAP matrix (§2.1): off-diagonal −i entries.
        Gate2::ISwap => [[o, z, z, z], [z, z, -i, z], [z, -i, z, z], [z, z, z, o]],
        Gate2::ISwapDg => [[o, z, z, z], [z, z, i, z], [z, i, z, z], [z, z, z, o]],
    }
}

/// Dense matrix of a Pauli string (for validation tests), dimension `2^n`.
pub fn pauli_matrix(p: &PauliString) -> Vec<Vec<C64>> {
    let n = p.num_qubits();
    let dim = 1usize << n;
    let mut m = vec![vec![C64::zero(); dim]; dim];
    for col in 0..dim {
        let mut st = DenseState::zero_state(n);
        st.amps = vec![C64::zero(); dim];
        st.amps[col] = C64::one();
        st.apply_pauli(p);
        for (row_vec, &amp) in m.iter_mut().zip(st.amps.iter()) {
            row_vec[col] = amp;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bell_state_stabilizers() {
        let mut st = DenseState::zero_state(2);
        st.apply_gate1(Gate1::H, 0);
        st.apply_gate2(Gate2::Cnot, 0, 1);
        for s in ["XX", "ZZ"] {
            assert!(st.is_stabilized_by(&PauliString::from_letters(s).unwrap()));
        }
        assert!(st.is_stabilized_by(&PauliString::from_letters("-YY").unwrap()));
        assert!(!st.is_stabilized_by(&PauliString::from_letters("YY").unwrap()));
    }

    #[test]
    fn pauli_apply_matches_gates() {
        // Applying the X gate equals applying the Pauli string X.
        let mut a = DenseState::zero_state(3);
        a.apply_gate1(Gate1::H, 1); // make it interesting
        let mut b = a.clone();
        a.apply_gate1(Gate1::Y, 2);
        b.apply_pauli(&PauliString::single(3, 'Y', 2));
        assert!(a.equals_up_to_phase(&b));
        // And the phases agree exactly, not just up to phase:
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!((*x - *y).norm() < 1e-12);
        }
    }

    #[test]
    fn measurement_probabilities() {
        let mut st = DenseState::zero_state(1);
        st.apply_gate1(Gate1::H, 0);
        let z = PauliString::single(1, 'Z', 0);
        let mut plus = st.clone();
        let p0 = plus.project_pauli(&z, false);
        assert!((p0 - 0.5).abs() < 1e-12);
        // Collapse to |0⟩ and check.
        plus.normalize();
        assert!(plus.is_stabilized_by(&z));
    }

    #[test]
    fn deterministic_measurement_keeps_state() {
        let mut st = DenseState::zero_state(2);
        st.apply_gate1(Gate1::H, 0);
        st.apply_gate2(Gate2::Cnot, 0, 1);
        let before = st.clone();
        let outcome = st.measure_pauli(&PauliString::from_letters("XX").unwrap(), 0.7);
        assert!(!outcome);
        assert!(st.equals_up_to_phase(&before));
    }

    #[test]
    fn reset_produces_zero() {
        let mut st = DenseState::zero_state(1);
        st.apply_gate1(Gate1::H, 0);
        st.reset_qubit(0, 0.9); // whichever outcome, result is |0⟩
        let z = PauliString::single(1, 'Z', 0);
        assert!(st.is_stabilized_by(&z));
    }

    #[test]
    fn ghz_state_stabilizers() {
        let mut st = DenseState::zero_state(3);
        st.apply_gate1(Gate1::H, 0);
        st.apply_gate2(Gate2::Cnot, 0, 1);
        st.apply_gate2(Gate2::Cnot, 1, 2);
        for s in ["XXX", "ZZI", "IZZ"] {
            assert!(
                st.is_stabilized_by(&PauliString::from_letters(s).unwrap()),
                "{s}"
            );
        }
    }
}
