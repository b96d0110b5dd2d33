//! Aaronson–Gottesman stabilizer tableau simulation (the "Stim" substrate).
//!
//! Tracks `n` stabilizer and `n` destabilizer rows as exact [`PauliString`]s
//! and supports measurement of arbitrary Hermitian Pauli operators. This is
//! the simulation baseline the paper compares against (§7.2): complete for
//! Clifford circuits, but only *tests* one error configuration per run, which
//! is exactly why verification is needed.

use veriqec_pauli::{Gate1, Gate2, PauliString};

/// A stabilizer state of `n` qubits as a CHP-style tableau.
///
/// # Examples
///
/// ```
/// use veriqec_qsim::Tableau;
/// use veriqec_pauli::{Gate1, Gate2, PauliString};
///
/// let mut t = Tableau::zero_state(2);
/// t.apply_gate1(Gate1::H, 0);
/// t.apply_gate2(Gate2::Cnot, 0, 1);
/// // Bell state: measuring ZZ is deterministic +1.
/// let zz = PauliString::from_letters("ZZ").unwrap();
/// assert_eq!(t.measure_pauli(&zz, || false), false);
/// ```
#[derive(Clone, Debug)]
pub struct Tableau {
    n: usize,
    stab: Vec<PauliString>,
    destab: Vec<PauliString>,
}

impl Tableau {
    /// The state `|0…0⟩`: stabilizers `Z_i`, destabilizers `X_i`.
    pub fn zero_state(n: usize) -> Self {
        Tableau {
            n,
            stab: (0..n).map(|i| PauliString::single(n, 'Z', i)).collect(),
            destab: (0..n).map(|i| PauliString::single(n, 'X', i)).collect(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Current stabilizer generators.
    pub fn stabilizers(&self) -> &[PauliString] {
        &self.stab
    }

    /// Applies a single-qubit Clifford gate.
    ///
    /// # Panics
    ///
    /// Panics on `T`/`T†` — the tableau representation is Clifford-only.
    pub fn apply_gate1(&mut self, gate: Gate1, q: usize) {
        assert!(gate.is_clifford(), "tableau simulation is Clifford-only");
        // Each row becomes `U row U†`: the wp conjugation by `U†`.
        let inv = gate.inverse();
        for row in self.stab.iter_mut().chain(self.destab.iter_mut()) {
            row.conjugate1(inv, q);
        }
    }

    /// Applies a two-qubit gate.
    pub fn apply_gate2(&mut self, gate: Gate2, i: usize, j: usize) {
        let inv = gate.inverse();
        for row in self.stab.iter_mut().chain(self.destab.iter_mut()) {
            row.conjugate2(inv, i, j);
        }
    }

    /// Applies a Pauli operator (deterministic frame update: only signs of
    /// anticommuting rows flip).
    pub fn apply_pauli(&mut self, p: &PauliString) {
        for row in self.stab.iter_mut().chain(self.destab.iter_mut()) {
            if row.anticommutes_with(p) {
                row.add_ipow(2);
            }
        }
    }

    /// Measures a Hermitian `±1` Pauli operator.
    ///
    /// If the outcome is random, `coin` is called to choose it
    /// (`false` = +1 result). Returns the outcome bit (`true` = −1
    /// eigenvalue observed).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not Hermitian or acts on the wrong qubit count.
    pub fn measure_pauli<F: FnOnce() -> bool>(&mut self, p: &PauliString, coin: F) -> bool {
        assert_eq!(p.num_qubits(), self.n, "qubit count mismatch");
        assert!(p.hermitian_sign().is_some(), "measurement needs ±1 Pauli");
        if let Some(pivot) = (0..self.n).find(|&i| self.stab[i].anticommutes_with(p)) {
            // Random outcome.
            let outcome = coin();
            let pivot_row = self.stab[pivot].clone();
            for i in 0..self.n {
                if i != pivot && self.stab[i].anticommutes_with(p) {
                    self.stab[i] = self.stab[i].mul(&pivot_row);
                }
                if self.destab[i].anticommutes_with(p) {
                    self.destab[i] = self.destab[i].mul(&pivot_row);
                }
            }
            self.destab[pivot] = pivot_row;
            let mut new_stab = p.clone();
            if outcome {
                new_stab.add_ipow(2);
            }
            self.stab[pivot] = new_stab;
            outcome
        } else {
            // Deterministic: express P over stabilizers via destabilizers.
            let mut acc = PauliString::identity(self.n);
            for i in 0..self.n {
                if self.destab[i].anticommutes_with(p) {
                    acc = acc.mul(&self.stab[i]);
                }
            }
            assert_eq!(
                acc.unsigned(),
                p.unsigned(),
                "deterministic measurement must reproduce P up to sign"
            );
            let acc_sign = acc
                .hermitian_sign()
                .expect("stabilizer product is Hermitian");
            let p_sign = p.hermitian_sign().expect("checked above");
            acc_sign != p_sign
        }
    }

    /// True when the state is stabilized by `p` (deterministic +1 outcome).
    pub fn is_stabilized_by(&self, p: &PauliString) -> bool {
        let mut probe = self.clone();
        if (0..self.n).any(|i| probe.stab[i].anticommutes_with(p)) {
            return false;
        }
        !probe.measure_pauli(p, || false)
    }

    /// Resets qubit `q` to `|0⟩`.
    pub fn reset_qubit<F: FnOnce() -> bool>(&mut self, q: usize, coin: F) {
        let z = PauliString::single(self.n, 'Z', q);
        let outcome = self.measure_pauli(&z, coin);
        if outcome {
            self.apply_pauli(&PauliString::single(self.n, 'X', q));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        PauliString::from_letters(s).unwrap()
    }

    #[test]
    fn zero_state_measurements() {
        let mut t = Tableau::zero_state(3);
        assert!(!t.measure_pauli(&ps("ZII"), || panic!("deterministic")));
        assert!(!t.measure_pauli(&ps("IZZ"), || panic!("deterministic")));
        assert!(t.measure_pauli(&ps("-ZII"), || panic!("deterministic")));
    }

    #[test]
    fn bell_state_correlations() {
        let mut t = Tableau::zero_state(2);
        t.apply_gate1(Gate1::H, 0);
        t.apply_gate2(Gate2::Cnot, 0, 1);
        assert!(t.is_stabilized_by(&ps("XX")));
        assert!(t.is_stabilized_by(&ps("ZZ")));
        assert!(t.is_stabilized_by(&ps("-YY")));
        // Random single-qubit measurement correlates the pair: after reading
        // Z0 = −1 the state is |11⟩, so ZZ is deterministically +1 and −ZZ
        // deterministically −1.
        let r = t.measure_pauli(&ps("ZI"), || true);
        assert!(r);
        assert!(!t.measure_pauli(&ps("ZZ"), || panic!("deterministic")));
        assert!(t.measure_pauli(&ps("-ZZ"), || panic!("deterministic")));
    }

    #[test]
    fn pauli_errors_flip_syndromes() {
        let mut t = Tableau::zero_state(2);
        t.apply_pauli(&ps("XI"));
        assert!(t.measure_pauli(&ps("ZI"), || panic!("deterministic")));
        assert!(!t.measure_pauli(&ps("IZ"), || panic!("deterministic")));
    }

    #[test]
    fn repeated_measurement_is_stable() {
        let mut t = Tableau::zero_state(1);
        t.apply_gate1(Gate1::H, 0);
        let first = t.measure_pauli(&ps("Z"), || true);
        let second = t.measure_pauli(&ps("Z"), || panic!("now deterministic"));
        assert_eq!(first, second);
    }

    #[test]
    fn reset_clears_entanglement() {
        let mut t = Tableau::zero_state(2);
        t.apply_gate1(Gate1::H, 0);
        t.apply_gate2(Gate2::Cnot, 0, 1);
        t.reset_qubit(0, || false);
        assert!(t.is_stabilized_by(&ps("ZI")));
    }

    #[test]
    fn s_gate_phase_tracking() {
        // S|+⟩ has stabilizer Y.
        let mut t = Tableau::zero_state(1);
        t.apply_gate1(Gate1::H, 0);
        t.apply_gate1(Gate1::S, 0);
        assert!(t.is_stabilized_by(&ps("Y")));
        // And Sdg|+⟩ has stabilizer −Y.
        let mut t2 = Tableau::zero_state(1);
        t2.apply_gate1(Gate1::H, 0);
        t2.apply_gate1(Gate1::Sdg, 0);
        assert!(t2.is_stabilized_by(&ps("-Y")));
    }
}
