//! Quantum-state simulation backends for the Veri-QEC reproduction.
//!
//! Two semantics engines:
//!
//! * [`Tableau`] — Aaronson–Gottesman stabilizer simulation (the role Stim
//!   plays in the paper's §7.2 comparison);
//! * [`DenseState`] — dense state vectors for Clifford+T with projective
//!   Pauli measurements, plus [`Subspace`] — the full Birkhoff–von Neumann
//!   subspace lattice (meet/join/orthocomplement/Sasaki operations of
//!   Appendix A.3), used as executable ground truth for the assertion
//!   logic and the soundness tests of the proof system.
//!
//! The test suite of this crate also validates every Clifford conjugation
//! table of `veriqec_pauli` against explicit unitary matrices — the
//! reproduction's substitute for the paper's Coq-verified trust base.

#![forbid(unsafe_code)]

mod complex;
mod dense;
mod frame;
mod frame_batch;
mod subspace;
mod tableau;

pub use complex::{inner, vec_norm, C64};
pub use dense::{gate1_matrix, gate2_matrix, pauli_matrix, DenseState};
pub use frame::{FrameCircuit, FrameOp};
pub use frame_batch::{FrameBatch, LANES};
pub use subspace::Subspace;
pub use tableau::Tableau;

#[cfg(test)]
mod conjugation_validation {
    //! Validates the symbolic `U† P U` tables against dense matrices.

    use super::*;
    use veriqec_cexpr::Affine;
    use veriqec_pauli::{conj1, conj1_ext, conj2, Gate1, Gate2, PauliString, SymPauli};

    fn mat_mul(a: &[Vec<C64>], b: &[Vec<C64>]) -> Vec<Vec<C64>> {
        let n = a.len();
        let mut out = vec![vec![C64::zero(); n]; n];
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for k in 0..n {
                if a[i][k].is_zero_within(1e-300) {
                    continue;
                }
                for j in 0..n {
                    out[i][j] += a[i][k] * b[k][j];
                }
            }
        }
        out
    }

    fn mat_close(a: &[Vec<C64>], b: &[Vec<C64>]) -> bool {
        a.iter()
            .zip(b)
            .all(|(ra, rb)| ra.iter().zip(rb).all(|(x, y)| (*x - *y).norm() < 1e-9))
    }

    fn dagger(a: &[Vec<C64>]) -> Vec<Vec<C64>> {
        let n = a.len();
        (0..n)
            .map(|i| (0..n).map(|j| a[j][i].conj()).collect())
            .collect()
    }

    fn embed1(gate: Gate1, q: usize, n: usize) -> Vec<Vec<C64>> {
        // Build U = I ⊗ … ⊗ gate ⊗ … ⊗ I by acting on basis vectors.
        let dim = 1usize << n;
        let mut cols = Vec::with_capacity(dim);
        for c in 0..dim {
            let mut st = DenseState::from_amplitudes({
                let mut v = vec![C64::zero(); dim];
                v[c] = C64::one();
                v
            });
            st.apply_gate1(gate, q);
            cols.push(st.amplitudes().to_vec());
        }
        // cols[c][r] is entry (r, c).
        (0..dim)
            .map(|r| (0..dim).map(|c| cols[c][r]).collect())
            .collect()
    }

    fn embed2(gate: Gate2, i: usize, j: usize, n: usize) -> Vec<Vec<C64>> {
        let dim = 1usize << n;
        let mut cols = Vec::with_capacity(dim);
        for c in 0..dim {
            let mut st = DenseState::from_amplitudes({
                let mut v = vec![C64::zero(); dim];
                v[c] = C64::one();
                v
            });
            st.apply_gate2(gate, i, j);
            cols.push(st.amplitudes().to_vec());
        }
        (0..dim)
            .map(|r| (0..dim).map(|c| cols[c][r]).collect())
            .collect()
    }

    fn sym_matrix(p: &SymPauli) -> Vec<Vec<C64>> {
        let mut ps = p.pauli().clone();
        if p.phase().constant_part() {
            ps.add_ipow(2);
        }
        pauli_matrix(&ps)
    }

    fn all_paulis(n: usize) -> Vec<PauliString> {
        // All sign-free letter combinations.
        let letters = ['I', 'X', 'Y', 'Z'];
        let mut out = Vec::new();
        for mask in 0..(4usize.pow(n as u32)) {
            let mut s = String::new();
            let mut m = mask;
            for _ in 0..n {
                s.push(letters[m % 4]);
                m /= 4;
            }
            out.push(PauliString::from_letters(&s).unwrap());
        }
        out
    }

    #[test]
    fn single_qubit_wp_tables_match_matrices() {
        let n = 2;
        for gate in [Gate1::X, Gate1::Y, Gate1::Z, Gate1::H, Gate1::S, Gate1::Sdg] {
            let u = embed1(gate, 0, n);
            let udg = dagger(&u);
            for p in all_paulis(n) {
                let sp = SymPauli::new(p.clone(), Affine::zero());
                let got = sym_matrix(&conj1(gate, 0, &sp, true));
                let expect = mat_mul(&mat_mul(&udg, &pauli_matrix(&p)), &u);
                assert!(mat_close(&got, &expect), "gate {gate:?} on {p}");
                // Forward direction too.
                let got_f = sym_matrix(&conj1(gate, 0, &sp, false));
                let expect_f = mat_mul(&mat_mul(&u, &pauli_matrix(&p)), &udg);
                assert!(mat_close(&got_f, &expect_f), "fwd gate {gate:?} on {p}");
            }
        }
    }

    #[test]
    fn two_qubit_wp_tables_match_matrices() {
        let n = 2;
        for gate in [Gate2::Cnot, Gate2::Cz, Gate2::ISwap, Gate2::ISwapDg] {
            for (i, j) in [(0usize, 1usize), (1, 0)] {
                let u = embed2(gate, i, j, n);
                let udg = dagger(&u);
                for p in all_paulis(n) {
                    let sp = SymPauli::new(p.clone(), Affine::zero());
                    let got = sym_matrix(&conj2(gate, i, j, &sp, true));
                    let expect = mat_mul(&mat_mul(&udg, &pauli_matrix(&p)), &u);
                    assert!(mat_close(&got, &expect), "gate {gate:?} ({i},{j}) on {p}");
                    let got_f = sym_matrix(&conj2(gate, i, j, &sp, false));
                    let expect_f = mat_mul(&mat_mul(&u, &pauli_matrix(&p)), &udg);
                    assert!(
                        mat_close(&got_f, &expect_f),
                        "fwd {gate:?} ({i},{j}) on {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn t_gate_ext_conjugation_matches_matrices() {
        let n = 1;
        for gate in [Gate1::T, Gate1::Tdg] {
            let u = embed1(gate, 0, n);
            let udg = dagger(&u);
            for p in all_paulis(n) {
                let sp = SymPauli::new(p.clone(), Affine::zero());
                for wp in [true, false] {
                    let ext = conj1_ext(gate, 0, &sp, wp);
                    // Sum the term matrices with their Dyadic coefficients.
                    let dim = 1usize << n;
                    let mut got = vec![vec![C64::zero(); dim]; dim];
                    let m = veriqec_cexpr::CMem::new();
                    for term in ext.terms() {
                        let mut ps = term.pauli().clone();
                        if term.phase().eval(&m) {
                            ps.add_ipow(2);
                        }
                        let tm = pauli_matrix(&ps);
                        let c = C64::real(term.coeff().to_f64());
                        for (gr, tr) in got.iter_mut().zip(&tm) {
                            for (g, t) in gr.iter_mut().zip(tr) {
                                *g += *t * c;
                            }
                        }
                    }
                    let expect = if wp {
                        mat_mul(&mat_mul(&udg, &pauli_matrix(&p)), &u)
                    } else {
                        mat_mul(&mat_mul(&u, &pauli_matrix(&p)), &udg)
                    };
                    assert!(mat_close(&got, &expect), "T conj {gate:?} wp={wp} on {p}");
                }
            }
        }
    }

    #[test]
    fn tableau_matches_dense_on_random_clifford_circuits() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..30 {
            let n = 3;
            let mut tab = Tableau::zero_state(n);
            let mut dense = DenseState::zero_state(n);
            for _ in 0..25 {
                match rng.gen_range(0..5) {
                    0 => {
                        let q = rng.gen_range(0..n);
                        let g = *[Gate1::H, Gate1::S, Gate1::Sdg, Gate1::X, Gate1::Z]
                            .choose(&mut rng)
                            .unwrap();
                        tab.apply_gate1(g, q);
                        dense.apply_gate1(g, q);
                    }
                    1 | 2 => {
                        let i = rng.gen_range(0..n);
                        let mut j = rng.gen_range(0..n);
                        while j == i {
                            j = rng.gen_range(0..n);
                        }
                        let g = *[Gate2::Cnot, Gate2::Cz, Gate2::ISwap]
                            .choose(&mut rng)
                            .unwrap();
                        tab.apply_gate2(g, i, j);
                        dense.apply_gate2(g, i, j);
                    }
                    _ => {
                        // Measure a random single-qubit Z with a shared coin.
                        let q = rng.gen_range(0..n);
                        let p = PauliString::single(n, 'Z', q);
                        let coin: bool = rng.gen();
                        // Dense decides by Born rule; to keep both in sync,
                        // peek the dense probability first.
                        let mut probe = dense.clone();
                        let p_plus = probe.project_pauli(&p, false) / dense.norm_sqr();
                        let outcome = if p_plus > 1.0 - 1e-9 {
                            false
                        } else if p_plus < 1e-9 {
                            true
                        } else {
                            coin
                        };
                        let _ = dense.project_pauli(&p, outcome);
                        dense.normalize();
                        let tab_outcome = tab.measure_pauli(&p, || outcome);
                        assert_eq!(tab_outcome, outcome, "round {round}");
                    }
                }
            }
            // Every tableau stabilizer must stabilize the dense state.
            for s in tab.stabilizers() {
                assert!(
                    dense.is_stabilized_by(s),
                    "round {round}: dense not stabilized by {s}"
                );
            }
        }
    }
}
