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
    use veriqec_pauli::{
        conj1_ext, Dyadic, ExtPauli, ExtTerm, Gate1, Gate2, PauliString, SymPauli,
    };

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

    /// `Σ coeff · (−1)^φ · P` over the terms, reading each string as the
    /// unsigned letters the term representation promises.
    fn ext_matrix(e: &ExtPauli, n: usize) -> Vec<Vec<C64>> {
        let dim = 1usize << n;
        let mut got = vec![vec![C64::zero(); dim]; dim];
        let m = veriqec_cexpr::CMem::new();
        for term in e.terms() {
            let mut ps = term.pauli().unsigned();
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
        got
    }

    /// `U† M U`.
    fn wp_of(u: &[Vec<C64>], m: &[Vec<C64>]) -> Vec<Vec<C64>> {
        mat_mul(&mat_mul(&dagger(u), m), u)
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

    /// Every 3-qubit string under each of the four `i^t` prefixes: tableau
    /// rows and frames carry exact phases.
    fn all_phased_paulis() -> Vec<PauliString> {
        let mut out = Vec::new();
        for p in all_paulis(3) {
            for t in 0..4 {
                let mut p = p.clone();
                p.add_ipow(t);
                out.push(p);
            }
        }
        out
    }

    /// Checks `edit` against `U† P U` (and the forward `inv_edit` against
    /// `U P U†`) on every phased 3-qubit string; the Hermitian ones also go
    /// through [`SymPauli::conjugate`]'s sign fold.
    fn check_against(
        u: &[Vec<C64>],
        edit: impl Fn(&mut PauliString),
        inv_edit: impl Fn(&mut PauliString),
        what: &str,
    ) {
        let udg = dagger(u);
        for p in all_phased_paulis() {
            let mut got = p.clone();
            edit(&mut got);
            let expect = wp_of(u, &pauli_matrix(&p));
            assert!(mat_close(&pauli_matrix(&got), &expect), "{what} on {p}");
            let mut got_f = p.clone();
            inv_edit(&mut got_f);
            let expect_f = wp_of(&udg, &pauli_matrix(&p));
            assert!(
                mat_close(&pauli_matrix(&got_f), &expect_f),
                "fwd {what} on {p}"
            );
            if p.hermitian_sign().is_some() {
                let mut sp = SymPauli::new(p.clone(), Affine::zero());
                sp.conjugate(&edit);
                assert!(mat_close(&sym_matrix(&sp), &expect), "sym {what} on {p}");
            }
        }
    }

    #[test]
    fn single_qubit_wp_tables_match_matrices() {
        let n = 3;
        for gate in [Gate1::X, Gate1::Y, Gate1::Z, Gate1::H, Gate1::S, Gate1::Sdg] {
            for q in 0..n {
                check_against(
                    &embed1(gate, q, n),
                    |p| p.conjugate1(gate, q),
                    |p| p.conjugate1(gate.inverse(), q),
                    &format!("gate {gate:?} on {q}"),
                );
            }
        }
    }

    #[test]
    fn two_qubit_wp_tables_match_matrices() {
        let n = 3;
        for gate in [Gate2::Cnot, Gate2::Cz, Gate2::ISwap, Gate2::ISwapDg] {
            for (i, j) in [(0usize, 1usize), (1, 0), (0, 2), (2, 1)] {
                check_against(
                    &embed2(gate, i, j, n),
                    |p| p.conjugate2(gate, i, j),
                    |p| p.conjugate2(gate.inverse(), i, j),
                    &format!("gate {gate:?} ({i},{j})"),
                );
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
                let e = ExtPauli::from_sym(SymPauli::new(p.clone(), Affine::zero()));
                for wp in [true, false] {
                    let g = if wp { gate } else { gate.inverse() };
                    let got = ext_matrix(&conj1_ext(g, 0, &e), n);
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
    fn clifford_sequences_conjugate_t_image_sums_in_place() {
        // Sums of 1–4 terms on 3 qubits — T images, so coefficients ±1/√2
        // and pairs of terms sharing letters, with random constant phases —
        // conjugated in place by random Clifford sequences match `V† M V`,
        // `V` the product of the gates in order.
        use rand::prelude::*;
        let n = 3;
        let mut rng = StdRng::seed_from_u64(23);
        let letters = ['I', 'X', 'Y', 'Z'];
        for round in 0..200 {
            let terms = (0..rng.gen_range(1..3))
                .map(|_| {
                    let s: String = (0..n).map(|_| letters[rng.gen_range(0..4usize)]).collect();
                    let p = PauliString::from_letters(&s).unwrap();
                    ExtTerm::new(Dyadic::one(), p, Affine::constant(rng.gen()))
                })
                .collect();
            let t = *[Gate1::T, Gate1::Tdg].choose(&mut rng).unwrap();
            let mut e = conj1_ext(t, rng.gen_range(0..n), &ExtPauli::from_terms(terms));
            let dim = 1usize << n;
            let mut v: Vec<Vec<C64>> = (0..dim)
                .map(|r| {
                    (0..dim)
                        .map(|c| if r == c { C64::one() } else { C64::zero() })
                        .collect()
                })
                .collect();
            let m = ext_matrix(&e, n);
            for _ in 0..rng.gen_range(1..7) {
                if rng.gen() {
                    let g = *[Gate1::X, Gate1::Y, Gate1::Z, Gate1::H, Gate1::S, Gate1::Sdg]
                        .choose(&mut rng)
                        .unwrap();
                    let q = rng.gen_range(0..n);
                    e.conjugate(|p| p.conjugate1(g, q));
                    v = mat_mul(&v, &embed1(g, q, n));
                } else {
                    let g = *[Gate2::Cnot, Gate2::Cz, Gate2::ISwap, Gate2::ISwapDg]
                        .choose(&mut rng)
                        .unwrap();
                    let i = rng.gen_range(0..n);
                    let j = (i + rng.gen_range(1..n)) % n;
                    e.conjugate(|p| p.conjugate2(g, i, j));
                    v = mat_mul(&v, &embed2(g, i, j, n));
                }
            }
            assert!(
                mat_close(&ext_matrix(&e, n), &wp_of(&v, &m)),
                "round {round}: {e}"
            );
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
