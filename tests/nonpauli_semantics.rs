//! End-to-end validation of the non-Pauli (case-3) verifier against dense
//! simulation — the reproduction's ground truth for §5.2.2 / Appendix C.
//!
//! The symbolic verifier claims: a single `T` (or `H`) error on any Steane
//! qubit, followed by one round of syndrome measurement + minimum-weight
//! decoding + correction, restores the logical state. Here the same program
//! is executed on the dense state-vector backend over *every* measurement
//! branch, from both `|+⟩_L` and `|−⟩_L`, and the final states are checked
//! against the postcondition directly.

use veriqec::scenario::nonpauli_scenario;
use veriqec::tasks::verify_nonpauli_memory;
use veriqec_cexpr::{CMem, Value};
use veriqec_codes::{repetition, steane, StabilizerCode};
use veriqec_decoder::{decode_call_oracle, CssLookupDecoder};
use veriqec_pauli::Gate1;
use veriqec_prog::run_all_branches;
use veriqec_qsim::DenseState;
use veriqec_vcgen::{verify_nonpauli, NonPauliOutcome};
use veriqec_wp::qec_wp;

/// Prepares the joint +1 eigenstate of the scenario's LHS generating set at
/// given parameter values by projective filtering of a generic state.
fn prepare_lhs_state(
    code: &StabilizerCode,
    lhs: &[veriqec_pauli::SymPauli],
    m: &CMem,
) -> DenseState {
    let n = code.n();
    // Start from a generic (pseudo-random) state so that no projection onto
    // a ±1 eigenspace vanishes.
    let dim = 1usize << n;
    let mut seed = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let amps: Vec<veriqec_qsim::C64> = (0..dim)
        .map(|_| veriqec_qsim::C64::new(next(), next()))
        .collect();
    let mut st = DenseState::from_amplitudes(amps);
    st.normalize();
    for g in lhs {
        let p = g.eval(m);
        let norm = st.project_pauli(&p, false);
        assert!(norm > 1e-12, "projection vanished for {p}");
        st.normalize();
    }
    st
}

fn dense_check(code: &StabilizerCode, gate: Gate1, qubit: usize) -> bool {
    let scenario = nonpauli_scenario(code, gate, qubit);
    let decoder = CssLookupDecoder::for_code(code, 1);
    let oracle = decode_call_oracle(decoder, code.n());
    for b in [false, true] {
        let mut m = CMem::new();
        for &p in &scenario.params {
            m.set(p, Value::Bool(b));
        }
        let st = prepare_lhs_state(code, &scenario.lhs, &m);
        let branches = run_all_branches(&scenario.program, m.clone(), st, &oracle);
        for (mem, out) in branches {
            if out.norm_sqr() < 1e-9 {
                continue;
            }
            let mut out = out;
            out.normalize();
            for c in &scenario.post.conjuncts {
                let single = c.as_single().expect("post conjuncts are plain");
                let concrete = single.eval(&mem);
                if !out.is_stabilized_by(&concrete) {
                    return false;
                }
            }
        }
    }
    true
}

#[test]
fn steane_t_error_symbolic_matches_dense() {
    let code = steane();
    for q in [0, 2, 4, 6] {
        let symbolic = verify_nonpauli_memory(&code, Gate1::T, q).expect("heuristic applies");
        let dense = dense_check(&code, Gate1::T, q);
        assert_eq!(
            symbolic == NonPauliOutcome::Verified,
            dense,
            "T on qubit {q}: symbolic={symbolic:?}, dense={dense}"
        );
        assert!(dense, "Steane must correct a single T error on qubit {q}");
    }
}

#[test]
fn steane_h_error_symbolic_matches_dense() {
    let code = steane();
    for q in [1, 5] {
        let symbolic = verify_nonpauli_memory(&code, Gate1::H, q).expect("heuristic applies");
        let dense = dense_check(&code, Gate1::H, q);
        assert_eq!(
            symbolic == NonPauliOutcome::Verified,
            dense,
            "H on qubit {q}"
        );
        assert!(dense);
    }
}

#[test]
fn repetition_code_cannot_correct_t_errors() {
    // Negative control: the 3-qubit bit-flip code does not protect phase
    // information, so a T error is NOT corrected — both the dense simulation
    // and the symbolic verifier must agree on failure.
    let code = repetition(3);
    let dense = dense_check(&code, Gate1::T, 0);
    assert!(!dense, "bit-flip code must fail on T errors");
    match verify_nonpauli_memory(&code, Gate1::T, 0) {
        Ok(NonPauliOutcome::Verified) => panic!("symbolic verifier unsoundly verified"),
        Ok(NonPauliOutcome::Failed { .. }) | Err(_) => {}
    }
}

#[test]
#[should_panic(expected = "returned 6 bits, expected 7")]
fn short_decoder_oracle_is_rejected() {
    // An oracle that drops its last output bit must stop the verifier, as
    // it stops the interpreters, instead of leaving that correction unset.
    let code = steane();
    let scenario = nonpauli_scenario(&code, Gate1::T, 2);
    let wp = qec_wp(&scenario.program, scenario.post.clone()).unwrap();
    let full = decode_call_oracle(CssLookupDecoder::for_code(&code, 1), code.n());
    let short = |name: &str, inputs: &[bool]| {
        let mut bits = full(name, inputs);
        bits.pop();
        bits
    };
    let _ = verify_nonpauli(&scenario.lhs, &wp, &short, &scenario.params);
}
