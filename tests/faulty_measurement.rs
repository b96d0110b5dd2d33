//! End-to-end differential testing of the faulty-measurement pipeline:
//! the symbolic (t_d, t_m) verdict of the VC layer against actual program
//! interpretation with a concrete decoder, plus the shared-semantics pin
//! between the scenario program and the Pauli-frame compilation of the
//! same protocol.

use std::cell::RefCell;

use rand::prelude::*;
use veriqec::engine::FaultToleranceSweep;
use veriqec::sampling::{faulty_memory_frame, prepare_codeword_state, subsets_up_to};
use veriqec::scenario::{faulty_memory_scenario, ErrorModel, Scenario};
use veriqec_cexpr::{CMem, Value};
use veriqec_codes::{c4_422, repetition, steane, ExtractionSchedule};
use veriqec_decoder::space_time_decode_call_oracle;
use veriqec_prog::{run_tableau, DecoderOracle, Stmt};
use veriqec_sat::SolverConfig;
use veriqec_vcgen::VcOutcome;

/// Runs the scenario program on a tableau with the given memory (error and
/// flip indicators already set) and reports whether the final state
/// satisfies every post conjunct.
fn run_recovers<O: DecoderOracle>(scenario: &Scenario, mut mem: CMem, oracle: &O) -> bool {
    let mut rng = StdRng::seed_from_u64(7);
    let mut tab = prepare_codeword_state(scenario, &mem, &mut rng);
    run_tableau(&scenario.program, &mut mem, &mut tab, oracle, &mut || {
        panic!("all syndrome measurements are deterministic")
    });
    scenario.post.conjuncts.iter().all(|c| {
        let single = c.as_single().expect("Pauli-error scenarios");
        tab.is_stabilized_by(&single.eval(&mem))
    })
}

/// The two directions of the differential check at one grid point:
/// `Verified` ⇒ the concrete budget-aware space-time decoder recovers every
/// in-budget configuration; `CounterExample` ⇒ replaying the model's own
/// decoder outputs through the interpreter reproduces the failure.
fn check_grid_point(
    code: &veriqec_codes::StabilizerCode,
    scenario: &Scenario,
    rounds: usize,
    t_data: usize,
    t_meas: usize,
    outcome: &VcOutcome,
) {
    let label = format!(
        "{} rounds={rounds} (t_d={t_data}, t_m={t_meas})",
        code.name()
    );
    match outcome {
        VcOutcome::Verified => {
            let oracle = space_time_decode_call_oracle(code, rounds, t_data, t_meas);
            for data in subsets_up_to(scenario.error_vars.len(), t_data) {
                for meas in subsets_up_to(scenario.meas_error_vars.len(), t_meas) {
                    let mut mem = CMem::new();
                    for &i in &data {
                        mem.set(scenario.error_vars[i], Value::Bool(true));
                    }
                    for &j in &meas {
                        mem.set(scenario.meas_error_vars[j], Value::Bool(true));
                    }
                    assert!(
                        run_recovers(scenario, mem, &oracle),
                        "{label}: verified, but e={data:?}, m={meas:?} fails under the \
                         concrete decoder"
                    );
                }
            }
        }
        VcOutcome::CounterExample(model) => {
            // Force the decoder to the model's outputs and replay.
            let decode_calls: Vec<_> = scenario
                .program
                .flatten()
                .into_iter()
                .filter_map(|s| match s {
                    Stmt::Decode(call) => Some(call.clone()),
                    _ => None,
                })
                .collect();
            let model = model.clone();
            let calls = RefCell::new(decode_calls);
            let replay_mem = model.clone();
            let forced = move |name: &str, _inputs: &[bool]| -> Vec<bool> {
                let calls = calls.borrow();
                let call = calls
                    .iter()
                    .find(|c| c.name == name)
                    .unwrap_or_else(|| panic!("unknown decoder `{name}`"));
                call.outputs
                    .iter()
                    .map(|&v| model.get(v).as_bool())
                    .collect()
            };
            assert!(
                !run_recovers(scenario, replay_mem, &forced),
                "{label}: counterexample does not reproduce under interpretation"
            );
        }
        VcOutcome::Unknown => panic!("{label}: solver returned Unknown"),
    }
}

/// Sweep the full grid for one code and round count, cross-checking every
/// verdict against the interpreter.
fn differential_grid(
    code: &veriqec_codes::StabilizerCode,
    model: ErrorModel,
    rounds: usize,
    max_t_data: usize,
    max_t_meas: usize,
) {
    let scenario = faulty_memory_scenario(code, model, rounds);
    let mut sweep = FaultToleranceSweep::new(&scenario, vec![], SolverConfig::default());
    for t_data in 0..=max_t_data {
        for t_meas in 0..=max_t_meas {
            let outcome = sweep.check(t_data as i64, t_meas as i64);
            check_grid_point(code, &scenario, rounds, t_data, t_meas, &outcome);
        }
    }
}

#[test]
fn repetition_grid_matches_interpreter() {
    for rounds in 1..=3 {
        differential_grid(&repetition(3), ErrorModel::XErrors, rounds, 1, 1);
    }
}

#[test]
fn c4_detection_code_grid_matches_interpreter() {
    // Distance 2: nothing is correctable with data errors, but the t_d = 0
    // column exercises the pure measurement-noise regime.
    for rounds in 1..=2 {
        differential_grid(&c4_422(), ErrorModel::YErrors, rounds, 1, 1);
    }
}

#[test]
fn steane_grid_matches_interpreter() {
    for rounds in [1, 3] {
        differential_grid(&steane(), ErrorModel::YErrors, rounds, 1, 1);
    }
}

#[test]
fn program_and_frame_share_the_noise_semantics() {
    // The scenario program (interpreted on a tableau) and the frame circuit
    // compiled from the same schedule must hand the decoder identical
    // syndrome histories for identical error configurations.
    let code = steane();
    let rounds = 2;
    let scenario = faulty_memory_scenario(&code, ErrorModel::YErrors, rounds);
    let schedule = ExtractionSchedule::repeated(code.generators().len(), rounds);
    let frame = faulty_memory_frame(&code, ErrorModel::YErrors, &schedule);
    let (x_idx, z_idx) = code.css_split().expect("CSS");
    let num_checks = code.generators().len();
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..25 {
        // Random error configuration (unconstrained by any budget).
        let data: Vec<bool> = (0..scenario.error_vars.len()).map(|_| rng.gen()).collect();
        let meas: Vec<bool> = (0..scenario.meas_error_vars.len())
            .map(|_| rng.gen())
            .collect();
        // Frame side.
        let mut errors = data.clone();
        errors.extend(meas.iter().copied());
        let history = frame.circuit.sample(&errors);
        let pick = |idx: &[usize]| -> Vec<bool> {
            let mut v = Vec::new();
            for r in 0..rounds {
                for &i in idx {
                    v.push(history[r * num_checks + i]);
                }
            }
            v
        };
        // Program side: capture what each decoder call receives.
        let mut mem = CMem::new();
        for (&v, &b) in scenario.error_vars.iter().zip(&data) {
            mem.set(v, Value::Bool(b));
        }
        for (&v, &b) in scenario.meas_error_vars.iter().zip(&meas) {
            mem.set(v, Value::Bool(b));
        }
        let seen: RefCell<Vec<(String, Vec<bool>)>> = RefCell::new(Vec::new());
        let recording = |name: &str, inputs: &[bool]| -> Vec<bool> {
            seen.borrow_mut().push((name.to_string(), inputs.to_vec()));
            // Identity decoder: no corrections, no claimed flips.
            let outputs = if name == "decode_z" {
                code.n() + rounds * x_idx.len()
            } else {
                code.n() + rounds * z_idx.len()
            };
            vec![false; outputs]
        };
        let mut tab = prepare_codeword_state(&scenario, &CMem::new(), &mut rng);
        run_tableau(
            &scenario.program,
            &mut mem,
            &mut tab,
            &recording,
            &mut || panic!("deterministic"),
        );
        let seen = seen.into_inner();
        assert_eq!(seen.len(), 2);
        for (name, inputs) in seen {
            let expected = if name == "decode_z" {
                pick(&x_idx)
            } else {
                pick(&z_idx)
            };
            assert_eq!(inputs, expected, "decoder `{name}` history mismatch");
        }
    }
}
