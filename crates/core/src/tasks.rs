//! The verification tasks of Veri-QEC (§7): general correction, precise
//! detection / distance finding, constrained verification, and fixed
//! non-Pauli errors.

use std::time::{Duration, Instant};

use veriqec_cexpr::{BExp, VarId};
use veriqec_codes::StabilizerCode;
use veriqec_decoder::MinWeightSpec;
use veriqec_pauli::Gate1;
use veriqec_sat::SolverConfig;
use veriqec_vcgen::{
    reduce_commuting, verify_nonpauli, NonPauliError, NonPauliOutcome, VcOutcome, VcProblem,
};
use veriqec_wp::qec_wp;

use crate::engine::DetectionSession;
use crate::scenario::{nonpauli_scenario, Scenario};

/// A verification report: the outcome plus timing and problem-size data.
#[derive(Clone, Debug)]
pub struct VerificationReport {
    /// Scenario name.
    pub name: String,
    /// The outcome.
    pub outcome: VcOutcome,
    /// Wall-clock time of the full pipeline (wp + reduction + solving).
    pub wall_time: Duration,
    /// SAT problem size (variables, clauses).
    pub sat_vars: usize,
    /// CNF clause count.
    pub clauses: usize,
    /// Solver conflicts.
    pub conflicts: u64,
}

/// Builds the [`VcProblem`] for a scenario under the error-weight bound
/// `Σe ≤ max_errors` plus optional extra constraints.
///
/// # Panics
///
/// Panics when the weakest-precondition engine or the commuting reduction
/// rejects the scenario (which would be a scenario-construction bug for the
/// Pauli-error flows handled here).
pub fn build_problem(
    scenario: &Scenario,
    max_errors: i64,
    extra_constraints: Vec<BExp>,
) -> VcProblem {
    let mut problem = build_problem_unbounded(scenario, extra_constraints);
    problem.error_constraints.insert(
        0,
        BExp::weight_le(scenario.error_vars.iter().copied(), max_errors),
    );
    problem
}

/// Builds the [`VcProblem`] for a scenario *without* the global error-weight
/// bound: the engine's budget sweeps ([`crate::engine::FaultToleranceSweep`])
/// supply `Σe ≤ t` as an assumption on a cardinality handle instead of a
/// baked-in clause, so one encoding serves every budget.
///
/// # Panics
///
/// Panics when the weakest-precondition engine or the commuting reduction
/// rejects the scenario (see [`build_problem`]).
pub fn build_problem_unbounded(scenario: &Scenario, extra_constraints: Vec<BExp>) -> VcProblem {
    let wp = qec_wp(&scenario.program, scenario.post.clone())
        .expect("scenario programs live in the QEC fragment");
    let mut vc = reduce_commuting(&scenario.lhs, &wp.pre)
        .expect("Pauli-error scenarios reduce to the commuting case");
    vc.resolve_branches();
    let error_constraints = extra_constraints;
    let decoder_specs = scenario
        .decoders
        .iter()
        .map(|w| MinWeightSpec {
            checks: w.checks.clone(),
            syndromes: w.syndromes.clone(),
            corrections: w.corrections.clone(),
            errors: scenario.error_vars.clone(),
            flips: w.flips.clone(),
            meas_errors: w.meas_errors.clone(),
        })
        .collect();
    VcProblem {
        vc,
        error_constraints,
        decoder_specs,
    }
}

/// Builds the [`VcProblem`] for a faulty-measurement scenario under the
/// *split* error budget: data-error weight `Σe ≤ t_data` and
/// measurement-flip weight `Σm ≤ t_meas` as two separate constraints (the
/// incremental form — all budgets as assumptions on shared cardinality
/// handles — is [`crate::engine::FaultToleranceSweep`]).
///
/// The split budget applies on both sides of the game: the *adversary's*
/// errors are bounded, and every faulty decoder's *claimed* explanation is
/// bounded by the same promise (`Σ c ≤ t_data`, `Σ f ≤ t_meas` per decoder
/// call). The claim bounds are what make repeated extraction decodable —
/// without them a history like `[0, s, s]` (a flip masking a real error in
/// round 1) ties with an all-flips explanation and even `r = 3` rounds
/// would admit a non-correcting minimal decoder.
///
/// # Panics
///
/// See [`build_problem_unbounded`].
pub fn build_problem_split(
    scenario: &Scenario,
    t_data: i64,
    t_meas: i64,
    extra_constraints: Vec<BExp>,
) -> VcProblem {
    let mut problem = build_problem_unbounded(scenario, extra_constraints);
    problem.error_constraints.insert(
        0,
        BExp::weight_le(scenario.error_vars.iter().copied(), t_data),
    );
    problem.error_constraints.insert(
        1,
        BExp::weight_le(scenario.meas_error_vars.iter().copied(), t_meas),
    );
    for spec in &problem.decoder_specs {
        if !spec.flips.is_empty() {
            problem
                .error_constraints
                .push(BExp::weight_le(spec.corrections.iter().copied(), t_data));
            problem
                .error_constraints
                .push(BExp::weight_le(spec.flips.iter().copied(), t_meas));
        }
    }
    problem
}

/// The one-shot pipeline behind the `verify_*` tasks: builds the problem,
/// solves it once and reports, timing the whole of it.
fn verify_once(
    name: String,
    config: SolverConfig,
    build: impl FnOnce() -> VcProblem,
) -> VerificationReport {
    let start = Instant::now();
    let (outcome, stats) = build().check_with_config(config);
    VerificationReport {
        name,
        outcome,
        wall_time: start.elapsed(),
        sat_vars: stats.sat_vars,
        clauses: stats.clauses,
        conflicts: stats.conflicts,
    }
}

/// Fault-tolerance verification at one grid point: is every configuration
/// of `≤ t_data` data errors *and* `≤ t_meas` measurement flips corrected?
pub fn verify_fault_tolerance(
    scenario: &Scenario,
    t_data: i64,
    t_meas: i64,
    config: SolverConfig,
) -> VerificationReport {
    let name = format!("{} (t_d={t_data}, t_m={t_meas})", scenario.name);
    verify_once(name, config, || {
        build_problem_split(scenario, t_data, t_meas, vec![])
    })
}

/// General verification of accurate decoding and correction (Eqn. 14):
/// every error configuration of weight `≤ max_errors` is corrected.
pub fn verify_correction(
    scenario: &Scenario,
    max_errors: i64,
    config: SolverConfig,
) -> VerificationReport {
    verify_once(scenario.name.clone(), config, || {
        build_problem(scenario, max_errors, vec![])
    })
}

/// Verification under user-provided error constraints (§7.2).
pub fn verify_constrained(
    scenario: &Scenario,
    max_errors: i64,
    constraints: Vec<BExp>,
    config: SolverConfig,
) -> VerificationReport {
    let name = format!("{} (constrained)", scenario.name);
    verify_once(name, config, || {
        build_problem(scenario, max_errors, constraints)
    })
}

/// The locality constraint of §7.2: errors may only occur on the `allowed`
/// qubit positions — all other indicators are forced to 0.
pub fn locality_constraint(scenario: &Scenario, allowed: &[usize]) -> Vec<BExp> {
    // Error variable names end in `_q`; parse the qubit index back out.
    scenario
        .error_vars
        .iter()
        .filter_map(|&v| {
            let name = scenario.vt.name(v);
            let idx: usize = name.rsplit('_').next()?.parse().ok()?;
            if allowed.contains(&idx) {
                None
            } else {
                Some(BExp::not(BExp::var(v)))
            }
        })
        .collect()
}

/// The discreteness constraint of §7.2: qubits are split into `segments`
/// equal contiguous segments, with at most one error per segment.
pub fn discreteness_constraint(scenario: &Scenario, segments: usize) -> Vec<BExp> {
    let n = scenario.num_qubits;
    let seg_len = n.div_ceil(segments);
    (0..segments)
        .map(|s| {
            let lo = s * seg_len;
            let hi = ((s + 1) * seg_len).min(n);
            let vars: Vec<VarId> = scenario
                .error_vars
                .iter()
                .copied()
                .filter(|&v| {
                    let name = scenario.vt.name(v);
                    name.rsplit('_')
                        .next()
                        .and_then(|t| t.parse::<usize>().ok())
                        .is_some_and(|q| q >= lo && q < hi)
                })
                .collect();
            BExp::weight_le(vars, 1)
        })
        .collect()
}

/// Outcome of the precise-detection task (Eqn. 15).
#[derive(Clone, Debug, PartialEq)]
pub enum DetectionOutcome {
    /// Every error of weight in `[1, dt−1]` is detected (UNSAT).
    AllDetected,
    /// An undetectable logical error was found (SAT), reported as the error's
    /// X/Z support.
    UndetectedLogical {
        /// Qubits with an X component.
        x_support: Vec<usize>,
        /// Qubits with a Z component.
        z_support: Vec<usize>,
    },
    /// The solver budget was exhausted (or the query was cancelled) before a
    /// verdict: *not* evidence that all errors are detected.
    Inconclusive,
}

/// Outcome of a distance sweep ([`find_distance`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistanceOutcome {
    /// The exact distance: weight `d` admits an undetected logical error and
    /// every smaller weight is detected.
    Exact(usize),
    /// Every weight the sweep covered is detected; the distance is at least
    /// the reported value (the sweep's `max + 1`).
    AtLeast(usize),
    /// The solver budget ran out mid-sweep: all weights `< verified_below`
    /// are proven detected (the last threshold that answered UNSAT was
    /// `dt = verified_below`), nothing is known above — explicitly *not* a
    /// distance claim.
    Inconclusive {
        /// Exclusive upper bound on the weights proven detected; `1` when
        /// the very first query was already inconclusive (vacuous).
        verified_below: usize,
    },
}

impl DistanceOutcome {
    /// The exact distance, when the sweep found one.
    pub fn exact(self) -> Option<usize> {
        match self {
            DistanceOutcome::Exact(d) => Some(d),
            _ => None,
        }
    }
}

/// Precise detection (Eqn. 15): does an undetected logical error of weight
/// `< dt` exist? `AllDetected` confirms distance `≥ dt`; budget exhaustion
/// reports [`DetectionOutcome::Inconclusive`]. One-shot form of
/// [`DetectionSession`] — sweeps over `dt` should hold a session instead of
/// re-encoding per threshold.
pub fn verify_detection(
    code: &StabilizerCode,
    dt: usize,
    config: SolverConfig,
) -> DetectionOutcome {
    DetectionSession::new(code, config).check(dt)
}

/// Finds the exact code distance by growing `dt` until an undetected logical
/// error appears (the paper's "identify and output the minimum weight
/// undetectable error" workflow), incrementally: the detection formula is
/// encoded once and every threshold is an assumption query on the same
/// session ([`DetectionSession::find_distance`]).
pub fn find_distance(code: &StabilizerCode, max: usize) -> DistanceOutcome {
    DetectionSession::new(code, SolverConfig::default()).find_distance(max)
}

/// Verifies a fixed non-Pauli (`T`/`H`) error on `qubit` in a one-round
/// memory scenario, discharging via the case-3 heuristic with the exact
/// minimum-weight lookup decoder as `P_f` witness.
///
/// # Errors
///
/// [`NonPauliError::QubitOutOfRange`] for a qubit outside the code,
/// [`NonPauliError::Wp`] when the wp engine rejects the scenario, and the
/// heuristic's own errors (see [`NonPauliError`]).
///
/// # Panics
///
/// Panics when the code is not CSS (the fixed-error pipeline builds the
/// CSS lookup decoder).
pub fn verify_nonpauli_memory(
    code: &StabilizerCode,
    gate: Gate1,
    qubit: usize,
) -> Result<NonPauliOutcome, NonPauliError> {
    if qubit >= code.n() {
        return Err(NonPauliError::QubitOutOfRange { qubit, n: code.n() });
    }
    let scenario = nonpauli_scenario(code, gate, qubit);
    let wp = qec_wp(&scenario.program, scenario.post.clone()).map_err(NonPauliError::Wp)?;
    let decoder = veriqec_decoder::CssLookupDecoder::for_code(
        code,
        (code.claimed_distance().unwrap_or(3) / 2).max(1),
    );
    let oracle = veriqec_decoder::decode_call_oracle(decoder, code.n());
    verify_nonpauli(&scenario.lhs, &wp, &oracle, &scenario.params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{memory_scenario, ErrorModel};
    use crate::test_support::fnv1a;
    use veriqec_codes::{rotated_surface, steane};

    #[test]
    fn capped_cardinality_pins_the_surface_query_size() {
        // Eqn. 14 at t = (d-1)/2 shares one totalizer over the errors,
        // capped at t + 1, between P_c and both sectors' P_f, and reifies
        // only the logical target: the d² − 1 stabilizer targets are sums
        // of the guard and decoder rows. Full totalizers gave 2,329 vars /
        // 17,939 exported clauses at d = 7 and 4,178 / 43,373 at d = 9;
        // capped ones with every target reified 1,272 / 4,624 and
        // 2,235 / 8,476. These are the proofs the surface-correction
        // benchmark solves, pinned exactly: (sat_vars, exported clauses,
        // FNV-1a-64 of the DIMACS text), so a front-end change that moves
        // the formula fails here.
        let cases = [
            (7, 983, 3_422, 0x9148_551f_b8a7_892d),
            (9, 1_738, 6_410, 0x11ad_80a9_f409_0667),
        ];
        for (d, vars, clauses, hash) in cases {
            let scenario = memory_scenario(&rotated_surface(d), ErrorModel::YErrors);
            let t = (d as i64 - 1) / 2;
            let mut session = build_problem(&scenario, t, vec![]).session(SolverConfig::default());
            let cnf = session.ctx_mut().export_cnf();
            assert_eq!(
                (session.stats().sat_vars, cnf.clauses.len()),
                (vars, clauses),
                "d={d}"
            );
            assert_eq!(fnv1a(cnf.to_dimacs().as_bytes()), hash, "d={d}");
        }
    }

    #[test]
    fn session_stats_count_the_formula_not_learnt_clauses() {
        // A proof that learns clauses leaves the formula's clause count, and
        // so `VcStats::clauses`, where the encoding put it.
        let scenario = memory_scenario(&rotated_surface(5), ErrorModel::YErrors);
        let mut session = build_problem(&scenario, 2, vec![]).session(SolverConfig::default());
        let before = session.stats().clauses;
        assert!(session.query(&[]).is_verified());
        assert!(
            session.solver_stats().learnts > 0,
            "the proof kept learnt clauses"
        );
        assert_eq!(session.stats().clauses, before);
    }

    #[test]
    fn steane_memory_verifies_single_y_errors() {
        let scenario = memory_scenario(&steane(), ErrorModel::YErrors);
        let report = verify_correction(&scenario, 1, SolverConfig::default());
        assert!(report.outcome.is_verified(), "{:?}", report.outcome);
    }

    #[test]
    fn steane_memory_fails_for_two_errors() {
        let scenario = memory_scenario(&steane(), ErrorModel::YErrors);
        let report = verify_correction(&scenario, 2, SolverConfig::default());
        assert!(
            matches!(report.outcome, VcOutcome::CounterExample(_)),
            "two errors must break a distance-3 code"
        );
    }

    #[test]
    fn steane_detection_distance() {
        let code = steane();
        assert_eq!(
            verify_detection(&code, 3, SolverConfig::default()),
            DetectionOutcome::AllDetected
        );
        let out = verify_detection(&code, 4, SolverConfig::default());
        let DetectionOutcome::UndetectedLogical {
            x_support,
            z_support,
        } = out
        else {
            panic!("distance-3 code has a weight-3 logical");
        };
        assert_eq!(
            x_support.len().max(z_support.len()).max(
                x_support
                    .iter()
                    .chain(&z_support)
                    .collect::<std::collections::HashSet<_>>()
                    .len()
            ),
            3
        );
        assert_eq!(find_distance(&code, 4), DistanceOutcome::Exact(3));
    }

    #[test]
    fn faulty_measurement_needs_repeated_extraction() {
        use crate::scenario::faulty_memory_scenario;
        let code = steane();
        // Single round: one readout flip can mask or fake a syndrome, so
        // (t_d, t_m) = (1, 1) must fail…
        let r1 = faulty_memory_scenario(&code, ErrorModel::YErrors, 1);
        let out = verify_fault_tolerance(&r1, 1, 1, SolverConfig::default());
        assert!(
            matches!(out.outcome, VcOutcome::CounterExample(_)),
            "single-round extraction cannot be (1,1)-correctable: {:?}",
            out.outcome
        );
        // …while the degenerate budgets still verify: t_m = 0 is the
        // perfect-measurement model, t_d = 0 means nothing needs correcting.
        assert!(verify_fault_tolerance(&r1, 1, 0, SolverConfig::default())
            .outcome
            .is_verified());
        assert!(verify_fault_tolerance(&r1, 0, 1, SolverConfig::default())
            .outcome
            .is_verified());
        // Three rounds out-vote a single flip: (1, 1) verifies.
        let r3 = faulty_memory_scenario(&code, ErrorModel::YErrors, 3);
        let out = verify_fault_tolerance(&r3, 1, 1, SolverConfig::default());
        assert!(out.outcome.is_verified(), "{:?}", out.outcome);
        // Two rounds are not enough: [0, s] stays ambiguous.
        let r2 = faulty_memory_scenario(&code, ErrorModel::YErrors, 2);
        assert!(matches!(
            verify_fault_tolerance(&r2, 1, 1, SolverConfig::default()).outcome,
            VcOutcome::CounterExample(_)
        ));
    }

    #[test]
    fn surface3_memory_verifies() {
        let scenario = memory_scenario(&rotated_surface(3), ErrorModel::YErrors);
        let report = verify_correction(&scenario, 1, SolverConfig::default());
        assert!(report.outcome.is_verified(), "{:?}", report.outcome);
    }

    #[test]
    fn surface3_distance_via_detection() {
        assert_eq!(
            find_distance(&rotated_surface(3), 4),
            DistanceOutcome::Exact(3)
        );
    }

    #[test]
    fn distance_sweep_distinguishes_at_least_from_exact() {
        // Sweeping the Steane code only up to weight 2 proves d ≥ 3 without
        // claiming an exact distance.
        assert_eq!(find_distance(&steane(), 2), DistanceOutcome::AtLeast(3));
        assert_eq!(DistanceOutcome::AtLeast(3).exact(), None);
    }

    #[test]
    fn nonpauli_memory_rejects_a_qubit_outside_the_code() {
        assert_eq!(
            verify_nonpauli_memory(&steane(), Gate1::T, 99),
            Err(NonPauliError::QubitOutOfRange { qubit: 99, n: 7 })
        );
        assert!(verify_nonpauli_memory(&steane(), Gate1::T, 6).is_ok());
    }

    #[test]
    fn exhausted_budget_is_inconclusive_not_all_detected() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        // The old code mapped solver-budget exhaustion to AllDetected,
        // silently inflating distances. A pre-raised stop flag forces the
        // Unknown path deterministically.
        let code = rotated_surface(3);
        let mut session = crate::engine::DetectionSession::new(&code, SolverConfig::default());
        session.set_stop(veriqec_sat::Stop::new(
            vec![Arc::new(AtomicBool::new(true))],
            None,
        ));
        assert_eq!(session.check(4), DetectionOutcome::Inconclusive);
        // And the sweep propagates it instead of claiming a distance. With
        // the very first query (dt = 2) inconclusive, nothing at all is
        // proven: verified_below must be the vacuous 1, not 2.
        assert_eq!(
            session.find_distance(4),
            DistanceOutcome::Inconclusive { verified_below: 1 }
        );
        // A tiny conflict budget likewise must never report AllDetected on
        // this satisfiable query.
        let starved = SolverConfig {
            conflict_budget: Some(1),
            ..SolverConfig::default()
        };
        assert_ne!(
            verify_detection(&code, 4, starved),
            DetectionOutcome::AllDetected
        );
    }
}
