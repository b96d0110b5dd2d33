//! **Veri-QEC (Rust reproduction)** — the automated QEC program verifier of
//! *Efficient Formal Verification of Quantum Error Correcting Programs*
//! (PLDI 2025).
//!
//! The pipeline: a [`scenario`] builder assembles the QEC program and its
//! correctness formula (Def. 5.1); `veriqec_wp` runs the program logic
//! backward to a normal-form precondition; `veriqec_vcgen` reduces the
//! entailment to classical GF(2) equations (§5.1) and discharges them on the
//! built-in CDCL solver with the minimum-weight decoder specification `P_f`;
//! [`engine`] makes query *families* the unit of work — persistent solver
//! sessions, assumption-driven weight sweeps, and a batch driver whose
//! worker pool serves heterogeneous jobs, the general task as a race of
//! diversified solvers sharing short learnt clauses ([`parallel`]; in place
//! of the paper's `ET` enumeration split); [`enumerator`]
//! goes beyond the paper's SAT queries to *counting* —
//! exact failure weight enumerators through the decision-diagram backend
//! (`veriqec_dd`); [`sampling`] provides the simulation/testing baseline of
//! the §7.2 comparison. Beyond the paper's perfect-measurement model, the
//! whole stack also carries **measurement noise**: multi-round syndrome
//! extraction with flip-annotated readouts
//! ([`scenario::faulty_memory_scenario`]), split (data, measurement) error
//! budgets ([`tasks::build_problem_split`]), incremental (t_d, t_m)
//! frontier sweeps ([`engine::FaultToleranceSweep`]) and the mirrored
//! noise process in the Pauli-frame sampler
//! ([`sampling::faulty_memory_frame`]).
//!
//! # Examples
//!
//! ```
//! use veriqec::scenario::{memory_scenario, ErrorModel};
//! use veriqec::tasks::verify_correction;
//! use veriqec_codes::steane;
//! use veriqec_sat::SolverConfig;
//!
//! // One round of error correction on the Steane code corrects any single
//! // Y error (Eqn. 2 of the paper, memory case).
//! let scenario = memory_scenario(&steane(), ErrorModel::YErrors);
//! let report = verify_correction(&scenario, 1, SolverConfig::default());
//! assert!(report.outcome.is_verified());
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod enumerator;
pub mod parallel;
pub mod sampling;
pub mod scenario;
pub mod tasks;

pub use engine::{
    job_reason, BatchReport, DetectionQuery, DetectionSession, Engine, EngineConfig,
    FaultToleranceFrontier, FaultToleranceSweep, FrontierPoint, Job, JobKind, JobOutcome,
    JobReport,
};
pub use enumerator::{
    sat_enumerator, sat_enumerator_with_schedule, FailureEnumerator, WeightEnumerator,
};
pub use parallel::SplitConfig;
pub use sampling::{
    exhaustive_frame_check, faulty_memory_frame, prepare_codeword_state, sample_scenario,
    subsets_up_to, FaultyMemoryFrame, SamplingReport,
};
pub use scenario::{
    cnot_propagation_scenario, correction_fault_scenario, faulty_memory_scenario, ghz_scenario,
    logical_h_scenario, memory_scenario, multi_cycle_scenario, nonpauli_scenario, ErrorModel,
    Scenario, ScenarioBuilder,
};
pub use tasks::{
    build_problem, build_problem_split, build_problem_unbounded, discreteness_constraint,
    find_distance, locality_constraint, verify_constrained, verify_correction, verify_detection,
    verify_fault_tolerance, verify_nonpauli_memory, DetectionOutcome, DistanceOutcome,
    VerificationReport,
};

#[cfg(test)]
mod test_support {
    /// FNV-1a-64, the fingerprint the encoding pins hash DIMACS text with.
    pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}
