//! Umbrella crate for the Veri-QEC reproduction workspace: re-exports every
//! layer for the examples and integration tests, plus a [`prelude`] for
//! downstream experimentation.
//!
//! See the workspace `README.md` for the architecture and `DESIGN.md` for
//! the paper-to-crate mapping.

#![forbid(unsafe_code)]

pub use veriqec;
pub use veriqec_cexpr;
pub use veriqec_codes;
pub use veriqec_dd;
pub use veriqec_decoder;
pub use veriqec_gf2;
pub use veriqec_logic;
pub use veriqec_obs;
pub use veriqec_pauli;
pub use veriqec_prog;
pub use veriqec_qsim;
pub use veriqec_sat;
pub use veriqec_serve;
pub use veriqec_smt;
pub use veriqec_vcgen;
pub use veriqec_wp;

/// One-stop imports for interactive use.
pub mod prelude {
    pub use veriqec::engine::{DetectionSession, Engine, EngineConfig, FaultToleranceSweep, Job};
    pub use veriqec::enumerator::{FailureEnumerator, WeightEnumerator};
    pub use veriqec::scenario::{memory_scenario, ErrorModel, Scenario, ScenarioBuilder};
    pub use veriqec::tasks::{
        find_distance, verify_correction, verify_detection, DetectionOutcome, DistanceOutcome,
    };
    pub use veriqec_codes::{rotated_surface, steane, StabilizerCode};
    pub use veriqec_logic::{entails, Assertion, QecAssertion};
    pub use veriqec_pauli::{PauliString, StabilizerGroup, SymPauli};
    pub use veriqec_prog::{parse_program, Program, Stmt};
    pub use veriqec_sat::SolverConfig;
    pub use veriqec_vcgen::VcOutcome;
    pub use veriqec_wp::{qec_wp, wp_loopfree};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links() {
        use crate::prelude::*;
        let code = steane();
        assert_eq!(code.n(), 7);
    }
}
