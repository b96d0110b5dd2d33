//! Verification-condition generation and reduction (§5 of the paper).
//!
//! * [`reduce_commuting`] — cases 1–2: decompose right-hand conjuncts over
//!   the left-hand generating set (Prop. 5.2), yielding classical GF(2)
//!   phase equations;
//! * [`VcProblem`] / [`VcOutcome`] — assembly with the error model `P_c` and
//!   decoder specification `P_f`, discharged by one SAT refutation query;
//! * [`VcSession`] — the incremental form: encode the base formula once,
//!   then query it repeatedly under assumption literals (weight sweeps);
//!   sessions of one problem can share learnt clauses when raced;
//! * [`verify_nonpauli`] — case 3: the heuristic elimination of
//!   non-commuting conjuncts for fixed-location `T`/`H` errors (§5.2.2).

#![forbid(unsafe_code)]

mod check;
mod nonpauli;
mod reduce;
mod session;
mod smtlib;

pub use check::{VcOutcome, VcProblem, VcStats};
pub use nonpauli::{verify_nonpauli, NonPauliError, NonPauliOutcome};
pub use reduce::{reduce_commuting, ReduceError, ReducedVc};
pub use session::VcSession;
