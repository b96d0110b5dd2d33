//! The QEC programming language (§4 of the paper): abstract syntax,
//! concrete-syntax parser, and operational semantics.
//!
//! * [`Stmt`] / [`Program`] — the language of §4.1 with the `[b] q *= U`
//!   conditional-gate sugar used for error injection and correction;
//! * [`parse_program`] — a recursive-descent parser for the paper-style
//!   concrete syntax (with `for`-loop unrolling, the stand-in for the
//!   Lark-based parser of the Python artifact);
//! * [`run_all_branches`] — the induced denotational semantics on dense
//!   states (all measurement branches, Prop. A.4);
//! * [`run_tableau`] — single-path stabilizer simulation for Clifford
//!   programs (the testing/sampling baseline).
//!
//! # Examples
//!
//! ```
//! use veriqec_prog::{parse_program, run_all_branches, NoDecoders};
//! use veriqec_cexpr::CMem;
//! use veriqec_qsim::DenseState;
//!
//! let prog = parse_program("q[0] *= H; s[0] := meas[Z[0]]").unwrap();
//! let branches = run_all_branches(
//!     &prog.stmt, CMem::new(), DenseState::zero_state(1), &NoDecoders);
//! assert_eq!(branches.len(), 2); // |0⟩ and |1⟩, each with probability 1/2
//! ```

#![forbid(unsafe_code)]

mod ast;
mod interp;
mod parser;

pub use ast::{DecodeCall, Program, Stmt};
pub use interp::{run_all_branches, run_tableau, DecoderOracle, DenseConfig, NoDecoders};
pub use parser::{parse_program, ParseProgramError};
