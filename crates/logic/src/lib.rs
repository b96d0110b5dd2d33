//! The assertion logic for QEC programs (§3 of the paper).
//!
//! * [`Assertion`] — the hybrid classical–quantum assertion language
//!   `AExp` of Def. 3.2, with Birkhoff–von Neumann subspace semantics
//!   (∧ = intersection, ∨ = span of union, ⇒ = Sasaki implication) and an
//!   executable denotation on small systems through `veriqec_qsim`;
//! * [`QecAssertion`] — the scalable normal form
//!   `⋁_s ⋀_i (−1)^{φ_i(s,e,c)} P_i` (Eqn. 8) used by the
//!   weakest-precondition engine;
//! * [`entails`] — semantic entailment (Def. 3.5) by enumeration, the ground
//!   truth for testing the symbolic verification-condition reduction.
//!
//! # Examples
//!
//! ```
//! use veriqec_logic::{entails, Assertion};
//! use veriqec_pauli::{PauliString, SymPauli};
//!
//! let atom = |s: &str| Assertion::pauli(SymPauli::plain(
//!     PauliString::from_letters(s).unwrap()));
//! // Example 3.3: (X1 ∧ Z2) ∨ (X1 ∧ −Z2) is equivalent to X1 in quantum logic.
//! let lhs = Assertion::or(
//!     Assertion::and(atom("XI"), atom("IZ")),
//!     Assertion::and(atom("XI"), atom("-IZ")),
//! );
//! assert!(entails(&lhs, &atom("XI"), &[], 2));
//! assert!(entails(&atom("XI"), &lhs, &[], 2));
//! ```

#![forbid(unsafe_code)]

mod assertion;
mod normal_form;
mod proof;

pub use assertion::{bexp_to_affine, entails, Assertion};
pub use normal_form::QecAssertion;
pub use proof::{Derivation, ProofError, Sequent};
