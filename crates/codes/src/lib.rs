//! The stabilizer-code zoo of the paper's benchmark (Table 3).
//!
//! Provides [`StabilizerCode`] (generators + logicals + validation + exact
//! brute-force distance), CSS constructors, and the code family used in the
//! evaluation: Steane, rotated/XZZX surface, repetition, five/six-qubit,
//! Shor, Gottesman `[[8,3,3]]`, quantum Reed–Muller, hypergraph products
//! (incl. toric), the 3D colour cube `[[8,3,2]]`, pair-detection codes, the
//! cyclic `[[11,1,5]]` (dodecacode row) and a searched `[[12,2,4]]` (carbon
//! row). Scaled/substituted instances are documented in `DESIGN.md`.
//!
//! # Examples
//!
//! ```
//! use veriqec_codes::{rotated_surface, steane};
//! let surface = rotated_surface(3);
//! assert_eq!((surface.n(), surface.k()), (9, 1));
//! assert_eq!(steane().brute_force_distance(3), Some(3));
//! ```

#![forbid(unsafe_code)]

mod code;
mod concat;
pub mod css;
mod extraction;
mod hgp;
pub mod search;
mod surface;
mod zoo;

pub use code::{enumerate_errors, CodeValidationError, StabilizerCode};
pub use concat::concatenate;
pub use css::{css_code, self_dual_css};
pub use extraction::{ExtractionSchedule, MeasurementSite};
pub use hgp::{hamming_7_4, hgp_hamming, hypergraph_product, repetition_circulant, toric};
pub use surface::{rotated_surface, xzzx_surface};
pub use zoo::{
    c4_422, campbell_howard_k1, carbon_12_2_4, cube_color_822, five_qubit, gottesman8,
    pair_detection_code, reed_muller, repetition, shor9, six_qubit, steane,
};
