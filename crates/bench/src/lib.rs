//! Shared helpers for the benchmark harness.
//!
//! The `tables` binary regenerates the paper's evaluation tables and
//! figures (`DESIGN.md` maps each to its mode) and runs the CI smoke modes.
//! [`gate`] is the CI perf-regression gate behind `tables gate` (one row
//! table, one baseline rule, one checker), measuring the `kernels`,
//! `solver_bench` and [`dd_bench`] layers, and [`trace`] validates the
//! Chrome trace-event artifacts `tables --trace` emits before they are
//! written or uploaded. Both read JSON with [`veriqec_obs::json`], as do
//! the artifact schema tests.

#![forbid(unsafe_code)]

use veriqec::scenario::{memory_scenario, ErrorModel, Scenario};
use veriqec::tasks::build_problem;
use veriqec_codes::{rotated_surface, StabilizerCode};
use veriqec_vcgen::VcProblem;

pub mod dd_bench;
pub mod gate;
mod kernels;
mod solver_bench;
pub mod trace;

/// The rotated-surface memory workload of Figs. 4/6/7 at distance `d`.
pub fn surface_workload(d: usize) -> (StabilizerCode, Scenario) {
    let code = rotated_surface(d);
    let scenario = memory_scenario(&code, ErrorModel::YErrors);
    (code, scenario)
}

/// The fully assembled general-verification problem for distance `d`.
pub fn surface_problem(d: usize) -> (Scenario, VcProblem) {
    let (_, scenario) = surface_workload(d);
    let t = (d as i64 - 1) / 2;
    let problem = build_problem(&scenario, t, vec![]);
    (scenario, problem)
}

/// Deterministic "random" qubit subset for the locality constraint.
pub fn locality_set(d: usize) -> Vec<usize> {
    let n = d * d;
    let count = (n - 1) / 2;
    (0..count).map(|i| (i * 7 + 3) % n).collect()
}
