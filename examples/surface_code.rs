//! Surface-code verification sweep: the workloads behind Fig. 4 (general
//! verification, sequential vs parallel), Fig. 6 (precise detection) and
//! Fig. 7 (user-provided error constraints) of the paper, at laptop scale.
//!
//! Run with `cargo run --example surface_code --release -- [max_d]`.

use std::time::Instant;

use veriqec::parallel::{check_parallel, ParallelConfig};
use veriqec::scenario::{memory_scenario, ErrorModel};
use veriqec::tasks::{
    build_problem, discreteness_constraint, locality_constraint, verify_constrained,
    verify_correction, verify_detection, DetectionOutcome,
};
use veriqec_codes::rotated_surface;
use veriqec_sat::SolverConfig;

fn main() {
    let max_d: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    println!("== general verification (accurate decoding & correction, Eqn. 14) ==");
    for d in (3..=max_d).step_by(2) {
        let code = rotated_surface(d);
        let t = (d as i64 - 1) / 2;
        let scenario = memory_scenario(&code, ErrorModel::YErrors);
        let seq = verify_correction(&scenario, t, SolverConfig::default());
        let problem = build_problem(&scenario, t, vec![]);
        let par = check_parallel(&problem, &ParallelConfig::default());
        println!(
            "d={d} ({} qubits): sequential {:?} in {:?} | race ({} racers) {:?} in {:?}",
            code.n(),
            seq.outcome.is_verified(),
            seq.wall_time,
            par.subtasks,
            par.outcome.is_verified(),
            par.wall_time,
        );
    }

    println!("\n== precise detection (Eqn. 15): d_t = d is unsat, d_t = d+1 finds a logical ==");
    for d in (3..=max_d).step_by(2) {
        let code = rotated_surface(d);
        let t0 = Instant::now();
        let at_d = verify_detection(&code, d, SolverConfig::default());
        let t1 = t0.elapsed();
        let t0 = Instant::now();
        let above = verify_detection(&code, d + 1, SolverConfig::default());
        let t2 = t0.elapsed();
        println!(
            "d={d}: all weight<{d} detected: {} ({t1:?}); weight-{d} logical found: {} ({t2:?})",
            matches!(at_d, DetectionOutcome::AllDetected),
            matches!(above, DetectionOutcome::UndetectedLogical { .. }),
        );
    }

    println!("\n== constrained verification (§7.2: locality / discreteness) ==");
    for d in (3..=max_d).step_by(2) {
        let code = rotated_surface(d);
        let t = (d as i64 - 1) / 2;
        let scenario = memory_scenario(&code, ErrorModel::YErrors);
        // Locality: errors restricted to (d²−1)/2 qubits (deterministic pick).
        let allowed: Vec<usize> = (0..(d * d - 1) / 2).map(|i| (i * 2) % (d * d)).collect();
        let loc = locality_constraint(&scenario, &allowed);
        let r1 = verify_constrained(&scenario, t, loc.clone(), SolverConfig::default());
        // Discreteness: ≤1 error per d-qubit segment.
        let disc = discreteness_constraint(&scenario, d);
        let r2 = verify_constrained(&scenario, t, disc.clone(), SolverConfig::default());
        // Both.
        let mut both = loc;
        both.extend(disc);
        let r3 = verify_constrained(&scenario, t, both, SolverConfig::default());
        println!(
            "d={d}: locality {:?} | discreteness {:?} | both {:?}",
            r1.wall_time, r2.wall_time, r3.wall_time
        );
        assert!(r1.outcome.is_verified() && r2.outcome.is_verified() && r3.outcome.is_verified());
    }
}
