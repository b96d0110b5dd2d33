//! The CDCL solver layer of the perf gate ([`crate::gate`]).
//!
//! A pinned set of instances — pigeonhole and seeded random 3-SAT at the
//! pure-SAT layer, plus zoo workloads (a distance sweep and incremental
//! correction sweeps) through the same sessions the engine uses — each
//! measured as the median wall time of a fresh solve, with its
//! propagations, conflicts, propagations/s and mean learnt LBD, plus the
//! aggregate propagation and conflict throughput. Every run re-asserts the
//! instance's pinned verdict, so the gate never times a wrong answer.
//!
//! The aggregate propagations/s row has a baseline of 3.0e6, so its floor
//! is 1.0e6/s. On a 2-core Xeon dev container, quick runs read
//! 2.3–4.0e6/s and full runs 4.9–5.2e6/s: 2–4× headroom, enough to catch a
//! lost fast path in `propagate` but not runner noise.

use veriqec::engine::{CorrectionSweep, DetectionSession};
use veriqec::scenario::{memory_scenario, ErrorModel};
use veriqec::tasks::DistanceOutcome;
use veriqec_codes::{rotated_surface, steane, toric};
use veriqec_sat::{Lit, SatResult, Solver, SolverConfig, SolverStats, Var};
use veriqec_vcgen::VcOutcome;

use crate::gate::{median_run, Row, XorShift};

/// PHP(p, h): `p` pigeons into `h` holes — unsatisfiable when p > h, with a
/// propagation-heavy refutation. The canonical pure-SAT stress instance.
fn php_solver(pigeons: usize, holes: usize) -> Solver {
    let mut s = Solver::new();
    let vars: Vec<Vec<Lit>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var().positive()).collect())
        .collect();
    for row in &vars {
        s.add_clause(row.iter().copied());
    }
    for p1 in 0..pigeons {
        for p2 in (p1 + 1)..pigeons {
            for (&a, &b) in vars[p1].iter().zip(&vars[p2]) {
                s.add_clause([!a, !b]);
            }
        }
    }
    s
}

/// Seeded random 3-SAT near the phase transition (ratio 4.2): a mixed
/// propagate/backtrack workload. The seed pins the formula, so the verdict
/// is an instance property, not a solver property.
fn rand3sat_solver(num_vars: usize, seed: u64) -> Solver {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
    let mut rng = XorShift(seed);
    let clauses = num_vars * 42 / 10;
    for _ in 0..clauses {
        let mut picks = [0usize; 3];
        for slot in 0..3 {
            loop {
                let v = (rng.next_u64() as usize) % num_vars;
                if !picks[..slot].contains(&v) {
                    picks[slot] = v;
                    break;
                }
            }
        }
        let lits = picks.map(|v| Lit::new(vars[v], rng.next_u64() & 1 == 0));
        s.add_clause(lits);
    }
    s
}

fn sat_verdict(r: SatResult) -> &'static str {
    match r {
        SatResult::Sat => "sat",
        SatResult::Unsat => "unsat",
        SatResult::Unknown => "unknown",
    }
}

/// Runs `f` — a full fresh-state solve returning its verdict tag and
/// stats — once untimed as a warm-up, then `runs` timed times, asserting
/// the warm-up's verdict on every run. Returns the median run's wall time
/// in ms and its stats.
fn measure(
    name: &'static str,
    runs: usize,
    mut f: impl FnMut() -> (&'static str, SolverStats),
) -> (&'static str, f64, SolverStats) {
    let (verdict, _) = f();
    let (secs, stats) = median_run(runs, || {
        let (v, stats) = f();
        assert_eq!(v, verdict, "{name}: verdict must be pinned across runs");
        stats
    });
    (name, secs * 1e3, stats)
}

/// `count` per second, 0 for an unmeasurably short run.
fn per_sec(count: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// Measures every pinned instance. `quick` is the CI mode: fewer timed
/// runs and the small instances only; the full mode adds PHP(8,7), the
/// toric-3 distance and the surface-5 correction sweep.
pub(crate) fn rows(quick: bool) -> Vec<Row> {
    let runs = if quick { 3 } else { 7 };
    let config = SolverConfig::default();
    let mut measured = vec![
        measure("php_7_6", runs, || {
            let mut s = php_solver(7, 6);
            let r = s.solve(&[]);
            assert_eq!(r, SatResult::Unsat);
            (sat_verdict(r), s.stats())
        }),
        measure("rand3sat_n150", runs, || {
            let mut s = rand3sat_solver(150, 0x5EED_CAFE);
            let r = s.solve(&[]);
            assert_ne!(r, SatResult::Unknown);
            (sat_verdict(r), s.stats())
        }),
        measure("steane_distance", runs, || {
            let mut session = DetectionSession::new(&steane(), config);
            let out = session.find_distance(4);
            assert_eq!(out, DistanceOutcome::Exact(3));
            ("distance_3", session.solver_stats())
        }),
        measure("surface3_sweep_w2", runs, || {
            let scenario = memory_scenario(&rotated_surface(3), ErrorModel::YErrors);
            let mut sweep = CorrectionSweep::new(&scenario, vec![], config);
            assert!(sweep.check_weight(1).is_verified());
            assert!(matches!(
                sweep.check_weight(2),
                VcOutcome::CounterExample(_)
            ));
            ("w1_verified_w2_cex", sweep.session().solver_stats())
        }),
    ];
    if !quick {
        measured.extend([
            measure("php_8_7", runs, || {
                let mut s = php_solver(8, 7);
                let r = s.solve(&[]);
                assert_eq!(r, SatResult::Unsat);
                (sat_verdict(r), s.stats())
            }),
            measure("toric3_distance", runs, || {
                let mut session = DetectionSession::new(&toric(3), config);
                let out = session.find_distance(4);
                assert_eq!(out, DistanceOutcome::Exact(3));
                ("distance_3", session.solver_stats())
            }),
            measure("surface5_sweep_w3", runs, || {
                let scenario = memory_scenario(&rotated_surface(5), ErrorModel::YErrors);
                let mut sweep = CorrectionSweep::new(&scenario, vec![], config);
                assert!(sweep.check_weight(2).is_verified());
                assert!(matches!(
                    sweep.check_weight(3),
                    VcOutcome::CounterExample(_)
                ));
                ("w2_verified_w3_cex", sweep.session().solver_stats())
            }),
        ]);
    }
    stats_rows(&measured)
}

/// The rows of measured `(name, wall_ms, stats)` instances: five per
/// instance, plus the aggregate propagation and conflict throughputs.
fn stats_rows(measured: &[(&'static str, f64, SolverStats)]) -> Vec<Row> {
    let mut rows = Vec::new();
    let (mut total_secs, mut total_props, mut total_conflicts) = (0.0, 0, 0);
    for &(name, wall_ms, stats) in measured {
        let secs = wall_ms / 1e3;
        let row = |metric, value, unit| Row::new("solver", name, metric, value, unit);
        rows.extend([
            row("wall_ms", wall_ms, "ms"),
            row("propagations", stats.propagations as f64, "count"),
            row("conflicts", stats.conflicts as f64, "count"),
            row("props_per_sec", per_sec(stats.propagations, secs), "1/s"),
            row("mean_lbd", stats.mean_learnt_lbd(), "lbd"),
        ]);
        total_secs += secs;
        total_props += stats.propagations;
        total_conflicts += stats.conflicts;
    }
    let row = |metric, count| {
        Row::new(
            "solver",
            "aggregate",
            metric,
            per_sec(count, total_secs),
            "1/s",
        )
    };
    rows.push(row("props_per_sec", total_props));
    rows.push(row("conflicts_per_sec", total_conflicts));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, parse_baseline, to_json};
    use veriqec_obs::json::Json;

    fn stats(propagations: u64) -> SolverStats {
        SolverStats {
            propagations,
            conflicts: propagations / 10,
            learned: propagations / 10,
            lbd_sum: propagations / 2,
            ..SolverStats::default()
        }
    }

    #[test]
    fn report_json_round_trips_through_parser() {
        let rows = stats_rows(&[("php_7_6", 2.5, stats(100_000))]);
        let doc = Json::parse(&to_json(true, &rows)).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("veriqec_gate_v1"));
        assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));
        let parsed = doc.get("rows").unwrap().as_arr().unwrap();
        let value = |workload: &str, metric: &str| {
            let row = parsed
                .iter()
                .find(|r| {
                    r.get("layer").unwrap().as_str() == Some("solver")
                        && r.get("workload").unwrap().as_str() == Some(workload)
                        && r.get("metric").unwrap().as_str() == Some(metric)
                })
                .unwrap_or_else(|| panic!("no {workload}/{metric} row"));
            row.get("value").unwrap().as_f64().unwrap()
        };
        assert_eq!(value("php_7_6", "wall_ms"), 2.5);
        assert_eq!(value("php_7_6", "propagations"), 100_000.0);
        assert_eq!(value("php_7_6", "conflicts"), 10_000.0);
        assert_eq!(value("php_7_6", "mean_lbd"), 5.0);
        // 2.5 ms is not exact in binary, so the rates are compared loosely.
        let close = |got: f64, want: f64| (got - want).abs() <= want * 1e-9;
        assert!(close(value("php_7_6", "props_per_sec"), 4.0e7));
        assert!(close(value("aggregate", "props_per_sec"), 4.0e7));
        assert!(close(value("aggregate", "conflicts_per_sec"), 4.0e6));
        assert_eq!(parsed.len(), 7);
    }

    #[test]
    fn baseline_gate_flags_only_hard_regressions() {
        let rows = stats_rows(&[
            ("fast", 2.0, stats(1_000_000)),
            ("slow", 100.0, stats(1_000)),
        ]);
        let baseline = parse_baseline(
            r#"{"rows":[
                {"layer":"solver","workload":"fast","metric":"wall_ms","value":1.0},
                {"layer":"solver","workload":"slow","metric":"wall_ms","value":10.0},
                {"layer":"solver","workload":"gone","metric":"wall_ms","value":5.0}
            ]}"#,
        )
        .unwrap();
        let regs = check(&rows, &baseline);
        // 'fast' is 2x the baseline — inside the 3x tolerance. 'slow' is
        // 10x — a hard regression. 'gone' was never measured.
        assert_eq!(regs.len(), 2, "{regs:?}");
        assert!(regs.iter().any(|r| r.contains("slow")));
        assert!(regs.iter().any(|r| r.contains("gone")));
    }

    #[test]
    fn throughput_floor_is_enforced() {
        // The checked-in aggregate baseline of 3.0e6 props/s: 1.0e6 passes,
        // anything below fails.
        let baseline = parse_baseline(
            r#"{"rows":[
                {"layer":"solver","workload":"aggregate","metric":"props_per_sec","value":3.0e6}
            ]}"#,
        )
        .unwrap();
        let at_floor = stats_rows(&[("php_7_6", 1000.0, stats(1_000_000))]);
        assert!(check(&at_floor, &baseline).is_empty());
        let slow = stats_rows(&[("php_7_6", 1000.0, stats(10))]);
        let regs = check(&slow, &baseline);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("props_per_sec") && regs[0].contains("below the floor"));
    }

    #[test]
    fn pinned_pure_sat_instances_solve_as_expected() {
        let mut php = php_solver(5, 4);
        assert_eq!(php.solve(&[]), SatResult::Unsat);
        // The seeded formula is identical across constructions.
        let mut a = rand3sat_solver(24, 7);
        let mut b = rand3sat_solver(24, 7);
        assert_eq!(a.solve(&[]), b.solve(&[]));
        assert_eq!(a.num_clauses(), b.num_clauses());
    }
}
