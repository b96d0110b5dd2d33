//! The CDCL solver layer of the perf gate ([`crate::gate`]).
//!
//! A pinned set of instances — pigeonhole and seeded random 3-SAT at the
//! pure-SAT layer, plus zoo workloads (distance sweeps, incremental
//! correction sweeps and one-shot Eqn. 14 proofs on the rotated surface
//! code) through the same sessions the engine uses — each
//! measured as the median wall time of a fresh solve, with its
//! propagations, conflicts, propagations/s and mean learnt LBD, plus the
//! aggregate propagation and conflict throughput. Every run re-asserts the
//! instance's pinned verdict, so the gate never times a wrong answer.
//!
//! Both modes run the one-shot surface-5, surface-7 and surface-9 proofs.
//! Their conflict baselines, 500, 1,500 and 4,000, put the bounds at
//! 1,500, 4,500 and 12,000. The solver reads 126, 846 and 1,842. Without
//! Gauss–Jordan propagation it reads 371, 6,054 and 61,082 (and 3.7 s at
//! d = 9 against a 750 ms bound), so the quick gate fails if the asserted
//! parity rows stop reaching the solver. An encoding that reifies every
//! stabilizer target again reads 166, 820 and 2,169 with the propagator,
//! inside the bounds; `capped_cardinality_pins_the_surface_query_size`
//! pins that encoding instead.
//!
//! Both modes also run the surface-11 distance sweep, the longest job of
//! the code-analysis benchmark. Its baselines, 150 ms and 3,000
//! conflicts, put the bounds at 450 ms and 9,000. A detection session
//! counting along the code's logical layers reads about 40 ms and 976
//! conflicts; one totalizer in qubit order read about 1.2 s and 25,197.
//!
//! The aggregate propagations/s row has a baseline of 3.0e6, so its floor
//! is 1.0e6/s. On a 2-core Xeon dev container, quick runs read
//! 4.1–4.6e6/s and full runs 3.5–4.1e6/s: 3.5–4.6× headroom, enough to
//! catch a lost fast path in `propagate` but not runner noise.

use veriqec::engine::{DetectionSession, FaultToleranceSweep};
use veriqec::scenario::{memory_scenario, ErrorModel};
use veriqec::tasks::DistanceOutcome;
use veriqec_codes::{rotated_surface, steane, toric, StabilizerCode};
use veriqec_sat::{Lit, SatResult, Solver, SolverConfig, SolverStats, Var};
use veriqec_vcgen::VcOutcome;

use crate::gate::{median_run, Row, XorShift};
use crate::surface_problem;

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

/// A one-shot Eqn. 14 proof on the rotated surface code at distance `d`
/// (t = (d-1)/2): encode and solve sequentially, asserting `Verified`. A
/// sequential solve repeats its conflict count exactly, so this row also
/// catches an encoding change that blows up the search.
fn surface_proof(
    name: &'static str,
    d: usize,
    runs: usize,
    config: SolverConfig,
) -> (&'static str, f64, SolverStats) {
    let (_, problem) = surface_problem(d);
    measure(name, runs, || {
        let mut session = problem.session(config);
        assert!(session.query(&[]).is_verified(), "{name}");
        ("verified", session.solver_stats())
    })
}

/// A distance sweep (Eqn. 15 up to `d + 1`) on a fresh detection
/// session, asserting the claimed distance `d` exactly.
fn distance_sweep(
    name: &'static str,
    code: &StabilizerCode,
    runs: usize,
    config: SolverConfig,
) -> (&'static str, f64, SolverStats) {
    let d = code.claimed_distance().expect("a claimed distance");
    measure(name, runs, || {
        let mut session = DetectionSession::new(code, config);
        assert_eq!(session.find_distance(d + 1), DistanceOutcome::Exact(d));
        ("exact", session.solver_stats())
    })
}

/// Measures every pinned instance. `quick` is the CI mode: fewer timed
/// runs; the full mode adds PHP(8,7), the toric-3 distance and the
/// surface-5 correction sweep.
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
        distance_sweep("steane_distance", &steane(), runs, config),
        measure("surface3_sweep_w2", runs, || {
            let scenario = memory_scenario(&rotated_surface(3), ErrorModel::YErrors);
            let mut sweep = FaultToleranceSweep::new(&scenario, vec![], config);
            assert!(sweep.check(1, 0).is_verified());
            assert!(matches!(sweep.check(2, 0), VcOutcome::CounterExample(_)));
            ("w1_verified_w2_cex", sweep.session().solver_stats())
        }),
        surface_proof("surface5_proof", 5, runs, config),
        surface_proof("surface7_proof", 7, runs, config),
        surface_proof("surface9_proof", 9, runs, config),
        distance_sweep("surface11_distance", &rotated_surface(11), runs, config),
    ];
    if !quick {
        measured.extend([
            measure("php_8_7", runs, || {
                let mut s = php_solver(8, 7);
                let r = s.solve(&[]);
                assert_eq!(r, SatResult::Unsat);
                (sat_verdict(r), s.stats())
            }),
            distance_sweep("toric3_distance", &toric(3), runs, config),
            measure("surface5_sweep_w3", runs, || {
                let scenario = memory_scenario(&rotated_surface(5), ErrorModel::YErrors);
                let mut sweep = FaultToleranceSweep::new(&scenario, vec![], config);
                assert!(sweep.check(2, 0).is_verified());
                assert!(matches!(sweep.check(3, 0), VcOutcome::CounterExample(_)));
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
        // The checked-in surface-11 distance rows pass the layer-order
        // sweep (about 40 ms, 976 conflicts) and fail the qubit-order one
        // (about 1.3 s, 25,197 conflicts) on both metrics.
        let checked_in = parse_baseline(include_str!("../../../bench_baselines.json")).unwrap();
        let flagged = |wall_ms, conflicts| {
            let stats = SolverStats {
                conflicts,
                ..SolverStats::default()
            };
            let rows = stats_rows(&[("surface11_distance", wall_ms, stats)]);
            check(&rows, &checked_in)
                .into_iter()
                .filter(|r| r.starts_with("solver/surface11_distance/"))
                .count()
        };
        assert_eq!(flagged(40.0, 976), 0);
        assert_eq!(flagged(1300.0, 25_197), 2);
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
