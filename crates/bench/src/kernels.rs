//! The kernel layer of the perf gate ([`crate::gate`]).
//!
//! Five hot-path kernels — the affine XOR chain,
//! `ReducedVc::resolve_branches`, the front end's stabilizer elimination
//! (building the rotated surface code and reducing its memory wp), the QEC
//! wp engine on the surface memory scenario, and batch-vs-sequential Pauli
//! frame sampling — each measured as the median ns per operation, plus the
//! sequential-over-batch frame speedup at surface d=5, the acceptance bar
//! of the bit-sliced simulator.

use veriqec::sampling::faulty_memory_frame;
use veriqec::scenario::{memory_scenario, ErrorModel};
use veriqec_cexpr::{Affine, VarId};
use veriqec_codes::{rotated_surface, ExtractionSchedule};
use veriqec_qsim::LANES;
use veriqec_vcgen::{reduce_commuting, ReducedVc};
use veriqec_wp::qec_wp;

use crate::gate::{median_run, Row, XorShift};

/// The XOR-chain workload at distance `d`: 256 affine forms of weight 8
/// over the d×d memory scenario's variable-id span.
fn chain_forms(d: usize) -> Vec<Affine> {
    let nvars = (4 * d * d) as u64;
    let mut rng = XorShift(0x9E37_79B9 ^ d as u64);
    (0..256)
        .map(|_| Affine::sum_vars((0..8).map(|_| VarId((rng.next_u64() % nvars) as u32))))
        .collect()
}

/// The unresolved rotated-surface memory VC at distance `d`.
fn surface_vc(d: usize) -> ReducedVc {
    let scenario = memory_scenario(&rotated_surface(d), ErrorModel::YErrors);
    let wp = qec_wp(&scenario.program, scenario.post.clone()).expect("QEC fragment");
    reduce_commuting(&scenario.lhs, &wp.pre).expect("commuting case")
}

/// The frame-sampling workload: the faulty-measurement memory protocol of
/// the rotated surface code at distance `d` over `rounds` extraction
/// rounds, with 64 deterministic weight-≤2 error configurations.
fn frame_workload(d: usize, rounds: usize) -> (veriqec_qsim::FrameCircuit, Vec<u64>) {
    let code = rotated_surface(d);
    let schedule = ExtractionSchedule::repeated(code.generators().len(), rounds);
    let frame = faulty_memory_frame(&code, ErrorModel::YErrors, &schedule);
    let sites = frame.circuit.num_error_sites();
    let mut rng = XorShift(0xD1B5_4A32 ^ d as u64);
    let mut masks = vec![0u64; sites];
    for lane in 0..LANES {
        for _ in 0..2 {
            masks[(rng.next_u64() as usize) % sites] |= 1u64 << lane;
        }
    }
    (frame.circuit, masks)
}

/// Median wall time of `f` in nanoseconds over `samples` timed runs after
/// one untimed warm-up.
fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    median_run(samples, f).0 * 1e9
}

/// Measures every kernel. `quick` is the CI mode: fewer samples and d ≤ 5
/// workloads; the full mode adds the d=7 symbolic kernels.
pub(crate) fn rows(quick: bool) -> Vec<Row> {
    let samples = if quick { 24 } else { 64 };
    let mut medians = Vec::new();

    let symbolic_ds: &[usize] = if quick { &[5] } else { &[5, 7] };
    for &d in symbolic_ds {
        let forms = chain_forms(d);
        medians.push((
            format!("xor_chain_d{d}"),
            median_ns(samples, || {
                let mut acc = Affine::zero();
                for f in &forms {
                    acc ^= f;
                }
                std::hint::black_box(&acc);
            }),
        ));
        let vc = surface_vc(d);
        medians.push((
            format!("branch_resolution_d{d}"),
            median_ns(samples, || {
                let mut v = vc.clone();
                v.resolve_branches();
                std::hint::black_box(v.targets.len());
            }),
        ));
    }

    // Building the code and reducing every wp conjunct: one elimination each.
    let scenario = memory_scenario(&rotated_surface(7), ErrorModel::YErrors);
    let wp = qec_wp(&scenario.program, scenario.post.clone()).expect("QEC fragment");
    let elimination_ns = median_ns(samples, || {
        std::hint::black_box(rotated_surface(7));
        std::hint::black_box(reduce_commuting(&scenario.lhs, &wp.pre).expect("commuting case"));
    });
    medians.push(("stabilizer_elimination_d7".into(), elimination_ns));

    // The wp engine over one surface memory round. A rebuild of every
    // conjunct per error statement reads about 7 ms here, past the bound.
    let scenario = memory_scenario(&rotated_surface(9), ErrorModel::YErrors);
    let wp_ns = median_ns(samples, || {
        std::hint::black_box(
            qec_wp(&scenario.program, scenario.post.clone()).expect("QEC fragment"),
        );
    });
    medians.push(("memory_wp_d9".into(), wp_ns));

    let (circuit, masks) = frame_workload(5, 3);
    let per_lane: Vec<Vec<bool>> = (0..LANES)
        .map(|lane| masks.iter().map(|w| w >> lane & 1 == 1).collect())
        .collect();
    // Both sides propagate the same 64 configurations; ns are per frame.
    let seq_ns = median_ns(samples, || {
        for cfg in &per_lane {
            std::hint::black_box(circuit.sample(cfg));
        }
    }) / LANES as f64;
    let batch_ns = median_ns(samples, || {
        std::hint::black_box(circuit.sample_batch(&masks));
    }) / LANES as f64;
    medians.push(("frame_sequential_d5".into(), seq_ns));
    medians.push(("frame_batch_d5".into(), batch_ns));
    median_rows(medians, samples, seq_ns / batch_ns)
}

/// The rows of measured `(workload, median ns)` pairs, each timed over
/// `samples` runs, plus the frame-batch `speedup`.
fn median_rows(medians: Vec<(String, f64)>, samples: usize, speedup: f64) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, ns) in medians {
        rows.push(Row::new("kernels", &workload, "median_ns", ns, "ns"));
        rows.push(Row::new(
            "kernels",
            workload,
            "samples",
            samples as f64,
            "count",
        ));
    }
    rows.push(Row::new(
        "kernels",
        "frame_batch_d5",
        "speedup",
        speedup,
        "x",
    ));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, parse_baseline, to_json};
    use veriqec_obs::json::Json;

    #[test]
    fn median_is_order_insensitive() {
        let mut calls = 0usize;
        let m = median_ns(5, || calls += 1);
        assert_eq!(calls, 6); // warm-up + samples
        assert!(m >= 0.0);
    }

    #[test]
    fn report_json_round_trips_through_parser() {
        let rows = median_rows(vec![("xor_chain_d5".into(), 1234.5)], 24, 42.0);
        let v = Json::parse(&to_json(true, &rows)).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("veriqec_gate_v1"));
        assert_eq!(v.get("quick").unwrap().as_bool(), Some(true));
        let parsed = v.get("rows").unwrap().as_arr().unwrap();
        let fields = |i: usize| {
            let text = |key| parsed[i].get(key).unwrap().as_str().unwrap();
            let value = parsed[i].get("value").unwrap().as_f64().unwrap();
            (text("layer"), text("workload"), text("metric"), value)
        };
        assert_eq!(parsed.len(), 3);
        assert_eq!(fields(0), ("kernels", "xor_chain_d5", "median_ns", 1234.5));
        assert_eq!(fields(1), ("kernels", "xor_chain_d5", "samples", 24.0));
        assert_eq!(fields(2), ("kernels", "frame_batch_d5", "speedup", 42.0));
    }

    #[test]
    fn baseline_gate_flags_only_hard_regressions() {
        let rows = median_rows(
            vec![("fast".into(), 100.0), ("slow".into(), 1000.0)],
            8,
            50.0,
        );
        let baseline = parse_baseline(
            r#"{"rows":[
                {"layer":"kernels","workload":"fast","metric":"median_ns","value":50.0},
                {"layer":"kernels","workload":"slow","metric":"median_ns","value":100.0},
                {"layer":"kernels","workload":"gone","metric":"median_ns","value":10.0}
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
    fn speedup_floor_is_enforced() {
        // The checked-in speedup baseline of 30: 10x passes, below fails.
        let baseline = parse_baseline(
            r#"{"rows":[
                {"layer":"kernels","workload":"frame_batch_d5","metric":"speedup","value":30.0}
            ]}"#,
        )
        .unwrap();
        assert!(check(&median_rows(vec![], 8, 10.0), &baseline).is_empty());
        let regs = check(&median_rows(vec![], 8, 2.0), &baseline);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("speedup") && regs[0].contains("below the floor"));
    }
}
