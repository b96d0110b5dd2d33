//! Ablation benches for the design choices called out in `DESIGN.md`:
//! CDCL features (VSIDS, clause learning, restarts) and the size of the
//! solver race, measured on the surface-code general-verification workload.

use criterion::{criterion_group, criterion_main, Criterion};
use veriqec::parallel::{check_parallel, ParallelConfig};
use veriqec_bench::surface_problem;
use veriqec_sat::SolverConfig;

fn bench_solver_features(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_solver_features");
    group.sample_size(10);
    let (_, problem) = surface_problem(5);
    let configs = [
        ("full", SolverConfig::default()),
        (
            "no_vsids",
            SolverConfig {
                use_vsids: false,
                ..SolverConfig::default()
            },
        ),
        (
            "no_restarts",
            SolverConfig {
                use_restarts: false,
                ..SolverConfig::default()
            },
        ),
        (
            "no_phase_saving",
            SolverConfig {
                use_phase_saving: false,
                ..SolverConfig::default()
            },
        ),
    ];
    for (name, cfg) in configs {
        group.bench_function(format!("d5_{name}"), |b| {
            b.iter(|| {
                let (outcome, _) = problem.check_with_config(cfg);
                assert!(outcome.is_verified());
            })
        });
    }
    group.finish();
}

fn bench_race_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_race_size");
    group.sample_size(10);
    let (_, problem) = surface_problem(5);
    for workers in [1usize, 2, 4] {
        let cfg = ParallelConfig {
            workers,
            ..ParallelConfig::default()
        };
        group.bench_function(format!("d5_racers_{workers}"), |b| {
            b.iter(|| {
                let r = check_parallel(&problem, &cfg);
                assert!(r.outcome.is_verified());
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solver_features, bench_race_size);
criterion_main!(benches);
