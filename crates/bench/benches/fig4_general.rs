//! Fig. 4: general verification (accurate decoding and correction) of the
//! rotated surface code, sequential vs the engine's batch driver, as a
//! function of distance — plus the whole-family batch the engine was built
//! for: all distances queued on one worker pool.

use criterion::{criterion_group, criterion_main, Criterion};
use veriqec::engine::{Engine, EngineConfig, Job};
use veriqec::parallel::SplitConfig;
use veriqec_bench::surface_problem;

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_general_verification");
    group.sample_size(10);
    let engine = Engine::new(EngineConfig::default());
    for d in [3usize, 5, 7] {
        let (scenario, problem) = surface_problem(d);
        group.bench_function(format!("sequential_d{d}"), |b| {
            b.iter(|| {
                let (outcome, _) = problem.check();
                assert!(outcome.is_verified());
            })
        });
        group.bench_function(format!("engine_d{d}"), |b| {
            b.iter(|| {
                let report = engine.run(vec![Job::correction(
                    format!("surface_d{d}"),
                    problem.clone(),
                    scenario.error_vars.clone(),
                    SplitConfig::default(),
                )]);
                assert!(report.jobs[0].outcome.is_verified());
            })
        });
    }
    group.bench_function("engine_batch_d3_d5_d7", |b| {
        b.iter(|| {
            let jobs: Vec<Job> = [3usize, 5, 7]
                .into_iter()
                .map(|d| {
                    let (scenario, problem) = surface_problem(d);
                    Job::correction(
                        format!("surface_d{d}"),
                        problem,
                        scenario.error_vars,
                        SplitConfig::default(),
                    )
                })
                .collect();
            let report = engine.run(jobs);
            assert!(report.jobs.iter().all(|j| j.outcome.is_verified()));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
