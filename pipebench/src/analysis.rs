//! `code-analysis`: three `Engine::run` batches over the code zoo, each
//! submitted largest job first: exact distances, fault-tolerance frontiers
//! of repeated faulty-measurement extraction, and failure weight
//! enumerators. Here one encoding answers many assumption queries and the
//! decision-diagram backend does its work. The seed does not change these
//! inputs.
//!
//! The traced pass submits the same built-in jobs with the program's
//! `veriqec_obs` collector armed, and splits the engine workers' time by
//! the program's own spans ([`WorkerLayers`]). Only the frontier jobs'
//! front end runs differently there: one stage at a time on the calling
//! thread ([`front::unbounded`]), so that wp and the reduction are spans of
//! their own, into the job that `Job::fault_tolerance` builds.

use std::time::Instant;

use veriqec::engine::{BatchReport, Engine, EngineConfig, Job, JobKind, JobOutcome};
use veriqec::scenario::{faulty_memory_scenario, ErrorModel};
use veriqec_bench::dd_bench::CARBON_COEFFICIENTS;
use veriqec_codes::{
    carbon_12_2_4, hgp_hamming, reed_muller, repetition, rotated_surface, steane, toric,
    xzzx_surface, StabilizerCode,
};
use veriqec_dd::DdStats;
use veriqec_sat::{SolverConfig, SolverStats};

use crate::report::Outcome;
use crate::spans::{Tracer, WorkerLayers};
use crate::stats::{geomean, nproc, timed_setups};
use crate::{front, heap, oracle, Args};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Untraced passes per run, at least: a batch's time swings with what
/// shares the two cores, so the run takes the median of several.
const MIN_PASSES: usize = 4;

/// A code with its row key and claimed distance.
#[derive(Clone)]
struct Entry {
    key: &'static str,
    code: StabilizerCode,
    d: usize,
}

/// One fault-tolerance frontier question.
#[derive(Clone)]
struct FrontierQ {
    key: &'static str,
    entry: Entry,
    rounds: usize,
    max: (usize, usize),
}

struct Setup {
    distance: Vec<Entry>,
    frontier: Vec<FrontierQ>,
    count: Vec<Entry>,
    engine: Engine,
}

fn entry(tr: &Tracer, key: &'static str, build: impl FnOnce() -> StabilizerCode) -> Entry {
    let code = tr.call("codes", build);
    let d = code
        .claimed_distance()
        .unwrap_or_else(|| panic!("{key} has no claimed distance"));
    Entry { key, code, d }
}

/// Builds every code. Lists are in submission order, largest job first
/// (by busy time on a release build).
fn setup(tr: &Tracer) -> Setup {
    let distance = vec![
        entry(tr, "surface_11", || rotated_surface(11)),
        entry(tr, "toric_7", || toric(7)),
        entry(tr, "surface_9", || rotated_surface(9)),
        entry(tr, "xzzx_9", || xzzx_surface(9)),
        entry(tr, "xzzx_7", || xzzx_surface(7)),
        entry(tr, "toric_5", || toric(5)),
        entry(tr, "hgp_hamming", hgp_hamming),
        entry(tr, "carbon", carbon_12_2_4),
        entry(tr, "reed_muller_5", || reed_muller(5)),
    ];
    let surface5 = entry(tr, "surface_5", || rotated_surface(5));
    let surface3 = entry(tr, "surface_3", || rotated_surface(3));
    let steane = entry(tr, "steane", steane);
    let q = |key, entry: &Entry, rounds, max| FrontierQ {
        key,
        entry: entry.clone(),
        rounds,
        max,
    };
    let frontier = vec![
        q("surface_5_r5", &surface5, 5, (2, 2)),
        q("surface_5_r3", &surface5, 3, (2, 1)),
        q("surface_5_r1", &surface5, 1, (2, 1)),
        q("surface_3_r3", &surface3, 3, (1, 1)),
        q("steane_r3", &steane, 3, (1, 1)),
    ];
    let count = vec![
        entry(tr, "toric_3", || toric(3)),
        entry(tr, "carbon", carbon_12_2_4),
        entry(tr, "repetition_127", || repetition(127)),
        surface5,
        entry(tr, "xzzx_5", || xzzx_surface(5)),
    ];
    let engine = Engine::new(EngineConfig {
        workers: nproc(),
        solver: SolverConfig::default(),
    });
    Setup {
        distance,
        frontier,
        count,
        engine,
    }
}

/// Front-end sizes of the traced pass's frontier problems.
#[derive(Default)]
struct FrontSizes {
    pre_conjuncts: usize,
    targets: usize,
}

/// One batch: its wall time, peak live heap (MiB) and report, and the
/// program's trace events when traced.
struct Batch {
    secs: f64,
    heap: f64,
    report: BatchReport,
    events: Vec<veriqec_obs::Event>,
}

/// Runs one batch with its peak heap measured on its own. A traced batch
/// runs with the program's `veriqec_obs` collector armed.
fn measured(
    tr: &Tracer,
    run: impl FnOnce() -> Result<(f64, BatchReport), String>,
) -> Result<Batch, String> {
    heap::reset_peak();
    veriqec_obs::set_enabled(tr.enabled());
    let ran = run();
    veriqec_obs::set_enabled(false);
    let events = veriqec_obs::drain();
    let (secs, report) = ran?;
    Ok(Batch {
        secs,
        heap: heap::peak_mb(),
        report,
        events,
    })
}

fn distance_batch(tr: &Tracer, s: &Setup) -> Result<(f64, BatchReport), String> {
    let t0 = Instant::now();
    let jobs = s
        .distance
        .iter()
        .map(|e| Job::distance(e.key, e.code.clone(), e.d + 1))
        .collect();
    let report = tr.call("engine", || s.engine.run(jobs));
    Ok((t0.elapsed().as_secs_f64(), report))
}

fn frontier_batch(
    tr: &Tracer,
    s: &Setup,
    sizes: &mut FrontSizes,
) -> Result<(f64, BatchReport), String> {
    let t0 = Instant::now();
    let mut jobs = Vec::new();
    for q in &s.frontier {
        let scenario = tr.call("scenario", || {
            faulty_memory_scenario(&q.entry.code, ErrorModel::YErrors, q.rounds)
        });
        if !tr.enabled() {
            jobs.push(Job::fault_tolerance(q.key, &scenario, q.max.0, q.max.1));
            continue;
        }
        let fe = front::unbounded(tr, &scenario)?;
        sizes.pre_conjuncts += fe.pre_conjuncts;
        sizes.targets += fe.targets;
        jobs.push(Job {
            name: q.key.into(),
            kind: JobKind::FaultTolerance {
                problem: fe.problem,
                data_vars: scenario.error_vars,
                meas_vars: scenario.meas_error_vars,
                max_t_data: q.max.0,
                max_t_meas: q.max.1,
            },
        });
    }
    let report = tr.call("engine", || s.engine.run(jobs));
    Ok((t0.elapsed().as_secs_f64(), report))
}

fn count_batch(tr: &Tracer, s: &Setup) -> Result<(f64, BatchReport), String> {
    let t0 = Instant::now();
    let jobs = s
        .count
        .iter()
        .map(|e| Job::count(e.key, e.code.clone()))
        .collect();
    let report = tr.call("engine", || s.engine.run(jobs));
    Ok((t0.elapsed().as_secs_f64(), report))
}

/// Checks every verdict of a pass; returns the number of inconclusive jobs.
fn check(s: &Setup, batches: &[Batch; 3]) -> Result<u64, String> {
    let mut failed = 0;
    let [dist, front, count] = batches;
    for (e, j) in s.distance.iter().zip(&dist.report.jobs) {
        let label = format!("distance {}", e.key);
        let ok = match &j.outcome {
            JobOutcome::Distance(o) => oracle::distance(&label, e.d, o)?,
            JobOutcome::Unknown | JobOutcome::Cancelled => false,
            other => return Err(format!("{label}: unexpected outcome {other:?}")),
        };
        failed += u64::from(!ok);
    }
    for (q, j) in s.frontier.iter().zip(&front.report.jobs) {
        let label = format!("frontier {}", q.key);
        let ok = match &j.outcome {
            JobOutcome::Frontier(f) => oracle::frontier(&label, q.entry.d, q.rounds, q.max, f)?,
            JobOutcome::Unknown | JobOutcome::Cancelled => false,
            other => return Err(format!("{label}: unexpected outcome {other:?}")),
        };
        failed += u64::from(!ok);
    }
    for (e, j) in s.count.iter().zip(&count.report.jobs) {
        let label = format!("count {}", e.key);
        match &j.outcome {
            JobOutcome::Enumerator(en) => {
                let pinned = (e.key == "carbon").then_some(&CARBON_COEFFICIENTS[..]);
                let (n, k) = (e.code.n(), e.code.k());
                oracle::enumerator(&label, n, k, e.d, &en.coefficients, pinned)?;
            }
            JobOutcome::Unknown | JobOutcome::Cancelled => failed += 1,
            other => return Err(format!("{label}: unexpected outcome {other:?}")),
        }
    }
    Ok(failed)
}

struct Pass {
    batches: [Batch; 3],
    failed: u64,
}

impl Pass {
    fn attempted(&self) -> u64 {
        self.batches
            .iter()
            .map(|b| b.report.jobs.len() as u64)
            .sum()
    }

    fn wall(&self) -> f64 {
        self.batches.iter().map(|b| b.secs).sum()
    }

    fn geomean_ms(&self) -> f64 {
        geomean(
            &self
                .batches
                .iter()
                .map(|b| b.secs * 1e3)
                .collect::<Vec<_>>(),
        )
    }

    fn heap_mb(&self) -> f64 {
        geomean(&self.batches.iter().map(|b| b.heap).collect::<Vec<_>>())
    }
}

fn pass(tr: &Tracer, s: &Setup, sizes: &mut FrontSizes) -> Result<Pass, String> {
    let batches = [
        measured(tr, || distance_batch(tr, s))?,
        measured(tr, || frontier_batch(tr, s, sizes))?,
        measured(tr, || count_batch(tr, s))?,
    ];
    let failed = check(s, &batches)?;
    Ok(Pass { batches, failed })
}

/// Runs the workload per the command line.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    let (s, setup_s) = timed_setups(SETUPS, || setup(&off));
    let mut out = Outcome::default();
    let mut passes = Vec::new();
    let start = Instant::now();
    loop {
        passes.push(pass(&off, &s, &mut FrontSizes::default())?);
        let enough = passes.len() >= MIN_PASSES && start.elapsed() >= args.seconds;
        if args.trace || enough {
            break;
        }
    }
    for p in &passes {
        out.attempted += p.attempted();
        out.failed += p.failed;
        for (name, b) in ["distance", "frontier", "count"].iter().zip(&p.batches) {
            out.row(format!(
                "row code-analysis {name} batch {:.6} s, peak heap {:.1} MiB",
                b.secs, b.heap
            ));
            for j in &b.report.jobs {
                out.row(format!(
                    "row code-analysis {name} {} busy {:.3} ms, {} conflicts, {} dd nodes",
                    j.name,
                    j.busy_time.as_secs_f64() * 1e3,
                    j.stats.conflicts,
                    j.dd.nodes
                ));
            }
        }
    }
    if !args.trace {
        let walls: Vec<f64> = passes.iter().map(Pass::wall).collect();
        let items: Vec<f64> = passes.iter().map(Pass::geomean_ms).collect();
        let heap: Vec<f64> = passes.iter().map(Pass::heap_mb).collect();
        out.end_to_end(&walls, &items, &heap, setup_s);
        return Ok(out);
    }
    let untraced = &passes[0];
    instance_rows(&mut out, untraced)?;
    let untraced_wall = setup_s + untraced.wall();

    drop(s);
    let tr = Tracer::new(true);
    let mut sizes = FrontSizes::default();
    let t0 = Instant::now();
    let s = setup(&tr);
    let traced = pass(&tr, &s, &mut sizes)?;
    let traced_wall = t0.elapsed().as_secs_f64();
    out.attempted += traced.attempted();
    out.failed += traced.failed;
    for (metric, layer) in [
        ("codes.build_ms", "codes"),
        ("scenario.build_ms", "scenario"),
        ("wp.qec_wp_ms", "wp"),
        ("vcgen.reduce_ms", "reduce"),
        ("engine.run_ms", "engine"),
    ] {
        out.set(metric, tr.layer_ms(layer));
    }
    // A job span's own time, outside its child spans, is its session's
    // encoding for a distance or frontier job (`DetectionSession::new` has
    // no span) and, for a count, `coefficients`, the detection encoding
    // and freeing the diagram, none of which has a span.
    let mut worker = WorkerLayers::default();
    for (b, job_layer) in traced.batches.iter().zip(["encode", "encode", "dd.count"]) {
        worker.add(&b.events, job_layer);
    }
    for (metric, layer) in [
        ("vcgen.encode_ms", "encode"),
        ("sat.solve_ms", "sat"),
        ("dd.compile_ms", "dd.compile"),
        ("dd.count_ms", "dd.count"),
    ] {
        out.set(metric, worker.ms(layer));
    }
    out.set("wp.pre_conjuncts", sizes.pre_conjuncts as f64);
    out.set("vcgen.targets", sizes.targets as f64);
    out.set("vcgen.queries", worker.checks as f64);
    let jobs: Vec<_> = traced.batches.iter().flat_map(|b| &b.report.jobs).collect();
    let (mut solver, mut dd) = (SolverStats::default(), DdStats::default());
    for j in &jobs {
        solver += j.stats;
        dd += j.dd;
    }
    out.solver_metrics(&solver, worker.ms("sat"));
    let dd_peak = jobs.iter().map(|j| j.dd.peak_nodes).max().unwrap_or(0);
    out.dd_metrics(&dd, dd_peak, dd.live_nodes);
    let busy: f64 = jobs.iter().map(|j| j.busy_time.as_secs_f64()).sum();
    let queue: f64 = jobs.iter().map(|j| j.queue_wait.as_secs_f64()).sum();
    let subtasks: usize = jobs.iter().map(|j| j.subtasks).sum();
    out.set("engine.busy_ms", busy * 1e3);
    out.set("engine.queue_wait_ms", queue * 1e3);
    out.set(
        "engine.idle_frac",
        1.0 - busy / (nproc() as f64 * tr.layer_ms("engine") / 1e3),
    );
    out.set("engine.subtasks", subtasks as f64);
    out.coverage(tr.caller_secs() / traced_wall);
    out.set(
        "bench.trace_overhead_frac",
        traced_wall / untraced_wall - 1.0,
    );
    out.close_traced();
    Ok(out)
}

/// Batch times and per-job busy times of the untraced pass.
fn instance_rows(out: &mut Outcome, p: &Pass) -> Result<(), String> {
    for (name, b) in ["distance", "frontier", "count"].iter().zip(&p.batches) {
        out.set_named(&format!("analysis.{name}_s"), b.secs)?;
        for j in &b.report.jobs {
            out.set_named(
                &format!("inst.{name}.{}_ms", j.name),
                j.busy_time.as_secs_f64() * 1e3,
            )?;
        }
    }
    Ok(())
}
