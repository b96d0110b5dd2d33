//! The resident daemon: TCP accept loop, admission control, executor pool,
//! and the verification paths behind one request.
//!
//! Threading model: one accept thread (non-blocking, polling the shutdown
//! flag), one handler thread per connection (reads lines, answers cache
//! hits and control ops inline, enqueues verification work), and a small
//! executor pool draining the bounded pending queue. Admission control is
//! the queue bound: past the high-water mark new work is shed with a
//! `"busy"` error instead of being buffered without limit. A request's
//! deadline travels in the [`Stop`] its solver or compiler polls, so it
//! needs no thread of its own. Shutdown (a `{"op":"shutdown"}` request,
//! SIGTERM when installed, or [`ServerHandle::shutdown`]) stops the accept
//! loop, drains the pending queue, and joins every thread.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use veriqec::engine::{
    job_reason, BatchReport, DetectionQuery, DetectionSession, Engine, EngineConfig,
    FaultToleranceSweep, Job, JobOutcome, JobReport,
};
use veriqec::scenario::faulty_memory_scenario;
use veriqec_codes::ExtractionSchedule;
use veriqec_dd::{CompileConfig, DdStats};
use veriqec_obs::json::{escape, push_metrics};
use veriqec_sat::{SolverConfig, Stop};

use crate::cache::{fnv1a, CacheEntry, ResultCache};
use crate::pool::{SessionPool, WarmSession};
use crate::protocol::{
    canonical_request, parse_request, resolve_code, Request, RequestKind, VerifyRequest,
};

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of one [`Server`] instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port; see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Executor threads draining the pending queue.
    pub executors: usize,
    /// Admission high-water mark: verification requests beyond this many
    /// pending are shed with a `"busy"` error.
    pub max_pending: usize,
    /// Idle warm sessions kept in the pool.
    pub session_cap: usize,
    /// Verdicts kept in the result cache.
    pub cache_cap: usize,
    /// Solver configuration for every session the daemon opens
    /// (per-request `conflict_budget` overrides layer on top).
    pub solver: SolverConfig,
    /// Install a SIGTERM handler that triggers a graceful drain (daemon
    /// mode; the in-process smoke leaves the host process's disposition
    /// alone).
    pub install_sigterm: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            executors: 2,
            max_pending: 64,
            session_cap: 8,
            cache_cap: 1024,
            solver: SolverConfig::default(),
            install_sigterm: false,
        }
    }
}

/// Per-instance serve counters, surfaced through the `stats` op and the
/// [`veriqec_obs::MetricsSnapshot`] vocabulary. Instance-owned (not
/// globals) so parallel tests and stacked servers don't cross-talk.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Request lines received (any op).
    pub requests: veriqec_obs::metrics::Counter,
    /// Lines rejected with a parse/validation error.
    pub malformed: veriqec_obs::metrics::Counter,
    /// Verification requests shed by admission control.
    pub shed: veriqec_obs::metrics::Counter,
    /// Verification requests answered from the result cache.
    pub cache_hits: veriqec_obs::metrics::Counter,
    /// Verification requests that missed the result cache.
    pub cache_misses: veriqec_obs::metrics::Counter,
    /// Cache misses served by a pooled warm session (no re-encoding).
    pub warm_hits: veriqec_obs::metrics::Counter,
    /// Cache misses that built a fresh session or engine.
    pub cold_builds: veriqec_obs::metrics::Counter,
    /// Requests whose deadline had passed when their work returned.
    pub deadline_trips: veriqec_obs::metrics::Counter,
}

impl ServeMetrics {
    /// The counters as one [`veriqec_obs::MetricsSnapshot`].
    pub fn snapshot(&self) -> veriqec_obs::MetricsSnapshot {
        let mut m = veriqec_obs::MetricsSnapshot::new();
        m.push_count("serve_requests", self.requests.get());
        m.push_count("serve_malformed", self.malformed.get());
        m.push_count("serve_shed", self.shed.get());
        m.push_count("serve_cache_hits", self.cache_hits.get());
        m.push_count("serve_cache_misses", self.cache_misses.get());
        m.push_count("serve_warm_hits", self.warm_hits.get());
        m.push_count("serve_cold_builds", self.cold_builds.get());
        m.push_count("serve_deadline_trips", self.deadline_trips.get());
        m
    }
}

/// One admitted verification request waiting for an executor.
struct Pending {
    req: VerifyRequest,
    key: u64,
    canonical: String,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: mpsc::Sender<String>,
}

/// State shared by every server thread.
struct Shared {
    config: ServeConfig,
    metrics: ServeMetrics,
    cache: ResultCache,
    pool: SessionPool,
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
}

#[cfg(unix)]
#[allow(unsafe_code)] // the crate's one foreign call: libc's `signal`
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);

    type SigHandler = extern "C" fn(i32);

    extern "C" {
        fn signal(sig: i32, handler: SigHandler) -> isize;
    }

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Installs the drain-on-SIGTERM handler (async-signal-safe: the
    /// handler only stores a flag the accept loop polls).
    pub fn install() {
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is libc's, declared above with its C signature
        // (an `int` and a `void (*)(int)` handler). `on_term` is an
        // `extern "C" fn(i32)` that lives for the whole program and only
        // stores to a static atomic, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_term);
        }
    }

    pub fn pending() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

/// The daemon. Start with [`Server::start`], stop via a `shutdown` request,
/// SIGTERM (when installed), or [`ServerHandle::shutdown`].
pub struct Server;

/// Handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: std::thread::JoinHandle<()>,
    executors: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` port requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current serve counters.
    pub fn metrics(&self) -> veriqec_obs::MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Requests a graceful drain without a network round-trip.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }

    /// Waits for the drain to complete: accept loop stopped, every
    /// connection handler joined, pending queue empty, executors exited.
    pub fn join(self) -> Result<(), String> {
        self.accept.join().map_err(|_| "accept thread panicked")?;
        for h in self.executors {
            h.join().map_err(|_| "executor thread panicked")?;
        }
        Ok(())
    }
}

impl Server {
    /// Binds the listener and spawns the accept loop and executor pool.
    pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        if config.install_sigterm {
            #[cfg(unix)]
            sigterm::install();
        }
        let shared = Arc::new(Shared {
            cache: ResultCache::new(config.cache_cap),
            pool: SessionPool::new(config.session_cap),
            metrics: ServeMetrics::default(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            config,
        });
        let executors = (0..shared.config.executors.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-exec-{i}"))
                    .spawn(move || executor_loop(&shared))
                    .expect("spawn executor")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, &shared))
                .expect("spawn accept loop")
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept,
            executors,
        })
    }
}

fn shutting_down(shared: &Shared) -> bool {
    if shared.shutdown.load(Ordering::SeqCst) {
        return true;
    }
    #[cfg(unix)]
    if shared.config.install_sigterm && sigterm::pending() {
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.queue_cv.notify_all();
        return true;
    }
    false
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shutting_down(shared) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                let h = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || {
                        handle_connection(stream, &shared);
                        veriqec_obs::flush_thread();
                    })
                    .expect("spawn connection handler");
                handlers.push(h);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
        handlers.retain(|h| !h.is_finished());
    }
    // Drain: handlers poll the shutdown flag at their read timeout, so
    // every one exits promptly even on an idle keep-alive connection.
    for h in handlers {
        let _ = h.join();
    }
    veriqec_obs::flush_thread();
}

/// Reads newline-delimited requests off one connection until EOF or
/// shutdown. Read timeouts keep the thread responsive to the drain flag
/// without dropping a partially received line.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if shutting_down(shared) {
            return;
        }
        match reader.read_line(&mut line) {
            Ok(0) => return,                            // EOF
            Ok(_) if !line.ends_with('\n') => continue, // timeout mid-line
            Ok(_) => {
                let response = handle_line(line.trim(), shared);
                line.clear();
                if writeln!(writer, "{response}")
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Answers one request line: control ops and cache hits inline, the rest
/// through admission control and the executor pool.
fn handle_line(line: &str, shared: &Arc<Shared>) -> String {
    if line.is_empty() {
        return error_response(None, "empty request line");
    }
    shared.metrics.requests.add(1);
    let _g = veriqec_obs::span("serve", "request");
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(e) => {
            shared.metrics.malformed.add(1);
            return error_response(e.id.as_deref(), &e.message);
        }
    };
    match req {
        Request::Stats => {
            let mut out = String::from("{\"ok\":true,\"stats\":{");
            push_metrics(&mut out, &shared.metrics.snapshot());
            out + "}}"
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue_cv.notify_all();
            "{\"ok\":true,\"draining\":true}".to_string()
        }
        Request::Verify(req) => {
            let canonical = canonical_request(&req);
            let key = fnv1a(canonical.as_bytes());
            if let Some(hit) = shared.cache.lookup(key, &canonical) {
                shared.metrics.cache_hits.add(1);
                veriqec_obs::instant("serve", "cache_hit", &[]);
                return verify_response(
                    &req.id,
                    key,
                    &hit.outcome,
                    true,
                    "cache",
                    0,
                    &hit.report_json,
                    None,
                );
            }
            shared.metrics.cache_misses.add(1);
            let deadline = req
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms));
            let (reply_tx, reply_rx) = mpsc::channel();
            {
                let mut queue = lock(&shared.queue);
                if shutting_down(shared) {
                    return error_response(req.id.as_deref(), "shutting down");
                }
                if queue.len() >= shared.config.max_pending {
                    shared.metrics.shed.add(1);
                    veriqec_obs::instant("serve", "shed", &[]);
                    return error_response(req.id.as_deref(), "busy");
                }
                queue.push_back(Pending {
                    req: *req,
                    key,
                    canonical,
                    enqueued: Instant::now(),
                    deadline,
                    reply: reply_tx,
                });
            }
            shared.queue_cv.notify_one();
            match reply_rx.recv() {
                Ok(response) => response,
                Err(_) => error_response(None, "shutting down"),
            }
        }
    }
}

/// Executor thread body: drains the pending queue, exiting only once the
/// shutdown flag is set *and* the queue is empty (graceful drain —
/// admitted work is always answered).
fn executor_loop(shared: &Arc<Shared>) {
    loop {
        let pending = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(p) = queue.pop_front() {
                    break Some(p);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = q;
                if shutting_down(shared) && queue.is_empty() {
                    break None;
                }
            }
        };
        let Some(pending) = pending else {
            break;
        };
        let reply = pending.reply.clone();
        let response = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_verify(pending, shared)
        })) {
            Ok(response) => response,
            Err(_) => error_response(None, "internal error: job panicked"),
        };
        let _ = reply.send(response);
    }
    veriqec_obs::flush_thread();
}

/// Runs one admitted verification request to completion and renders its
/// response.
fn handle_verify(pending: Pending, shared: &Arc<Shared>) -> String {
    let _g = veriqec_obs::span_with("serve", || format!("verify:{}", pending.req.kind.tag()));
    let Pending {
        req,
        key,
        canonical,
        enqueued,
        deadline,
        reply: _reply,
    } = pending;
    let queue_wait = enqueued.elapsed();
    let code = match resolve_code(&req.code) {
        Ok(code) => code,
        Err(msg) => {
            shared.metrics.malformed.add(1);
            return error_response(req.id.as_deref(), &msg);
        }
    };
    let mut solver = shared.config.solver;
    if req.conflict_budget.is_some() {
        solver.conflict_budget = req.conflict_budget;
    }
    let job_name = format!("{}:{}", req.kind.tag(), req.code.key());
    let started = Instant::now();
    // A deadline that the queue wait already used up stops the work at its
    // first poll.
    let stop = Stop::new(vec![], deadline);

    let (outcome, cause, stats, dd, session_kind, queries) = match &req.kind {
        RequestKind::Detection { .. } | RequestKind::Distance { .. } => {
            let query = match req.kind {
                RequestKind::Detection { dt } => DetectionQuery::Threshold(dt),
                RequestKind::Distance { max } => DetectionQuery::Distance(
                    max.or_else(|| code.claimed_distance().map(|d| d + 1))
                        .unwrap_or(code.n()),
                ),
                _ => unreachable!("outer match arm"),
            };
            let pool_key = format!(
                "det|{}|r{}|cb{:?}",
                req.code.key(),
                req.rounds,
                req.conflict_budget
            );
            let (mut session, warm) = match shared.pool.checkout(&pool_key) {
                Some(WarmSession::Detection(s)) => (s, true),
                // None, or a mis-keyed session kind (a bug): build cold
                // rather than serve the wrong formula.
                _ => (build_detection(&code, req.rounds, solver), false),
            };
            let (outcome, cause) = session.run(query, stop);
            let (stats, queries) = (session.solver_stats(), session.query_count());
            shared
                .pool
                .checkin(pool_key, WarmSession::Detection(session));
            let label = checkout_label(shared, warm);
            (outcome, cause, stats, DdStats::default(), label, queries)
        }
        RequestKind::FaultTolerance {
            max_t_data,
            max_t_meas,
        } => {
            // `faulty_memory_scenario` is CSS-only: its frame cross-check
            // and the space-time decoder work per CSS sector.
            if code.css_split().is_none() {
                shared.metrics.malformed.add(1);
                return error_response(
                    req.id.as_deref(),
                    "fault_tolerance requires a CSS code: every generator must be X-type or Z-type",
                );
            }
            let rounds = req.rounds.max(1);
            let pool_key = format!(
                "ft|{}|{:?}|r{}|cb{:?}",
                req.code.key(),
                req.model,
                rounds,
                req.conflict_budget
            );
            let (mut sweep, warm) = match shared.pool.checkout(&pool_key) {
                Some(WarmSession::Frontier(s)) => (s, true),
                _ => {
                    let scenario = faulty_memory_scenario(&code, req.model, rounds);
                    (
                        Box::new(FaultToleranceSweep::new(&scenario, vec![], solver)),
                        false,
                    )
                }
            };
            let (frontier, cause) = sweep.frontier(*max_t_data, *max_t_meas, stop);
            let (stats, queries) = (sweep.session().solver_stats(), sweep.query_count());
            shared.pool.checkin(pool_key, WarmSession::Frontier(sweep));
            let (outcome, label) = (JobOutcome::Frontier(frontier), checkout_label(shared, warm));
            (outcome, cause, stats, DdStats::default(), label, queries)
        }
        RequestKind::Count => {
            // The failure enumerator counts the perfect-measurement formula;
            // answering a noisy request with it would be a wrong count.
            if req.rounds > 0 {
                shared.metrics.malformed.add(1);
                return error_response(
                    req.id.as_deref(),
                    "count supports perfect extraction only: rounds must be 0",
                );
            }
            // Only correction jobs are split across engine workers, so one
            // worker serves a count job in full.
            let engine = Engine::new(EngineConfig { workers: 1, solver });
            let mut compile = CompileConfig {
                stop,
                ..CompileConfig::default()
            };
            compile.node_limit = req.node_limit.or(compile.node_limit);
            let report = engine.run(vec![Job::count_with_config(
                job_name.clone(),
                code,
                compile,
            )]);
            shared.metrics.cold_builds.add(1);
            let job = report.jobs.into_iter().next().expect("one job submitted");
            (job.outcome, job.reason, job.stats, job.dd, "engine", 1)
        }
    };
    let tripped = deadline.is_some_and(|d| Instant::now() >= d);
    if tripped {
        shared.metrics.deadline_trips.add(1);
    }

    let report = BatchReport {
        jobs: vec![JobReport {
            name: job_name,
            reason: job_reason(&outcome, tripped, cause),
            outcome,
            subtasks: 1,
            busy_time: started.elapsed(),
            queue_wait,
            stats,
            dd,
        }],
        wall_time: started.elapsed(),
        workers: 1,
        phases: vec![],
    };
    let report_json = report.to_json();
    let job = &report.jobs[0];
    let outcome_tag = job.outcome.tag();
    if job.outcome.is_conclusive() {
        shared.cache.insert(
            key,
            CacheEntry {
                canonical,
                outcome: outcome_tag.to_string(),
                report_json: report_json.clone(),
            },
        );
    }
    verify_response(
        &req.id,
        key,
        outcome_tag,
        false,
        session_kind,
        queries,
        &report_json,
        job.reason.as_deref(),
    )
}

/// Counts a pooled session reuse or a cold build and names it for the
/// response envelope.
fn checkout_label(shared: &Shared, warm: bool) -> &'static str {
    if warm {
        shared.metrics.warm_hits.add(1);
        "warm"
    } else {
        shared.metrics.cold_builds.add(1);
        "cold"
    }
}

fn build_detection(
    code: &veriqec_codes::StabilizerCode,
    rounds: usize,
    solver: SolverConfig,
) -> Box<DetectionSession> {
    if rounds == 0 {
        Box::new(DetectionSession::new(code, solver))
    } else {
        let schedule = ExtractionSchedule::repeated(code.generators().len(), rounds);
        Box::new(DetectionSession::with_schedule(code, &schedule, solver))
    }
}

fn error_response(id: Option<&str>, msg: &str) -> String {
    let id_field = id.map(|t| format!("\"id\":{t},")).unwrap_or_default();
    format!("{{{id_field}\"ok\":false,\"error\":\"{}\"}}", escape(msg))
}

#[allow(clippy::too_many_arguments)]
fn verify_response(
    id: &Option<String>,
    key: u64,
    outcome: &str,
    cached: bool,
    session: &str,
    queries: usize,
    report_json: &str,
    reason: Option<&str>,
) -> String {
    let id_field = id
        .as_deref()
        .map(|t| format!("\"id\":{t},"))
        .unwrap_or_default();
    let reason_field = reason
        .map(|r| format!(",\"reason\":\"{}\"", escape(r)))
        .unwrap_or_default();
    format!(
        "{{{id_field}\"ok\":true,\"outcome\":\"{}\",\"cached\":{cached},\
         \"session\":\"{session}\",\"queries\":{queries},\
         \"cache_key\":\"{key:016x}\"{reason_field},\"report\":{report_json}}}",
        escape(outcome),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use veriqec_obs::json::Json;

    fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<Json> {
        let mut client = crate::smoke::Client::connect(addr).expect("connect");
        lines
            .iter()
            .map(|l| client.ask(l).expect("response"))
            .collect()
    }

    #[test]
    fn serves_cold_then_cached_then_warm() {
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let addr = handle.addr();
        let distance = r#"{"id":1,"kind":"distance","code":"five_qubit","max":4}"#;
        let rs = roundtrip(addr, &[distance, distance]);
        assert_eq!(rs[0].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            rs[0].get("outcome").unwrap().as_str(),
            Some("distance_exact")
        );
        assert_eq!(rs[0].get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(rs[0].get("session").unwrap().as_str(), Some("cold"));
        assert_eq!(
            rs[0]
                .get("report")
                .unwrap()
                .get("jobs")
                .unwrap()
                .as_arr()
                .unwrap()[0]
                .get("distance")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        assert_eq!(rs[1].get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(rs[1].get("session").unwrap().as_str(), Some("cache"));
        // A different dt against the same code reuses the pooled session.
        let rs = roundtrip(
            addr,
            &[r#"{"kind":"detection","code":"five_qubit","dt":3}"#],
        );
        assert_eq!(rs[0].get("session").unwrap().as_str(), Some("warm"));
        // dt = 2, 3, 4 for the distance, then one more: a rebuilt session
        // would climb through dt = 2, 3 and answer 2.
        assert_eq!(rs[0].get("queries").unwrap().as_f64(), Some(4.0));
        let m = handle.metrics();
        assert!(m.count("serve_cache_hits") >= 1);
        assert!(m.count("serve_warm_hits") >= 1);
        handle.shutdown();
        handle.join().expect("clean join");
    }

    #[test]
    fn a_deadline_that_passes_mid_sweep_stops_it() {
        // The surface-21 sweep takes about 0.5 s in a release build on a
        // 2-core VM, several times the deadline.
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let request = r#"{"kind":"distance","code":"surface_21","deadline_ms":100}"#;
        let r = roundtrip(handle.addr(), &[request]).remove(0);
        assert_eq!(
            r.get("outcome").and_then(Json::as_str),
            Some("distance_inconclusive")
        );
        assert_eq!(
            r.get("reason").and_then(Json::as_str),
            Some("deadline_exceeded")
        );
        assert_eq!(handle.metrics().count("serve_deadline_trips"), 1);
        handle.shutdown();
        handle.join().expect("clean join");
    }

    #[test]
    fn a_distance_sweep_ends_once_its_bound_covers_the_support() {
        // ⟨ZZ, XX⟩ encodes nothing, so every query is UNSAT and every bound
        // past weight 2 is vacuous: a huge `max` must not mean a huge sweep.
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let request = r#"{"kind":"distance","stabilizers":["ZZ","XX"],"max":1048576}"#;
        let r = roundtrip(handle.addr(), &[request]).remove(0);
        handle.shutdown();
        handle.join().expect("clean join");
        assert_eq!(
            r.get("outcome").and_then(Json::as_str),
            Some("distance_at_least")
        );
        let job = crate::smoke::first_job(&r).unwrap();
        assert_eq!(
            job.get("distance_at_least").and_then(Json::as_f64),
            Some(1_048_577.0)
        );
        assert!(
            r.get("queries").and_then(Json::as_f64).unwrap() <= 3.0,
            "{r:?}"
        );
    }

    #[test]
    fn a_detection_climb_ends_once_its_bound_covers_the_support() {
        // The same code at a huge threshold: the climb to it must end at
        // the support's size, not hold the worker for 2^20 queries.
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let request = r#"{"kind":"detection","stabilizers":["ZZ","XX"],"dt":1048576}"#;
        let r = roundtrip(handle.addr(), &[request]).remove(0);
        handle.shutdown();
        handle.join().expect("clean join");
        assert_eq!(
            r.get("outcome").and_then(Json::as_str),
            Some("all_detected"),
            "{r:?}"
        );
        assert!(
            r.get("queries").and_then(Json::as_f64).unwrap() <= 3.0,
            "{r:?}"
        );
    }

    #[test]
    fn malformed_and_unknown_requests_get_structured_errors() {
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let rs = roundtrip(
            handle.addr(),
            &[
                "{not json",
                r#"{"op":"frobnicate"}"#,
                r#"{"id":3,"kind":"distance","code":"bogus_code"}"#,
                r#"{"id":4,"kind":"fault_tolerance","stabilizers":["iZZI","IZZ"],"model":"x"}"#,
                r#"{"kind":"distance","code":"five_qubit","max":3}"#,
                r#"{"id":31,"kind":"distance","code":"steane","conflict_budget":-1}"#,
                r#"{"id":35,"op":"frobnicate"}"#,
            ],
        );
        assert_eq!(rs[0].get("ok").unwrap().as_bool(), Some(false));
        assert!(rs[0]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("parse"));
        assert_eq!(rs[1].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(rs[2].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(rs[2].get("id").unwrap().as_f64(), Some(3.0));
        // A non-Hermitian inline stabilizer is a request error, not a panic.
        assert_eq!(rs[3].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(rs[3].get("id").unwrap().as_f64(), Some(4.0));
        assert!(rs[3]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("must be Hermitian"));
        // The server survives all of it.
        assert_eq!(rs[4].get("ok").unwrap().as_bool(), Some(true));
        // A request whose fields fail to parse still echoes its id.
        for (r, id) in rs[5..].iter().zip([31.0, 35.0]) {
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
            assert_eq!(r.get("id").unwrap().as_f64(), Some(id));
        }
        handle.shutdown();
        handle.join().expect("clean join");
    }

    #[test]
    fn a_fault_tolerance_request_on_a_non_css_code_is_an_error() {
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let rs = roundtrip(
            handle.addr(),
            &[
                r#"{"id":5,"kind":"fault_tolerance","code":"five_qubit"}"#,
                r#"{"kind":"detection","code":"steane","dt":3}"#,
                r#"{"op":"stats"}"#,
            ],
        );
        assert_eq!(rs[0].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(rs[0].get("id").unwrap().as_f64(), Some(5.0));
        assert!(rs[0]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("CSS"));
        // The same connection still gets its next answer.
        assert_eq!(rs[1].get("outcome").unwrap().as_str(), Some("all_detected"));
        let stats = rs[2].get("stats").unwrap();
        assert_eq!(stats.get("serve_malformed").unwrap().as_f64(), Some(1.0));
        handle.shutdown();
        handle.join().expect("clean join");
    }

    #[test]
    fn a_count_request_with_noisy_rounds_is_an_error() {
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let rs = roundtrip(
            handle.addr(),
            &[
                r#"{"id":6,"kind":"count","code":"repetition_3","model":"x","rounds":2}"#,
                r#"{"kind":"detection","code":"steane","dt":3}"#,
                r#"{"op":"stats"}"#,
            ],
        );
        assert_eq!(rs[0].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(rs[0].get("id").unwrap().as_f64(), Some(6.0));
        assert!(rs[0]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("perfect extraction only"));
        // The same connection still gets its next answer.
        assert_eq!(rs[1].get("outcome").unwrap().as_str(), Some("all_detected"));
        let stats = rs[2].get("stats").unwrap();
        assert_eq!(stats.get("serve_malformed").unwrap().as_f64(), Some(1.0));
        handle.shutdown();
        handle.join().expect("clean join");
    }

    #[test]
    fn a_count_past_u128_reports_count_overflow() {
        // repetition_130's count does not fit in u128: the one-worker
        // engine reports it, and the reply echoes the reason.
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let r = roundtrip(
            handle.addr(),
            &[r#"{"id":7,"kind":"count","code":"repetition_130"}"#],
        )
        .remove(0);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(r.get("id").and_then(Json::as_f64), Some(7.0));
        assert_eq!(r.get("outcome").and_then(Json::as_str), Some("unknown"));
        assert_eq!(
            r.get("reason").and_then(Json::as_str),
            Some("count_overflow")
        );
        handle.shutdown();
        handle.join().expect("clean join");
    }

    #[test]
    fn admission_control_sheds_past_the_high_water_mark() {
        let config = ServeConfig {
            max_pending: 0,
            ..ServeConfig::default()
        };
        let handle = Server::start(config).expect("bind");
        // With a zero-length queue every verification request is shed; the
        // executor never sees it, so no session is built.
        let rs = roundtrip(
            handle.addr(),
            &[r#"{"kind":"distance","code":"steane","max":3}"#],
        );
        assert_eq!(rs[0].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(rs[0].get("error").unwrap().as_str(), Some("busy"));
        assert_eq!(handle.metrics().count("serve_shed"), 1);
        handle.shutdown();
        handle.join().expect("clean join");
    }

    #[test]
    fn shutdown_request_drains_cleanly() {
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let rs = roundtrip(handle.addr(), &[r#"{"op":"shutdown"}"#]);
        assert_eq!(rs[0].get("draining").unwrap().as_bool(), Some(true));
        handle.join().expect("clean join");
    }

    #[test]
    fn deeply_nested_line_is_an_error_not_a_crash() {
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let deep = "[".repeat(100_000);
        let next = r#"{"kind":"detection","code":"steane","dt":3}"#;
        let rs = roundtrip(handle.addr(), &[&deep, next]);
        assert_eq!(rs[0].get("ok").unwrap().as_bool(), Some(false));
        // The same connection still gets its next answer.
        assert_eq!(rs[1].get("outcome").unwrap().as_str(), Some("all_detected"));
        handle.shutdown();
        handle.join().expect("clean join");
    }

    #[test]
    fn daemon_and_engine_report_the_same_starved_frontier() {
        use veriqec::scenario::{faulty_memory_scenario, ErrorModel};
        use veriqec::FrontierPoint;
        // Ten conflicts per query decide every surface-3 grid point but
        // (t_data, t_meas) = (1, 0); the sweep goes on past it to (1, 1),
        // in the daemon as in the engine. Budgets from 4 to 18 starve
        // exactly that point; 19 decides it too.
        let handle = Server::start(ServeConfig::default()).expect("bind");
        let request = r#"{"kind":"fault_tolerance","code":"surface_3","rounds":1,"max_t_data":1,"max_t_meas":1,"conflict_budget":10}"#;
        let r = roundtrip(handle.addr(), &[request]).remove(0);
        handle.shutdown();
        handle.join().expect("clean join");
        assert_eq!(
            r.get("reason").and_then(Json::as_str),
            Some("conflict_budget")
        );
        let points = crate::smoke::first_job(&r).unwrap().get("points");
        let served: Vec<FrontierPoint> = (points.and_then(Json::as_arr).unwrap().iter())
            .map(|p| {
                let n = |k| p.get(k).and_then(Json::as_f64).unwrap() as usize;
                let correctable = p.get("correctable").unwrap();
                assert!(matches!(correctable, Json::Bool(_) | Json::Null));
                let correctable = correctable.as_bool();
                FrontierPoint {
                    t_data: n("t_data"),
                    t_meas: n("t_meas"),
                    correctable,
                }
            })
            .collect();
        let scenario =
            faulty_memory_scenario(&veriqec_codes::rotated_surface(3), ErrorModel::YErrors, 1);
        let solver = SolverConfig {
            conflict_budget: Some(10),
            ..SolverConfig::default()
        };
        let report = Engine::new(EngineConfig { workers: 1, solver })
            .run(vec![Job::fault_tolerance("surface_3", &scenario, 1, 1)]);
        assert_eq!(report.jobs[0].reason.as_deref(), Some("conflict_budget"));
        let JobOutcome::Frontier(frontier) = &report.jobs[0].outcome else {
            panic!("{:?}", report.jobs[0].outcome);
        };
        assert_eq!(served, frontier.points);
        let verdicts: Vec<_> = served.iter().map(|p| p.correctable).collect();
        assert_eq!(verdicts, [Some(true), Some(true), None, Some(false)]);
    }
}
