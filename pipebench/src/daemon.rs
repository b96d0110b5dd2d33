//! `daemon-mix`: an in-process `veriqec_serve` daemon with the default
//! `ServeConfig`, driven by a closed loop of client connections (one
//! thread each, `min(nproc, 2)` of them): each client sends its next
//! request only after the previous reply.
//!
//! Each client's stream is generated from the seed, with fixed shares:
//! every 25th request introduces a new code (first the client's zoo codes
//! by name, then seeded qubit relabelings of them as inline stabilizers,
//! so the cost of every cold request is known), every 5th otherwise asks
//! a new detection, distance, count or fault-tolerance question on one of
//! the client's two most recent codes (warm sessions), and the rest
//! repeat questions the client already asked, drawn Zipf-weighted (cache
//! hits). These shares are assumptions, not taken from a request log;
//! `pipebench/README.md` gives the reason for each value. Every pass
//! starts a fresh daemon; its set-up is generating the streams, starting
//! the daemon and connecting the clients.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use veriqec_codes::{
    five_qubit, rotated_surface, shor9, six_qubit, steane, xzzx_surface, StabilizerCode,
};
use veriqec_dd::DdStats;
use veriqec_sat::SolverStats;
use veriqec_serve::json::Json;
use veriqec_serve::server::{ServeConfig, Server};

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{geomean, median, nproc, p99_with_tail, quantile};
use crate::{heap, oracle, Args};

/// Requests each client sends per pass.
const REQUESTS_PER_CLIENT: usize = 400;
/// Every this many requests, a client introduces a new code...
const NEW_CODE_EVERY: usize = 25;
/// ...and every this many otherwise, it asks a new question on a recent
/// code; the rest are repeats. Fixed shares keep each pass's mix of cold,
/// warm and cached requests the same from seed to seed.
const NEW_QUESTION_EVERY: usize = 5;
/// New questions go to this many of the client's most recent codes.
const RECENT: usize = 2;
/// Traced passes in a `--trace 1` run.
const TRACED_PASSES: usize = 5;
/// Bytes reserved for each response before a pass's heap window opens.
const REPLY_BYTES: usize = 4096;
/// The daemon's counter request.
const STATS: &str = "{\"op\":\"stats\"}\n";

/// The SplitMix64 generator: small, seedable, reproducible.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A zoo code a client starts from.
struct Base {
    zoo: &'static str,
    code: StabilizerCode,
    d: usize,
    /// Generators as Pauli letter strings.
    letters: Vec<String>,
    /// Fault-tolerance sweeps are asked only on codes whose frontier
    /// follows [`oracle::frontier_point`].
    ft: bool,
}

fn base(tr: &Tracer, zoo: &'static str, build: fn() -> StabilizerCode, ft: bool) -> Base {
    let code = tr.call("codes", build);
    let d = code.claimed_distance().expect("zoo codes claim a distance");
    let letters = code
        .generators()
        .iter()
        .map(|g| (0..code.n()).map(|q| g.pauli().letter(q)).collect())
        .collect();
    Base {
        zoo,
        code,
        d,
        letters,
        ft,
    }
}

/// The zoo codes of each client: disjoint sets of like cost, one code
/// with fault-tolerance sweeps in each.
fn bases(tr: &Tracer) -> [Vec<Base>; 2] {
    [
        vec![
            base(tr, "steane", steane, true),
            base(tr, "five_qubit", five_qubit, false),
            base(tr, "xzzx_3", || xzzx_surface(3), false),
        ],
        vec![
            base(tr, "surface_3", || rotated_surface(3), true),
            base(tr, "six_qubit", six_qubit, false),
            base(tr, "shor9", shor9, false),
        ],
    ]
}

/// How a request names its code.
#[derive(Clone)]
struct CodeRef {
    /// The `"code"` or `"stabilizers"` (plus `"distance"`) JSON members.
    json: String,
    base: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Detection(usize),
    Distance(usize),
    Count,
    FaultTolerance { rounds: usize, max: (usize, usize) },
}

/// Every question a client may ask about a code of distance `d`.
fn catalog(b: &Base, counts: bool) -> Vec<Kind> {
    let d = b.d;
    let mut kinds: Vec<Kind> = (2..=d + 1).map(Kind::Detection).collect();
    kinds.extend((d..=d + 2).map(Kind::Distance));
    if counts {
        kinds.push(Kind::Count);
    }
    if b.ft {
        for rounds in [1, 3] {
            for max in [(1, 1), (1, 0), (0, 1)] {
                kinds.push(Kind::FaultTolerance { rounds, max });
            }
        }
    }
    kinds
}

/// The turn a question kind takes in a client's rotation.
fn category(kind: Kind) -> usize {
    match kind {
        Kind::Detection(_) => 0,
        Kind::Distance(_) => 1,
        Kind::Count => 2,
        Kind::FaultTolerance { .. } => 3,
    }
}

/// One request line (newline included) and the base code it asks about.
#[derive(Clone)]
struct Request {
    line: String,
    base: usize,
    kind: Kind,
}

fn render(code: &CodeRef, kind: Kind) -> String {
    let params = match kind {
        Kind::Detection(dt) => format!("\"kind\":\"detection\",\"dt\":{dt}"),
        Kind::Distance(max) => format!("\"kind\":\"distance\",\"max\":{max}"),
        Kind::Count => "\"kind\":\"count\"".to_string(),
        Kind::FaultTolerance { rounds, max } => format!(
            "\"kind\":\"fault_tolerance\",\"rounds\":{rounds},\"max_t_data\":{},\"max_t_meas\":{}",
            max.0, max.1
        ),
    };
    format!("{{{params},{}}}\n", code.json)
}

/// A seeded relabeling of `b`'s qubits, as inline stabilizers.
fn relabel(rng: &mut Rng, b: &Base, tag: usize) -> String {
    let n = b.code.n();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let gens: Vec<String> = b
        .letters
        .iter()
        .map(|g| {
            let src: Vec<char> = g.chars().collect();
            let mut out = vec!['I'; n];
            for (q, &c) in src.iter().enumerate() {
                out[perm[q]] = c;
            }
            format!("\"{}\"", out.into_iter().collect::<String>())
        })
        .collect();
    format!(
        "\"name\":\"{}~{tag}\",\"stabilizers\":[{}],\"distance\":{}",
        b.zoo,
        gens.join(","),
        b.d
    )
}

/// One client's request stream for one pass. Only a client with `counts`
/// asks count questions, so that two decision-diagram compiles (the
/// largest allocations of the mix) never overlap and a pass's peak heap
/// does not depend on thread timing.
fn stream(rng: &mut Rng, bases: &[Base], counts: bool) -> Vec<Request> {
    let mut codes: Vec<(CodeRef, Vec<Kind>)> = Vec::new();
    let mut asked: Vec<Request> = Vec::new();
    let mut out = Vec::with_capacity(REQUESTS_PER_CLIENT);
    let mut introduced = 0;
    // New questions take the kinds in turn (detection, distance, count,
    // fault tolerance), so every pass asks the same mix; only parameters,
    // relabelings and repeats are drawn.
    let mut turn = 0;
    for i in 0..REQUESTS_PER_CLIENT {
        let fresh = if i % NEW_CODE_EVERY == 0 {
            let b = introduced % bases.len();
            let json = if introduced < bases.len() {
                format!("\"code\":\"{}\"", bases[b].zoo)
            } else {
                relabel(rng, &bases[b], introduced)
            };
            introduced += 1;
            codes.push((CodeRef { json, base: b }, catalog(&bases[b], counts)));
            Some(codes.len() - 1)
        } else if i % NEW_QUESTION_EVERY == 0 {
            let recent = codes.len().saturating_sub(RECENT);
            let pick = recent + rng.below(codes.len() - recent);
            (!codes[pick].1.is_empty()).then_some(pick)
        } else {
            None
        };
        let req = match fresh {
            Some(c) => {
                let unasked = &mut codes[c].1;
                let of_turn: Vec<usize> = (0..4)
                    .map(|k| (turn + k) % 4)
                    .find_map(|want| {
                        let idx: Vec<usize> = (0..unasked.len())
                            .filter(|&j| category(unasked[j]) == want)
                            .collect();
                        (!idx.is_empty()).then_some(idx)
                    })
                    .expect("a code with unasked questions");
                turn += 1;
                let kind = unasked.swap_remove(of_turn[rng.below(of_turn.len())]);
                let req = Request {
                    line: render(&codes[c].0, kind),
                    base: codes[c].0.base,
                    kind,
                };
                asked.push(req.clone());
                req
            }
            // A repeat, Zipf-weighted by the order questions were first
            // asked: the earliest questions are the hottest.
            None => {
                let total: f64 = (1..=asked.len()).map(|i| 1.0 / i as f64).sum();
                let mut x = rng.unit() * total;
                let mut rank = 0;
                while rank + 1 < asked.len() && x >= 1.0 / (rank + 1) as f64 {
                    x -= 1.0 / (rank + 1) as f64;
                    rank += 1;
                }
                asked[rank].clone()
            }
        };
        out.push(req);
    }
    out
}

/// A client connection that writes each request line in one write, with
/// Nagle's algorithm off: a line sent as two writes stalls every round trip
/// on the peer's delayed ACK (about 40 ms).
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client { stream, reader })
    }

    /// Sends `line` (newline-terminated) and reads one response line into
    /// `response`, which it clears first.
    fn ask_into(&mut self, line: &str, response: &mut String) -> Result<(), String> {
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        response.clear();
        self.reader
            .read_line(response)
            .map_err(|e| format!("read: {e}"))?;
        if response.is_empty() {
            return Err("the daemon closed the connection".into());
        }
        Ok(())
    }

    /// [`Client::ask_into`] a new string.
    fn ask(&mut self, line: &str) -> Result<String, String> {
        let mut response = String::new();
        self.ask_into(line, &mut response)?;
        Ok(response)
    }
}

/// Which path answered a request, from the response's `session` member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    Cache,
    Warm,
    /// A fresh session (`cold`) or a fresh engine compile (`engine`).
    Cold,
    /// Shed or errored (`"ok":false`).
    Error,
}

/// Per-pass tallies read from the responses.
#[derive(Default)]
struct Seen {
    /// (latency seconds, path) per request.
    replies: Vec<(f64, Path)>,
    /// Requests that errored or came back inconclusive.
    failed: u64,
    shed: u64,
    /// Bytes of the longest response.
    longest: usize,
    solver: SolverStats,
    dd: DdStats,
    dd_peak: u64,
}

fn num(doc: &Json, key: &str) -> Option<f64> {
    doc.get(key).and_then(Json::as_f64)
}

/// The exact coefficients of a count report, read from the raw line so
/// that values past 2^53 stay exact.
fn coefficients(raw: &str) -> Option<Vec<u128>> {
    let start = raw.find("\"coefficients\":[")? + "\"coefficients\":[".len();
    let end = start + raw[start..].find(']')?;
    raw[start..end]
        .split(',')
        .map(|c| c.trim().parse().ok())
        .collect()
}

/// Checks one response against the request's known answer, and records
/// which path served it and whether it was conclusive.
fn check(
    req: &Request,
    bases: &[Base],
    raw: &str,
    secs: f64,
    seen: &mut Seen,
) -> Result<(), String> {
    let (path, conclusive) = verdict(req, bases, raw, seen)?;
    seen.replies.push((secs, path));
    seen.longest = seen.longest.max(raw.len());
    seen.failed += u64::from(!conclusive);
    Ok(())
}

fn verdict(
    req: &Request,
    bases: &[Base],
    raw: &str,
    seen: &mut Seen,
) -> Result<(Path, bool), String> {
    let b = &bases[req.base];
    let label = req.line.trim_end();
    let doc = Json::parse(raw.trim_end()).map_err(|e| format!("{label}: bad response: {e}"))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        if doc.get("error").and_then(Json::as_str) == Some("busy") {
            seen.shed += 1;
        }
        return Ok((Path::Error, false));
    }
    let outcome = doc.get("outcome").and_then(Json::as_str).unwrap_or("");
    let job = doc
        .get("report")
        .and_then(|r| r.get("jobs"))
        .and_then(Json::as_arr)
        .and_then(<[Json]>::first)
        .ok_or_else(|| format!("{label}: response without report.jobs[0]"))?;
    let wrong = |what: String| Err(format!("{label}: {what}; got {}", raw.trim_end()));
    let path = match doc.get("session").and_then(Json::as_str) {
        Some("cache") => Path::Cache,
        Some("warm") => Path::Warm,
        Some("cold" | "engine") => Path::Cold,
        other => return wrong(format!("unknown session {other:?}")),
    };
    let inconclusive = matches!(
        outcome,
        "unknown" | "cancelled" | "inconclusive" | "distance_inconclusive"
    );
    if inconclusive {
        return Ok((path, false));
    }
    match req.kind {
        Kind::Detection(dt) => {
            let want = if dt <= b.d {
                "all_detected"
            } else {
                "undetected_logical"
            };
            if outcome != want {
                return wrong(format!("expected {want}"));
            }
        }
        Kind::Distance(_) => {
            if outcome != "distance_exact" || num(job, "distance") != Some(b.d as f64) {
                return wrong(format!("expected distance_exact {}", b.d));
            }
        }
        Kind::Count => {
            if outcome != "enumerator" {
                return wrong("expected an enumerator".into());
            }
            let c = coefficients(raw).ok_or_else(|| format!("{label}: no coefficients"))?;
            oracle::enumerator(label, b.code.n(), b.code.k(), b.d, &c, None)?;
        }
        Kind::FaultTolerance { rounds, max } => {
            let points = job.get("points").and_then(Json::as_arr).unwrap_or(&[]);
            let mut n = 0;
            for p in points {
                let (Some(td), Some(tm)) = (num(p, "t_data"), num(p, "t_meas")) else {
                    return wrong("malformed frontier point".into());
                };
                let want = oracle::frontier_point(b.d, rounds, td as usize, tm as usize);
                match p.get("correctable").and_then(Json::as_bool) {
                    Some(got) if got == want => n += 1,
                    Some(_) => return wrong(format!("frontier point ({td},{tm}) wrong")),
                    None => return Ok((path, false)),
                }
            }
            if outcome != "frontier" || n != (max.0 + 1) * (max.1 + 1) {
                return wrong("expected the full frontier grid".into());
            }
        }
    }
    // Counters of work done for this request: a fresh session's stats are
    // exactly this request's (a warm session's are cumulative).
    if path == Path::Cold {
        let count = |k: &str| num(job, k).unwrap_or(0.0) as u64;
        let learned = count("learned");
        seen.solver += SolverStats {
            conflicts: count("conflicts"),
            decisions: count("decisions"),
            propagations: count("propagations"),
            learned,
            lbd_sum: (num(job, "mean_lbd").unwrap_or(0.0) * learned as f64).round() as u64,
            arena_bytes: count("arena_bytes"),
            ..SolverStats::default()
        };
        seen.dd += DdStats {
            nodes: count("dd_nodes"),
            peak_nodes: count("dd_peak_nodes"),
            cache_lookups: count("dd_cache_lookups"),
            cache_hits: count("dd_cache_hits"),
            gc_runs: count("dd_gc_runs"),
            reorder_swaps: count("dd_reorder_swaps"),
            ..DdStats::default()
        };
        seen.dd_peak = seen.dd_peak.max(count("dd_peak_nodes"));
    }
    Ok((path, true))
}

/// One pass: a fresh daemon drained of one seeded stream per client.
struct Pass {
    setup: f64,
    /// Seconds from the connects to every client's first reply.
    first_reply: f64,
    stream: f64,
    /// Each client's own time from the stream's start to its last reply.
    client_secs: Vec<f64>,
    /// Peak live heap over set-up and stream, in MiB.
    heap: f64,
    seen: Seen,
}

impl Pass {
    /// Set-up plus stream (the teardown is not measured).
    fn wall(&self) -> f64 {
        self.setup + self.stream
    }

    fn geomean_ms(&self) -> f64 {
        geomean(
            &self
                .seen
                .replies
                .iter()
                .map(|(s, _)| s * 1e3)
                .collect::<Vec<_>>(),
        )
    }
}

fn pass(tr: &Tracer, seed: u64, index: u64, bases: &[Vec<Base>; 2]) -> Result<Pass, String> {
    let clients = nproc().clamp(1, 2);
    // The benchmark's own storage is allocated before the heap window
    // opens, so that the window holds the daemon's allocations and the
    // clients' read buffers: each response is read into a buffer reserved
    // here, and one that would outgrow it fails the pass.
    let mut replies: Vec<Vec<(f64, String)>> = (0..clients)
        .map(|_| {
            (0..REQUESTS_PER_CLIENT)
                .map(|_| (0.0, String::with_capacity(REPLY_BYTES)))
                .collect()
        })
        .collect();
    let t0 = Instant::now();
    let streams: Vec<Vec<Request>> = (0..clients)
        .map(|c| {
            let mut rng = Rng::new(seed ^ index.wrapping_mul(0x1000_0001) ^ ((c as u64) << 56));
            stream(&mut rng, &bases[c], c == 0)
        })
        .collect();
    heap::reset_peak();
    let handle = tr
        .call("serve", || Server::start(ServeConfig::default()))
        .map_err(|e| format!("daemon start: {e}"))?;
    let mut conns: Vec<Client> = (0..clients)
        .map(|_| tr.call("serve", || Client::connect(handle.addr())))
        .collect::<Result<_, _>>()?;
    let setup = t0.elapsed().as_secs_f64();
    // A connection is served once the daemon's accept loop, which sleeps
    // 20 ms between polls, has picked it up; one `stats` round trip per
    // client waits for that. The wait is either ~0 or ~20 ms, depending on
    // which thread runs first, so it is kept out of set-up (it made set-up
    // bimodal) and stream time, and reported as `serve.first_reply_ms`.
    let f0 = Instant::now();
    for conn in &mut conns {
        conn.ask(STATS)?;
    }
    let first_reply = f0.elapsed().as_secs_f64();

    let s0 = Instant::now();
    let ends: Vec<Result<f64, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(&streams)
            .zip(&mut replies)
            .map(|((conn, reqs), slots)| {
                scope.spawn(move || {
                    for (req, (secs, response)) in reqs.iter().zip(slots.iter_mut()) {
                        let r0 = Instant::now();
                        tr.call("serve", || conn.ask_into(&req.line, response))?;
                        *secs = r0.elapsed().as_secs_f64();
                    }
                    Ok(s0.elapsed().as_secs_f64())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let stream_s = s0.elapsed().as_secs_f64();
    let heap = heap::peak_mb();

    let client_secs = ends.into_iter().collect::<Result<Vec<f64>, String>>()?;
    let mut seen = Seen::default();
    for (c, slots) in replies.iter().enumerate() {
        for ((secs, response), req) in slots.iter().zip(&streams[c]) {
            if response.len() > REPLY_BYTES {
                return Err(format!(
                    "a {}-byte response outgrew its {REPLY_BYTES}-byte buffer",
                    response.len()
                ));
            }
            check(req, &bases[c], response, *secs, &mut seen)?;
        }
    }
    cross_check(&conns[0].ask(STATS)?, &seen)?;
    drop(conns);
    handle.shutdown();
    handle.join().map_err(|e| format!("daemon drain: {e}"))?;
    Ok(Pass {
        setup,
        first_reply,
        stream: stream_s,
        client_secs,
        heap,
        seen,
    })
}

/// The daemon's own counters must agree with the paths its responses
/// named.
fn cross_check(raw: &str, seen: &Seen) -> Result<(), String> {
    let doc = Json::parse(raw.trim_end()).map_err(|e| format!("stats: {e}"))?;
    let stats = doc.get("stats").ok_or("stats response without counters")?;
    let count = |path| seen.replies.iter().filter(|(_, p)| *p == path).count() as f64;
    for (counter, want) in [
        ("serve_cache_hits", count(Path::Cache)),
        ("serve_warm_hits", count(Path::Warm)),
        ("serve_cold_builds", count(Path::Cold)),
        ("serve_shed", seen.shed as f64),
    ] {
        if num(stats, counter) != Some(want) {
            return Err(format!(
                "daemon counter {counter} reads {:?}, responses say {want}",
                num(stats, counter)
            ));
        }
    }
    Ok(())
}

/// Runs the workload per the command line.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    let zoo = bases(&off);
    let mut out = Outcome::default();
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < args.seconds {
        passes.push(pass(&off, args.seed, passes.len() as u64, &zoo)?);
    }
    for (i, p) in passes.iter().enumerate() {
        out.attempted += p.seen.replies.len() as u64;
        out.failed += p.seen.failed;
        out.row(format!(
            "row daemon-mix pass {i}: set-up {:.6} s, first replies {:.3} ms, stream {:.6} s, round-trip geomean {:.4} ms, peak heap {:.1} MiB",
            p.setup,
            p.first_reply * 1e3,
            p.stream,
            p.geomean_ms(),
            p.heap
        ));
    }
    let setups: Vec<f64> = passes.iter().map(|p| p.setup).collect();
    let streams: Vec<f64> = passes.iter().map(|p| p.stream).collect();
    out.row(format!(
        "row daemon-mix {} passes of {} requests, stream median {:.6} s, longest response {} bytes",
        passes.len(),
        passes[0].seen.replies.len(),
        median(&streams),
        passes.iter().map(|p| p.seen.longest).max().unwrap_or(0)
    ));
    if !args.trace {
        let items: Vec<f64> = passes.iter().map(Pass::geomean_ms).collect();
        let heap: Vec<f64> = passes.iter().map(|p| p.heap).collect();
        out.end_to_end(&streams, &items, &heap, median(&setups));
        return Ok(out);
    }
    serve_metrics(&mut out, &passes, median(&streams));

    // Traced passes over the same seed's next streams; a single pass is
    // too short to compare with the untraced median.
    let tr = Tracer::new(true);
    let traced_bases = bases(&tr);
    let traced: Vec<Pass> = (0..TRACED_PASSES)
        .map(|i| pass(&tr, args.seed, (passes.len() + i) as u64, &traced_bases))
        .collect::<Result<_, _>>()?;
    for p in &traced {
        out.attempted += p.seen.replies.len() as u64;
        out.failed += p.seen.failed;
    }
    out.set("codes.build_ms", tr.layer_ms("codes"));
    out.solver_metrics(&traced[0].seen.solver, 0.0);
    out.dd_metrics(&traced[0].seen.dd, traced[0].seen.dd_peak, 0);
    // Calling-thread time: each pass's set-up on one thread, plus each
    // client's own stream time on its thread.
    let lanes: f64 = traced
        .iter()
        .map(|p| p.setup + p.client_secs.iter().sum::<f64>())
        .sum();
    out.coverage((tr.caller_secs() - tr.layer_ms("codes") / 1e3) / lanes);
    let walls = |ps: &[Pass]| median(&ps.iter().map(Pass::wall).collect::<Vec<_>>());
    out.set(
        "bench.trace_overhead_frac",
        walls(&traced) / walls(&passes) - 1.0,
    );
    out.close_traced();
    Ok(out)
}

/// Latency and path metrics over every untraced pass.
fn serve_metrics(out: &mut Outcome, passes: &[Pass], stream_s: f64) {
    let all: Vec<(f64, Path)> = passes
        .iter()
        .flat_map(|p| p.seen.replies.iter().copied())
        .collect();
    let ms = |keep: &dyn Fn(Path) -> bool| -> Vec<f64> {
        all.iter()
            .filter(|(_, p)| keep(*p))
            .map(|(s, _)| s * 1e3)
            .collect()
    };
    let every = ms(&|_| true);
    let n = every.len() as f64;
    let total_ms: f64 = every.iter().sum();
    out.set("serve.requests", n);
    out.set("serve.stream_s", stream_s);
    let first: Vec<f64> = passes.iter().map(|p| p.first_reply * 1e3).collect();
    out.set("serve.first_reply_ms", median(&first));
    out.set("serve.latency_p50_ms", quantile(&every, 0.5));
    if let Some((p99, beyond)) = p99_with_tail(&every) {
        out.set("serve.latency_p99_ms", p99);
        out.set("serve.p99_tail_samples", beyond as f64);
    }
    for (share, p50, path) in [
        ("serve.cache_share", "serve.cache_p50_ms", Path::Cache),
        ("serve.warm_share", "serve.warm_p50_ms", Path::Warm),
        ("serve.cold_share", "serve.cold_p50_ms", Path::Cold),
    ] {
        let v = ms(&|p| p == path);
        out.set(share, v.len() as f64 / n);
        if !v.is_empty() {
            out.set(p50, quantile(&v, 0.5));
        }
        out.row(format!(
            "row daemon-mix {path:?} path: {:.1} % of requests, {:.1} % of round-trip time",
            100.0 * v.len() as f64 / n,
            100.0 * v.iter().sum::<f64>() / total_ms
        ));
    }
    out.set(
        "serve.shed",
        passes.iter().map(|p| p.seen.shed).sum::<u64>() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let b = bases(&Tracer::new(false));
        let lines = |seed| -> Vec<String> {
            stream(&mut Rng::new(seed), &b[0], true)
                .into_iter()
                .map(|r| r.line)
                .collect()
        };
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
        let s = lines(7);
        assert_eq!(s.len(), REQUESTS_PER_CLIENT);
        assert!(
            s.iter().any(|l| l.contains("\"stabilizers\"")),
            "inline codes arrive"
        );
        assert!(s
            .iter()
            .all(|l| l.ends_with('\n') && l.matches('\n').count() == 1));
    }

    #[test]
    fn relabeling_keeps_the_code() {
        let b = &bases(&Tracer::new(false))[0][0];
        let json = relabel(&mut Rng::new(3), b, 9);
        let line = format!("{{\"kind\":\"count\",{json}}}");
        let Ok(veriqec_serve::protocol::Request::Verify(req)) =
            veriqec_serve::protocol::parse_request(&line)
        else {
            panic!("relabeled request must parse: {line}");
        };
        let code = veriqec_serve::protocol::resolve_code(&req.code).unwrap();
        assert_eq!(
            (code.n(), code.k(), code.claimed_distance()),
            (7, 1, Some(3))
        );
    }

    /// A cache hit must come back in well under the ~40 ms a line split
    /// across two writes costs (Nagle's algorithm plus delayed ACK).
    #[test]
    fn cache_hit_round_trip_stays_under_5_ms() {
        let handle = Server::start(ServeConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let line = "{\"kind\":\"distance\",\"code\":\"steane\",\"max\":4}\n";
        let cold = client.ask(line).unwrap();
        assert!(cold.contains("\"session\":\"cold\""), "{cold}");
        let mut hits = Vec::new();
        for _ in 0..21 {
            let t0 = Instant::now();
            let hit = client.ask(line).unwrap();
            hits.push(t0.elapsed().as_secs_f64() * 1e3);
            assert!(hit.contains("\"session\":\"cache\""), "{hit}");
        }
        let median_ms = median(&hits);
        assert!(median_ms < 5.0, "cache hit took {median_ms:.3} ms");
        drop(client);
        handle.shutdown();
        handle.join().unwrap();
    }
}
