//! The serve smoke: forks a server in-process, fires a scripted mix of
//! cache-cold, cache-hot, warm-session, malformed, and deadline-exceeded
//! requests over a real socket, and asserts verdicts, cache-hit counters,
//! encode counts, and a clean drain. `tables serve --smoke` runs this in
//! CI; it is deliberately chatty so a red run says which exchange broke.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use veriqec_obs::json::Json;

use crate::server::{ServeConfig, Server};

/// One scripted client connection.
pub(crate) struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub(crate) fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line and parses the one response line.
    pub(crate) fn ask(&mut self, line: &str) -> Result<Json, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("write: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("read: {e}"))?;
        if response.is_empty() {
            return Err(format!("server closed the connection on: {line}"));
        }
        Json::parse(response.trim()).map_err(|e| format!("unparseable response {response:?}: {e}"))
    }
}

fn expect(cond: bool, what: &str, doc: &Json) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("{what}; got {doc:?}"))
    }
}

fn field_str<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or("<missing>")
}

fn field_bool(doc: &Json, key: &str) -> Option<bool> {
    doc.get(key).and_then(Json::as_bool)
}

fn field_count(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(-1.0)
}

pub(crate) fn first_job(doc: &Json) -> Result<&Json, String> {
    doc.get("report")
        .and_then(|r| r.get("jobs"))
        .and_then(Json::as_arr)
        .and_then(<[Json]>::first)
        .ok_or_else(|| format!("response has no report.jobs[0]: {doc:?}"))
}

/// Runs the scripted smoke against an in-process server. `Err` carries
/// which exchange failed and what came back.
pub fn run_smoke() -> Result<(), String> {
    let handle = Server::start(ServeConfig::default()).map_err(|e| format!("server start: {e}"))?;
    let addr = handle.addr();
    println!("serve smoke: listening on {addr}");
    let mut client = Client::connect(addr)?;

    // (a) Cache-cold distance request: fresh session, exact verdict.
    let r = client.ask(r#"{"id":1,"kind":"distance","code":"steane","max":4}"#)?;
    expect(field_bool(&r, "ok") == Some(true), "cold distance ok", &r)?;
    expect(
        field_str(&r, "outcome") == "distance_exact",
        "cold distance outcome",
        &r,
    )?;
    expect(
        field_bool(&r, "cached") == Some(false),
        "cold request uncached",
        &r,
    )?;
    expect(
        field_str(&r, "session") == "cold",
        "cold request session",
        &r,
    )?;
    expect(
        field_count(&r, "encodes") == 1.0,
        "cold request single encode",
        &r,
    )?;
    let job = first_job(&r)?;
    expect(
        job.get("distance").and_then(Json::as_f64) == Some(3.0),
        "steane distance is 3",
        &r,
    )?;
    println!("serve smoke: cold distance verdict ok (d=3, 1 encode)");

    // (b) Identical repeat: answered from the result cache.
    let r = client.ask(r#"{"id":2,"kind":"distance","code":"steane","max":4}"#)?;
    expect(
        field_bool(&r, "cached") == Some(true),
        "repeat answered from cache",
        &r,
    )?;
    expect(
        field_str(&r, "session") == "cache",
        "repeat session tag",
        &r,
    )?;
    expect(
        field_count(&r, "encodes") == 0.0,
        "cache hit encodes nothing",
        &r,
    )?;
    expect(
        field_str(&r, "outcome") == "distance_exact",
        "cached verdict intact",
        &r,
    )?;
    println!("serve smoke: identical repeat served from cache");

    // (c) Different question, same code: the pooled warm session answers
    // without re-encoding.
    let r = client.ask(r#"{"id":3,"kind":"detection","code":"steane","dt":3}"#)?;
    expect(
        field_str(&r, "outcome") == "all_detected",
        "warm detection verdict",
        &r,
    )?;
    expect(
        field_str(&r, "session") == "warm",
        "warm session reused",
        &r,
    )?;
    expect(
        field_count(&r, "encodes") == 1.0,
        "warm reuse performs no second encode",
        &r,
    )?;
    println!("serve smoke: warm session reused (encode count still 1)");

    // (d) Malformed line: structured error, connection stays up.
    let r = client.ask(r#"{"kind": distance oops"#)?;
    expect(
        field_bool(&r, "ok") == Some(false),
        "malformed line rejected",
        &r,
    )?;
    expect(
        field_str(&r, "error").contains("parse"),
        "malformed line error names the parse",
        &r,
    )?;

    // (e) Unknown code and (f) unknown op: structured errors, id echoed.
    let r = client.ask(r#"{"id":5,"kind":"distance","code":"bogus_17"}"#)?;
    expect(
        field_bool(&r, "ok") == Some(false),
        "unknown code rejected",
        &r,
    )?;
    expect(
        field_count(&r, "id") == 5.0,
        "error echoes the request id",
        &r,
    )?;
    let r = client.ask(r#"{"op":"frobnicate"}"#)?;
    expect(
        field_str(&r, "error").contains("unsupported op"),
        "unknown op rejected",
        &r,
    )?;
    println!("serve smoke: malformed/unknown requests got structured errors, server alive");

    // (g) Deadline-exceeded request: inconclusive with the budget-trip
    // reason. A zero deadline is expired by the time the executor claims
    // the job, so the guard trips synchronously — deterministic, where a
    // small-but-nonzero deadline would race the watchdog against the job.
    let r =
        client.ask(r#"{"id":7,"kind":"distance","code":"surface_5","max":5,"deadline_ms":0}"#)?;
    expect(
        field_bool(&r, "ok") == Some(true),
        "deadline trip still answers",
        &r,
    )?;
    expect(
        field_str(&r, "outcome") == "distance_inconclusive",
        "deadline trip is inconclusive",
        &r,
    )?;
    expect(
        field_str(&r, "reason") == "deadline_exceeded",
        "deadline trip names its reason",
        &r,
    )?;
    let job = first_job(&r)?;
    expect(
        field_str(job, "reason") == "deadline_exceeded",
        "report row carries the reason too",
        &r,
    )?;
    println!("serve smoke: deadline-exceeded request returned inconclusive with reason");

    // (h) Counting request: rides the engine + decision-diagram backend.
    let r = client.ask(r#"{"id":8,"kind":"count","code":"five_qubit"}"#)?;
    expect(
        field_str(&r, "outcome") == "enumerator",
        "count verdict",
        &r,
    )?;
    let job = first_job(&r)?;
    expect(
        job.get("min_weight").and_then(Json::as_f64) == Some(3.0),
        "five-qubit enumerator min weight",
        &r,
    )?;
    println!("serve smoke: count request answered via the engine (min weight 3)");

    // (i) Fault-tolerance sweep, then a different grid against the same
    // scenario: second request reuses the pooled sweep session.
    let ft = r#"{"id":9,"kind":"fault_tolerance","code":"repetition_3","model":"x","rounds":3,"max_t_data":1,"max_t_meas":1}"#;
    let r = client.ask(ft)?;
    expect(
        field_str(&r, "outcome") == "frontier",
        "ft sweep verdict",
        &r,
    )?;
    expect(
        field_str(&r, "session") == "cold",
        "first ft sweep is cold",
        &r,
    )?;
    let r = client.ask(
        r#"{"id":10,"kind":"fault_tolerance","code":"repetition_3","model":"x","rounds":3,"max_t_data":1,"max_t_meas":0}"#,
    )?;
    expect(
        field_str(&r, "session") == "warm",
        "second ft sweep is warm",
        &r,
    )?;
    expect(
        field_count(&r, "encodes") == 1.0,
        "ft warm reuse performs no second encode",
        &r,
    )?;
    println!("serve smoke: fault-tolerance sweep reused its warm session");

    // (j) Counters: the cache hit, warm hits, shed/deadline trips all
    // visible through the stats op.
    let r = client.ask(r#"{"op":"stats"}"#)?;
    let stats = r.get("stats").cloned().unwrap_or(Json::Null);
    expect(
        field_count(&stats, "serve_cache_hits") >= 1.0,
        "cache hit counter advanced",
        &r,
    )?;
    expect(
        field_count(&stats, "serve_warm_hits") >= 2.0,
        "warm hit counter advanced",
        &r,
    )?;
    expect(
        field_count(&stats, "serve_deadline_trips") >= 1.0,
        "deadline trip counter advanced",
        &r,
    )?;
    expect(
        field_count(&stats, "serve_malformed") >= 2.0,
        "malformed counter advanced",
        &r,
    )?;
    println!("serve smoke: stats op reports cache/warm/deadline counters");

    // (k) Admission control on a saturated server: a zero-length pending
    // queue sheds every verification request with "busy".
    let busy = Server::start(ServeConfig {
        max_pending: 0,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("busy-server start: {e}"))?;
    let mut busy_client = Client::connect(busy.addr())?;
    let r = busy_client.ask(r#"{"id":11,"kind":"distance","code":"steane","max":3}"#)?;
    expect(
        field_str(&r, "error") == "busy",
        "saturated server sheds",
        &r,
    )?;
    drop(busy_client);
    busy.shutdown();
    busy.join().map_err(|e| format!("busy-server drain: {e}"))?;
    println!("serve smoke: saturated server shed with busy");

    // (l) Graceful drain over the protocol.
    let r = client.ask(r#"{"op":"shutdown"}"#)?;
    expect(
        field_bool(&r, "draining") == Some(true),
        "shutdown acknowledged",
        &r,
    )?;
    drop(client);
    handle.join().map_err(|e| format!("drain: {e}"))?;
    println!("serve smoke: server drained cleanly");
    Ok(())
}

#[cfg(test)]
mod tests {
    // `run_smoke` itself is exercised by `tables serve --smoke` in release
    // CI (surface-5 encodes are too slow for debug-mode unit tests); the
    // cheap per-subsystem paths have their own tests in `server`, `cache`,
    // `pool`, and `protocol`.
}
