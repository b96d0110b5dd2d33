//! The newline-delimited-JSON line protocol: request parsing, the zoo/
//! inline code registry, and the canonical cache-key derivation.
//!
//! One request per line, one response per line. A request is a JSON object
//! with an `op` (`"verify"`, `"stats"`, `"shutdown"`; `"verify"` when
//! omitted); verify requests name a job `kind` (`"detection"`,
//! `"distance"`, `"count"`, `"fault_tolerance"`), a code (a zoo name in
//! `"code"` or inline `"stabilizers"`), an optional error `"model"` and
//! extraction `"rounds"`, per-kind parameters (`"dt"`, `"max"`,
//! `"max_t_data"`/`"max_t_meas"`), and budgets (`"conflict_budget"`,
//! `"node_limit"`, `"deadline_ms"`). Anything the parser rejects becomes a
//! structured `{"ok":false,"error":…}` response — never a dead connection.

use veriqec::scenario::ErrorModel;
use veriqec_codes::{
    c4_422, carbon_12_2_4, cube_color_822, five_qubit, gottesman8, hgp_hamming, reed_muller,
    repetition, rotated_surface, shor9, six_qubit, steane, toric, xzzx_surface, StabilizerCode,
};
use veriqec_pauli::{PauliString, StabilizerGroup, SymPauli};

use veriqec_obs::json::{escape, Json};

/// A parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Run one verification job.
    Verify(Box<VerifyRequest>),
    /// Report server counters (cache hits/misses, shed requests, …).
    Stats,
    /// Begin a graceful drain: stop accepting, finish in-flight work, exit.
    Shutdown,
}

/// One verification request.
#[derive(Clone, Debug)]
pub struct VerifyRequest {
    /// The client's `id`, re-rendered as a JSON token for the echo.
    pub id: Option<String>,
    /// The job kind and its parameters.
    pub kind: RequestKind,
    /// The code under test.
    pub code: CodeSpec,
    /// Error model for scenario-based kinds (default `YErrors`).
    pub model: ErrorModel,
    /// Extraction rounds: 0 = perfect extraction; ≥ 1 = repeated noisy
    /// extraction (fault-tolerance kinds treat 0 as 1).
    pub rounds: usize,
    /// CDCL conflict budget override.
    pub conflict_budget: Option<u64>,
    /// Decision-diagram node budget (count jobs).
    pub node_limit: Option<usize>,
    /// Wall-clock deadline, carried in the stop the work polls.
    pub deadline_ms: Option<u64>,
}

/// The job kind of a [`VerifyRequest`].
#[derive(Clone, Debug)]
pub enum RequestKind {
    /// One precise-detection query at threshold `dt`.
    Detection {
        /// Detection threshold.
        dt: usize,
    },
    /// Incremental distance discovery up to `max` (`None` = derived from
    /// the code's claimed distance, falling back to `n`).
    Distance {
        /// Largest weight to sweep.
        max: Option<usize>,
    },
    /// Exact failure weight enumerator via the decision-diagram backend.
    Count,
    /// Fault-tolerance frontier sweep up to the given budget maxima.
    FaultTolerance {
        /// Largest data budget (inclusive).
        max_t_data: usize,
        /// Largest measurement budget (inclusive).
        max_t_meas: usize,
    },
}

impl RequestKind {
    /// Short tag used in job names, spans, and cache keys.
    pub fn tag(&self) -> &'static str {
        match self {
            RequestKind::Detection { .. } => "detection",
            RequestKind::Distance { .. } => "distance",
            RequestKind::Count => "count",
            RequestKind::FaultTolerance { .. } => "fault_tolerance",
        }
    }
}

/// The code a request names: a registry entry or inline stabilizers.
#[derive(Clone, Debug)]
pub enum CodeSpec {
    /// A zoo name such as `"steane"`, `"surface_5"`, `"repetition_3"`.
    Zoo(String),
    /// Inline stabilizer generators as Pauli letter strings.
    Inline {
        /// Display name (`"inline"` when the request gives none).
        name: String,
        /// One generator per string, e.g. `["ZZI", "IZZ"]`.
        stabilizers: Vec<String>,
        /// Claimed distance, if the client knows one.
        distance: Option<usize>,
    },
}

impl CodeSpec {
    /// Stable identity of the code for cache and session-pool keys. Zoo
    /// names are the key; inline codes key on their generator strings, so
    /// two requests with the same stabilizers share cache entries.
    pub fn key(&self) -> String {
        match self {
            CodeSpec::Zoo(name) => name.clone(),
            CodeSpec::Inline {
                stabilizers,
                distance,
                ..
            } => format!("inline:{}:d{:?}", stabilizers.join("+"), distance),
        }
    }
}

/// Parses one request line. Every failure is a client-visible message; the
/// server wraps it in a structured error response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line).map_err(|e| format!("parse: {e}"))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("parse: request must be a JSON object".into());
    }
    let op = match doc.get("op") {
        None => "verify",
        Some(v) => v.as_str().ok_or("parse: \"op\" must be a string")?,
    };
    match op {
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "verify" => Ok(Request::Verify(Box::new(parse_verify(&doc)?))),
        other => Err(format!(
            "unsupported op {other:?} (expected \"verify\", \"stats\" or \"shutdown\")"
        )),
    }
}

fn parse_verify(doc: &Json) -> Result<VerifyRequest, String> {
    let id = doc.get("id").map(render_id_token).transpose()?;
    let kind_name = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("verify requests need a string \"kind\"")?;
    let kind = match kind_name {
        "detection" => RequestKind::Detection {
            dt: usize_field(doc, "dt")?.ok_or("detection requests need \"dt\"")?,
        },
        "distance" => RequestKind::Distance {
            max: usize_field(doc, "max")?,
        },
        "count" => RequestKind::Count,
        "fault_tolerance" => RequestKind::FaultTolerance {
            max_t_data: usize_field(doc, "max_t_data")?.unwrap_or(1),
            max_t_meas: usize_field(doc, "max_t_meas")?.unwrap_or(1),
        },
        other => {
            return Err(format!(
                "unknown kind {other:?} (expected detection|distance|count|fault_tolerance)"
            ))
        }
    };
    let code = match (doc.get("code"), doc.get("stabilizers")) {
        (Some(_), Some(_)) => {
            return Err("give either \"code\" or \"stabilizers\", not both".into())
        }
        (Some(c), None) => {
            CodeSpec::Zoo(c.as_str().ok_or("\"code\" must be a string")?.to_string())
        }
        (None, Some(s)) => {
            let arr = s.as_arr().ok_or("\"stabilizers\" must be an array")?;
            let stabilizers: Vec<String> = arr
                .iter()
                .map(|g| {
                    g.as_str()
                        .map(str::to_string)
                        .ok_or("\"stabilizers\" entries must be strings")
                })
                .collect::<Result<_, _>>()?;
            if stabilizers.is_empty() {
                return Err("\"stabilizers\" must not be empty".into());
            }
            CodeSpec::Inline {
                name: doc
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("inline")
                    .to_string(),
                stabilizers,
                distance: usize_field(doc, "distance")?,
            }
        }
        (None, None) => return Err("verify requests need \"code\" or \"stabilizers\"".into()),
    };
    let model = match doc.get("model") {
        None => ErrorModel::YErrors,
        Some(m) => match m.as_str().ok_or("\"model\" must be a string")? {
            "x" => ErrorModel::XErrors,
            "z" => ErrorModel::ZErrors,
            "y" => ErrorModel::YErrors,
            "depolarizing" => ErrorModel::Depolarizing,
            other => {
                return Err(format!(
                    "unknown model {other:?} (expected x|z|y|depolarizing)"
                ))
            }
        },
    };
    Ok(VerifyRequest {
        id,
        kind,
        code,
        model,
        rounds: usize_field(doc, "rounds")?.unwrap_or(0),
        conflict_budget: usize_field(doc, "conflict_budget")?.map(|v| v as u64),
        node_limit: usize_field(doc, "node_limit")?,
        deadline_ms: usize_field(doc, "deadline_ms")?.map(|v| v as u64),
    })
}

/// Reads an optional non-negative integer field.
fn usize_field(doc: &Json, key: &str) -> Result<Option<usize>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let x = v
                .as_f64()
                .ok_or_else(|| format!("\"{key}\" must be a number"))?;
            if x < 0.0 || x.fract() != 0.0 || x > (1u64 << 53) as f64 {
                return Err(format!("\"{key}\" must be a non-negative integer"));
            }
            Ok(Some(x as usize))
        }
    }
}

/// Re-renders the client's `id` as a JSON token so responses echo it
/// verbatim (numbers stay numbers, strings stay strings). A number comes
/// back as the same value in plain decimal, at any magnitude: `5.0` as `5`,
/// `1e19` as `10000000000000000000`. One too large for an `f64` is refused.
fn render_id_token(v: &Json) -> Result<String, String> {
    match v {
        Json::Num(x) if x.is_finite() => Ok(format!("{x}")),
        Json::Str(s) => Ok(format!("\"{}\"", escape(s))),
        _ => Err("\"id\" must be a number or string".into()),
    }
}

/// The canonical content string a request's verdict is addressed by:
/// job kind × code × scenario (model, rounds) × schedule parameters ×
/// solver/diagram budgets. Deliberately excludes the deadline (a verdict
/// is a verdict no matter how long the client was willing to wait) and the
/// request `id`.
pub fn canonical_request(req: &VerifyRequest) -> String {
    let params = match &req.kind {
        RequestKind::Detection { dt } => format!("dt={dt}"),
        RequestKind::Distance { max } => format!("max={max:?}"),
        RequestKind::Count => "-".to_string(),
        RequestKind::FaultTolerance {
            max_t_data,
            max_t_meas,
        } => format!("td={max_t_data},tm={max_t_meas}"),
    };
    format!(
        "kind={};code={};model={:?};rounds={};params={};cb={:?};nl={:?}",
        req.kind.tag(),
        req.code.key(),
        req.model,
        req.rounds,
        params,
        req.conflict_budget,
        req.node_limit,
    )
}

/// Resolves a [`CodeSpec`] to a concrete code. Zoo names with a size
/// suffix (`surface_5`, `repetition_3`, `toric_3`, `xzzx_5`,
/// `reed_muller_4`) are validated here so a bad size is a clean error,
/// not a construction panic.
pub fn resolve_code(spec: &CodeSpec) -> Result<StabilizerCode, String> {
    match spec {
        CodeSpec::Zoo(name) => resolve_zoo(name),
        CodeSpec::Inline {
            name,
            stabilizers,
            distance,
        } => {
            let gens: Vec<SymPauli> = stabilizers
                .iter()
                .map(|s| {
                    let p = PauliString::from_letters(s)
                        .map_err(|e| format!("bad stabilizer {s:?}: {e}"))?;
                    if p.hermitian_sign().is_none() {
                        return Err(format!(
                            "bad stabilizer {s:?}: a stabilizer must be Hermitian (sign + or −)"
                        ));
                    }
                    Ok(SymPauli::plain(p))
                })
                .collect::<Result<_, _>>()?;
            let group =
                StabilizerGroup::new(gens).map_err(|e| format!("bad stabilizer group: {e}"))?;
            Ok(StabilizerCode::with_completed_logicals(
                name.clone(),
                group,
                *distance,
            ))
        }
    }
}

fn resolve_zoo(name: &str) -> Result<StabilizerCode, String> {
    let sized = |prefix: &str| -> Option<Result<usize, String>> {
        name.strip_prefix(prefix).map(|suffix| {
            suffix
                .parse::<usize>()
                .map_err(|_| format!("bad size suffix in {name:?}"))
        })
    };
    if let Some(d) = sized("surface_").or_else(|| sized("rotated_surface_")) {
        let d = d?;
        if d < 3 || d % 2 == 0 {
            return Err(format!("surface codes need odd d >= 3, got {d}"));
        }
        return Ok(rotated_surface(d));
    }
    if let Some(d) = sized("xzzx_") {
        let d = d?;
        if d < 3 || d % 2 == 0 {
            return Err(format!("xzzx codes need odd d >= 3, got {d}"));
        }
        return Ok(xzzx_surface(d));
    }
    if let Some(n) = sized("repetition_") {
        let n = n?;
        if n < 2 {
            return Err(format!("repetition codes need n >= 2, got {n}"));
        }
        return Ok(repetition(n));
    }
    if let Some(d) = sized("toric_") {
        let d = d?;
        if d < 2 {
            return Err(format!("toric codes need d >= 2, got {d}"));
        }
        return Ok(toric(d));
    }
    if let Some(r) = sized("reed_muller_") {
        let r = r?;
        if !(3..=8).contains(&r) {
            return Err(format!("reed_muller supports 3 <= r <= 8, got {r}"));
        }
        return Ok(reed_muller(r));
    }
    match name {
        "steane" => Ok(steane()),
        "five_qubit" => Ok(five_qubit()),
        "six_qubit" => Ok(six_qubit()),
        "shor9" => Ok(shor9()),
        "gottesman8" => Ok(gottesman8()),
        "c4_422" => Ok(c4_422()),
        "cube_color_822" => Ok(cube_color_822()),
        "carbon" | "carbon_12_2_4" => Ok(carbon_12_2_4()),
        "hgp_hamming" => Ok(hgp_hamming()),
        _ => Err(format!(
            "unknown code {name:?} (zoo names: steane, five_qubit, six_qubit, shor9, \
             gottesman8, c4_422, cube_color_822, carbon, hgp_hamming, repetition_N, \
             surface_D, xzzx_D, toric_D, reed_muller_R; or inline \"stabilizers\")"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_verify_request() {
        let req = parse_request(
            r#"{"id":7,"op":"verify","kind":"distance","code":"steane","max":4,
               "conflict_budget":1000,"deadline_ms":250}"#,
        )
        .unwrap();
        let Request::Verify(v) = req else {
            panic!("not a verify request");
        };
        assert_eq!(v.id.as_deref(), Some("7"));
        assert!(matches!(v.kind, RequestKind::Distance { max: Some(4) }));
        assert!(matches!(&v.code, CodeSpec::Zoo(n) if n == "steane"));
        assert_eq!(v.conflict_budget, Some(1000));
        assert_eq!(v.deadline_ms, Some(250));
        assert_eq!(v.rounds, 0);
    }

    #[test]
    fn numeric_ids_echo_their_value_at_any_magnitude() {
        let id = |token: &str| {
            let line = format!(r#"{{"id":{token},"kind":"count","code":"steane"}}"#);
            match parse_request(&line) {
                Ok(Request::Verify(v)) => Ok(v.id.unwrap()),
                Ok(_) => panic!("not a verify request"),
                Err(e) => Err(e),
            }
        };
        for (token, echoed) in [
            ("7", "7"),
            ("-3", "-3"),
            ("5.0", "5"),
            ("2.5", "2.5"),
            ("1e19", "10000000000000000000"),
        ] {
            assert_eq!(id(token).as_deref(), Ok(echoed), "{token}");
        }
        assert_eq!(id("1e300").unwrap(), format!("1{}", "0".repeat(300)));
        assert!(id("1e400").is_err(), "an id past f64 range is refused");
    }

    #[test]
    fn op_defaults_to_verify_and_ids_echo_strings() {
        let req =
            parse_request(r#"{"id":"abc","kind":"detection","code":"steane","dt":3}"#).unwrap();
        let Request::Verify(v) = req else {
            panic!("not a verify request");
        };
        assert_eq!(v.id.as_deref(), Some("\"abc\""));
        assert!(matches!(v.kind, RequestKind::Detection { dt: 3 }));
    }

    #[test]
    fn rejects_malformed_requests_with_messages() {
        for (line, needle) in [
            ("{\"op\":\"verify\"", "parse"),
            ("[1,2]", "object"),
            (r#"{"op":"frobnicate"}"#, "unsupported op"),
            (r#"{"kind":"distance"}"#, "\"code\" or \"stabilizers\""),
            (r#"{"kind":"warp","code":"steane"}"#, "unknown kind"),
            (r#"{"kind":"detection","code":"steane"}"#, "\"dt\""),
            (
                r#"{"kind":"distance","code":"steane","max":-1}"#,
                "non-negative",
            ),
            (
                r#"{"kind":"distance","code":"steane","model":"w"}"#,
                "unknown model",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn zoo_registry_resolves_and_validates() {
        assert_eq!(resolve_zoo("steane").unwrap().n(), 7);
        assert_eq!(resolve_zoo("surface_3").unwrap().n(), 9);
        assert_eq!(resolve_zoo("repetition_3").unwrap().n(), 3);
        assert!(resolve_zoo("surface_4").unwrap_err().contains("odd"));
        assert!(resolve_zoo("repetition_1").unwrap_err().contains("n >= 2"));
        assert!(resolve_zoo("surface_x").unwrap_err().contains("suffix"));
        assert!(resolve_zoo("bogus_99")
            .unwrap_err()
            .contains("unknown code"));
    }

    #[test]
    fn inline_stabilizers_build_a_code() {
        let spec = CodeSpec::Inline {
            name: "rep3".into(),
            stabilizers: vec!["ZZI".into(), "IZZ".into()],
            distance: Some(3),
        };
        let code = resolve_code(&spec).unwrap();
        assert_eq!((code.n(), code.k()), (3, 1));
        assert_eq!(code.claimed_distance(), Some(3));
        let bad = CodeSpec::Inline {
            name: "bad".into(),
            stabilizers: vec!["XQ".into()],
            distance: None,
        };
        assert!(resolve_code(&bad).unwrap_err().contains("bad stabilizer"));
        let imaginary = CodeSpec::Inline {
            name: "bad".into(),
            stabilizers: vec!["iZZI".into(), "IZZ".into()],
            distance: None,
        };
        assert!(resolve_code(&imaginary)
            .unwrap_err()
            .contains("must be Hermitian"));
    }

    #[test]
    fn canonical_key_separates_requests_and_ignores_deadlines() {
        let mk = |line: &str| -> VerifyRequest {
            let Request::Verify(v) = parse_request(line).unwrap() else {
                panic!()
            };
            *v
        };
        let a = mk(r#"{"kind":"distance","code":"steane","max":4}"#);
        let b = mk(r#"{"kind":"distance","code":"steane","max":4,"deadline_ms":5,"id":9}"#);
        let c = mk(r#"{"kind":"distance","code":"steane","max":5}"#);
        let d = mk(r#"{"kind":"detection","code":"steane","dt":4}"#);
        assert_eq!(canonical_request(&a), canonical_request(&b));
        assert_ne!(canonical_request(&a), canonical_request(&c));
        assert_ne!(canonical_request(&a), canonical_request(&d));
    }
}
