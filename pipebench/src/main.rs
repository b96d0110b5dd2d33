//! `pipebench`: the verification pipeline's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload <surface-correction|code-analysis|daemon-mix|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets its workload up several times (the median is `setup_s`),
//! then measures whole passes over the workload until `--seconds` have
//! elapsed (at least one pass). Every verdict is checked against its known
//! answer before anything is printed; a wrong verdict exits 1.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics of
//! untraced passes. With `--trace 1` the run makes untraced passes (the
//! sequential half of one surface pass, one code-analysis pass, `--seconds`
//! worth of daemon passes: per-instance rows and the tracing baseline), then traced
//! passes over the same inputs in which every call the benchmark makes
//! into the program is timed and attributed to its layer; the last line
//! carries the per-layer metrics. No span is added to the program: the
//! code-analysis pass arms the program's existing `veriqec_obs` collector
//! to split the engine workers' time.
//!
//! Human-readable rows (provenance, per-instance times) precede the result
//! line.

mod analysis;
mod daemon;
mod front;
mod heap;
mod oracle;
mod report;
mod spans;
mod stats;
mod surface;

use std::time::Duration;

use report::Outcome;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["surface-correction", "code-analysis", "daemon-mix"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Minimum measured time per run.
    pub seconds: Duration,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("usage error: {msg}");
            eprintln!(
                "usage: pipebench --workload <surface-correction|code-analysis|daemon-mix|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for name in names {
        let args = Args {
            workload: name.to_string(),
            ..args.clone()
        };
        println!("{}", stats::provenance(&args));
        let outcome: Result<Outcome, String> = match name {
            "surface-correction" => surface::run(&args),
            "code-analysis" => analysis::run(&args),
            "daemon-mix" => daemon::run(&args),
            other => {
                eprintln!("unknown workload {other:?} (expected one of {WORKLOADS:?} or all)");
                std::process::exit(2);
            }
        };
        match outcome {
            Ok(out) => {
                for row in &out.rows {
                    println!("{row}");
                }
                println!("{}", out.to_json(args.trace));
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(1);
            }
        }
    }
}
