//! Command-line contract of the `tables` binary: usage errors exit 2
//! before any work runs, with a message rather than a panic.

use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("tables runs")
}

#[test]
fn unknown_mode_exits_2_and_lists_the_modes() {
    let out = tables(&["bogus_mode", "--check", "bench_baselines.json"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bogus_mode"), "{stderr}");
    assert!(stderr.contains("gate"), "{stderr}");
}

#[test]
fn gate_with_a_missing_baseline_exits_2_without_panicking() {
    let out = tables(&["gate", "--quick", "--check", "no/such/baseline.json"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no/such/baseline.json"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
