//! Command-line contract of the `search_codes` binary.

use std::process::Command;

#[test]
fn unknown_mode_exits_2_and_lists_the_modes() {
    let out = Command::new(env!("CARGO_BIN_EXE_search_codes"))
        .arg("bogus")
        .output()
        .expect("search_codes runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bogus"), "{stderr}");
    assert!(stderr.contains("dodecacode"), "{stderr}");
}
