//! `ccsort-audit replay` checks its flags and the point they describe
//! before any machine is built: an unknown flag or an invalid value exits 2
//! naming it, so an old or misspelt replay line never silently runs a
//! different point.

use std::process::Command;

const POINT: &str = "--alg radix-ccsas --dist random --n 64 --p 2 --r 6 --seed 0";

fn replay(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ccsort-audit"))
        .arg("replay")
        .args(POINT.split_whitespace())
        .args(extra)
        .output()
        .expect("run ccsort-audit")
}

fn assert_usage_error(extra: &[&str], named: &str) {
    let out = replay(extra);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "replay {extra:?}: {stderr}");
    assert!(
        stderr.contains(named),
        "replay {extra:?} should name {named:?}: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "replay {extra:?} ran: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn unknown_or_valueless_flags_exit_2_naming_the_flag() {
    assert_usage_error(&["--dir", "lp:8"], "--dir");
    assert_usage_error(&["--scal", "4"], "--scal");
    assert_usage_error(&["--scale"], "--scale");
}

#[test]
fn a_scale_the_machine_cannot_take_exits_2_naming_the_field() {
    assert_usage_error(&["--scale", "3"], "scale_denom");
    assert_usage_error(&["--scale", "0"], "scale_denom");
}

#[test]
fn a_valid_line_replays_clean() {
    let out = replay(&["--scale", "64", "--proto", "upd"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("replay clean"), "{stdout}");
}
