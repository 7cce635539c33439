//! `ablate`'s positional arguments are checked before any machine is built:
//! a malformed or invalid value exits 2 naming the offending field, so
//! these run in the debug profile too.

use std::process::Command;

fn assert_usage_error(args: &[&str], field: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_ablate")).args(args).output().expect("run ablate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "ablate {args:?}: {stderr}");
    assert!(stderr.contains(field), "ablate {args:?} should name {field:?}: {stderr}");
    assert!(out.stdout.is_empty(), "ablate {args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn bad_arguments_exit_2_naming_the_field() {
    assert_usage_error(&["4096", "eight"], "invalid p");
    assert_usage_error(&["3", "8", "4"], "n = 3 < p = 8");
}
