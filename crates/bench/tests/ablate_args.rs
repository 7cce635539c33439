//! `ablate`'s positional arguments and `repro`'s options are checked before
//! any machine is built: a malformed or invalid value exits 2 naming the
//! offending field or value, so these run in the debug profile too.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str], field: &str) {
    let out = Command::new(bin).args(args).output().expect("run the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(field), "{bin} {args:?} should name {field:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn bad_arguments_exit_2_naming_the_field() {
    let ablate = env!("CARGO_BIN_EXE_ablate");
    assert_usage_error(ablate, &["4096", "eight"], "invalid p");
    assert_usage_error(ablate, &["3", "8", "4"], "n = 3 < p = 8");
    // The scale is validated on the machine ablate builds, not the default.
    assert_usage_error(ablate, &["4096", "8", "3"], "scale_denom = 3");
    assert_usage_error(ablate, &["4096", "8", "0"], "scale_denom = 0");

    let repro = env!("CARGO_BIN_EXE_repro");
    // A bad value is named before `quick` refuses the option itself.
    assert_usage_error(repro, &["quick", "--procs", "0"], "processor count 0");
    assert_usage_error(repro, &["fig1", "--procs", "16,2000"], "processor count 2000");
    assert_usage_error(repro, &["fig1", "--procs", "65"], "processor count 65");
    assert_usage_error(repro, &["quick", "--simkeys", "3"], "--simkeys: 3");
    // `quick` sets its own scale, so a valid scale option is refused, not ignored.
    assert_usage_error(repro, &["quick", "--procs", "4"], "--procs");
    assert_usage_error(repro, &["quick", "--seed", "1"], "--seed");
}
