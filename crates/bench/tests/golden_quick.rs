//! Golden-output guards for `repro quick` and `ablate`.
//!
//! The quick reproduction is the repo's public face: its numbers are quoted
//! in the README and its JSON feeds the plots. The communicator refactor's
//! contract is that restructuring the programs must not move a single
//! digit, so the committed transcript (`results/golden_quick.txt`) is the
//! regression oracle: this test reruns `repro quick` and byte-compares
//! stdout against it. `ablate` is held to `results/ablate_modes.txt` the
//! same way — the one artefact that runs the non-default machine modes
//! (virtual caches, Dragon); a wrong row sat in it while nothing compared.
//! A legitimate model change must regenerate the golden file in the same
//! commit — the diff then documents exactly which numbers moved.
//!
//! Only meaningful in release mode: the simulation is deterministic either
//! way, but a debug-profile run takes long enough to stall `cargo test`,
//! so the tests are no-ops unless compiled with optimisations
//! (`cargo test --release -p ccsort-bench --test golden_quick`).

use std::process::Command;

/// Run `exe args..` and byte-compare its stdout with `results/<golden>`.
fn assert_matches_golden(exe: &str, bin: &str, args: &[&str], golden: &str) {
    if cfg!(debug_assertions) {
        eprintln!("golden_quick: {bin} skipped in debug profile (run with --release)");
        return;
    }
    let golden_path = format!("{}/../../results/{golden}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&golden_path).expect("read the golden file");

    let cmd = [&[bin, "--"], args].concat().join(" ");
    let cmd = cmd.trim_end_matches(" --");
    let out = Command::new(exe).args(args).output().expect("run the binary");
    assert!(out.status.success(), "{cmd} failed: {}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("output is UTF-8");

    if got != want {
        let end = "<end of shorter output>";
        let (line, (w, g)) = want
            .lines()
            .zip(got.lines())
            .enumerate()
            .find(|(_, (w, g))| w != g)
            .map(|(i, pair)| (i + 1, pair))
            .unwrap_or((want.lines().count().min(got.lines().count()) + 1, (end, end)));
        panic!(
            "{cmd} diverged from results/{golden} at line {line}:\n  \
             golden: {w}\n  actual: {g}\n\
             ({} golden bytes, {} actual bytes). If the model intentionally \
             changed, regenerate the golden file with:\n  \
             cargo run --release -p ccsort-bench --bin {cmd} > results/{golden}",
            want.len(),
            got.len()
        );
    }
}

#[test]
fn repro_quick_matches_committed_golden_output() {
    assert_matches_golden(env!("CARGO_BIN_EXE_repro"), "repro", &["quick"], "golden_quick.txt");
}

#[test]
fn ablate_matches_committed_golden_output() {
    assert_matches_golden(env!("CARGO_BIN_EXE_ablate"), "ablate", &[], "ablate_modes.txt");
}
