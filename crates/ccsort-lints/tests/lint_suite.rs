//! Workspace smoke test: the suite must build, run over the real
//! workspace, and come back clean. This is the same check CI's gating
//! `cargo dylint --all` job performs, wired into `cargo test --workspace`
//! so a violation fails fast locally too.

use std::path::Path;

use ccsort_lints::{render, run_workspace};

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    assert!(root.join("Cargo.toml").is_file(), "workspace root not found at {root:?}");
    let report = run_workspace(root);
    assert!(
        report.findings.is_empty(),
        "ccsort-lints found violations in the workspace:\n{}",
        render(&report, false)
    );
    // Sanity: the walk really covered the workspace (six crates + root),
    // and the committed justified allows are present and in use.
    assert!(
        report.files_scanned >= 40,
        "suspiciously few files scanned ({}) — did the workspace walk break?",
        report.files_scanned
    );
    assert!(
        report.used_allows >= 5,
        "expected the committed justified allows to be found and used, saw {}",
        report.used_allows
    );
}

/// The machine crate's extracted layers — the coherence-protocol seam and
/// the multi-topology interconnect — hold exactly the code these two lints
/// exist for (event-count observables and f64 latency accumulation), so
/// their scope must keep covering the new modules.
#[test]
fn new_machine_layers_are_in_lint_scope() {
    use ccsort_lints::all_lints;
    let mut checked = 0;
    for lint in all_lints() {
        if matches!(lint.name(), "nondeterministic_iteration" | "float_reassociation") {
            for path in ["crates/machine/src/protocol.rs", "crates/machine/src/topology.rs"] {
                assert!(lint.applies_to(path), "{} must cover {path}", lint.name());
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 2, "both lints must exist in the registry");
}
