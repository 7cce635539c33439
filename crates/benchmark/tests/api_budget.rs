//! Later PRs may not edit this crate, so it must not name API that the
//! roadmap plans to delete: the engine's mechanism knobs, the service's
//! flush-window and batching knobs, and the simulator's path switches.
//! This test reads the crate's own sources and fails on any of them.

use std::path::Path;

/// Spelled in halves so that this file passes its own scan.
const DOOMED: &[(&str, &str)] = &[
    ("work_", "stealing"),
    ("coalesce_", "bytes"),
    ("fused_", "histogram"),
    ("steal_", "granularity"),
    ("max_wait", "_us"),
    ("coalesc", "ing"),
    ("batch_", "sort"),
    ("fast_", "path"),
    ("race_", "detector"),
];

fn scan(dir: &Path, hits: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            scan(&path, hits);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source file");
            for (i, line) in text.lines().enumerate() {
                for (a, b) in DOOMED {
                    if line.contains(&format!("{a}{b}")) {
                        hits.push(format!("{}:{}: {a}{b}", path.display(), i + 1));
                    }
                }
            }
        }
    }
}

#[test]
fn sources_name_no_api_the_roadmap_deletes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut hits = Vec::new();
    scan(&root.join("src"), &mut hits);
    scan(&root.join("tests"), &mut hits);
    assert!(
        hits.is_empty(),
        "doomed API named in the benchmark:\n{}",
        hits.join("\n")
    );
}
