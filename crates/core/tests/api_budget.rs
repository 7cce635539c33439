//! The crate's public surface can only shrink: every `pub mod` and every
//! `pub use` name in `src/lib.rs` must be on the lists below, and the two
//! skeleton modules have no public sub-modules — a program is a row of
//! `Algorithm`, not a module. Removing a name from the crate needs no edit
//! here (prune the list when convenient); adding one means arguing for a
//! longer list in review.

use std::collections::BTreeSet;

const MODULES: &[&str] = &["common", "costs", "dist", "driver", "predict", "seq"];

const REEXPORTS: &[&str] = &[
    "ProtocolMode",
    "stagger_window",
    "Dist",
    "KEY_BITS",
    "MAX_KEY",
    "load_keys",
    "run_experiment",
    "run_experiment_audited",
    "run_sequential_baseline",
    "Algorithm",
    "ExpConfig",
    "ExpResult",
    "SamplingStrategy",
];

/// `(pub mod names, pub use names)` of one source file under `src/`.
fn surface(file: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let path = format!("{}/src/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect(&path);
    let code: String =
        text.lines().filter(|l| !l.trim_start().starts_with("//")).collect::<Vec<_>>().join(" ");
    let (mut modules, mut reexports) = (BTreeSet::new(), BTreeSet::new());
    for item in code.split(';').map(str::trim) {
        if let Some(name) = item.strip_prefix("pub mod ") {
            modules.insert(name.to_string());
        } else if let Some(path) = item.strip_prefix("pub use ") {
            let list = match path.split_once('{') {
                Some((_, braced)) => braced.trim_end_matches('}'),
                None => path.rsplit("::").next().expect("a path"),
            };
            reexports.extend(list.split(',').map(|n| n.trim().to_string()).filter(|n| !n.is_empty()));
        }
    }
    (modules, reexports)
}

#[test]
fn the_public_surface_is_within_its_budget() {
    let (modules, reexports) = surface("lib.rs");
    assert!(modules.len() >= 5 && reexports.len() >= 10, "lib.rs no longer parses: {modules:?} {reexports:?}");
    let extra: Vec<_> = modules.iter().filter(|m| !MODULES.contains(&m.as_str())).collect();
    assert!(extra.is_empty(), "public modules outside the budget: {extra:?}");
    let extra: Vec<_> = reexports.iter().filter(|r| !REEXPORTS.contains(&r.as_str())).collect();
    assert!(extra.is_empty(), "re-exports outside the budget: {extra:?}");
    for skeleton in ["radix/mod.rs", "sample/mod.rs"] {
        let (submodules, _) = surface(skeleton);
        assert!(submodules.is_empty(), "{skeleton} grew public sub-modules: {submodules:?}");
    }
}
