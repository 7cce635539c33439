//! The crate's public surface is the three runtimes and nothing that uses
//! them: every `pub mod` and every `pub use` name in `src/lib.rs` must be on
//! the lists below. Which runtime call a sort makes in which phase (the
//! sorts' `Communicator`) belongs beside the sorts in `ccsort-algos`, so a
//! trait, a cost table or a sort-shaped type re-exported here fails this
//! test. Removing a name needs no edit here; adding one means arguing for a
//! longer list in review.

use std::collections::BTreeSet;

const MODULES: &[&str] = &["mpi", "prefix", "shmem"];

const REEXPORTS: &[&str] = &["Mpi", "MpiMode", "PrefixTree", "Shmem"];

/// The names one `pub use path::{a, b as c};` or `pub use path::d;` item
/// exports.
fn exported(item: &str) -> Vec<String> {
    let list = match item.split_once('{') {
        Some((_, braced)) => braced.trim_end_matches('}'),
        None => item.rsplit("::").next().expect("a path"),
    };
    list.split(',')
        .map(|name| name.rsplit(" as ").next().expect("a name").trim().to_string())
        .filter(|name| !name.is_empty())
        .collect()
}

#[test]
fn the_public_surface_is_within_its_budget() {
    let lib = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/src/lib.rs")).expect("src/lib.rs");
    let code: String = lib.lines().filter(|l| !l.trim_start().starts_with("//")).collect::<Vec<_>>().join(" ");
    let (mut modules, mut reexports) = (BTreeSet::new(), BTreeSet::new());
    for item in code.split(';').map(str::trim) {
        if let Some(name) = item.strip_prefix("pub mod ") {
            modules.insert(name.to_string());
        } else if let Some(path) = item.strip_prefix("pub use ") {
            reexports.extend(exported(path));
        }
    }
    assert!(!modules.is_empty() && !reexports.is_empty(), "lib.rs no longer parses: {modules:?} {reexports:?}");
    let extra: Vec<_> = modules.iter().filter(|m| !MODULES.contains(&m.as_str())).collect();
    assert!(extra.is_empty(), "public modules outside the budget: {extra:?}");
    let extra: Vec<_> = reexports.iter().filter(|r| !REEXPORTS.contains(&r.as_str())).collect();
    assert!(extra.is_empty(), "re-exports outside the budget: {extra:?}");
}
