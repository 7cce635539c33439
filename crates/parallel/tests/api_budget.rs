//! The crate's public surface can only shrink: every `pub mod` and every
//! `pub use` name in `src/lib.rs` must be on the lists below. Removing a
//! name from the crate needs no edit here (prune the list when convenient);
//! adding one means arguing for a longer list in review.

use std::collections::BTreeSet;

const MODULES: &[&str] =
    &["histogram", "key", "pairs", "plan", "radix", "seq", "shared", "spmd", "steal", "verify"];

/// Thirteen before the SPMD sorts were single-sourced, eleven before the
/// message and symmetric-heap runtimes went private, nine before the
/// exchange plans both worlds share became `plan`; ten is the cap.
const _: () = assert!(MODULES.len() <= 10);

const REEXPORTS: &[&str] = &[
    "par_digit_histogram",
    "par_multi_digit_histogram",
    "PaddedCounts",
    "RadixKey",
    "par_radix_sort_pairs_with",
    "par_radix_sort_pairs_with_scratch",
    "radix_sort_pairs",
    "par_radix_sort",
    "par_radix_sort_with",
    "par_radix_sort_with_scratch",
    "RadixSortConfig",
    "Schedule",
    "SortScratch",
    "seq_radix_sort",
    "radix_sort_with_scratch",
    "DEFAULT_RADIX_BITS",
    "SharedSlice",
    "par_sample_sort",
    "SAMPLES_PER_PART",
    "default_workers",
    "par_map",
    "ChunkQueue",
    "is_sorted",
    "is_sorted_permutation_of",
    "multiset_fingerprint",
];

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
    assert!(modules.len() >= 5 && reexports.len() >= 10, "lib.rs no longer parses: {modules:?} {reexports:?}");
    let extra: Vec<_> = modules.iter().filter(|m| !MODULES.contains(&m.as_str())).collect();
    assert!(extra.is_empty(), "public modules outside the budget: {extra:?}");
    let extra: Vec<_> = reexports.iter().filter(|r| !REEXPORTS.contains(&r.as_str())).collect();
    assert!(extra.is_empty(), "re-exports outside the budget: {extra:?}");
}
