//! The machine's contract is the `Machine` it exports, not the parts it is
//! built from: `src/lib.rs` has no `pub mod`, and every `pub use` name must
//! be on the list below. Removing a name needs no edit here (prune the list
//! when convenient); adding one means arguing for a longer list in review.

const REEXPORTS: &[&str] = &[
    "CacheGeom",
    "MachineConfig",
    "ProtocolMode",
    "MAX_PROCS",
    "Machine",
    "ArrayId",
    "Placement",
    "MsgToken",
    "RaceKind",
    "RaceReport",
    "Bucket",
    "EventCounters",
    "TimeBreakdown",
];

#[test]
fn the_public_surface_is_within_its_budget() {
    let lib = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/src/lib.rs")).expect("src/lib.rs");
    let code: String =
        lib.lines().filter(|l| !l.trim_start().starts_with("//")).collect::<Vec<_>>().join(" ");
    let (mut modules, mut private, mut reexports) = (Vec::new(), 0, Vec::new());
    for item in code.split(';').map(str::trim) {
        if let Some(name) = item.strip_prefix("pub mod ") {
            modules.push(name.to_string());
        } else if item.starts_with("mod ") {
            private += 1;
        } else if let Some(path) = item.strip_prefix("pub use ") {
            let list = match path.split_once('{') {
                Some((_, braced)) => braced.trim_end_matches('}'),
                None => path.rsplit("::").next().expect("a path"),
            };
            reexports.extend(list.split(',').map(|n| n.trim().to_string()).filter(|n| !n.is_empty()));
        }
    }
    assert!(private >= 5 && reexports.len() >= 10, "lib.rs no longer parses: {private} {reexports:?}");
    assert!(modules.is_empty(), "public modules: {modules:?}; the machine's parts stay private");
    let extra: Vec<_> = reexports.iter().filter(|r| !REEXPORTS.contains(&r.as_str())).collect();
    assert!(extra.is_empty(), "re-exports outside the budget: {extra:?}");
}
