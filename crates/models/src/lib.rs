//! Empty on purpose: the runtimes moved into `ccsort-algos`; the crate stays only because `crates/benchmark/Cargo.toml` still lists it.
