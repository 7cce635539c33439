//! The CI workflow names only what exists. Every `-p` / `--exclude` is a
//! workspace package, every `--test` a `tests/*.rs` target of that
//! package, every `--bin` one of its declared `[[bin]]`s, and every
//! test-name filter of a `--lib` run matches a `#[test] fn` in the module
//! it names. Deleting a target without editing `.github/workflows/ci.yml`
//! fails here rather than on the runner.

use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Cargo flags whose value is the next token.
const VALUED: &[&str] = &["-p", "--exclude", "--test", "--bin", "--target"];

/// `(name, directory, manifest)` of every workspace package.
fn workspace() -> Vec<(String, PathBuf, String)> {
    let crates = fs::read_dir(Path::new(ROOT).join("crates")).expect("crates/");
    let dirs = crates.map(|entry| entry.expect("a crates/ entry").path());
    std::iter::once(PathBuf::from(ROOT))
        .chain(dirs)
        .filter_map(|dir| {
            let manifest = fs::read_to_string(dir.join("Cargo.toml")).ok()?;
            let name = values(&manifest, "[package]", "name").pop()?;
            Some((name, dir, manifest))
        })
        .collect()
}

/// The values of `key = "..."` in every `header` table of a manifest.
fn values(manifest: &str, header: &str, key: &str) -> Vec<String> {
    let (mut table, mut out) = ("", Vec::new());
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line;
        } else if let Some((_, v)) = line.split_once('=').filter(|(k, _)| table == header && k.trim() == key) {
            out.push(v.trim().trim_matches('"').to_string());
        }
    }
    out
}

fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let entries = fs::read_dir(dir).into_iter().flatten().flatten().map(|e| e.path());
    entries
        .flat_map(|path| if path.is_dir() { rust_files(&path) } else { vec![path] })
        .filter(|path| path.extension().is_some_and(|e| e == "rs"))
        .collect()
}

/// Names of the `#[test]` functions in one source file.
fn test_fns(file: &Path) -> Vec<String> {
    let text = fs::read_to_string(file).expect("a source file");
    let (mut out, mut is_test) = (Vec::new(), false);
    for line in text.lines().map(str::trim) {
        if let Some(rest) = line.split_once("fn ").map(|(_, r)| r).filter(|_| is_test) {
            out.push(rest.split(['(', '<']).next().unwrap_or("").to_string());
        }
        is_test = line.starts_with("#[test]")
            || (is_test && (line.starts_with("#[") || line.starts_with("//")));
    }
    out
}

/// Does libtest's `filter` select a test of the crate whose sources are in
/// `src`? A path filter (`radix::tests::heavy_bucket_`) needs a test in
/// that module's file whose name starts with the last segment; a bare one
/// (`at_3_and_7_workers`) a test anywhere whose name contains it.
fn filter_matches(src: &Path, filter: &str) -> bool {
    let Some((module, name)) = filter.rsplit_once("::") else {
        return rust_files(src).iter().flat_map(|f| test_fns(f)).any(|f| f.contains(filter));
    };
    let base = src.join(module.trim_end_matches("::tests").replace("::", "/"));
    [base.with_extension("rs"), base.join("mod.rs")]
        .iter()
        .filter(|f| f.exists())
        .flat_map(|f| test_fns(f))
        .any(|f| f.starts_with(name))
}

/// Every `cargo` invocation in `yml`, as tokens from `cargo` on, with
/// comments dropped and `\` continuations joined.
fn cargo_commands(yml: &str) -> Vec<Vec<String>> {
    let (mut commands, mut line) = (Vec::new(), String::new());
    for raw in yml.lines().map(str::trim).filter(|l| !l.starts_with('#')) {
        line.push_str(raw.trim_end_matches('\\'));
        line.push(' ');
        if raw.ends_with('\\') {
            continue;
        }
        let tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
        if let Some(at) = tokens.iter().position(|t| t == "cargo") {
            commands.push(tokens[at..].to_vec());
        }
        line.clear();
    }
    commands
}

/// The names in `yml` that do not exist, and how many names were checked.
fn stale_names(yml: &str) -> (Vec<String>, usize) {
    let ws = workspace();
    let find = |name: &str| ws.iter().find(|(n, ..)| n == name);
    let mut checks: Vec<(bool, String)> = Vec::new();
    for cmd in cargo_commands(yml) {
        let dashes = cmd.iter().position(|t| t == "--").unwrap_or(cmd.len());
        let (mut pkg, mut words, mut targets, mut lib) = (find("ccsort"), vec![], vec![], false);
        let mut flags = cmd[1..dashes].iter().map(String::as_str);
        while let Some(flag) = flags.next() {
            let value = if VALUED.contains(&flag) { flags.next().expect("a flag value") } else { "" };
            match flag {
                "-p" | "--exclude" => {
                    checks.push((find(value).is_some(), format!("{flag} {value}: no such package")));
                    if flag != "--exclude" {
                        pkg = find(value);
                    }
                }
                "--test" | "--bin" => targets.push((flag, value)),
                "--lib" => lib = true,
                _ if !flag.starts_with(['-', '+']) => words.push(flag),
                _ => {}
            }
        }
        let Some((name, dir, manifest)) = pkg else { continue };
        for (flag, target) in targets {
            let exists = match flag {
                "--test" => dir.join(format!("tests/{target}.rs")).exists(),
                _ => values(manifest, "[[bin]]", "name").iter().any(|n| n == target),
            };
            checks.push((exists, format!("{flag} {target}: no such target in {name}")));
        }
        let words = words.strip_prefix(&["miri"][..]).unwrap_or(&words);
        let Some((&"test", positional)) = words.split_first() else { continue };
        let extra = positional.get(1).unwrap_or(&"");
        checks.push((positional.len() <= 1, format!("{extra}: cargo test takes one filter; put the rest after --")));
        let after = cmd.iter().skip(dashes + 1).map(String::as_str);
        for f in positional.iter().copied().chain(after).filter(|f| !f.starts_with('-')) {
            let ok = lib && filter_matches(&dir.join("src"), f);
            checks.push((ok, format!("{f}: no #[test] fn of {name} --lib matches")));
        }
    }
    let checked = checks.len();
    (checks.into_iter().filter(|(ok, _)| !ok).map(|(_, what)| what).collect(), checked)
}

#[test]
fn the_workflow_names_only_what_exists() {
    let yml = fs::read_to_string(Path::new(ROOT).join(".github/workflows/ci.yml")).expect("ci.yml");
    let (stale, checked) = stale_names(&yml);
    assert!(stale.is_empty(), "ci.yml names what does not exist:\n{}", stale.join("\n"));
    assert!(checked >= 20, "only {checked} names found: the workflow no longer parses");
}

#[test]
fn a_stale_name_is_reported() {
    let yml = r"
      # cargo test --test commented_out_is_ignored
      - run: cargo test -p ccsort-nope --test anything
      - run: |
          cargo test --test no_such_test --test service_paths
          cargo run -p ccsort-bench --bin no_such_bin -- --quick
          cargo +nightly miri test -p ccsort-parallel --lib \
            radix::tests::no_such_case -- spmd:: steal::tests::par_ no_such_fn_anywhere
          cargo test -p ccsort-parallel --lib spmd:: plan::
    ";
    let (stale, checked) = stale_names(yml);
    let expect = ["ccsort-nope", "no_such_test", "no_such_bin", "no_such_case", "no_such_fn_anywhere", "plan::"];
    assert_eq!(stale.len(), expect.len(), "{stale:#?}");
    for name in expect {
        assert!(stale.iter().any(|s| s.contains(name)), "{name} not reported: {stale:#?}");
    }
    assert_eq!(checked, 16, "{stale:#?}");
}
