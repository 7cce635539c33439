//! `fastpath_without_equiv`: use of a fast-path internal in a function
//! that carries no sampled `equiv_reference` replay.
//!
//! The simulator's speed is licensed by pairing its one fast walk with
//! the frozen per-line reference: a debug-build sampled replay
//! (`equiv_reference`, inside `Machine::walk`) re-executes the walk's
//! lines on a clone and asserts bit-identical state. A future entry
//! point that reaches `probe_fast_ext`/`install_fast` without going
//! through `walk` — a second loop — quietly re-opens the gap between the
//! fast and reference cost models.

use crate::lints::{is_production_src, Finding, Lint, WorkspaceCtx};
use crate::source::SourceFile;

/// The fast-path internals whose use demands an equivalence replay.
const TRIGGERS: &[&str] = &["probe_fast_ext", "install_fast", "walk"];

pub struct FastpathWithoutEquiv;

impl Lint for FastpathWithoutEquiv {
    fn name(&self) -> &'static str {
        "fastpath_without_equiv"
    }

    fn description(&self) -> &'static str {
        "fast-path internal used in a function without a sampled equiv_reference* replay"
    }

    fn applies_to(&self, rel_path: &str) -> bool {
        is_production_src(rel_path)
    }

    fn check(&self, file: &SourceFile, ctx: &WorkspaceCtx) -> Vec<Finding> {
        let mut findings = Vec::new();
        for (i, t) in file.tokens.iter().enumerate() {
            let Some(name) = t.ident() else { continue };
            if !TRIGGERS.contains(&name) || !file.is_call(i) {
                continue;
            }
            if file.in_test_code(t.line) {
                continue;
            }
            let Some(enclosing) = file.enclosing_fn(t.line) else { continue };
            // Below the equivalence boundary: the internals may compose
            // each other (`walk` calls `probe_fast_ext`); the replay lives
            // at the boundary function.
            if TRIGGERS.contains(&enclosing.name.as_str())
                || enclosing.name.starts_with("equiv_reference")
            {
                continue;
            }
            // The boundary function itself carries a replay.
            let body = &file.tokens[enclosing.body_start..=enclosing.body_end];
            let has_replay = body
                .iter()
                .any(|t| t.ident().is_some_and(|s| s.starts_with("equiv_reference")));
            if has_replay {
                continue;
            }
            // Calling a function that *contains* the replay (`walk`) is
            // safe: the discipline travels with the callee.
            if ctx.equiv_checked_fns.iter().any(|f| f == name) {
                continue;
            }
            findings.push(Finding {
                lint: self.name(),
                rel_path: file.rel_path.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "fast-path internal `{name}()` used in `{}` without a sampled \
                     `equiv_reference*` replay in scope",
                    enclosing.name
                ),
                note: "every fast path must be bit-exact against the frozen reference walk; \
                       feed the lines to Machine::walk, which carries the debug-sampled \
                       equiv_reference replay, instead of writing a second loop \
                       (DESIGN.md §10, §13)",
            });
        }
        findings
    }
}
