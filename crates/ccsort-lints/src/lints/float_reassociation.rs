//! `float_reassociation`: iterator reductions over `f64` timing values in
//! the crates whose outputs are golden-file bit-exact.
//!
//! The committed goldens (`results/golden_quick.txt`, the equivalence
//! tests, `BENCH_simulator.json` parity assertions) compare simulated
//! times to the last bit. f64 addition is not associative, so *any*
//! reduction whose order is implicit — `iter().sum()`, a seeded `fold` —
//! is one refactor away from changing observables (a parallel-reduce
//! drop-in, a chunked rewrite). In `crates/machine` and `crates/bench`
//! accumulation order must be explicit: a plain indexed loop.
//!
//! Order-insensitive reductions (`fold(0.0, f64::max)` and min) are
//! exempt: max/min are associative and commutative for the non-NaN values
//! the simulator produces.

use crate::lints::{Finding, Lint, WorkspaceCtx};
use crate::source::SourceFile;
use crate::lexer::TokenKind;

pub struct FloatReassociation;

impl FloatReassociation {
    /// Is the token at `i` (an ident) preceded by `.` — i.e. a method call?
    fn is_method(file: &SourceFile, i: usize) -> bool {
        i > 0 && file.tokens[i - 1].is_punct('.')
    }
}

impl Lint for FloatReassociation {
    fn name(&self) -> &'static str {
        "float_reassociation"
    }

    fn description(&self) -> &'static str {
        "implicit-order f64 reduction (sum/fold) on timing values in machine/bench/service"
    }

    fn applies_to(&self, rel_path: &str) -> bool {
        // steal.rs rides along: steal heuristics must never weigh remaining
        // work with implicitly-ordered float accumulation, or the chosen
        // victim (and the sort's memory traffic) varies run to run.
        // crates/service too: flush decisions (and any future load-aware
        // policy) must never hinge on implicitly-ordered float accumulation,
        // or batch composition varies run to run.
        rel_path.starts_with("crates/machine/src/")
            || rel_path.starts_with("crates/bench/src/")
            || rel_path.starts_with("crates/service/src/")
            || rel_path == "crates/parallel/src/steal.rs"
    }

    fn check(&self, file: &SourceFile, _ctx: &WorkspaceCtx) -> Vec<Finding> {
        let mut findings = Vec::new();
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            let Some(name) = t.ident() else { continue };
            if file.in_test_code(t.line) {
                continue;
            }

            // Case 1: `.sum::<f64>()` — explicitly typed f64 sum.
            if name == "sum" && Self::is_method(file, i) {
                let turbofish_f64 = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct('<'))
                    && toks.get(i + 4).is_some_and(|t| t.is_ident("f64"));
                // Case 2: untyped `.sum()` inside a statement that binds an
                // f64 (`let total: f64 = ....sum();`): scan back to the
                // statement start for an `f64` token.
                let stmt_f64 = !turbofish_f64
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && toks[..i]
                        .iter()
                        .rev()
                        .take_while(|t| {
                            !t.is_punct(';') && !t.is_punct('{') && !t.is_punct('}')
                        })
                        .any(|t| t.is_ident("f64"));
                if turbofish_f64 || stmt_f64 {
                    findings.push(Finding {
                        lint: self.name(),
                        rel_path: file.rel_path.clone(),
                        line: t.line,
                        col: t.col,
                        message: "implicit-order f64 `sum()` on timing values".to_string(),
                        note: "golden files are bit-exact in accumulated f64 time; make the \
                               accumulation order explicit with an indexed loop (DESIGN.md §13)",
                    });
                }
                continue;
            }

            // Case 3: `.fold(<float literal>, f)` with an order-sensitive
            // combiner. `f64::max`/`min` (and the method forms) are
            // associative+commutative on non-NaN data and stay allowed.
            if name == "fold" && Self::is_method(file, i) && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                let seed_is_float = toks.get(i + 2).is_some_and(|t| match &t.kind {
                    TokenKind::Num(s) => {
                        s.contains('.') || s.contains("f64") || s.contains("f32")
                    }
                    _ => false,
                });
                if !seed_is_float {
                    continue;
                }
                // Tokens of the second argument: from the `,` after the
                // seed to the closing `)`.
                let mut j = i + 3;
                let mut arg2 = Vec::new();
                let mut depth = 0i32;
                let mut in_second = false;
                while j < toks.len() {
                    let tk = &toks[j];
                    match tk.kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                        TokenKind::Punct(')') | TokenKind::Punct(']') if depth == 0 => break,
                        TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                        TokenKind::Punct(',') if depth == 0 => {
                            in_second = true;
                            j += 1;
                            continue;
                        }
                        _ => {}
                    }
                    if in_second {
                        if let Some(id) = tk.ident() {
                            arg2.push(id.to_string());
                        }
                    }
                    j += 1;
                }
                let order_insensitive = matches!(
                    arg2.last().map(String::as_str),
                    Some("max") | Some("min") | Some("maximum") | Some("minimum")
                );
                if !order_insensitive {
                    findings.push(Finding {
                        lint: self.name(),
                        rel_path: file.rel_path.clone(),
                        line: t.line,
                        col: t.col,
                        message: "float-seeded `fold()` with an order-sensitive combiner"
                            .to_string(),
                        note: "golden files are bit-exact in accumulated f64 time; make the \
                               accumulation order explicit with an indexed loop, or use the \
                               order-insensitive f64::max/min combiners (DESIGN.md §13)",
                    });
                }
            }
        }
        findings
    }
}
