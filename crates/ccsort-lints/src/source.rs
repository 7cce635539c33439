//! Structural model of one source file: the token stream plus just enough
//! item structure for the lints — function spans (with names and test
//! status), `#[cfg(test)]` regions, and `ccsort-lints:` allow directives.

use crate::lexer::{lex, Comment, Token, TokenKind};

/// A function item: name, the line of its `fn` keyword, and the line range
/// of its body (inclusive). Trait-method signatures without bodies are not
/// recorded.
#[derive(Debug, Clone)]
pub struct Function {
    pub name: String,
    pub start_line: u32,
    pub end_line: u32,
    /// Index into the token stream of the body's opening `{`.
    pub body_start: usize,
    /// Index of the matching `}`.
    pub body_end: usize,
    /// True inside `#[cfg(test)]` regions or for `#[test]`/`#[bench]` fns.
    pub is_test: bool,
}

/// One `// ccsort-lints: allow(<lint>) -- <justification>` directive.
#[derive(Debug, Clone)]
pub struct Directive {
    pub lint: String,
    pub line: u32,
    pub file_level: bool,
    pub justification: String,
}

/// A parsed source file ready for linting.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    pub functions: Vec<Function>,
    pub directives: Vec<Directive>,
    /// Line ranges covered by `#[cfg(test)]` modules/items.
    test_spans: Vec<(u32, u32)>,
}

/// The directive marker scanned for in comments.
pub const DIRECTIVE_MARKER: &str = "ccsort-lints:";

impl SourceFile {
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let (tokens, comments) = lex(src);
        let directives = parse_directives(&comments);
        let (functions, test_spans) = scan_items(&tokens);
        SourceFile {
            rel_path: rel_path.to_string(),
            tokens,
            comments,
            functions,
            directives,
            test_spans,
        }
    }

    /// Is `line` inside test-only code (`#[cfg(test)]` region or a
    /// `#[test]` function)?
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| (a..=b).contains(&line))
            || self
                .functions
                .iter()
                .any(|f| f.is_test && (f.start_line..=f.end_line).contains(&line))
    }

    /// Innermost function whose span contains `line`.
    pub fn enclosing_fn(&self, line: u32) -> Option<&Function> {
        self.functions
            .iter()
            .filter(|f| (f.start_line..=f.end_line).contains(&line))
            .min_by_key(|f| f.end_line - f.start_line)
    }

    /// Token-index → is this identifier a *call* (followed by `(`, through
    /// a turbofish `::<…>` if there is one, and not preceded by `fn`, i.e.
    /// not a definition)?
    pub fn is_call(&self, idx: usize) -> bool {
        if self.tokens[idx].ident().is_none() {
            return false;
        }
        let punct = |i: usize, c: char| self.tokens.get(i).is_some_and(|t| t.is_punct(c));
        let mut next = idx + 1;
        if punct(next, ':') && punct(next + 1, ':') && punct(next + 2, '<') {
            // Skip to the token after the `>` that closes the turbofish.
            next += 2;
            let mut depth = 0usize;
            while let Some(t) = self.tokens.get(next) {
                next += 1;
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
        }
        let prev_is_fn = idx > 0 && self.tokens[idx - 1].is_ident("fn");
        punct(next, '(') && !prev_is_fn
    }
}

/// Parse allow directives out of the comment list. Grammar (whitespace
/// lenient, separator before the justification may be `--`, `—`, or `:`):
///
/// ```text
/// // ccsort-lints: allow(lint_name) -- why this is sound here
/// // ccsort-lints: allow-file(lint_name) -- why, for the whole file
/// ```
///
/// The justification may wrap onto immediately-following comment lines
/// (the normal 80-column idiom). A directive with a missing/too-short
/// justification, or one naming an unknown lint, is itself reported by
/// the driver.
fn parse_directives(comments: &[Comment]) -> Vec<Directive> {
    let mut out = Vec::new();
    for (ci, c) in comments.iter().enumerate() {
        let Some(pos) = c.text.find(DIRECTIVE_MARKER) else { continue };
        let rest = c.text[pos + DIRECTIVE_MARKER.len()..].trim_start();
        let (file_level, rest) = if let Some(r) = rest.strip_prefix("allow-file(") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("allow(") {
            (false, r)
        } else {
            // Marker present but malformed — record it with an empty lint
            // name so the driver flags it rather than silently ignoring.
            out.push(Directive {
                lint: String::new(),
                line: c.line,
                file_level: false,
                justification: String::new(),
            });
            continue;
        };
        let Some(close) = rest.find(')') else {
            out.push(Directive {
                lint: String::new(),
                line: c.line,
                file_level,
                justification: String::new(),
            });
            continue;
        };
        let lint = rest[..close].trim().to_string();
        let mut justification = rest[close + 1..]
            .trim_start()
            .trim_start_matches(['-', '—', ':', ' '])
            .trim()
            .to_string();
        // Continuation: comment lines directly below the directive extend
        // the justification, until a gap or another directive.
        for (k, cont) in comments[ci + 1..].iter().enumerate() {
            let expect_line = c.line + 1 + k as u32;
            if cont.line != expect_line || cont.text.contains(DIRECTIVE_MARKER) {
                break;
            }
            justification.push(' ');
            justification.push_str(cont.text.trim());
        }
        out.push(Directive { lint, line: c.line, file_level, justification });
    }
    out
}

/// One pass over the token stream collecting function spans and
/// `#[cfg(test)]` regions. Attribute text is tracked so `#[test]`,
/// `#[bench]` and `#[cfg(test)]`/`#[cfg(all(test, ...))]` mark the item
/// they precede.
fn scan_items(tokens: &[Token]) -> (Vec<Function>, Vec<(u32, u32)>) {
    let mut functions: Vec<Function> = Vec::new();
    let mut test_spans: Vec<(u32, u32)> = Vec::new();

    // Open frames: (kind, depth at which the body `{` was seen, fn index
    // or test-span index).
    enum Frame {
        Fn(usize),
        TestRegion(usize),
        Other,
    }
    let mut frames: Vec<Frame> = Vec::new();
    let mut depth: u32 = 0;

    // Pending attribute state: set when `#[...]` items are seen, consumed
    // by the next `fn`/`mod`/`impl` keyword, cleared by statement tokens.
    let mut pending_test_attr = false;
    let mut pending_cfg_test = false;
    let mut inherited_test = 0usize; // nesting count of test regions

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        match &t.kind {
            TokenKind::Punct('#') => {
                // Attribute: `#[...]` or `#![...]`. Collect its tokens.
                let mut j = i + 1;
                if tokens.get(j).is_some_and(|t| t.is_punct('!')) {
                    j += 1;
                }
                if tokens.get(j).is_some_and(|t| t.is_punct('[')) {
                    let mut bdepth = 0i32;
                    let start = j;
                    while j < tokens.len() {
                        if tokens[j].is_punct('[') {
                            bdepth += 1;
                        } else if tokens[j].is_punct(']') {
                            bdepth -= 1;
                            if bdepth == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                    let attr: Vec<&str> =
                        tokens[start..=j.min(tokens.len() - 1)].iter().filter_map(|t| t.ident()).collect();
                    match attr.first().copied() {
                        Some("test") | Some("bench") => pending_test_attr = true,
                        Some("cfg") | Some("cfg_attr") if attr.contains(&"test") => {
                            pending_cfg_test = true
                        }
                        _ => {}
                    }
                    i = j + 1;
                    continue;
                }
                i += 1;
            }
            TokenKind::Ident(kw) if kw == "fn" => {
                // Find the name, then the body `{` (or `;` for a bodiless
                // signature). Between `)` and `{` there may be `-> T` and
                // where clauses; none of those contain braces in this
                // codebase's style, so the next `{` at paren depth 0 is
                // the body.
                let name = tokens.get(i + 1).and_then(|t| t.ident()).unwrap_or("").to_string();
                let start_line = t.line;
                let mut j = i + 1;
                let mut pdepth = 0i32;
                let mut body = None;
                while j < tokens.len() {
                    match tokens[j].kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') => pdepth += 1,
                        TokenKind::Punct(')') | TokenKind::Punct(']') => pdepth -= 1,
                        TokenKind::Punct('{') if pdepth == 0 => {
                            body = Some(j);
                            break;
                        }
                        TokenKind::Punct(';') if pdepth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let is_test = pending_test_attr || pending_cfg_test || inherited_test > 0;
                pending_test_attr = false;
                pending_cfg_test = false;
                if let Some(body_start) = body {
                    functions.push(Function {
                        name,
                        start_line,
                        end_line: 0,
                        body_start,
                        body_end: 0,
                        is_test,
                    });
                    // Fast-forward to the body brace; the `{` case below
                    // will push the frame.
                    frames.push(Frame::Fn(functions.len() - 1));
                    depth += 1;
                    i = body_start + 1;
                    continue;
                }
                i = j + 1;
            }
            TokenKind::Ident(kw) if kw == "mod" || kw == "impl" || kw == "trait" => {
                // A `#[cfg(test)] mod`/`impl` opens a test region at its
                // body brace.
                let want_test_region = pending_cfg_test;
                pending_test_attr = false;
                pending_cfg_test = false;
                let start_line = t.line;
                let mut j = i + 1;
                let mut pdepth = 0i32;
                while j < tokens.len() {
                    match tokens[j].kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') => pdepth += 1,
                        TokenKind::Punct(')') | TokenKind::Punct(']') => pdepth -= 1,
                        TokenKind::Punct('{') if pdepth == 0 => break,
                        TokenKind::Punct(';') if pdepth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if tokens.get(j).map(|t| t.is_punct('{')).unwrap_or(false) {
                    if want_test_region {
                        test_spans.push((start_line, u32::MAX));
                        frames.push(Frame::TestRegion(test_spans.len() - 1));
                        inherited_test += 1;
                    } else {
                        frames.push(Frame::Other);
                    }
                    depth += 1;
                    i = j + 1;
                    continue;
                }
                i = j + 1;
            }
            TokenKind::Punct('{') => {
                frames.push(Frame::Other);
                depth += 1;
                i += 1;
            }
            TokenKind::Punct('}') => {
                match frames.pop() {
                    Some(Frame::Fn(fi)) => {
                        functions[fi].end_line = t.line;
                        functions[fi].body_end = i;
                    }
                    Some(Frame::TestRegion(si)) => {
                        test_spans[si].1 = t.line;
                        inherited_test = inherited_test.saturating_sub(1);
                    }
                    _ => {}
                }
                depth = depth.saturating_sub(1);
                i += 1;
            }
            TokenKind::Ident(kw)
                if matches!(
                    kw.as_str(),
                    "pub" | "unsafe" | "const" | "extern" | "async" | "default" | "crate"
                ) =>
            {
                // Visibility/qualifier tokens between attributes and the
                // item keyword: keep pending attrs alive.
                i += 1;
            }
            TokenKind::Punct('(') | TokenKind::Punct(')') | TokenKind::Lit => {
                // `pub(crate)` parens and doc strings: neutral.
                i += 1;
            }
            _ => {
                // Any other statement token: pending attrs belong to
                // something we don't model (struct, use, let...) — drop
                // them. (`#[cfg(test)]` on a `use` must not leak onto the
                // next fn.)
                pending_test_attr = false;
                pending_cfg_test = false;
                i += 1;
            }
        }
    }

    // Unterminated frames (shouldn't happen on compiling code): close at
    // the last line.
    let last_line = tokens.last().map(|t| t.line).unwrap_or(1);
    for f in &mut functions {
        if f.end_line == 0 {
            f.end_line = last_line;
            f.body_end = tokens.len().saturating_sub(1);
        }
    }
    for s in &mut test_spans {
        if s.1 == u32::MAX {
            s.1 = last_line;
        }
    }
    (functions, test_spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_spans_and_names() {
        let f = SourceFile::parse(
            "x.rs",
            "pub fn alpha(x: u32) -> u32 {\n    x + 1\n}\n\nfn beta() {\n    let y = 2;\n}\n",
        );
        let names: Vec<&str> = f.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta"]);
        assert_eq!(f.functions[0].start_line, 1);
        assert_eq!(f.functions[0].end_line, 3);
        assert_eq!(f.functions[1].start_line, 5);
        assert_eq!(f.enclosing_fn(6).unwrap().name, "beta");
    }

    #[test]
    fn nested_fn_resolves_to_innermost() {
        let f = SourceFile::parse(
            "x.rs",
            "fn outer() {\n    fn inner() {\n        let a = 1;\n    }\n    let b = 2;\n}\n",
        );
        assert_eq!(f.enclosing_fn(3).unwrap().name, "inner");
        assert_eq!(f.enclosing_fn(5).unwrap().name, "outer");
    }

    #[test]
    fn cfg_test_region_marks_functions() {
        let f = SourceFile::parse(
            "x.rs",
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { prod(); }\n    fn helper() {}\n}\n",
        );
        assert!(!f.functions.iter().find(|x| x.name == "prod").unwrap().is_test);
        assert!(f.functions.iter().find(|x| x.name == "t").unwrap().is_test);
        assert!(f.functions.iter().find(|x| x.name == "helper").unwrap().is_test);
        assert!(f.in_test_code(5));
        assert!(!f.in_test_code(1));
    }

    #[test]
    fn cfg_test_fn_without_mod() {
        let f = SourceFile::parse("x.rs", "#[cfg(test)]\npub(crate) fn probe_helper() {}\nfn real() {}\n");
        assert!(f.functions.iter().find(|x| x.name == "probe_helper").unwrap().is_test);
        assert!(!f.functions.iter().find(|x| x.name == "real").unwrap().is_test);
    }

    #[test]
    fn cfg_test_on_use_does_not_leak() {
        let f = SourceFile::parse("x.rs", "#[cfg(test)]\nuse std::fmt;\nfn real() {}\n");
        assert!(!f.functions.iter().find(|x| x.name == "real").unwrap().is_test);
    }

    #[test]
    fn directives_parse_with_justification() {
        let f = SourceFile::parse(
            "x.rs",
            "// ccsort-lints: allow(divergent_barrier) -- fault injection needs it\nfn x() {}\n// ccsort-lints: allow-file(nondeterministic_iteration): lookup-only map\n",
        );
        assert_eq!(f.directives.len(), 2);
        assert_eq!(f.directives[0].lint, "divergent_barrier");
        assert!(!f.directives[0].file_level);
        assert!(f.directives[0].justification.contains("fault injection"));
        assert!(f.directives[1].file_level);
    }

    #[test]
    fn malformed_directive_is_recorded_empty() {
        let f = SourceFile::parse("x.rs", "// ccsort-lints: allowthing\n");
        assert_eq!(f.directives.len(), 1);
        assert!(f.directives[0].lint.is_empty());
    }

    #[test]
    fn call_vs_definition() {
        let f = SourceFile::parse("x.rs", "fn barrier() { other.barrier(); barrier; }\n");
        // Token layout: fn barrier ( ) { other . barrier ( ) ; barrier ; }
        let idxs: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("barrier"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(idxs.len(), 3);
        assert!(!f.is_call(idxs[0]), "definition is not a call");
        assert!(f.is_call(idxs[1]), "method call is a call");
        assert!(!f.is_call(idxs[2]), "bare path is not a call");
    }

    #[test]
    fn turbofish_call_is_a_call() {
        let f = SourceFile::parse(
            "x.rs",
            "fn f() { self.walk::<true>(a); walk::<Vec<u8>, _>(b); walk::<true>; }\n",
        );
        let calls: Vec<bool> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("walk"))
            .map(|(i, _)| f.is_call(i))
            .collect();
        assert_eq!(calls, [true, true, false], "method, nested generics, bare path");
    }

    #[test]
    fn trait_method_signatures_without_bodies_are_skipped() {
        let f = SourceFile::parse(
            "x.rs",
            "trait T {\n    fn sig(&self);\n    fn with_body(&self) { self.sig(); }\n}\n",
        );
        let names: Vec<&str> = f.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_body"]);
    }
}
