//! Positional-argument parsing shared by the examples.

/// Positional argument `i` as a count, `default` when absent. A value that
/// does not parse is a usage error: exit 2 naming `name`.
pub(crate) fn count_arg(i: usize, name: &str, default: usize) -> usize {
    let Some(s) = std::env::args().nth(i) else { return default };
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid {name}: {s:?} is not a non-negative integer");
        std::process::exit(2)
    })
}
