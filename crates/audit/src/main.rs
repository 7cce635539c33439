//! `ccsort-audit` — conformance sweeps and failure replay.
//!
//! ```text
//! cargo run -p ccsort-audit -- sweep [--quick] [--seed S] [--races]
//! cargo run -p ccsort-audit -- races [--quick] [--seed S]
//! cargo run -p ccsort-audit -- replay --alg NAME|all --dist NAME \
//!     --n N --p P --r R --seed S [--scale K] [--proto inv|upd]
//! ```
//!
//! `sweep` exits non-zero if any point fails; every failure line embeds the
//! exact `replay` invocation that reproduces it. `races` (equivalently
//! `sweep --races`) restricts the grid to the eleven simulator programs and
//! runs them with the happens-before race detector on, asserting every
//! point is race-free — the simulator-only half of the sweep, so it skips
//! the threaded sorts and the distribution validator. A flag a subcommand
//! does not take is a usage error (exit 2), never silently ignored.

use ccsort_audit::{audit_point, audit_simulated, validate_dist, Point};
use ccsort_algos::{Algorithm, Dist, ProtocolMode};
use ccsort_parallel::{default_workers, par_map};

/// Expand the (points × processor counts × distributions) grid in the
/// canonical print order. Cells are independent — each audit builds its own
/// seeded machine — so the sweeps evaluate them on one thread per core and
/// print the collected results sequentially, keeping stdout byte-identical
/// to a sequential loop regardless of worker count.
fn grid(points: &[(usize, u32, u64)], ps: &[usize]) -> Vec<Point> {
    let mut cells = Vec::new();
    for &(n, r, seed) in points {
        for &p in ps {
            for dist in Dist::ALL {
                cells.push(Point { dist, n, p, r, seed, ..default_point() });
            }
        }
    }
    cells
}

/// The all-defaults point the grids specialise: the invalidate protocol
/// at the sweeps' standard scale.
fn default_point() -> Point {
    Point {
        dist: Dist::Random,
        n: 1 << 10,
        p: 8,
        r: 6,
        seed: 0,
        scale: 256,
        proto: ProtocolMode::Invalidate,
    }
}

/// Cells past the real machine's 64 processors, where the full-map
/// directory spans more than one word, one distribution each (the audit
/// checks invariants and output, not statistics). `--quick` keeps only the
/// p = 128 cell CI runs.
fn large_p_cells(quick: bool, seed: u64) -> Vec<Point> {
    let base = Point { seed, ..default_point() };
    let mut cells = vec![Point { p: 128, ..base }];
    if !quick {
        cells.push(Point { dist: Dist::Stagger, p: 256, ..base });
    }
    cells
}

/// Dragon update cells, through the same oracle as everything else.
/// `--quick` keeps one; the full sweep adds an odd processor count and
/// the machine-sized p = 64.
fn mode_cells(quick: bool, seed: u64) -> Vec<Point> {
    let base = Point { seed, proto: ProtocolMode::DragonUpdate, ..default_point() };
    let mut cells = vec![base];
    if !quick {
        cells.push(Point { dist: Dist::Stagger, p: 7, ..base });
        cells.push(Point { p: 64, ..base });
    }
    cells
}

/// Run `audit` over every cell in parallel, then print the per-cell status
/// lines in grid order and return the flattened failure list.
fn run_grid<F>(cells: &[Point], audit: F) -> Vec<String>
where
    F: Fn(&Point) -> Vec<String> + Sync,
{
    let results = par_map(default_workers(), cells, &audit);
    let mut failures = Vec::new();
    for (pt, errs) in cells.iter().zip(&results) {
        let status = if errs.is_empty() { "ok" } else { "FAIL" };
        let mut modes = String::new();
        if pt.proto != ProtocolMode::Invalidate {
            modes.push_str(&format!(" proto={}", Point::proto_flag(pt.proto)));
        }
        println!(
            "{status:>4}  {} n={} p={} r={} seed={}{modes}",
            pt.dist.name(),
            pt.n,
            pt.p,
            pt.r,
            pt.seed
        );
        failures.extend(errs.iter().cloned());
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("sweep") if args[1..].iter().any(|a| a == "--races") => races(&args[1..]),
        Some("sweep") => sweep(&args[1..]),
        Some("races") => races(&args[1..]),
        Some("replay") => replay(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  ccsort-audit sweep [--quick] [--seed S] [--races]\n  \
                 ccsort-audit races [--quick] [--seed S]\n  \
                 ccsort-audit replay --alg NAME|all --dist NAME --n N --p P --r R --seed S \
                 [--scale K] [--proto inv|upd]"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Check `args` against the flags a subcommand knows: `valued` flags take
/// the next argument, `bare` ones stand alone. Anything else — a misspelt
/// flag, one a subcommand does not take, a stray value, a valued flag with
/// no value — exits 2 naming it.
fn check_flags(args: &[String], valued: &[&str], bare: &[&str]) {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let takes_value = valued.contains(&a.as_str());
        if !takes_value && !bare.contains(&a.as_str()) {
            eprintln!("unknown flag {a}");
            std::process::exit(2);
        }
        if takes_value && it.next().is_none() {
            eprintln!("missing value for flag {a}");
            std::process::exit(2);
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_or_exit<T: std::str::FromStr>(args: &[String], name: &str, default: Option<T>) -> T {
    match flag_value(args, name) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for {name}: {v}");
            std::process::exit(2);
        }),
        None => default.unwrap_or_else(|| {
            eprintln!("missing required flag {name}");
            std::process::exit(2);
        }),
    }
}

/// The acceptance grid: every algorithm, every distribution, power-of-two
/// and odd processor counts. `--quick` keeps one (n, r) point per cell;
/// the full sweep adds a larger n, a wider radix and a second seed.
fn sweep(args: &[String]) -> i32 {
    check_flags(args, &["--seed"], &["--quick", "--races"]);
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = parse_or_exit(args, "--seed", Some(0));
    let ps = [1usize, 3, 4, 7, 8, 16];
    let points: Vec<(usize, u32, u64)> = if quick {
        vec![(1 << 10, 6, seed)]
    } else {
        vec![(1 << 10, 6, seed), (1 << 12, 8, seed), (1 << 10, 6, seed.wrapping_add(271828))]
    };

    let cells = grid(&points, &ps);
    let mut checked = cells.len();
    let mut failures = run_grid(&cells, |pt| {
        let mut errs = validate_dist(pt.dist, pt.n, pt.p, pt.r, pt.seed);
        // The old zero-fill bug only bit when p ∤ n; always probe a
        // small non-divisible companion point too.
        if pt.n % pt.p == 0 && pt.p > 1 {
            errs.extend(validate_dist(pt.dist, pt.n + pt.p / 2, pt.p, pt.r, pt.seed));
        }
        errs.extend(audit_point(pt, &Algorithm::ALL));
        errs
    });

    // Large-p cells (p > 64): simulator-only — the threaded sorts have no
    // directory, and one radix + one sample program exercise every
    // multi-word sharer-set path the full program matrix would.
    let large = large_p_cells(quick, seed);
    checked += large.len();
    failures.extend(run_grid(&large, |pt| {
        audit_simulated(pt, &[Algorithm::RadixCcsas, Algorithm::SampleCcsas])
    }));

    // Dragon cells: all eleven programs under the update protocol (the
    // threaded sorts ride along — they ignore the protocol, but their
    // outputs still cross-check the simulated ones).
    let modes = mode_cells(quick, seed);
    checked += modes.len();
    failures.extend(run_grid(&modes, |pt| audit_point(pt, &Algorithm::ALL)));

    if failures.is_empty() {
        println!("sweep clean: {checked} points, all implementations agree, all invariants hold");
        0
    } else {
        eprintln!("\n{} violation(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        1
    }
}

/// The race matrix: every simulator program, every distribution, every
/// processor count, with the happens-before detector on (it is part of
/// `run_experiment_audited`, so [`audit_simulated`] already collects race
/// reports as violations). Asserting zero races here is what lets the
/// timing model trust its bulk-synchronous schedule: a racy program would
/// still sort correctly under the deterministic interleaving, but its
/// phase times would be fiction.
fn races(args: &[String]) -> i32 {
    check_flags(args, &["--seed"], &["--quick", "--races"]);
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = parse_or_exit(args, "--seed", Some(0));
    let ps = [1usize, 3, 4, 7, 8, 16];
    let points: Vec<(usize, u32, u64)> = if quick {
        vec![(1 << 10, 6, seed)]
    } else {
        vec![(1 << 10, 6, seed), (1 << 12, 8, seed), (1 << 10, 6, seed.wrapping_add(271828))]
    };

    let cells = grid(&points, &ps);
    let mut checked = cells.len();
    let mut failures = run_grid(&cells, |pt| audit_simulated(pt, &Algorithm::ALL));

    // The race matrix also covers the multi-word directory at large p.
    let large = large_p_cells(quick, seed);
    checked += large.len();
    failures.extend(run_grid(&large, |pt| {
        audit_simulated(pt, &[Algorithm::RadixCcsas, Algorithm::SampleCcsas])
    }));

    // ... and the Dragon cells: update multicasts must neither introduce
    // nor mask races.
    let modes = mode_cells(quick, seed);
    checked += modes.len();
    failures.extend(run_grid(&modes, |pt| audit_simulated(pt, &Algorithm::ALL)));

    if failures.is_empty() {
        println!("race sweep clean: {checked} points, all simulator programs race-free");
        0
    } else {
        eprintln!("\n{} violation(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        1
    }
}

/// Re-run one point from a failure artifact.
fn replay(args: &[String]) -> i32 {
    check_flags(args, &["--alg", "--dist", "--n", "--p", "--r", "--seed", "--scale", "--proto"], &[]);
    let alg_name = flag_value(args, "--alg").unwrap_or("all");
    let dist_name = flag_value(args, "--dist").unwrap_or_else(|| {
        eprintln!("missing required flag --dist");
        std::process::exit(2);
    });
    let Some(dist) = Dist::parse(dist_name) else {
        eprintln!("unknown distribution {dist_name}");
        return 2;
    };
    let algs: Vec<Algorithm> = if alg_name == "all" {
        Algorithm::ALL.to_vec()
    } else {
        match Algorithm::parse(alg_name) {
            Ok(a) => vec![a],
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    };
    let proto = match flag_value(args, "--proto").map(Point::parse_proto_flag).transpose() {
        Ok(pr) => pr.unwrap_or_default(),
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let pt = Point {
        dist,
        n: parse_or_exit(args, "--n", None),
        p: parse_or_exit(args, "--p", None),
        r: parse_or_exit(args, "--r", None),
        seed: parse_or_exit(args, "--seed", None),
        scale: parse_or_exit(args, "--scale", Some(256)),
        proto,
    };
    if pt.p < 1 || pt.n < pt.p {
        eprintln!("need --p >= 1 and --n >= --p (got n={} p={})", pt.n, pt.p);
        return 2;
    }
    // Route the full config validation (machine caps, radix width, the
    // scaled machine) through the Result path so a bad replay invocation is
    // a usage error (exit 2) with the offending field named, not a panic.
    if let Err(e) = ccsort_algos::ExpConfig::new(algs[0], pt.n, pt.p)
        .radix_bits(pt.r)
        .scale(pt.scale)
        .protocol(pt.proto)
        .validate()
    {
        eprintln!("invalid replay point: {e}");
        return 2;
    }

    let mut errs = validate_dist(pt.dist, pt.n, pt.p, pt.r, pt.seed);
    errs.extend(audit_point(&pt, &algs));
    if errs.is_empty() {
        println!("replay clean: {}", pt.replay_command(None));
        0
    } else {
        eprintln!("{} violation(s):", errs.len());
        for e in &errs {
            eprintln!("  {e}");
        }
        1
    }
}
