//! The conformance grid: every simulated program and every threaded sort,
//! on every distribution and processor count, through the differential
//! oracle (`ccsort_audit::audit_point`: sorted output, machine invariants
//! audited at every phase boundary, the race detector on), and every
//! distribution through its shape validator.
//!
//! A failing point prints the program (a simulated one as its `Algorithm`
//! variant) and the point as a `Point { .. }` literal. Paste it into a one-line test to replay it, as
//! `check_case` replays a seed:
//!
//! ```ignore
//! #[test]
//! fn replay() {
//!     assert_eq!(audit_point(&Point { dist: Dist::Stagger, n: 64, p: 7, r: 6, seed: 0, scale: 256, proto: ProtocolMode::Invalidate }, &[Algorithm::RadixCcsas]), Vec::<String>::new());
//! }
//! ```

use ccsort::algos::{Algorithm, Dist, ProtocolMode};
use ccsort::parallel::{default_workers, par_map};
use ccsort_audit::{audit_point, validate_dist, Point};

/// The grid's defaults: n = 2^10, r = 6, seed 0, the sweeps' standard
/// scale and the invalidate protocol.
const BASE: Point = Point {
    dist: Dist::Random,
    n: 1 << 10,
    p: 8,
    r: 6,
    seed: 0,
    scale: 256,
    proto: ProtocolMode::Invalidate,
};

/// Every distribution × p ∈ {1, 3, 4, 7, 8, 16} at each `(n, r, seed)`.
fn grid(points: &[(usize, u32, u64)]) -> Vec<Point> {
    let mut cells = Vec::new();
    for &(n, r, seed) in points {
        for p in [1, 3, 4, 7, 8, 16] {
            for dist in Dist::ALL {
                cells.push(Point { dist, n, p, r, seed, ..BASE });
            }
        }
    }
    cells
}

/// The distribution validator (plus a p ∤ n companion point: the old
/// zero-fill bug only bit when p ∤ n) and the oracle on one cell.
fn audit_cell(pt: &Point) -> Vec<String> {
    let mut errs = validate_dist(pt.dist, pt.n, pt.p, pt.r, pt.seed);
    if pt.n.is_multiple_of(pt.p) && pt.p > 1 {
        errs.extend(validate_dist(pt.dist, pt.n + pt.p / 2, pt.p, pt.r, pt.seed));
    }
    errs.extend(audit_point(pt, &Algorithm::ALL));
    errs
}

/// Audit every cell on one worker per core (each builds its own seeded
/// machine); panic listing every violation.
fn assert_clean(cells: &[Point]) {
    let failures = par_map(default_workers(), cells, audit_cell).concat();
    assert!(
        failures.is_empty(),
        "{} violation(s) over {} points:\n  {}",
        failures.len(),
        cells.len(),
        failures.join("\n  ")
    );
}

/// 48 grid cells, the n = 64, p = 7 Stagger case the simulator properties
/// once shrank to, and one Dragon cell.
#[test]
fn quick_grid_is_clean() {
    let mut cells = grid(&[(1 << 10, 6, 0)]);
    cells.push(Point { dist: Dist::Stagger, n: 64, p: 7, ..BASE });
    cells.push(Point { proto: ProtocolMode::DragonUpdate, ..BASE });
    assert_clean(&cells);
}

/// The quick grid plus a larger n with a wider radix, a second seed, and
/// Dragon at an odd p and at the machine's 64 processors. Release:
/// `cargo test --release --test conformance -- --ignored`.
#[test]
#[ignore = "full grid; run in release with --ignored"]
fn full_grid_is_clean() {
    let mut cells = grid(&[(1 << 10, 6, 0), (1 << 12, 8, 0), (1 << 10, 6, 271828)]);
    cells.push(Point { dist: Dist::Stagger, n: 64, p: 7, ..BASE });
    let dragon = Point { proto: ProtocolMode::DragonUpdate, ..BASE };
    cells.extend([dragon, Point { dist: Dist::Stagger, p: 7, ..dragon }, Point { p: 64, ..dragon }]);
    assert_clean(&cells);
}

// `scale: 3` is a machine the simulator rejects, so every simulated run at
// these points fails and prints its point.
#[rustfmt::skip]
const BROKEN_INVALIDATE: Point = Point { dist: Dist::Stagger, n: 64, p: 7, r: 6, seed: 0, scale: 3, proto: ProtocolMode::Invalidate };
#[rustfmt::skip]
const BROKEN_DRAGON: Point = Point { dist: Dist::Zero, n: 1024, p: 16, r: 6, seed: 271828, scale: 3, proto: ProtocolMode::DragonUpdate };

/// A failure names its program and quotes its point exactly as the literal
/// that built it is written here, so the pasted line compiles and replays it.
#[test]
fn a_failure_quotes_its_point_as_source() {
    let source = include_str!("conformance.rs");
    for (name, pt) in [("BROKEN_INVALIDATE", BROKEN_INVALIDATE), ("BROKEN_DRAGON", BROKEN_DRAGON)] {
        let errs = audit_point(&pt, &[Algorithm::RadixCcsas]);
        assert_eq!(errs.len(), 1, "{errs:?}");
        let literal = errs[0]
            .strip_prefix("Algorithm::RadixCcsas at ")
            .and_then(|rest| rest.find(" }: ").map(|end| &rest[..end + 2]))
            .unwrap_or_else(|| panic!("no program and point in {:?}", errs[0]));
        assert!(source.contains(&format!("const {name}: Point = {literal};")), "{literal}");
    }
}
