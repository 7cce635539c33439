//! The machine-invariant auditor must catch deliberately injected protocol
//! bugs — the audit layer's own acceptance test. `inject_stale_sharer`
//! plants exactly the state a coherence bug that skips an invalidation
//! would leave behind (a Shared copy the directory knows nothing about,
//! coexisting with another processor's Modified line) and `Machine::audit`
//! must flag it.

use ccsort::algos::dist::{generate, Dist};
use ccsort::algos::{load_keys, Algorithm, SamplingStrategy};
use ccsort::machine::{Machine, MachineConfig, Placement};

#[test]
fn audit_is_clean_after_a_real_sort() {
    let n = 1 << 11;
    let p = 4;
    let mut m = Machine::new(MachineConfig::origin2000(p).scaled_down(256));
    let keys = load_keys(&mut m, &generate(Dist::Stagger, n, p, 8, 0));
    Algorithm::RadixCcsas.sort(&mut m, keys, n, 8, SamplingStrategy::default());
    assert_eq!(m.audit(), Vec::<String>::new());
}

#[test]
fn audit_catches_injected_skipped_invalidation() {
    let p = 4;
    let mut m = Machine::new(MachineConfig::origin2000(p).scaled_down(256));
    let a = m.alloc(256, Placement::Node(0), "a");
    // PEs 1 and 2 share the line, then PE 0's write invalidates both.
    m.read_at(1, a, 0);
    m.read_at(2, a, 0);
    m.write_at(0, a, 0, 7);
    assert!(m.audit().is_empty(), "correct protocol leaves a clean machine");
    // A protocol bug that skipped PE 2's invalidation leaves its stale
    // Shared copy in place; the audit must see it.
    m.inject_stale_sharer(2, a, 0);
    let errs = m.audit();
    assert!(!errs.is_empty(), "audit missed the injected coherence bug");
    assert!(
        errs.iter().any(|e| e.contains("absent from sharer set")),
        "unexpected violation set: {errs:?}"
    );
}

#[test]
fn copy_untimed_invalidates_other_pes_stale_destination_copies() {
    // Regression: `copy_untimed` mutates the backing store, so another
    // processor's cached copy of a destination line is stale afterwards —
    // it used to stay resident, and a later timed read there was accounted
    // as a hit on data the modelled hardware could never have delivered.
    let p = 4;
    let mut m = Machine::new(MachineConfig::origin2000(p).scaled_down(256));
    m.set_section_audit(true);
    m.section("setup");
    let src = m.alloc(256, Placement::Node(0), "src");
    let dst = m.alloc(256, Placement::Node(0), "dst");
    m.raw_mut(src)[0] = 99;
    m.write_at(0, dst, 0, 1); // initiator holds the dst line Modified
    m.read_at(1, dst, 4); // PE 1 caches the same dst line (Shared)
    m.section("copy");
    #[expect(clippy::disallowed_methods, reason = "the call under test")]
    m.copy_untimed(0, src, 0, dst, 0, 32);
    assert_eq!(m.raw(dst)[0], 99);
    // PE 1's stale copy must be gone: its re-read misses.
    let misses = m.events(1).misses();
    m.read_at(1, dst, 4);
    assert!(m.events(1).misses() > misses, "stale copy survived copy_untimed");
    // The initiator performed the writes, so its own Modified copy is
    // exactly right and must survive: its re-read hits.
    let misses0 = m.events(0).misses();
    m.read_at(0, dst, 0);
    assert_eq!(m.events(0).misses(), misses0, "initiator's copy must stay cached");
    // And the phase boundary's full audit agrees the machine is healthy.
    m.section("after");
    assert_eq!(m.audit(), Vec::<String>::new());
}

#[test]
fn section_audit_mode_catches_corruption_at_phase_boundary() {
    let mut m = Machine::new(MachineConfig::origin2000(2).scaled_down(256));
    m.set_section_audit(true);
    let a = m.alloc(256, Placement::Node(0), "a");
    m.section("compute");
    m.write_at(0, a, 0, 1);
    m.inject_stale_sharer(1, a, 0);
    let boundary = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        m.section("exchange");
    }));
    assert!(boundary.is_err(), "per-section audit must panic on the corrupted machine");
}
