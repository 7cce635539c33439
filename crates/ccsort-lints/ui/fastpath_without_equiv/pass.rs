// Compile-pass fixture for `fastpath_without_equiv`: the sanctioned shape —
// one walk that holds the replay and composes the cache-level internals
// beneath it, and entry points that feed it lines.

struct Cache;
impl Cache {
    fn probe_fast_ext(&mut self) {}
    fn install_fast(&mut self) {}
}

fn equiv_reference(_c: &Cache) -> u32 {
    0
}

// The walk is the equivalence boundary: it carries the sampled replay.
fn walk<const WRITE: bool>(c: &mut Cache, lines: impl Iterator<Item = u64>) {
    let reference = equiv_reference(c);
    for _ in lines {
        c.probe_fast_ext();
        c.install_fast();
    }
    assert_eq!(reference, 0);
}

// A new access shape is a new line iterator handed to the walk: the
// discipline travels with the callee, turbofish or not.
fn touch_run(c: &mut Cache) {
    walk::<true>(c, 0..4);
}

fn gather_run(c: &mut Cache, idxs: &[u64]) {
    walk::<false>(c, idxs.iter().map(|&i| i / 32));
}
