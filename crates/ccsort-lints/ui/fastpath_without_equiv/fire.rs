// Compile-fail fixture for `fastpath_without_equiv`: fast-path internals
// used by an entry point that carries no sampled reference replay.

struct Cache;
impl Cache {
    fn probe_fast_ext(&mut self) {}
    fn install_fast(&mut self) {}
}

// A second loop over the twins with no equiv_reference replay anywhere in
// its body: every internal it touches fires.
fn new_strided_entry(c: &mut Cache) {
    c.probe_fast_ext(); //~ fastpath_without_equiv
    c.install_fast(); //~ fastpath_without_equiv
}

// A `walk` that lost its sampler no longer vouches for its callers — and a
// turbofish does not hide the call.
fn walk<const WRITE: bool>(c: &mut Cache) {
    c.probe_fast_ext();
}

fn touch_run(c: &mut Cache) {
    walk::<true>(c); //~ fastpath_without_equiv
}
