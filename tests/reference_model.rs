//! An independent model of the simulated machine's event counts.
//!
//! `Model` is written from the machine rules of DESIGN.md §10 and shares
//! no code with `crates/machine`: a cache set is an MRU-first list, the
//! TLB a slot array with a clock hand, the directory one enum per line.
//! Every test drives a `Model` and a `Machine` with one op list through
//! the machine's public API and asserts, after every op, that each PE's
//! `EventCounters` equal the model's field by field and that every read
//! returns the model's data.

use ccsort_machine::{
    ArrayId, CacheGeom, EventCounters, Machine, MachineConfig, Placement, ProtocolMode,
};
use ccsort_rng::SplitMix64;

// ---------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Shared,
    Exclusive,
    Modified,
}

/// One cache level: every set lists its lines MRU first (rule 3).
struct Level {
    sets: Vec<Vec<(u64, St)>>,
    ways: usize,
    /// Log2 of lines per page when physically indexed.
    page_shift: Option<u32>,
}

impl Level {
    fn new(geom: CacheGeom, page_shift: Option<u32>) -> Self {
        let sets = geom.size / geom.line / geom.assoc;
        Level { sets: vec![Vec::new(); sets], ways: geom.assoc, page_shift }
    }

    fn set_of(&self, line: u64) -> usize {
        let frame = self.page_shift.map_or(0, |shift| {
            let h = (line >> shift).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^ (h >> 32)
        });
        ((line ^ frame) % self.sets.len() as u64) as usize
    }

    fn pos(&self, line: u64) -> Option<(usize, usize)> {
        let s = self.set_of(line);
        self.sets[s].iter().position(|w| w.0 == line).map(|i| (s, i))
    }

    /// Look `line` up, making it MRU when present.
    fn lookup(&mut self, line: u64) -> Option<St> {
        let (s, i) = self.pos(line)?;
        let way = self.sets[s].remove(i);
        self.sets[s].insert(0, way);
        Some(way.1)
    }

    fn restate(&mut self, line: u64, st: St) {
        if let Some((s, i)) = self.pos(line) {
            self.sets[s][i].1 = st;
        }
    }

    fn remove(&mut self, line: u64) -> Option<St> {
        let (s, i) = self.pos(line)?;
        Some(self.sets[s].remove(i).1)
    }

    /// The LRU line of `line`'s set, if the set is full.
    fn lru_if_full(&self, line: u64) -> Option<(u64, St)> {
        let set = &self.sets[self.set_of(line)];
        (set.len() == self.ways).then(|| set[set.len() - 1])
    }

    /// Insert `line` as MRU; returns the line a full set pushes out.
    fn insert(&mut self, line: u64, st: St) -> Option<(u64, St)> {
        assert!(self.pos(line).is_none(), "model: line {line} inserted twice");
        let (ways, s) = (self.ways, self.set_of(line));
        let set = &mut self.sets[s];
        set.insert(0, (line, st));
        (set.len() > ways).then(|| set.pop().unwrap())
    }
}

/// Clock (second-chance) TLB (rule 4).
struct Tlb {
    slots: Vec<Option<u64>>,
    referenced: Vec<bool>,
    hand: usize,
    last: Option<u64>,
}

impl Tlb {
    /// Whether the access hits.
    fn access(&mut self, page: u64) -> bool {
        if self.last == Some(page) {
            return true;
        }
        self.last = Some(page);
        if let Some(i) = self.slots.iter().position(|&s| s == Some(page)) {
            self.referenced[i] = true;
            return true;
        }
        while self.referenced[self.hand] {
            self.referenced[self.hand] = false;
            self.hand = (self.hand + 1) % self.slots.len();
        }
        self.slots[self.hand] = Some(page);
        self.referenced[self.hand] = true;
        self.hand = (self.hand + 1) % self.slots.len();
        false
    }
}

/// A directory entry (rule 5).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Dir {
    Unowned,
    Shared(Vec<usize>),
    Exclusive(usize),
}

impl Dir {
    fn holders(&self) -> Vec<usize> {
        match self {
            Dir::Unowned => Vec::new(),
            Dir::Shared(s) => s.clone(),
            Dir::Exclusive(o) => vec![*o],
        }
    }

    fn join(&mut self, pe: usize) {
        let mut s = self.holders();
        if !s.contains(&pe) {
            s.push(pe);
        }
        *self = Dir::Shared(s);
    }

    fn leave(&mut self, pe: usize) {
        let s: Vec<usize> = self.holders().into_iter().filter(|&q| q != pe).collect();
        assert!(
            !matches!(self, Dir::Exclusive(o) if *o != pe),
            "model: pe {pe} evicts a line pe {:?} owns",
            self
        );
        *self = if s.is_empty() { Dir::Unowned } else { Dir::Shared(s) };
    }
}

struct Pe {
    l1: Level,
    l2: Level,
    tlb: Tlb,
    ev: EventCounters,
}

struct Array {
    base: u64,
    data: Vec<u32>,
}

struct Model {
    dragon: bool,
    procs_per_node: usize,
    line_bytes: u64,
    page_bytes: u64,
    nodes: usize,
    pes: Vec<Pe>,
    arrays: Vec<Array>,
    /// Home node of every page.
    homes: Vec<usize>,
    dir: Vec<Dir>,
}

impl Model {
    fn new(cfg: &MachineConfig) -> Self {
        let lines_per_page = (cfg.page_size / cfg.l2.line) as u64;
        let shift = cfg.physical_cache_indexing.then(|| lines_per_page.trailing_zeros());
        let pes = (0..cfg.n_procs)
            .map(|_| Pe {
                l1: Level::new(cfg.l1, shift),
                l2: Level::new(cfg.l2, shift),
                tlb: Tlb {
                    slots: vec![None; cfg.tlb_entries],
                    referenced: vec![false; cfg.tlb_entries],
                    hand: 0,
                    last: None,
                },
                ev: EventCounters::default(),
            })
            .collect();
        Model {
            dragon: cfg.protocol == ProtocolMode::DragonUpdate,
            procs_per_node: cfg.procs_per_node,
            line_bytes: cfg.l2.line as u64,
            page_bytes: cfg.page_size as u64,
            nodes: cfg.n_procs.div_ceil(cfg.procs_per_node),
            pes,
            arrays: Vec::new(),
            homes: Vec::new(),
            dir: Vec::new(),
        }
    }

    fn node(&self, pe: usize) -> usize {
        pe / self.procs_per_node
    }

    /// Rules 1 and 2.
    fn alloc(&mut self, len: usize, placement: Placement) -> usize {
        let base = self.homes.len() as u64 * self.page_bytes;
        let pages = (len.max(1) as u64 * 4).div_ceil(self.page_bytes);
        for k in 0..pages {
            let global = base / self.page_bytes + k;
            self.homes.push(match placement {
                Placement::Node(n) => n,
                Placement::Interleaved => global as usize % self.nodes,
                Placement::Partitioned { parts } => {
                    let e = (k * self.page_bytes / 4) as usize;
                    self.node((e / len.div_ceil(parts)).min(parts - 1))
                }
            });
        }
        let lines = self.homes.len() as u64 * self.page_bytes / self.line_bytes;
        self.dir.resize(lines as usize, Dir::Unowned);
        self.arrays.push(Array { base, data: vec![0; len] });
        self.arrays.len() - 1
    }

    fn line(&self, arr: usize, idx: usize) -> u64 {
        (self.arrays[arr].base + 4 * idx as u64) / self.line_bytes
    }

    fn home(&self, line: u64) -> usize {
        self.homes[(line * self.line_bytes / self.page_bytes) as usize]
    }

    /// `pe` loses its copies of `line` at both levels.
    fn drop_copies(&mut self, pe: usize, line: u64) {
        self.pes[pe].l1.remove(line);
        self.pes[pe].l2.remove(line);
    }

    fn downgrade(&mut self, pe: usize, line: u64) {
        self.pes[pe].l1.restate(line, St::Shared);
        self.pes[pe].l2.restate(line, St::Shared);
    }

    /// Insert `line` into `pe`'s L2, handling the pushed-out line (rules 5
    /// and 6).
    fn l2_insert(&mut self, pe: usize, line: u64, st: St) {
        if let Some((victim, vst)) = self.pes[pe].l2.insert(line, st) {
            self.pes[pe].l1.remove(victim);
            self.dir[victim as usize].leave(pe);
            if vst == St::Modified {
                self.pes[pe].ev.writebacks += 1;
            }
        }
    }

    /// Every sharer of `line` but `keep` loses its copies; returns how many.
    fn invalidate_others(&mut self, line: u64, keep: Option<usize>) -> u64 {
        let targets: Vec<usize> =
            self.dir[line as usize].holders().into_iter().filter(|&q| Some(q) != keep).collect();
        for &q in &targets {
            self.drop_copies(q, line);
        }
        targets.len() as u64
    }

    /// Rule 6: one line touch.
    fn touch(&mut self, pe: usize, line: u64, write: bool) {
        let page = line * self.line_bytes / self.page_bytes;
        let p = &mut self.pes[pe];
        if !p.tlb.access(page) {
            p.ev.tlb_misses += 1;
        }
        match p.l1.lookup(line) {
            Some(st) if !write || st != St::Shared => {
                if write {
                    p.l1.restate(line, St::Modified);
                    assert!(p.l2.lookup(line).is_some(), "model: L1 line {line} not in L2");
                    p.l2.restate(line, St::Modified);
                }
                p.ev.l1_hits += 1;
                return;
            }
            _ => {}
        }
        match p.l2.lookup(line) {
            Some(st) if !write || st != St::Shared => {
                let st = if write { St::Modified } else { st };
                p.l2.restate(line, st);
                p.ev.cache_hits += 1;
                p.l1.insert(line, st);
            }
            Some(_) => self.upgrade(pe, line),
            None => self.miss(pe, line, write),
        }
    }

    /// Rule 7, a write that found its line Shared in L2.
    fn upgrade(&mut self, pe: usize, line: u64) {
        if self.dragon {
            let n = self.dir[line as usize].holders().iter().filter(|&&q| q != pe).count();
            self.pes[pe].ev.updates += n as u64;
            return;
        }
        let n = self.invalidate_others(line, Some(pe));
        self.dir[line as usize] = Dir::Exclusive(pe);
        let p = &mut self.pes[pe];
        p.l2.restate(line, St::Modified);
        p.l1.restate(line, St::Modified);
        p.ev.invalidations += n;
        p.ev.upgrades += 1;
    }

    /// Rules 6 and 7, an L2 miss.
    fn miss(&mut self, pe: usize, line: u64, write: bool) {
        if let Some((victim, vst)) = self.pes[pe].l2.lru_if_full(line) {
            self.drop_copies(pe, victim);
            self.dir[victim as usize].leave(pe);
            if vst == St::Modified {
                self.pes[pe].ev.writebacks += 1;
            }
        }
        let my_node = self.node(pe);
        let mut remote = self.home(line) != my_node;
        match self.dir[line as usize].clone() {
            Dir::Unowned => self.dir[line as usize] = Dir::Exclusive(pe),
            Dir::Exclusive(o) if o == pe => self.dir[line as usize] = Dir::Exclusive(pe),
            Dir::Shared(_) if !write => self.dir[line as usize].join(pe),
            Dir::Shared(s) if self.dragon => {
                self.pes[pe].ev.updates += s.iter().filter(|&&q| q != pe).count() as u64;
                self.dir[line as usize].join(pe);
            }
            Dir::Shared(_) => {
                let n = self.invalidate_others(line, Some(pe));
                self.pes[pe].ev.invalidations += n;
                self.dir[line as usize] = Dir::Exclusive(pe);
            }
            Dir::Exclusive(o) => {
                self.pes[pe].ev.interventions += 1;
                remote |= self.node(o) != my_node;
                if write && !self.dragon {
                    self.drop_copies(o, line);
                    self.pes[pe].ev.invalidations += 1;
                    self.dir[line as usize] = Dir::Exclusive(pe);
                } else {
                    self.downgrade(o, line);
                    if write {
                        self.pes[pe].ev.updates += 1;
                    }
                    self.dir[line as usize] = Dir::Shared(vec![o, pe]);
                }
            }
        }
        let ev = &mut self.pes[pe].ev;
        if remote {
            ev.misses_remote += 1;
        } else {
            ev.misses_local += 1;
        }
        let shared = matches!(self.dir[line as usize], Dir::Shared(_));
        let st = match (shared, write) {
            (true, true) if self.dragon => St::Shared,
            (_, true) => St::Modified,
            (true, false) => St::Shared,
            (false, false) => St::Exclusive,
        };
        assert!(self.pes[pe].l2.insert(line, st).is_none(), "model: the miss freed no way");
        self.pes[pe].l1.insert(line, st);
    }

    /// Rule 8.
    fn dma(&mut self, pe: usize, src: (usize, usize), dst: (usize, usize), len: usize, install: bool) {
        if len == 0 {
            return;
        }
        let moved = self.arrays[src.0].data[src.1..src.1 + len].to_vec();
        self.arrays[dst.0].data[dst.1..dst.1 + len].copy_from_slice(&moved);
        for line in self.line(src.0, src.1)..=self.line(src.0, src.1 + len - 1) {
            if let Dir::Exclusive(o) = self.dir[line as usize] {
                self.downgrade(o, line);
                self.dir[line as usize] = Dir::Shared(vec![o]);
            }
        }
        for line in self.line(dst.0, dst.1)..=self.line(dst.0, dst.1 + len - 1) {
            let n = self.invalidate_others(line, None);
            self.pes[pe].ev.invalidations += n;
            if install {
                self.dir[line as usize] = Dir::Exclusive(pe);
                self.l2_insert(pe, line, St::Modified);
            } else {
                self.dir[line as usize] = Dir::Unowned;
            }
        }
    }

    /// The lines `[off, off + len)` of `arr` overlap, in address order.
    fn run_lines(&self, arr: usize, off: usize, len: usize) -> std::ops::Range<u64> {
        if len == 0 {
            return 0..0;
        }
        self.line(arr, off)..self.line(arr, off + len - 1) + 1
    }
}

// ---------------------------------------------------------------------
// Driving the machine and the model together
// ---------------------------------------------------------------------

/// One call of the machine's public API; arrays are indices into the
/// pair's allocation list.
#[derive(Debug, Clone)]
enum Op {
    ReadAt { pe: usize, arr: usize, idx: usize },
    WriteAt { pe: usize, arr: usize, idx: usize, val: u32 },
    ReadRun { pe: usize, arr: usize, off: usize, len: usize },
    WriteRun { pe: usize, arr: usize, off: usize, vals: Vec<u32> },
    TouchRun { pe: usize, arr: usize, off: usize, len: usize, write: bool },
    Gather { pe: usize, arr: usize, idxs: Vec<usize> },
    Scatter { pe: usize, arr: usize, idxs: Vec<usize>, vals: Vec<u32> },
    Dma { pe: usize, src: usize, src_off: usize, dst: usize, dst_off: usize, len: usize, install: bool },
    Barrier,
    Section(&'static str),
}

/// A machine and the model, fed the same ops and compared after each.
struct Pair {
    m: Machine,
    model: Model,
    arrays: Vec<ArrayId>,
    ops: usize,
}

fn fields(e: &EventCounters) -> [(&'static str, u64); 12] {
    [
        ("l1_hits", e.l1_hits),
        ("cache_hits", e.cache_hits),
        ("misses_local", e.misses_local),
        ("misses_remote", e.misses_remote),
        ("interventions", e.interventions),
        ("invalidations", e.invalidations),
        ("upgrades", e.upgrades),
        ("updates", e.updates),
        ("writebacks", e.writebacks),
        ("tlb_misses", e.tlb_misses),
        ("messages", e.messages),
        ("message_bytes", e.message_bytes),
    ]
}

impl Pair {
    fn new(cfg: MachineConfig, race: bool) -> Self {
        let model = Model::new(&cfg);
        let mut m = Machine::new(cfg);
        m.set_race_detector(race);
        Pair { m, model, arrays: Vec::new(), ops: 0 }
    }

    fn alloc(&mut self, len: usize, placement: Placement) -> usize {
        self.arrays.push(self.m.alloc(len, placement, "model"));
        self.model.alloc(len, placement)
    }

    /// Apply `op` to both; returns the data it read, after checking it
    /// and every PE's counters against the model.
    fn apply(&mut self, op: Op) -> Vec<u32> {
        self.ops += 1;
        let (m, model, id) = (&mut self.m, &mut self.model, &self.arrays);
        let mut read = Vec::new();
        let mut expect = Vec::new();
        match &op {
            &Op::ReadAt { pe, arr, idx } => {
                read.push(m.read_at(pe, id[arr], idx));
                model.touch(pe, model.line(arr, idx), false);
                expect.push(model.arrays[arr].data[idx]);
            }
            &Op::WriteAt { pe, arr, idx, val } => {
                m.write_at(pe, id[arr], idx, val);
                model.touch(pe, model.line(arr, idx), true);
                model.arrays[arr].data[idx] = val;
            }
            &Op::ReadRun { pe, arr, off, len } => {
                read = vec![0; len];
                m.read_run(pe, id[arr], off, &mut read);
                for line in model.run_lines(arr, off, len) {
                    model.touch(pe, line, false);
                }
                expect.extend_from_slice(&model.arrays[arr].data[off..off + len]);
            }
            Op::WriteRun { pe, arr, off, vals } => {
                m.write_run(*pe, id[*arr], *off, vals);
                for line in model.run_lines(*arr, *off, vals.len()) {
                    model.touch(*pe, line, true);
                }
                model.arrays[*arr].data[*off..*off + vals.len()].copy_from_slice(vals);
            }
            &Op::TouchRun { pe, arr, off, len, write } => {
                m.touch_run(pe, id[arr], off, len, write);
                for line in model.run_lines(arr, off, len) {
                    model.touch(pe, line, write);
                }
            }
            Op::Gather { pe, arr, idxs } => {
                read = vec![0; idxs.len()];
                m.gather_run(*pe, id[*arr], idxs, &mut read);
                for &idx in idxs {
                    model.touch(*pe, model.line(*arr, idx), false);
                    expect.push(model.arrays[*arr].data[idx]);
                }
            }
            Op::Scatter { pe, arr, idxs, vals } => {
                m.scatter_run(*pe, id[*arr], idxs, vals);
                for (&idx, &v) in idxs.iter().zip(vals) {
                    model.touch(*pe, model.line(*arr, idx), true);
                    model.arrays[*arr].data[idx] = v;
                }
            }
            &Op::Dma { pe, src, src_off, dst, dst_off, len, install } => {
                m.dma_copy(pe, id[src], src_off, id[dst], dst_off, len, install);
                model.dma(pe, (src, src_off), (dst, dst_off), len, install);
            }
            Op::Barrier => m.barrier(),
            Op::Section(name) => m.section(name),
        }
        assert_eq!(read, expect, "op {} {op:?}: data read", self.ops);
        for (pe, p) in model.pes.iter().enumerate() {
            let got = m.events(pe);
            for ((name, have), (_, want)) in fields(&got).into_iter().zip(fields(&p.ev)) {
                assert_eq!(have, want, "op {} {op:?}: pe {pe} {name}", self.ops);
            }
        }
        read
    }

    fn events(&self, pe: usize) -> EventCounters {
        self.m.events(pe)
    }

    fn touch_run(&mut self, pe: usize, arr: usize, off: usize, len: usize, write: bool) {
        self.apply(Op::TouchRun { pe, arr, off, len, write });
    }

    fn scatter(&mut self, pe: usize, arr: usize, idxs: &[usize], vals: &[u32]) {
        self.apply(Op::Scatter { pe, arr, idxs: idxs.to_vec(), vals: vals.to_vec() });
    }

    fn gather(&mut self, pe: usize, arr: usize, idxs: &[usize]) -> Vec<u32> {
        self.apply(Op::Gather { pe, arr, idxs: idxs.to_vec() })
    }
}

/// A machine small enough for capacity and conflict misses: a 16-line L1
/// under a 128-line L2, both `assoc`-way, 32-line pages and a 16-entry
/// TLB.
fn small_cfg(p: usize, assoc: usize, physical: bool, protocol: ProtocolMode) -> MachineConfig {
    let mut cfg = MachineConfig::origin2000(p).with_protocol(protocol);
    cfg.l1 = CacheGeom { size: 2 * 1024, assoc, line: 128 };
    cfg.l2 = CacheGeom { size: 16 * 1024, assoc, line: 128 };
    cfg.page_size = 4096;
    cfg.tlb_entries = 16;
    cfg.physical_cache_indexing = physical;
    cfg
}

const PROTOCOLS: [ProtocolMode; 2] = [ProtocolMode::Invalidate, ProtocolMode::DragonUpdate];

// ---------------------------------------------------------------------
// Seeded random mixes
// ---------------------------------------------------------------------

/// `steps` random ops over a partitioned array (one page per PE and
/// more), an array on the last node and an interleaved one: scattered
/// reads and writes, streamed runs with and without data, index batches
/// with duplicates, DMA with and without `install_dst`, barriers and
/// section switches.
fn random_mix(pair: &mut Pair, p: usize, seed: u64, steps: usize) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let nodes = p.div_ceil(2);
    let lens = [1024 * p, 1024, 3000];
    let arrs = [
        pair.alloc(lens[0], Placement::Partitioned { parts: p }),
        pair.alloc(lens[1], Placement::Node(nodes - 1)),
        pair.alloc(lens[2], Placement::Interleaved),
    ];
    for step in 0..steps {
        let pe = rng.random_range(0..p);
        let k = rng.random_range(0..3usize);
        let (arr, len) = (arrs[k], lens[k]);
        let at = |rng: &mut SplitMix64| rng.random_range(0..len);
        let span = |rng: &mut SplitMix64, off: usize| 1 + rng.random_range(0..(len - off).min(700));
        let op = match rng.random_range(0..14u32) {
            0 => Op::Barrier,
            1 => Op::Section(["even", "odd", "third"][step % 3]),
            2 | 3 => {
                let (s, d) = (rng.random_range(0..3usize), rng.random_range(0..3usize));
                let src_off = rng.random_range(0..lens[s]);
                let dst_off = rng.random_range(0..lens[d]);
                let n = 1 + rng.random_range(0..(lens[s] - src_off).min(lens[d] - dst_off).min(600));
                let install = rng.random::<bool>();
                Op::Dma { pe, src: arrs[s], src_off, dst: arrs[d], dst_off, len: n, install }
            }
            4 => Op::WriteAt { pe, arr, idx: at(&mut rng), val: step as u32 },
            5 => Op::ReadAt { pe, arr, idx: at(&mut rng) },
            6 | 7 => {
                let off = at(&mut rng);
                let n = span(&mut rng, off);
                Op::TouchRun { pe, arr, off, len: n, write: rng.random::<bool>() }
            }
            8 => {
                let off = at(&mut rng);
                let vals = (0..span(&mut rng, off) as u32).map(|i| i ^ step as u32).collect();
                Op::WriteRun { pe, arr, off, vals }
            }
            9 => {
                let off = at(&mut rng);
                Op::ReadRun { pe, arr, off, len: span(&mut rng, off) }
            }
            10 | 11 => {
                let idxs: Vec<usize> = (0..1 + rng.random_range(0..200usize)).map(|_| at(&mut rng)).collect();
                let vals = idxs.iter().map(|&i| (step + i) as u32).collect();
                Op::Scatter { pe, arr, idxs, vals }
            }
            _ => {
                let idxs = (0..1 + rng.random_range(0..200usize)).map(|_| at(&mut rng)).collect();
                Op::Gather { pe, arr, idxs }
            }
        };
        pair.apply(op);
    }
}

#[test]
fn random_mixes_match_the_model_at_every_geometry() {
    for assoc in [1usize, 2, 4, 8] {
        for physical in [true, false] {
            for (k, protocol) in PROTOCOLS.into_iter().enumerate() {
                let p = [4, 8, 3, 7][(assoc.trailing_zeros() as usize + k) % 4];
                let race = (assoc + k) % 2 == 0;
                let mut pair = Pair::new(small_cfg(p, assoc, physical, protocol), race);
                random_mix(&mut pair, p, assoc as u64 * 4 + k as u64 * 2 + u64::from(physical), 1000);
            }
        }
    }
}

/// The mix on the preset's own shape (1/64-scale Origin 2000: 2-way,
/// physically indexed, 64-entry TLB), where the caches are large next to
/// the arrays, with the race detector on and off.
#[test]
fn random_mix_matches_the_model_on_the_scaled_preset() {
    for (race, protocol) in [(false, ProtocolMode::Invalidate), (true, ProtocolMode::DragonUpdate)] {
        let cfg = MachineConfig::origin2000(8).scaled_down(64).with_protocol(protocol);
        let mut pair = Pair::new(cfg, race);
        random_mix(&mut pair, 8, 77 + u64::from(race), 300);
    }
}

// ---------------------------------------------------------------------
// The simbench programs (crates/bench/src/hotpath.rs), rebuilt
// ---------------------------------------------------------------------

const BLK: usize = 256;

/// Each PE sweeps its partition, read and write passes alternating.
fn streamed(pair: &mut Pair, p: usize, n: usize, passes: usize) {
    let arr = pair.alloc(n, Placement::Partitioned { parts: p });
    let chunk = n / p;
    for pass in 0..passes {
        for pe in 0..p {
            pair.touch_run(pe, arr, pe * chunk, chunk, pass % 2 == 1);
        }
        pair.apply(Op::Barrier);
    }
}

/// Gather and scatter batches at LCG indices inside each PE's partition.
fn scattered(pair: &mut Pair, p: usize, n: usize, passes: usize) {
    let arr = pair.alloc(n, Placement::Partitioned { parts: p });
    let chunk = n / p;
    for pass in 0..passes {
        for pe in 0..p {
            let mut x = 0x9E37_79B9u64.wrapping_add(pe as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
            x = x.wrapping_add(pass as u64);
            let mut idxs = Vec::with_capacity(chunk);
            let mut vals = Vec::with_capacity(chunk);
            for _ in 0..chunk {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                idxs.push(pe * chunk + (x >> 33) as usize % chunk);
                vals.push(x as u32);
            }
            for (ix, vs) in idxs.chunks(BLK).zip(vals.chunks(BLK)) {
                if pass % 2 == 0 {
                    pair.gather(pe, arr, ix);
                } else {
                    pair.scatter(pe, arr, ix, vs);
                }
            }
        }
        pair.apply(Op::Barrier);
    }
}

/// The radix permutation: each PE streams its chunk and scatters it to
/// one interleaved cursor per digit across the whole output, its slot
/// rotating every pass.
fn permutation(pair: &mut Pair, p: usize, n: usize, passes: usize) {
    let arr = pair.alloc(n, Placement::Partitioned { parts: p });
    let out = pair.alloc(n, Placement::Partitioned { parts: p });
    let chunk = n / p;
    let digits = 32.min(chunk);
    let (region, sub) = (n / digits, chunk / digits);
    for pass in 0..passes {
        for pe in 0..p {
            let slot = (pe + pass) % p;
            let dests: Vec<usize> =
                (0..chunk).map(|k| (k % digits) * region + slot * sub + k / digits).collect();
            for pos in (0..chunk).step_by(BLK) {
                let blk = BLK.min(chunk - pos);
                let vals = pair.apply(Op::ReadRun { pe, arr, off: pe * chunk + pos, len: blk });
                pair.scatter(pe, out, &dests[pos..pos + blk], &vals);
            }
        }
        pair.apply(Op::Barrier);
    }
}

#[test]
fn simbench_programs_match_the_model() {
    type Program = fn(&mut Pair, usize, usize, usize);
    let programs: [(&str, Program); 3] =
        [("streamed", streamed), ("scattered", scattered), ("permutation", permutation)];
    for (name, program) in programs {
        for (assoc, physical, protocol, race) in [
            (2, true, ProtocolMode::Invalidate, false),
            (2, true, ProtocolMode::Invalidate, true),
            (4, true, ProtocolMode::DragonUpdate, false),
            (1, false, ProtocolMode::Invalidate, false),
            (8, false, ProtocolMode::DragonUpdate, true),
        ] {
            let p = if assoc == 2 { 8 } else { 4 };
            let mut pair = Pair::new(small_cfg(p, assoc, physical, protocol), race);
            program(&mut pair, p, 1 << 12, 3);
            let ev: u64 = (0..p).map(|pe| pair.events(pe).touches()).sum();
            assert!(ev > 0, "{name}: no touches");
        }
    }
}

// ---------------------------------------------------------------------
// Directed cases, with their own count assertions
// ---------------------------------------------------------------------

/// Four PEs on the small geometry; `a` is one page per PE, `b` one page
/// on node 1.
fn directed(assoc: usize, physical: bool, protocol: ProtocolMode) -> (Pair, usize, usize) {
    let mut pair = Pair::new(small_cfg(4, assoc, physical, protocol), false);
    let a = pair.alloc(4096, Placement::Partitioned { parts: 4 });
    let b = pair.alloc(1024, Placement::Node(1));
    (pair, a, b)
}

/// Each directed case at every associativity and indexing, under
/// `protocol`.
fn every_geometry(protocol: ProtocolMode, case: impl Fn(&mut Pair, usize, usize)) {
    for assoc in [1, 2, 4, 8] {
        for physical in [true, false] {
            let (mut pair, a, b) = directed(assoc, physical, protocol);
            case(&mut pair, a, b);
        }
    }
}

/// Lines 4..8 of a 12-line write run are Shared with two other PEs: the
/// walk leaves for the upgrade path and resumes four times mid-run.
#[test]
fn write_run_upgrades_mid_run_across_shared_lines() {
    let (mut pair, a, _) = directed(2, true, ProtocolMode::Invalidate);
    pair.touch_run(0, a, 0, 12 * 32, false);
    for pe in [1, 2] {
        pair.touch_run(pe, a, 4 * 32, 4 * 32, false);
    }
    let before = pair.events(0);
    pair.touch_run(0, a, 0, 12 * 32, true);
    let ev = pair.events(0);
    assert_eq!(ev.upgrades - before.upgrades, 4);
    assert_eq!(ev.invalidations - before.invalidations, 8, "two sharers per line");
    assert_eq!(ev.l1_hits - before.l1_hits, 8, "the lines around the shared ones hit");
    assert_eq!(ev.misses(), before.misses());
    // Under Dragon the shared lines stay shared: updates, no upgrades.
    let (mut pair, a, _) = directed(2, true, ProtocolMode::DragonUpdate);
    pair.touch_run(0, a, 0, 12 * 32, false);
    for pe in [1, 2] {
        pair.touch_run(pe, a, 4 * 32, 4 * 32, false);
    }
    pair.touch_run(0, a, 0, 12 * 32, true);
    pair.touch_run(0, a, 0, 12 * 32, true);
    let ev = pair.events(0);
    assert_eq!((ev.upgrades, ev.updates), (0, 2 * 4 * 2));
}

/// One read run crosses all three residency classes: lines still in the
/// L1, lines only the L2 kept, and lines never touched.
#[test]
fn run_over_l1_resident_l2_only_and_absent_lines() {
    every_geometry(ProtocolMode::Invalidate, |pair, a, _| {
        // 20 lines through a 16-line L1: some are pushed out to the L2.
        pair.touch_run(0, a, 0, 20 * 32, false);
        let before = pair.events(0);
        assert_eq!((before.misses(), before.l1_hits, before.cache_hits), (20, 0, 0));
        pair.touch_run(0, a, 0, 24 * 32, false);
        let ev = pair.events(0);
        let (l1, l2) = (ev.l1_hits, ev.cache_hits);
        assert!(l2 > 0, "want L2-only lines, got l1 {l1} l2 {l2}");
        assert_eq!(ev.misses(), 24, "lines 20..24 were absent");
        if pair.m.cfg().l1.assoc <= 2 {
            // (At 4 and 8 ways every L1 set sees more lines than ways in
            // this cyclic sweep, and LRU evicts each before its reuse.)
            assert!(l1 > 0, "want L1-resident lines, got l1 {l1} l2 {l2}");
        }
    });
}

#[test]
fn page_crossing_run_takes_exactly_one_tlb_miss() {
    every_geometry(ProtocolMode::Invalidate, |pair, a, _| {
        pair.touch_run(0, a, 0, 32, false); // maps page 0
        let before = pair.events(0).tlb_misses;
        // Two lines either side of the page 0 | page 1 boundary.
        pair.touch_run(0, a, 1024 - 64, 128, true);
        assert_eq!(pair.events(0).tlb_misses - before, 1);
        assert_eq!(pair.events(0).misses(), 5);
    });
}

/// The hint one entry point leaves is the hint the next one finds: a run
/// starting on a batch's last line, a write batch starting on a read
/// run's last line (the read hint must not license the write), a read
/// batch starting on a write run's last line (it may), and single
/// element reads and writes on either side.
#[test]
fn hint_hands_off_between_runs_and_batches() {
    for protocol in PROTOCOLS {
        let (mut pair, a, _) = directed(2, true, protocol);
        pair.scatter(0, a, &[5, 70, 40], &[1, 2, 3]); // ends on line 1
        pair.touch_run(0, a, 40, 100, true); // lines 1..=4, ends on line 4
        pair.touch_run(0, a, 0, 6 * 32, false); // read hint on line 5, new so Exclusive
        let before = pair.events(0);
        pair.scatter(0, a, &[5 * 32, 5 * 32 + 1, 33], &[7, 8, 9]);
        pair.touch_run(0, a, 0, 64, true); // ends on line 1, write hint
        let out = pair.gather(0, a, &[63, 33, 0]);
        pair.apply(Op::ReadAt { pe: 0, arr: a, idx: 0 });
        pair.apply(Op::WriteAt { pe: 0, arr: a, idx: 1, val: 4 });
        pair.touch_run(0, a, 2, 3, true);
        let ev = pair.events(0);
        assert_eq!(ev.misses(), before.misses(), "every line was resident");
        assert_eq!(ev.l1_hits - before.l1_hits, 3 + 2 + 3 + 3);
        assert_eq!(out, [0, 9, 0]);
    }
}

/// Another PE's read of the hinted line downgrades it: the next repeat
/// write must not take the hint (it upgrades), and under Dragon it stays
/// Shared, so every repeat write pays an update.
#[test]
fn a_downgrade_revokes_the_write_hint() {
    for protocol in PROTOCOLS {
        let (mut pair, a, _) = directed(2, true, protocol);
        pair.apply(Op::WriteAt { pe: 0, arr: a, idx: 0, val: 1 });
        pair.apply(Op::ReadAt { pe: 1, arr: a, idx: 0 });
        for v in 0..3 {
            pair.apply(Op::WriteAt { pe: 0, arr: a, idx: 0, val: v });
        }
        let ev = pair.events(0);
        match protocol {
            ProtocolMode::Invalidate => assert_eq!((ev.upgrades, ev.invalidations, ev.l1_hits), (1, 1, 2)),
            ProtocolMode::DragonUpdate => assert_eq!((ev.upgrades, ev.updates), (0, 3)),
        }
    }
}

#[test]
fn sub_line_and_unaligned_runs_touch_the_lines_they_overlap() {
    every_geometry(ProtocolMode::Invalidate, |pair, a, _| {
        pair.touch_run(0, a, 3, 5, true); // inside line 0
        assert_eq!((pair.events(0).misses(), pair.events(0).l1_hits), (1, 0));
        pair.touch_run(0, a, 30, 4, false); // elements 30..34 straddle lines 0 | 1
        assert_eq!((pair.events(0).misses(), pair.events(0).l1_hits), (2, 1));
        pair.touch_run(0, a, 33, 64, true); // elements 33..97: lines 1, 2, 3
        assert_eq!((pair.events(0).misses(), pair.events(0).l1_hits), (4, 2));
    });
}

/// Capacity eviction and dirty writeback, interventions on read and
/// write, upgrades, and DMA with and without `install_dst`, each counted
/// directly.
#[test]
fn each_transaction_class_is_counted() {
    for protocol in PROTOCOLS {
        let (mut pair, a, b) = directed(2, true, protocol);
        let c = pair.alloc(200 * 32, Placement::Node(0));
        // 200 written lines through a 128-line L2: dirty capacity victims.
        pair.touch_run(0, c, 0, 200 * 32, true);
        assert!(pair.events(0).writebacks >= 72, "{:?}", pair.events(0));
        // PE 1 reads a line PE 0 holds Modified: an intervention.
        pair.apply(Op::ReadAt { pe: 1, arr: c, idx: 199 * 32 });
        assert_eq!(pair.events(1).interventions, 1);
        // PE 2 writes a line PE 0 holds Modified: another.
        pair.apply(Op::WriteAt { pe: 2, arr: c, idx: 198 * 32, val: 5 });
        assert_eq!(pair.events(2).interventions, 1);
        // PE 0 writes the line it now shares with PE 1.
        pair.apply(Op::WriteAt { pe: 0, arr: c, idx: 199 * 32, val: 6 });
        let ev = pair.events(0);
        match protocol {
            ProtocolMode::Invalidate => assert_eq!((ev.upgrades, ev.updates), (1, 0)),
            ProtocolMode::DragonUpdate => assert_eq!((ev.upgrades, ev.updates), (0, 1)),
        }
        // DMA: PE 3 reads b, then PE 1 copies a into b (invalidating PE 3)
        // and PE 2 pulls b into its cache.
        pair.touch_run(3, b, 0, 64, false);
        pair.apply(Op::Dma { pe: 1, src: a, src_off: 0, dst: b, dst_off: 0, len: 64, install: false });
        assert_eq!(pair.events(1).invalidations, 2, "PE 3's two lines");
        pair.apply(Op::Dma { pe: 2, src: a, src_off: 64, dst: b, dst_off: 0, len: 64, install: true });
        let hits = pair.events(2).l1_hits + pair.events(2).cache_hits;
        pair.touch_run(2, b, 0, 64, false);
        assert_eq!(pair.events(2).l1_hits + pair.events(2).cache_hits, hits + 2, "installed by the DMA");
        let data = pair.apply(Op::ReadRun { pe: 3, arr: b, off: 0, len: 64 });
        assert_eq!(data[0], 0);
    }
}
