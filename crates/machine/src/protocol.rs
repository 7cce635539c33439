//! Coherence-protocol layer: the directory transitions below the L2 tag
//! probe, dispatched on [`crate::config::ProtocolMode`].
//!
//! `Machine::touch_line_post_l2` hands every upgrade and miss here; an L2
//! hit (an L1 refill) is protocol-independent and served by `Machine::walk`
//! itself. Two implementations:
//!
//! * `Machine::post_l2_invalidate` — the MESI-style invalidate protocol
//!   of the SGI Origin 2000 the paper measures. This is the pre-seam body
//!   moved verbatim, so the default configuration is bit-exact against
//!   `results/golden_quick.txt` by construction.
//! * `Machine::post_l2_dragon` — a Dragon-style update protocol: writes
//!   to shared lines multicast the new data to the sharers instead of
//!   invalidating them, so readers keep hitting in their caches and the
//!   writer pays per-write update traffic.
//!
//! # Dragon transition table
//!
//! Indexed by the L2 probe result and the directory state seen by the
//! requester (`—` = same as the invalidate protocol):
//!
//! | probe / dir state     | read                         | write                                                        |
//! |-----------------------|------------------------------|--------------------------------------------------------------|
//! | Hit                   | —                            | — (a Hit on a write means the copy was already exclusive)    |
//! | UpgradeNeeded         | n/a (reads never upgrade)    | multicast update to sharers; line **stays Shared** everywhere |
//! | Miss, Unowned         | — (install Exclusive)        | — (install Modified, dir Exclusive)                           |
//! | Miss, Shared          | — (join sharers)             | multicast update; join sharers; install **Shared**            |
//! | Miss, Exclusive(self) | — (stale-self, reinstall)    | —                                                             |
//! | Miss, Exclusive(o)    | — (intervention, downgrade)  | intervention; owner **downgrades** (keeps a Shared copy, one update); both become sharers; install **Shared** |
//!
//! Because a written-shared line stays Shared in the writer's caches, every
//! subsequent write re-enters this path (the L1/L2 write probes return
//! `UpgradeNeeded` on Shared lines and the walk hands those here — see
//! `Cache::probe`), which is exactly Dragon's cost shape: one update
//! transaction per write to actively-shared data. The walk needs no
//! Dragon-specific logic, and `tests/reference_model.rs` checks both modes.
//!
//! Latency and occupancy use the same knobs as invalidation (an update
//! message occupies the home controller for `ctrl_occ_ns` like an
//! invalidation does; the stall fractions are identical), so mode
//! differences in simulated time come from the protocol's *behaviour* —
//! update multicasts on every write versus invalidation misses on the next
//! read — not from different constants.

use crate::cache::{LineState, Probe};
use crate::directory::DirState;
use crate::machine::{Machine, Pattern};
use crate::stats::Bucket;

impl Machine {
    /// MESI-style invalidate transitions (the bit-exact default). This is
    /// the original `touch_line_post_l2` body, moved verbatim behind the
    /// protocol seam.
    pub(crate) fn post_l2_invalidate(
        &mut self,
        pe: usize,
        line: u64,
        write: bool,
        pat: Pattern,
        probe: Probe,
    ) {
        let home = self.mem.home_of_line(line);
        let my_node = self.node_of[pe];

        match probe {
            Probe::Hit(_) => unreachable!("the walk serves L2 hits itself"),
            Probe::UpgradeNeeded => {
                // Write hit on a Shared line: invalidate the other sharers
                // (every *potential* sharer — stale bits left by silent
                // evictions are charged below exactly like real ones).
                let (dir, pes) = (&self.dir, &mut self.pes);
                let n_inv = dir.for_each_target(line, Some(pe), |other| {
                    pes[other].invalidate_all(line);
                });
                self.dir.set_exclusive(line, pe);
                self.pes[pe].cache.upgrade(line);
                self.pes[pe].l1.upgrade(line);
                self.pes[pe].ev.upgrades += 1;
                self.pes[pe].ev.invalidations += n_inv;
                let occ = self.cfg.ctrl_occ_ns * (1.0 + n_inv as f64);
                self.traffic.add(pe, home, occ, 1 + n_inv, 1);
                let lat = self.topo.mem_latency(pe, home);
                let frac = self.write_frac(pat);
                let bucket = if home == my_node { Bucket::Lmem } else { Bucket::Rmem };
                self.charge(pe, frac * lat, bucket);
            }
            Probe::Miss { victim } => {
                // Evict first so the directory stays precise (L1 inclusion:
                // the victim leaves L1 too).
                if let Some(v) = victim {
                    self.pes[pe].l1.invalidate(v.line);
                    let evicted = self.pes[pe].cache.invalidate(v.line);
                    debug_assert_eq!(evicted, v.dirty);
                    self.dir.remove_sharer(v.line, pe);
                    if v.dirty {
                        let vhome = self.mem.home_of_line(v.line);
                        self.pes[pe].ev.writebacks += 1;
                        // The writeback doesn't stall the processor but its
                        // transactions occupy the victim's home controller.
                        self.traffic.add(pe, vhome, self.cfg.ctrl_occ_ns + self.cfg.data_occ_ns, 1, 0);
                    }
                }

                let mut lat = self.topo.mem_latency(pe, home);
                let mut remote = home != my_node;
                let mut occ = self.cfg.ctrl_occ_ns + self.cfg.data_occ_ns;
                let mut txns: u64 = 1;

                match self.dir.state(line) {
                    DirState::Unowned => {
                        if write {
                            self.dir.set_exclusive(line, pe);
                        } else {
                            // MESI: a read with no other sharers installs
                            // Exclusive (clean).
                            self.dir.set_exclusive(line, pe);
                        }
                    }
                    DirState::Shared => {
                        if write {
                            let (dir, pes) = (&self.dir, &mut self.pes);
                            let n_inv = dir.for_each_target(line, Some(pe), |other| {
                                pes[other].invalidate_all(line);
                            });
                            self.pes[pe].ev.invalidations += n_inv;
                            occ += self.cfg.ctrl_occ_ns * n_inv as f64;
                            txns += n_inv;
                            self.dir.set_exclusive(line, pe);
                        } else {
                            self.dir.add_sharer(line, pe);
                        }
                    }
                    DirState::Exclusive(owner) => {
                        let owner = owner as usize;
                        if owner == pe {
                            // Stale self-ownership cannot occur with precise
                            // eviction notifications; treat as Unowned.
                            self.dir.set_exclusive(line, pe);
                        } else {
                            // Cache-to-cache intervention through the home.
                            let owner_node = self.node_of[owner];
                            lat += self.cfg.intervention_ns
                                + f64::from(self.topo.hops(home, owner_node)) * self.cfg.hop_ns;
                            remote = remote || owner_node != my_node;
                            self.pes[pe].ev.interventions += 1;
                            // Forwarded request + transfer occupy the owner's
                            // node controller as well as the home.
                            occ += self.cfg.ctrl_occ_ns;
                            txns += 1;
                            self.traffic
                                .add(pe, owner_node, self.cfg.ctrl_occ_ns + self.cfg.data_occ_ns, 1, 1);
                            if write {
                                self.pes[owner].invalidate_all(line);
                                self.pes[pe].ev.invalidations += 1;
                                self.dir.set_exclusive(line, pe);
                            } else {
                                self.pes[owner].downgrade_all(line);
                                self.dir.add_sharer(line, owner);
                                self.dir.add_sharer(line, pe);
                            }
                        }
                    }
                }

                self.traffic.add(pe, home, occ, txns, 1);
                let frac = if write {
                    if remote && pat == Pattern::Scattered {
                        self.cfg.write_stall_scattered_remote
                    } else {
                        self.write_frac(pat)
                    }
                } else {
                    self.read_frac(pat)
                };
                let bucket = if remote { Bucket::Rmem } else { Bucket::Lmem };
                self.charge(pe, frac * lat + self.cfg.l2_hit_ns, bucket);
                if remote {
                    self.pes[pe].ev.misses_remote += 1;
                } else {
                    self.pes[pe].ev.misses_local += 1;
                }

                let state = if write {
                    LineState::Modified
                } else if matches!(self.dir.state(line), DirState::Shared) {
                    LineState::Shared
                } else {
                    LineState::Exclusive
                };
                let s = &mut self.pes[pe];
                let frame = s.cache.frame(line);
                let leftover = s.cache.install(line, frame, state);
                debug_assert!(leftover.is_none(), "probe already freed a way");
                // L1 victims are silently dropped: L2 still holds the line
                // (inclusive hierarchy), so no state is lost.
                s.l1.install(line, frame, state);
            }
        }
        // The hint is only exact when the line actually sits in L1: the
        // UpgradeNeeded arm can run with the line held in L2 alone (its L1
        // copy was evicted earlier), in which case `l1.upgrade` is a no-op
        // and a repeat touch must still pay the L1-miss L2-refill charge.
        let s = &mut self.pes[pe];
        if s.l1.state(line).is_some() {
            s.hint_line = line;
            s.hint_write = write;
        } else {
            s.hint_line = u64::MAX;
        }
    }

    /// Dragon-style update transitions (see the module-level table). The
    /// control flow mirrors [`Machine::post_l2_invalidate`] arm for arm;
    /// only the write-to-shared transitions differ.
    pub(crate) fn post_l2_dragon(
        &mut self,
        pe: usize,
        line: u64,
        write: bool,
        pat: Pattern,
        probe: Probe,
    ) {
        let home = self.mem.home_of_line(line);
        let my_node = self.node_of[pe];

        match probe {
            Probe::Hit(_) => unreachable!("the walk serves L2 hits itself"),
            Probe::UpgradeNeeded => {
                // Write hit on a Shared line: multicast the new data to the
                // other (potential) sharers. Nobody loses their copy and
                // the line stays Shared — including in this PE's caches, so
                // the next write walks this path again and pays the next
                // update. The home transaction plus one update per sharer
                // occupy the home controller like the invalidation multicast
                // would.
                let n_upd = self.dir.for_each_target(line, Some(pe), |_| {});
                self.pes[pe].ev.updates += n_upd;
                let occ = self.cfg.ctrl_occ_ns * (1.0 + n_upd as f64);
                self.traffic.add(pe, home, occ, 1 + n_upd, 1);
                let lat = self.topo.mem_latency(pe, home);
                let frac = self.write_frac(pat);
                let bucket = if home == my_node { Bucket::Lmem } else { Bucket::Rmem };
                self.charge(pe, frac * lat, bucket);
            }
            Probe::Miss { victim } => {
                // Eviction handling is protocol-independent.
                if let Some(v) = victim {
                    self.pes[pe].l1.invalidate(v.line);
                    let evicted = self.pes[pe].cache.invalidate(v.line);
                    debug_assert_eq!(evicted, v.dirty);
                    self.dir.remove_sharer(v.line, pe);
                    if v.dirty {
                        let vhome = self.mem.home_of_line(v.line);
                        self.pes[pe].ev.writebacks += 1;
                        self.traffic.add(pe, vhome, self.cfg.ctrl_occ_ns + self.cfg.data_occ_ns, 1, 0);
                    }
                }

                let mut lat = self.topo.mem_latency(pe, home);
                let mut remote = home != my_node;
                let mut occ = self.cfg.ctrl_occ_ns + self.cfg.data_occ_ns;
                let mut txns: u64 = 1;

                match self.dir.state(line) {
                    DirState::Unowned => {
                        // No sharers: both protocols install the line
                        // exclusively (Dragon's E/M states).
                        self.dir.set_exclusive(line, pe);
                    }
                    DirState::Shared => {
                        if write {
                            // Write miss on a shared line: fetch the line,
                            // multicast the update, and *join* the sharer
                            // set instead of claiming ownership.
                            let n_upd = self.dir.for_each_target(line, Some(pe), |_| {});
                            self.pes[pe].ev.updates += n_upd;
                            occ += self.cfg.ctrl_occ_ns * n_upd as f64;
                            txns += n_upd;
                            self.dir.add_sharer(line, pe);
                        } else {
                            self.dir.add_sharer(line, pe);
                        }
                    }
                    DirState::Exclusive(owner) => {
                        let owner = owner as usize;
                        if owner == pe {
                            self.dir.set_exclusive(line, pe);
                        } else {
                            // Cache-to-cache intervention through the home —
                            // same latency shape as invalidate.
                            let owner_node = self.node_of[owner];
                            lat += self.cfg.intervention_ns
                                + f64::from(self.topo.hops(home, owner_node)) * self.cfg.hop_ns;
                            remote = remote || owner_node != my_node;
                            self.pes[pe].ev.interventions += 1;
                            occ += self.cfg.ctrl_occ_ns;
                            txns += 1;
                            self.traffic
                                .add(pe, owner_node, self.cfg.ctrl_occ_ns + self.cfg.data_occ_ns, 1, 1);
                            if write {
                                // Dragon: the owner keeps a Shared copy and
                                // receives the written data as one update;
                                // both processors end up sharers.
                                self.pes[owner].downgrade_all(line);
                                self.pes[pe].ev.updates += 1;
                                self.dir.add_sharer(line, owner);
                                self.dir.add_sharer(line, pe);
                            } else {
                                self.pes[owner].downgrade_all(line);
                                self.dir.add_sharer(line, owner);
                                self.dir.add_sharer(line, pe);
                            }
                        }
                    }
                }

                self.traffic.add(pe, home, occ, txns, 1);
                let frac = if write {
                    if remote && pat == Pattern::Scattered {
                        self.cfg.write_stall_scattered_remote
                    } else {
                        self.write_frac(pat)
                    }
                } else {
                    self.read_frac(pat)
                };
                let bucket = if remote { Bucket::Rmem } else { Bucket::Lmem };
                self.charge(pe, frac * lat + self.cfg.l2_hit_ns, bucket);
                if remote {
                    self.pes[pe].ev.misses_remote += 1;
                } else {
                    self.pes[pe].ev.misses_local += 1;
                }

                // Install state: a write only takes Modified when the
                // directory granted exclusivity; a written-shared line is
                // installed Shared (Dragon's Sm, minus the owner bit — the
                // memory at home is kept current by the updates, so any
                // sharer's eviction is clean).
                let state = if matches!(self.dir.state(line), DirState::Shared) {
                    LineState::Shared
                } else if write {
                    LineState::Modified
                } else {
                    LineState::Exclusive
                };
                let s = &mut self.pes[pe];
                let frame = s.cache.frame(line);
                let leftover = s.cache.install(line, frame, state);
                debug_assert!(leftover.is_none(), "probe already freed a way");
                s.l1.install(line, frame, state);
            }
        }
        // Hint tail: same residency rule as the invalidate protocol, but
        // `hint_write` additionally requires the installed copy to be
        // Modified — a written-shared line must send every repeat write
        // through this path so it pays its update transaction
        // (`debug_assert_hint` enforces exactly this invariant).
        let s = &mut self.pes[pe];
        match s.l1.state(line) {
            Some(st) => {
                s.hint_line = line;
                s.hint_write = write && st == LineState::Modified;
            }
            None => s.hint_line = u64::MAX,
        }
    }
}
