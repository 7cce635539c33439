//! Analytic performance prediction — the paper's stated future work.
//!
//! Section 5 closes with: "Future work will include ... developing a
//! formula (based on profiles) to predict performance for each programming
//! model." This module is that formula for parallel radix sort: a
//! closed-form cost model over the same machine parameters the simulator
//! uses, decomposed the same way the paper's breakdowns are (busy, local
//! memory, remote communication, collectives, synchronization).
//!
//! The prediction is deliberately *independent* of the execution-driven
//! simulator — it never runs the program — so comparing the two (see
//! `tests/prediction.rs` and `repro`'s `predict` artefact) checks that the
//! simulated behaviour follows from the machine parameters rather than
//! from incidental implementation detail. Agreement is expected to be
//! loose (the formula ignores cache reuse subtleties and load imbalance)
//! but the *model ordering* at a given size must match.

use ccsort_machine::MachineConfig;
use crate::common::n_passes;
use crate::costs;
use crate::dist::KEY_BITS;
use crate::driver::Algorithm;

/// Programming model to predict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictModel {
    Ccsas,
    CcsasNew,
    Mpi,
    Shmem,
}

impl PredictModel {
    pub const ALL: [PredictModel; 4] =
        [PredictModel::Ccsas, PredictModel::CcsasNew, PredictModel::Mpi, PredictModel::Shmem];

    pub fn name(&self) -> &'static str {
        match self {
            PredictModel::Ccsas => "ccsas",
            PredictModel::CcsasNew => "ccsas-new",
            PredictModel::Mpi => "mpi",
            PredictModel::Shmem => "shmem",
        }
    }

    /// The simulated program this formula predicts.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            PredictModel::Ccsas => Algorithm::RadixCcsas,
            PredictModel::CcsasNew => Algorithm::RadixCcsasNew,
            PredictModel::Mpi => Algorithm::RadixMpiDirect,
            PredictModel::Shmem => Algorithm::RadixShmem,
        }
    }
}

/// Predicted per-processor time, decomposed like the paper's breakdowns
/// (ns, for the whole sort).
#[derive(Debug, Clone, Copy, Default)]
pub struct Prediction {
    pub busy: f64,
    pub local_mem: f64,
    pub remote: f64,
    pub collectives: f64,
    pub sync: f64,
}

impl Prediction {
    pub fn total(&self) -> f64 {
        self.busy + self.local_mem + self.remote + self.collectives + self.sync
    }
}

/// Predict the parallel radix-sort execution time for one model on the
/// machine described by `cfg` (which should already be `scaled_down` the
/// same way the simulation to compare against is).
pub fn predict_radix(cfg: &MachineConfig, model: PredictModel, n: usize, p: usize, r: u32) -> Prediction {
    let passes = n_passes(KEY_BITS, r) as f64;
    let bins = (1usize << r) as f64;
    let keys_pp = (n as f64) / (p as f64);
    let lines_pp = keys_pp * 4.0 / cfg.l2.line as f64;
    let cyc = cfg.cycle_ns;
    let fix = cfg.fixed_cost_div;

    // Average memory latencies.
    let local = cfg.mem_local_ns;
    // Mean over nodes of the remote latency (2 average hops).
    let remote = cfg.mem_local_ns + cfg.remote_base_ns + 2.0 * cfg.hop_ns;

    let mut pr = Prediction::default();

    // ---- per-pass local work common to all models ----
    // Histogram sweep + permutation loop.
    let mut busy_per_key = costs::HIST_CYC_PER_KEY + costs::PERMUTE_CYC_PER_KEY;
    if model != PredictModel::Ccsas {
        busy_per_key += costs::BUFFER_EXTRA_CYC_PER_KEY;
    }
    pr.busy = passes * keys_pp * busy_per_key * cyc;
    // Offset computation: tree-based models scan 2^r bins; collective
    // models redundantly combine p histograms.
    let offset_entries = match model {
        PredictModel::Ccsas | PredictModel::CcsasNew => bins * costs::SCAN_CYC_PER_BIN,
        PredictModel::Mpi | PredictModel::Shmem => p as f64 * bins * costs::OFFSET_CYC_PER_ENTRY,
    };
    pr.busy += passes * offset_entries * cyc / fix;

    // Streamed input reads (histogram + permutation sweeps).
    pr.local_mem = passes * 2.0 * lines_pp * (cfg.read_stall_streamed * local + cfg.l2_hit_ns);

    // TLB cost of the scattered permutation: if the active pages (one per
    // digit segment, plus the input stream) exceed the TLB, nearly every
    // scattered write refills.
    let write_span_bytes = match model {
        // CC-SAS writes across the whole global output array.
        PredictModel::Ccsas => (n as f64) * 4.0,
        // Buffered models write a contiguous local staging partition.
        _ => keys_pp * 4.0,
    };
    // Cursor pages actively touched by the scattered writes: one per page
    // of the written span, capped by the number of digit segments.
    let active_pages = (write_span_bytes / cfg.page_size as f64).min(bins);
    let tlb_miss_frac = if active_pages > cfg.tlb_entries as f64 { 1.0 } else { 0.05 };
    pr.local_mem += passes * keys_pp * tlb_miss_frac * cfg.tlb_miss_ns;

    // Scattered staging writes (local for buffered models).
    if model != PredictModel::Ccsas {
        pr.local_mem += passes * lines_pp * (cfg.write_stall_scattered * local + cfg.l2_hit_ns);
    }

    // ---- communication ----
    let msgs_pp = bins; // one chunk per digit per pass
    let bytes_pp = keys_pp * 4.0;
    match model {
        PredictModel::Ccsas => {
            // Fine-grained remote writes with NACK/retry storms.
            pr.remote = passes * lines_pp * cfg.write_stall_scattered_remote * remote;
        }
        PredictModel::CcsasNew => {
            // Contiguous coherent copy-out: streamed remote writes + local
            // re-read of the staging buffer.
            pr.remote = passes
                * lines_pp
                * (cfg.write_stall_streamed * remote + cfg.read_stall_streamed * local + 2.0 * cfg.l2_hit_ns);
            pr.busy += passes * keys_pp * costs::COPY_CYC_PER_KEY * cyc;
        }
        PredictModel::Mpi => {
            pr.remote = passes
                * (msgs_pp * (cfg.mpi_send_overhead_ns + cfg.mpi_recv_overhead_ns + remote / fix)
                    + bytes_pp / cfg.link_bw_bytes_per_ns);
            // 1-deep mailbox pacing: the receiver services p inbound queues.
            let consume = 3.0 * cfg.mpi_recv_overhead_ns;
            pr.sync += passes * (msgs_pp * consume - bytes_pp / cfg.link_bw_bytes_per_ns).max(0.0) * 0.5;
        }
        PredictModel::Shmem => {
            pr.remote = passes
                * (msgs_pp * (cfg.shmem_overhead_ns + remote / fix) + bytes_pp / cfg.link_bw_bytes_per_ns);
        }
    }

    // ---- histogram combine collectives ----
    let hist_bytes = bins * 4.0 / fix;
    match model {
        PredictModel::Ccsas | PredictModel::CcsasNew => {
            // log2(p) up + down tree levels of bins-sized merges.
            let levels = (p.max(2) as f64).log2().ceil();
            pr.collectives = passes
                * 2.0
                * levels
                * (hist_bytes / cfg.l2.line as f64) // lines per merge
                * (cfg.read_stall_streamed * remote + cfg.write_stall_streamed * local);
        }
        PredictModel::Mpi => {
            pr.collectives = passes
                * (p as f64 - 1.0)
                * (cfg.mpi_send_overhead_ns
                    + cfg.mpi_recv_overhead_ns
                    + remote / fix
                    + hist_bytes / cfg.link_bw_bytes_per_ns);
        }
        PredictModel::Shmem => {
            pr.collectives = passes
                * (p as f64 - 1.0)
                * (cfg.shmem_overhead_ns + remote / fix + hist_bytes / cfg.link_bw_bytes_per_ns);
        }
    }

    // ---- barriers ----
    let levels = (p.max(2) as f64).log2().ceil();
    let barrier = cfg.barrier_base_ns + 2.0 * levels * cfg.barrier_level_ns;
    let barriers_per_pass = match model {
        // Tree accumulation barriers dominate for the CC-SAS programs.
        PredictModel::Ccsas | PredictModel::CcsasNew => 2.0 * levels + 4.0,
        PredictModel::Mpi => 4.0,
        PredictModel::Shmem => 5.0,
    };
    pr.sync += passes * barriers_per_pass * barrier;

    pr
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(p: usize, scale: usize) -> MachineConfig {
        MachineConfig::origin2000(p).scaled_down(scale)
    }

    #[test]
    fn predictions_are_positive_and_finite() {
        for model in PredictModel::ALL {
            let pr = predict_radix(&cfg(64, 16), model, 1 << 20, 64, 8);
            assert!(pr.total().is_finite() && pr.total() > 0.0, "{model:?}");
            assert!(pr.busy > 0.0);
        }
    }

    #[test]
    fn predicts_shmem_beats_ccsas_at_large_sizes() {
        let c = cfg(64, 16);
        let shmem = predict_radix(&c, PredictModel::Shmem, 1 << 22, 64, 8).total();
        let ccsas = predict_radix(&c, PredictModel::Ccsas, 1 << 22, 64, 8).total();
        assert!(shmem < ccsas, "shmem {shmem} vs ccsas {ccsas}");
    }

    #[test]
    fn predicts_ccsas_wins_small_sizes() {
        let c = cfg(64, 1);
        let shmem = predict_radix(&c, PredictModel::Shmem, 1 << 20, 64, 8).total();
        let ccsas = predict_radix(&c, PredictModel::Ccsas, 1 << 20, 64, 8).total();
        let mpi = predict_radix(&c, PredictModel::Mpi, 1 << 20, 64, 8).total();
        assert!(ccsas < mpi, "ccsas {ccsas} must beat mpi {mpi} at 1M");
        let _ = shmem;
    }

    #[test]
    fn more_keys_cost_more() {
        let c = cfg(32, 16);
        for model in PredictModel::ALL {
            let small = predict_radix(&c, model, 1 << 18, 32, 8).total();
            let large = predict_radix(&c, model, 1 << 21, 32, 8).total();
            assert!(large > 2.0 * small, "{model:?}: {small} -> {large}");
        }
    }
}
