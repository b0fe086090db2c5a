//! Simulated-model counts read from cell results, and the
//! model-identity digest over them.
//!
//! Everything here is a pure function of the simulated model: a change
//! that only makes the host faster must leave every count, and hence
//! `sim_digest`, exactly as it was.

use std::collections::BTreeMap;

use scu_algos::cell::CellResult;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Simulated counts summed over a set of cells.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelCounts {
    pub iterations: u64,
    pub sim_time_ns: f64,
    pub energy_pj: f64,
    pub launches: u64,
    pub warp_slots: u64,
    pub thread_insts: u64,
    pub transactions: u64,
    pub l1_accesses: u64,
    pub l1_hits: u64,
    pub l2_accesses: u64,
    pub l2_hits: u64,
    pub dram_bytes: u64,
    pub dram_row_hits: u64,
    pub dram_row_misses: u64,
    pub scu_ops: u64,
    pub data_elements: u64,
    pub requests_issued: u64,
    pub requests_merged: u64,
    pub filter_probes: u64,
    pub filter_dropped: u64,
}

/// The integer counts of one cell that enter the digest, in a fixed
/// order: answer fingerprint, timeline digest, then gpu, mem and core.
fn identity_words(r: &CellResult) -> [u64; 19] {
    let rep = &r.report;
    let (p, c, s) = (&rep.gpu_processing, &rep.gpu_compaction, &rep.scu);
    [
        r.values_fnv,
        r.timeline_digest,
        p.launches + c.launches,
        p.warp_slots + c.warp_slots,
        p.thread_insts + c.thread_insts,
        p.transactions + c.transactions,
        p.l1.accesses + c.l1.accesses,
        p.l1.hits + c.l1.hits,
        p.mem.l2.accesses + c.mem.l2.accesses + s.mem.l2.accesses,
        p.mem.l2.hits + c.mem.l2.hits + s.mem.l2.hits,
        rep.dram_bytes(),
        p.mem.dram.row_hits + c.mem.dram.row_hits + s.mem.dram.row_hits,
        p.mem.dram.row_misses + c.mem.dram.row_misses + s.mem.dram.row_misses,
        s.ops,
        s.data_elements,
        s.requests_issued,
        s.requests_merged,
        s.filter.probes,
        s.filter.dropped,
    ]
}

impl ModelCounts {
    pub fn add(&mut self, r: &CellResult) {
        let w = identity_words(r);
        self.iterations += u64::from(r.report.iterations);
        self.sim_time_ns += r.report.total_time_ns();
        self.energy_pj += r.report.energy.total_pj();
        self.launches += w[2];
        self.warp_slots += w[3];
        self.thread_insts += w[4];
        self.transactions += w[5];
        self.l1_accesses += w[6];
        self.l1_hits += w[7];
        self.l2_accesses += w[8];
        self.l2_hits += w[9];
        self.dram_bytes += w[10];
        self.dram_row_hits += w[11];
        self.dram_row_misses += w[12];
        self.scu_ops += w[13];
        self.data_elements += w[14];
        self.requests_issued += w[15];
        self.requests_merged += w[16];
        self.filter_probes += w[17];
        self.filter_dropped += w[18];
    }

    /// The simulated-count metrics under their benchmark names.
    pub fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.insert("algos.sim_time_ns", self.sim_time_ns);
        out.insert("algos.energy_pj", self.energy_pj);
        out.insert("algos.iterations", self.iterations as f64);
        out.insert("gpu.launches", self.launches as f64);
        out.insert("gpu.warp_slots", self.warp_slots as f64);
        out.insert("gpu.thread_insts", self.thread_insts as f64);
        out.insert("gpu.transactions", self.transactions as f64);
        out.insert("mem.l1_accesses", self.l1_accesses as f64);
        out.insert("mem.l1_hit_rate", ratio(self.l1_hits, self.l1_accesses));
        out.insert("mem.l2_accesses", self.l2_accesses as f64);
        out.insert("mem.l2_hit_rate", ratio(self.l2_hits, self.l2_accesses));
        out.insert("mem.dram_bytes", self.dram_bytes as f64);
        out.insert(
            "mem.dram_row_hit_rate",
            ratio(
                self.dram_row_hits,
                self.dram_row_hits + self.dram_row_misses,
            ),
        );
        out.insert("core.ops", self.scu_ops as f64);
        out.insert("core.data_elements", self.data_elements as f64);
        out.insert("core.requests_issued", self.requests_issued as f64);
        out.insert(
            "core.merge_ratio",
            ratio(
                self.requests_merged,
                self.requests_issued + self.requests_merged,
            ),
        );
        out.insert(
            "core.filter_drop_rate",
            ratio(self.filter_dropped, self.filter_probes),
        );
    }
}

/// FNV-1a-64 over every cell's identity words, in the order given.
/// Callers pass cells in matrix plan order, so the digest does not
/// depend on which worker finished first.
pub fn sim_digest<'a>(results: impl IntoIterator<Item = &'a CellResult>) -> u64 {
    let mut h = FNV_OFFSET;
    for r in results {
        for word in identity_words(r) {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}
