use serde::{Deserialize, Serialize};

/// Everything the simulator measured about one kernel launch.
///
/// `sim_time_s` is the quantity the paper's evaluation uses (`T1`, `TN`);
/// the remaining fields explain *why* the kernel took that long.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    pub kernel_name: String,
    /// Kernel duration in device cycles, excluding launch overhead.
    pub kernel_cycles: f64,
    /// End-to-end simulated seconds: launch overhead + kernel.
    pub sim_time_s: f64,
    /// Number of thread blocks launched.
    pub blocks: u32,
    /// Threads per block (the loader's thread limit, warp-rounded).
    pub threads_per_block: u32,
    /// Scheduling waves (1 = every block ran concurrently).
    pub waves: u32,
    /// Theoretical occupancy fraction.
    pub occupancy: f64,
    /// Total warp instructions issued.
    pub total_insts: f64,
    /// Total 32-byte DRAM sector transactions.
    pub total_sectors: u64,
    /// Bytes requested by the program.
    pub useful_bytes: f64,
    /// Bytes moved after coalescing (before L2 filtering).
    pub moved_bytes: f64,
    /// Overall coalescing efficiency (useful / moved).
    pub coalescing_efficiency: f64,
    /// Modeled L2 hit fraction.
    pub l2_hit: f64,
    /// DRAM efficiency after region interference.
    pub dram_efficiency: f64,
    /// Distinct heap-region tags active (≈ ensemble instances).
    pub active_region_tags: u32,
    /// Time-integrated issue-slot utilization, [0, 1].
    pub issue_utilization: f64,
    /// Time-integrated DRAM utilization vs. raw peak, [0, 1].
    pub dram_utilization: f64,
    /// Host RPC round trips made by device code.
    pub rpc_calls: u64,
    /// Per-block completion times in cycles.
    pub block_end_cycles: Vec<f64>,
}

impl SimReport {
    /// Pretty one-line summary for logs and example binaries.
    pub fn summary(&self) -> String {
        format!(
            "{}: {:.3} ms | {} blocks × {} thr | occ {:.0}% | coal {:.0}% | L2 {:.0}% | DRAM util {:.0}%",
            self.kernel_name,
            self.sim_time_s * 1e3,
            self.blocks,
            self.threads_per_block,
            self.occupancy * 100.0,
            self.coalescing_efficiency * 100.0,
            self.l2_hit * 100.0,
            self.dram_utilization * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_contains_name_and_blocks() {
        let r = SimReport {
            kernel_name: "xsbench".into(),
            kernel_cycles: 1e6,
            sim_time_s: 7.1e-4,
            blocks: 64,
            threads_per_block: 32,
            waves: 1,
            occupancy: 0.5,
            total_insts: 1e6,
            total_sectors: 1000,
            useful_bytes: 32_000.0,
            moved_bytes: 32_000.0,
            coalescing_efficiency: 1.0,
            l2_hit: 0.1,
            dram_efficiency: 0.9,
            active_region_tags: 64,
            issue_utilization: 0.2,
            dram_utilization: 0.4,
            rpc_calls: 0,
            block_end_cycles: vec![],
        };
        let s = r.summary();
        assert!(s.contains("xsbench"));
        assert!(s.contains("64 blocks"));
    }
}
