//! Kernel work descriptions — the interface between functional kernels
//! and the timing engine.
//!
//! A kernel is described by its launch resources (which bound occupancy)
//! and the work of every thread block, broken down by execution pipe. The
//! engine turns this into a duration without ever seeing the data the
//! functional kernel computed: timing depends only on structure.

/// Per-thread-block resource requirements, which determine how many blocks
/// an SM can host concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Threads in one thread block (multiple of 32 in practice).
    pub threads_per_tb: usize,
    /// 32-bit registers per thread.
    pub regs_per_thread: usize,
    /// Shared memory per thread block, bytes.
    pub smem_per_tb: usize,
}

impl LaunchConfig {
    /// Warps per thread block (threads rounded up to warp granularity).
    pub fn warps_per_tb(&self) -> usize {
        self.threads_per_tb.div_ceil(32).max(1)
    }
}

impl Default for LaunchConfig {
    fn default() -> LaunchConfig {
        LaunchConfig {
            threads_per_tb: 128,
            regs_per_thread: 64,
            smem_per_tb: 16 * 1024,
        }
    }
}

/// The work one thread block performs, by pipe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TbWork {
    /// Multiply-accumulates executed on the tensor-core pipe (each counts
    /// as 2 FLOPs).
    pub tensor_macs: u64,
    /// FLOPs executed on the CUDA-core pipe.
    pub cuda_flops: u64,
    /// Transcendental ops (exp) on the special function units.
    pub sfu_ops: u64,
    /// Bytes read through the L2 cache (every load that misses shared
    /// memory / registers; the data-reuse pipe).
    pub l2_read: u64,
    /// Bytes read from device memory (post-L2-filtering estimate).
    pub dram_read: u64,
    /// Bytes written to device memory.
    pub dram_write: u64,
    /// Exposed (un-hidden) latency cycles, e.g. per-iteration DRAM stalls
    /// in kernels without software pipelining (paper §3.2 motivates
    /// double buffering exactly to remove these).
    pub stall_cycles: u64,
}

impl TbWork {
    /// Total bytes moved to or from device memory.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read + self.dram_write
    }

    /// The work of `n` copies of this block, field by field.
    pub(crate) fn times(self, n: u64) -> TbWork {
        TbWork {
            tensor_macs: self.tensor_macs * n,
            cuda_flops: self.cuda_flops * n,
            sfu_ops: self.sfu_ops * n,
            l2_read: self.l2_read * n,
            dram_read: self.dram_read * n,
            dram_write: self.dram_write * n,
            stall_cycles: self.stall_cycles * n,
        }
    }

    /// Element-wise sum of two work descriptions.
    pub fn merged(self, other: TbWork) -> TbWork {
        TbWork {
            tensor_macs: self.tensor_macs + other.tensor_macs,
            cuda_flops: self.cuda_flops + other.cuda_flops,
            sfu_ops: self.sfu_ops + other.sfu_ops,
            l2_read: self.l2_read + other.l2_read,
            dram_read: self.dram_read + other.dram_read,
            dram_write: self.dram_write + other.dram_write,
            stall_cycles: self.stall_cycles + other.stall_cycles,
        }
    }
}

/// Inputs of the cache-hierarchy filter a profile was built with, kept so
/// merged profiles (batched launches combining several plans) can be
/// re-filtered: cache capacity effects are nonlinear, so per-plan
/// filtering does not compose by simple concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct input bytes the kernel touches.
    pub unique_bytes: u64,
    /// Approximate reuse distance in bytes.
    pub reuse_footprint: u64,
    /// Raw (pre-filter) load bytes across all blocks.
    pub raw_l2: u64,
    /// Raw (pre-filter) write bytes across all blocks.
    pub raw_write: u64,
}

impl CacheStats {
    /// Combines the stats of two merged profiles: unique data and raw
    /// traffic add; the reuse distance of the union is at least the
    /// larger of the two.
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            unique_bytes: self.unique_bytes + other.unique_bytes,
            reuse_footprint: self.reuse_footprint.max(other.reuse_footprint),
            raw_l2: self.raw_l2 + other.raw_l2,
            raw_write: self.raw_write + other.raw_write,
        }
    }
}

/// A complete kernel work description: launch resources plus per-block
/// work.
///
/// # Examples
///
/// ```
/// use mg_gpusim::{KernelProfile, LaunchConfig, TbWork};
///
/// let profile = KernelProfile::uniform(
///     "toy",
///     LaunchConfig::default(),
///     64,
///     TbWork { cuda_flops: 1_000_000, dram_read: 4096, ..TbWork::default() },
/// );
/// assert_eq!(profile.tb_count(), 64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel name, used in records and reports.
    pub name: String,
    /// Per-block resource requirements.
    pub launch: LaunchConfig,
    /// The work of every thread block in dispatch order.
    pub tbs: Vec<TbWork>,
    /// Cache-filter inputs, set by the cache model so merged profiles can
    /// be re-filtered (see [`CacheStats`]). `None` for raw profiles.
    pub cache: Option<CacheStats>,
}

impl KernelProfile {
    /// Creates a profile of `n` identical thread blocks.
    pub fn uniform(
        name: impl Into<String>,
        launch: LaunchConfig,
        n: usize,
        work: TbWork,
    ) -> KernelProfile {
        KernelProfile {
            name: name.into(),
            launch,
            tbs: vec![work; n],
            cache: None,
        }
    }

    /// Number of thread blocks in the grid.
    pub fn tb_count(&self) -> usize {
        self.tbs.len()
    }

    /// The grid as runs of equal consecutive blocks, `(work, count)` in
    /// dispatch order. Batched grids repeat one per-instance grid per
    /// head, so a grid has far fewer runs than blocks.
    pub fn runs(&self) -> impl Iterator<Item = (TbWork, usize)> + '_ {
        self.tbs
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len()))
    }

    /// Aggregate work across all blocks.
    pub fn total(&self) -> TbWork {
        total_of(self.runs())
    }

    /// Total bytes moved to or from device memory.
    pub fn total_dram_bytes(&self) -> u64 {
        self.runs().map(|(w, n)| w.dram_bytes() * n as u64).sum()
    }

    /// Appends another kernel's blocks (used to batch per-head grids into
    /// one launch, as batched kernels do).
    pub fn extend_with(&mut self, other: &KernelProfile) {
        debug_assert_eq!(
            self.launch, other.launch,
            "batched grids share a launch config"
        );
        self.tbs.extend_from_slice(&other.tbs);
        self.cache = match (self.cache, other.cache) {
            (Some(a), Some(b)) => Some(a.merged(b)),
            _ => None, // mixed raw/filtered profiles cannot be re-filtered
        };
    }
}

/// Aggregate work of a grid given as runs of `(work, count)`.
pub(crate) fn total_of(runs: impl IntoIterator<Item = (TbWork, usize)>) -> TbWork {
    runs.into_iter().fold(TbWork::default(), |acc, (w, n)| {
        acc.merged(w.times(n as u64))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warps_round_up() {
        let l = LaunchConfig {
            threads_per_tb: 33,
            regs_per_thread: 32,
            smem_per_tb: 0,
        };
        assert_eq!(l.warps_per_tb(), 2);
        let l1 = LaunchConfig {
            threads_per_tb: 1,
            ..l
        };
        assert_eq!(l1.warps_per_tb(), 1);
    }

    #[test]
    fn totals_sum_over_blocks() {
        let w = TbWork {
            tensor_macs: 10,
            cuda_flops: 5,
            sfu_ops: 1,
            l2_read: 0,
            dram_read: 100,
            dram_write: 50,
            stall_cycles: 0,
        };
        let p = KernelProfile::uniform("k", LaunchConfig::default(), 4, w);
        let t = p.total();
        assert_eq!(t.tensor_macs, 40);
        assert_eq!(t.dram_read, 400);
        assert_eq!(p.total_dram_bytes(), 600);
    }

    #[test]
    fn merged_adds_fields() {
        let a = TbWork {
            tensor_macs: 1,
            cuda_flops: 2,
            sfu_ops: 3,
            l2_read: 0,
            dram_read: 4,
            dram_write: 5,
            stall_cycles: 6,
        };
        let b = a.merged(a);
        assert_eq!(b.tensor_macs, 2);
        assert_eq!(b.dram_write, 10);
        assert_eq!(b.stall_cycles, 12);
    }

    #[test]
    fn extend_with_concatenates_grids() {
        let w = TbWork::default();
        let mut a = KernelProfile::uniform("a", LaunchConfig::default(), 2, w);
        let b = KernelProfile::uniform("b", LaunchConfig::default(), 3, w);
        a.extend_with(&b);
        assert_eq!(a.tb_count(), 5);
    }
}
