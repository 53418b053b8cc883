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

/// A kernel work description given block by block: launch resources
/// plus the work of every thread block. This is an input form for
/// hand-built kernels; the timing engine and the cost-model pipeline
/// store grids as [`KernelRuns`], and `From<KernelProfile>` collapses a
/// per-block profile into runs once.
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
}

/// A thread-block grid as runs of equal consecutive blocks, `(work,
/// count)` in dispatch order.
///
/// The runs are kept canonical and maximal: every count is at least 1
/// and neighbouring runs differ, so two grids with the same blocks have
/// the same runs. Batched grids repeat one per-instance grid per head,
/// so a grid has far fewer runs than blocks.
///
/// # Examples
///
/// ```
/// use mg_gpusim::{Runs, TbWork};
///
/// let a = TbWork { cuda_flops: 1, ..TbWork::default() };
/// let b = TbWork { cuda_flops: 2, ..TbWork::default() };
/// let mut grid = Runs::from_blocks(&[a, a, b]);
/// grid.push(b, 3); // joins the trailing run of `b`
/// assert_eq!(grid.iter().collect::<Vec<_>>(), vec![(a, 2), (b, 4)]);
/// assert_eq!(grid.len(), 6); // blocks, not runs
/// assert_eq!(grid.repeat(2).iter().count(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Runs {
    runs: Vec<(TbWork, usize)>,
    blocks: usize,
}

impl Runs {
    /// An empty grid.
    pub fn new() -> Runs {
        Runs::default()
    }

    /// The runs of `blocks`, in order.
    pub fn from_blocks(blocks: &[TbWork]) -> Runs {
        blocks.iter().copied().collect()
    }

    /// Appends `n` blocks of `work`, joining the last run if it has the
    /// same work. Appending zero blocks does nothing.
    pub fn push(&mut self, work: TbWork, n: usize) {
        if n == 0 {
            return;
        }
        self.blocks += n;
        match self.runs.last_mut() {
            Some((last, count)) if *last == work => *count += n,
            _ => self.runs.push((work, n)),
        }
    }

    /// Appends the blocks of `other`, joining equal runs at the seam.
    pub fn extend(&mut self, other: &Runs) {
        for &(work, n) in &other.runs {
            self.push(work, n);
        }
    }

    /// The grid of `n` back-to-back copies of this one, with equal runs
    /// joined at every seam.
    pub fn repeat(&self, n: usize) -> Runs {
        let mut out = Runs::new();
        if let [(work, count)] = self.runs.as_slice() {
            out.push(*work, count * n);
        } else {
            out.runs.reserve(self.runs.len() * n);
            for _ in 0..n {
                out.extend(self);
            }
        }
        out
    }

    /// The grid with `f` applied to every block's work. Runs that become
    /// equal are joined, so the result stays canonical.
    pub fn map(&self, mut f: impl FnMut(TbWork) -> TbWork) -> Runs {
        let mut out = Runs::new();
        out.runs.reserve(self.runs.len());
        for &(work, n) in &self.runs {
            out.push(f(work), n);
        }
        out
    }

    /// The runs, `(work, count)` in dispatch order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (TbWork, usize)> + '_ {
        self.runs.iter().copied()
    }

    /// Number of thread blocks (not runs) in the grid.
    pub fn len(&self) -> usize {
        self.blocks
    }

    /// Whether the grid has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks == 0
    }

    /// The grid block by block.
    pub fn to_blocks(&self) -> Vec<TbWork> {
        let mut blocks = Vec::with_capacity(self.blocks);
        for &(work, n) in &self.runs {
            blocks.extend(std::iter::repeat_n(work, n));
        }
        blocks
    }

    /// Aggregate work across all blocks.
    pub fn total(&self) -> TbWork {
        self.runs.iter().fold(TbWork::default(), |acc, &(w, n)| {
            acc.merged(w.times(n as u64))
        })
    }
}

/// Collects blocks one at a time into canonical runs.
impl FromIterator<TbWork> for Runs {
    fn from_iter<I: IntoIterator<Item = TbWork>>(blocks: I) -> Runs {
        let mut runs = Runs::new();
        for work in blocks {
            runs.push(work, 1);
        }
        runs
    }
}

/// A complete kernel work description with its grid as runs: the form
/// the cost-model pipeline builds, filters, merges and times.
///
/// # Examples
///
/// ```
/// use mg_gpusim::{KernelProfile, KernelRuns, LaunchConfig, TbWork};
///
/// let work = TbWork { cuda_flops: 1_000, ..TbWork::default() };
/// let kernel = KernelRuns::from(KernelProfile::uniform("toy", LaunchConfig::default(), 64, work));
/// assert_eq!(kernel.tbs.len(), 64);
/// assert_eq!(kernel.tbs.iter().count(), 1);
/// assert_eq!(kernel.total().cuda_flops, 64_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRuns {
    /// Kernel name, used in records and reports.
    pub name: String,
    /// Per-block resource requirements.
    pub launch: LaunchConfig,
    /// The grid as runs of equal consecutive blocks.
    pub tbs: Runs,
    /// Cache-filter inputs, set by the cache model so merged kernels can
    /// be re-filtered (see [`CacheStats`]). `None` for raw kernels.
    pub cache: Option<CacheStats>,
}

impl KernelRuns {
    /// Creates a kernel of `n` identical thread blocks.
    pub fn uniform(
        name: impl Into<String>,
        launch: LaunchConfig,
        n: usize,
        work: TbWork,
    ) -> KernelRuns {
        let mut tbs = Runs::new();
        tbs.push(work, n);
        KernelRuns {
            name: name.into(),
            launch,
            tbs,
            cache: None,
        }
    }

    /// Aggregate work across all blocks.
    pub fn total(&self) -> TbWork {
        self.tbs.total()
    }

    /// Total bytes moved to or from device memory.
    pub fn total_dram_bytes(&self) -> u64 {
        self.total().dram_bytes()
    }
}

impl From<KernelProfile> for KernelRuns {
    fn from(profile: KernelProfile) -> KernelRuns {
        KernelRuns {
            name: profile.name,
            launch: profile.launch,
            tbs: Runs::from_blocks(&profile.tbs),
            cache: profile.cache,
        }
    }
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
        let p = KernelRuns::uniform("k", LaunchConfig::default(), 4, w);
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
    fn runs_extend_concatenates_grids() {
        let w = TbWork::default();
        let mut a = KernelRuns::uniform("a", LaunchConfig::default(), 2, w);
        let b = KernelRuns::uniform("b", LaunchConfig::default(), 3, w);
        a.tbs.extend(&b.tbs);
        assert_eq!(a.tbs.len(), 5);
        assert_eq!(a.tbs.iter().collect::<Vec<_>>(), vec![(w, 5)]);
    }

    #[test]
    fn collapsing_a_profile_keeps_its_blocks() {
        let a = TbWork {
            cuda_flops: 1,
            ..TbWork::default()
        };
        let tbs = vec![a, a, TbWork::default(), a];
        let profile = KernelProfile {
            name: "k".into(),
            launch: LaunchConfig::default(),
            tbs: tbs.clone(),
            cache: None,
        };
        let runs = KernelRuns::from(profile);
        assert_eq!(runs.tbs.iter().count(), 3);
        assert_eq!(runs.tbs.to_blocks(), tbs);
        assert!(Runs::new().is_empty());
    }
}
