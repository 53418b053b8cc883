//! The timing engine: per-kernel duration via list scheduling over SM
//! slots, and event-driven multi-stream co-execution.
//!
//! ## Single-kernel model
//!
//! Thread blocks are dispatched greedily to the earliest-free slot among
//! `allocated_sms × resident_tbs_per_sm` slots (the round-robin-as-slots-
//! free behaviour described in paper §2.1). A block's service time is the
//! slowest of its pipe times at the slot's fair share of SM throughput,
//! its DRAM time at the SM's bandwidth share, plus a fixed dispatch
//! overhead. Kernel duration is the larger of the schedule makespan and
//! the aggregate-DRAM roofline; this is what makes load imbalance (few or
//! skewed blocks) and memory-boundedness both visible.
//!
//! ## Multi-stream model
//!
//! Kernels at the head of different streams run concurrently, dividing
//! the SM pool proportionally to their block demand (space sharing). An
//! event loop advances to each completion, re-partitioning the pool —
//! the concurrency mechanism Multigrain exploits (§3.1).

use crate::occupancy::{resident_tbs_per_sm, theoretical_occupancy};
use crate::{DeviceSpec, KernelRuns, LaunchConfig, Runs, TbWork};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which resource bounded a kernel's duration — the roofline verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// Tensor-core pipe throughput.
    TensorPipe,
    /// CUDA-core pipe throughput.
    CudaPipe,
    /// Special-function-unit throughput.
    SfuPipe,
    /// Device-memory bandwidth.
    DramBandwidth,
    /// L2 bandwidth (on-chip data movement).
    L2Bandwidth,
    /// The block schedule itself (imbalance, too few blocks, or per-block
    /// overheads) rather than any aggregate roofline.
    Schedule,
}

impl BoundKind {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            BoundKind::TensorPipe => "tensor",
            BoundKind::CudaPipe => "cuda",
            BoundKind::SfuPipe => "sfu",
            BoundKind::DramBandwidth => "dram",
            BoundKind::L2Bandwidth => "l2",
            BoundKind::Schedule => "schedule",
        }
    }
}

/// Result of timing one kernel, including the profiling counters the
/// paper reads from Nsight Compute (duration, DRAM traffic, occupancy).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Kernel name copied from the profile.
    pub name: String,
    /// Stream the kernel ran in.
    pub stream: StreamId,
    /// Simulated start time, seconds.
    pub start: f64,
    /// Simulated end time, seconds.
    pub end: f64,
    /// Bytes moved to/from device memory.
    pub dram_bytes: u64,
    /// Thread blocks in the grid.
    pub tb_count: usize,
    /// Occupancy bound from the launch configuration.
    pub theoretical_occupancy: f64,
    /// Fraction of slot-time the schedule kept busy — the achieved /
    /// theoretical occupancy ratio the paper uses to quantify load
    /// imbalance (§5.2.1). 1.0 means perfectly balanced.
    pub achieved_over_theoretical: f64,
    /// The resource that bounded the kernel's duration.
    pub bound: BoundKind,
}

impl KernelRecord {
    /// Kernel duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Identifier of a stream created by [`Gpu::create_stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub(crate) usize);

impl StreamId {
    /// The stream's index (0 is the default stream).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// The default stream, which always exists.
pub const DEFAULT_STREAM: StreamId = StreamId(0);

/// A kernel's grid as the timing model reads it: the launch, the
/// kernel's runs of equal consecutive blocks and their aggregate work.
/// Built once per kernel, since `synchronize` re-times a kernel on every
/// SM-share change.
#[derive(Debug)]
struct Grid<'a> {
    launch: LaunchConfig,
    runs: &'a Runs,
    total: TbWork,
    /// The busy sum of the last timing and the co-residency it was taken
    /// at. Block times depend on the SM count only through co-residency,
    /// and a large grid keeps the same co-residency on every share.
    busy: Cell<Option<(usize, f64)>>,
}

impl Grid<'_> {
    fn of(kernel: &KernelRuns) -> Grid<'_> {
        Grid {
            launch: kernel.launch,
            runs: &kernel.tbs,
            total: kernel.total(),
            busy: Cell::new(None),
        }
    }
}

/// Duration and busy fraction of one kernel run on `sms` SMs.
fn kernel_time_on(spec: &DeviceSpec, grid: &Grid, sms: usize) -> (f64, f64, BoundKind) {
    let sms = sms.max(1);
    let blocks = grid.runs.len();
    if blocks == 0 {
        return (spec.launch_overhead_s, 1.0, BoundKind::Schedule);
    }
    let resident = resident_tbs_per_sm(spec, &grid.launch);
    // Blocks actually co-resident per SM: bounded by occupancy, but an
    // underfilled grid leaves SMs with fewer (or no) neighbours.
    let concurrent = blocks.div_ceil(sms).clamp(1, resident);
    let slots = sms * concurrent;
    // A block's share of the SM pipes: fair share among co-residents, but
    // never more than its own warps can issue.
    let share = (grid.launch.warps_per_tb() as f64 / spec.warps_to_saturate)
        .min(1.0 / concurrent as f64)
        .min(1.0);
    let tensor_rate = spec.sm_tensor_rate() * share;
    let cuda_rate = spec.sm_cuda_rate() * share;
    let sfu_rate = spec.sm_sfu_rate() * share;
    let bw_slot = spec.bw_per_sm(); // one block may burst to the SM's share
    let l2_slot = spec.l2_bw_per_sm();
    let tb_overhead = spec.tb_overhead_s();

    let tb_time = |w: &TbWork| -> f64 {
        let t_tensor = 2.0 * w.tensor_macs as f64 / tensor_rate;
        let t_cuda = w.cuda_flops as f64 / cuda_rate;
        let t_sfu = w.sfu_ops as f64 / sfu_rate;
        let t_mem = w.dram_bytes() as f64 / bw_slot;
        let t_l2 = (w.l2_read + w.dram_write) as f64 / l2_slot;
        let t_stall = w.stall_cycles as f64 / (spec.clock_ghz * 1e9);
        t_tensor.max(t_cuda).max(t_sfu).max(t_mem).max(t_l2) + t_stall + tb_overhead
    };

    // The slot time blocks keep busy: whichever slot a block lands on, it
    // adds its own time, so the sum is over blocks in dispatch order. One
    // addition per block: `n * t` rounds differently.
    let busy_total = match grid.busy.get() {
        Some((at, busy)) if at == concurrent => busy,
        _ => {
            let mut busy = 0.0;
            for (w, n) in grid.runs.iter() {
                let t = tb_time(&w);
                for _ in 0..n {
                    busy += t;
                }
            }
            grid.busy.set(Some((concurrent, busy)));
            busy
        }
    };

    // Greedy list schedule: each block goes to the earliest-free slot.
    // Slots are kept as groups of equal free time, `(time, count)`. The
    // schedule depends only on the multiset of free times, and every slot
    // of the earliest group is served before any slot freed at `time + t`,
    // so a run of equal blocks takes `min(count, left)` slots of the
    // earliest group at a time — exactly the per-block schedule.
    let mut groups: BinaryHeap<Reverse<(OrderedF64, usize)>> = BinaryHeap::new();
    groups.push(Reverse((OrderedF64(0.0), slots.min(blocks))));
    let mut makespan = 0.0f64;
    for (w, n) in grid.runs.iter() {
        let t = tb_time(&w);
        let mut left = n;
        while left > 0 {
            let Reverse((OrderedF64(free_at), mut count)) = groups.pop().expect("slots > 0");
            while let Some(Reverse((OrderedF64(next), more))) = groups.peek() {
                if *next != free_at {
                    break;
                }
                count += more;
                groups.pop();
            }
            let served = count.min(left);
            let end = free_at + t;
            makespan = makespan.max(end);
            if count > served {
                groups.push(Reverse((OrderedF64(free_at), count - served)));
            }
            groups.push(Reverse((OrderedF64(end), served)));
            left -= served;
        }
    }

    // Aggregate rooflines over the allocation (bandwidth and pipes cannot
    // exceed the allocated share even with perfect balance).
    let total = grid.total;
    let frac = sms as f64 / spec.sm_count as f64;
    // Memory bandwidth is a device-wide resource: a kernel on a slice of
    // the SMs can still burst to about half the device bandwidth while
    // its co-runners are compute-bound.
    let bw_frac = frac.max(0.5);
    let agg_mem = total.dram_bytes() as f64 / (spec.mem_bw_bytes_per_s * bw_frac);
    let agg_l2 = (total.l2_read + total.dram_write) as f64 / (spec.l2_bw_bytes_per_s * bw_frac);
    let agg_tensor = 2.0 * total.tensor_macs as f64 / (spec.sm_tensor_rate() * sms as f64);
    let agg_cuda = total.cuda_flops as f64 / (spec.sm_cuda_rate() * sms as f64);
    let agg_sfu = total.sfu_ops as f64 / (spec.sm_sfu_rate() * sms as f64);
    let aggregates = [
        (agg_mem, BoundKind::DramBandwidth),
        (agg_l2, BoundKind::L2Bandwidth),
        (agg_tensor, BoundKind::TensorPipe),
        (agg_cuda, BoundKind::CudaPipe),
        (agg_sfu, BoundKind::SfuPipe),
    ];
    let (best_agg, agg_bound) = aggregates
        .into_iter()
        .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"))
        .expect("non-empty");
    let duration = makespan.max(best_agg);
    // A balanced schedule always sits a hair above the binding roofline
    // (per-block overheads); call it schedule-bound only when the
    // schedule meaningfully exceeds every aggregate (imbalance, launch
    // quantization, or per-block overhead domination).
    let bound = if makespan > best_agg * 1.10 {
        BoundKind::Schedule
    } else {
        agg_bound
    };
    // Occupancy ratio (Nsight's achieved/theoretical) is about warp slots
    // being busy while blocks run: measure against the schedule makespan,
    // not the roofline-padded duration.
    let busy_fraction = if makespan > 0.0 {
        (busy_total / (slots as f64 * makespan)).min(1.0)
    } else {
        1.0
    };
    (duration + spec.launch_overhead_s, busy_fraction, bound)
}

/// Times one kernel running alone on the whole device, without touching
/// any [`Gpu`] state. The record's clock starts at zero; it is otherwise
/// identical to `Gpu::new(spec).run_solo(kernel)`.
pub fn time_kernel(spec: &DeviceSpec, kernel: &KernelRuns) -> KernelRecord {
    let grid = Grid::of(kernel);
    let (duration, busy, bound) = kernel_time_on(spec, &grid, spec.sm_count);
    KernelRecord {
        name: kernel.name.clone(),
        stream: DEFAULT_STREAM,
        start: 0.0,
        end: duration,
        dram_bytes: grid.total.dram_bytes(),
        tb_count: kernel.tbs.len(),
        theoretical_occupancy: theoretical_occupancy(spec, &kernel.launch),
        achieved_over_theoretical: busy,
        bound,
    }
}

/// Times a batch of independent kernels, each alone on the whole
/// device, returning records in input order.
///
/// With the `parallel` feature enabled the profiles are timed on multiple
/// threads; each kernel's list schedule still runs serially, so the
/// records are bit-identical to calling [`time_kernel`] in a loop.
pub fn time_kernels_par(spec: &DeviceSpec, kernels: &[KernelRuns]) -> Vec<KernelRecord> {
    #[cfg(feature = "parallel")]
    {
        use rayon::prelude::*;
        kernels.par_iter().map(|k| time_kernel(spec, k)).collect()
    }
    #[cfg(not(feature = "parallel"))]
    {
        kernels.iter().map(|k| time_kernel(spec, k)).collect()
    }
}

/// Splits `capacity` units among demands: each claimant gets at most its
/// demand and at least 1; surplus is redistributed to still-hungry
/// claimants (waterfilling).
fn waterfill(demands: &[usize], capacity: usize) -> Vec<usize> {
    let n = demands.len();
    let mut shares = vec![0usize; n];
    let mut satisfied = vec![false; n];
    let mut remaining = capacity;
    loop {
        let hungry: Vec<usize> = (0..n).filter(|&i| !satisfied[i]).collect();
        if hungry.is_empty() || remaining == 0 {
            break;
        }
        let fair = (remaining / hungry.len()).max(1);
        let mut progress = false;
        for &i in &hungry {
            let want = demands[i].saturating_sub(shares[i]);
            let grant = want.min(fair).min(remaining);
            shares[i] += grant;
            remaining -= grant;
            if shares[i] >= demands[i] {
                satisfied[i] = true;
            }
            if grant > 0 {
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    // Leftover capacity goes to the largest demander; everyone gets >= 1.
    if remaining > 0 {
        if let Some(max_i) = (0..n).max_by_key(|&i| demands[i]) {
            shares[max_i] += remaining;
        }
    }
    for s in &mut shares {
        *s = (*s).max(1);
    }
    shares
}

/// f64 wrapper ordered by value (all times are finite).
#[derive(PartialEq, PartialOrd)]
struct OrderedF64(f64);
impl Eq for OrderedF64 {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("times are finite")
    }
}

/// Identifier of a launched kernel, used to express cross-stream
/// dependencies (the CUDA-event mechanism).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(usize);

struct Pending {
    id: KernelId,
    kernel: KernelRuns,
    stream: StreamId,
    deps: Vec<KernelId>,
}

/// A simulated GPU: holds the device spec, stream queues, the simulated
/// clock, and the records of every kernel that has run.
///
/// # Examples
///
/// ```
/// use mg_gpusim::{DeviceSpec, Gpu, KernelProfile, LaunchConfig, TbWork, DEFAULT_STREAM};
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let work = TbWork { cuda_flops: 1 << 20, dram_read: 1 << 16, ..TbWork::default() };
/// gpu.launch(DEFAULT_STREAM, KernelProfile::uniform("k", LaunchConfig::default(), 256, work));
/// let t = gpu.synchronize();
/// assert!(t > 0.0);
/// assert_eq!(gpu.records().len(), 1);
/// ```
#[derive(Debug)]
pub struct Gpu {
    spec: DeviceSpec,
    time: f64,
    queues: Vec<Vec<Pending>>, // per stream, FIFO (drained from the front)
    records: Vec<KernelRecord>,
    /// Whether each launched kernel has completed, indexed by `KernelId`
    /// (ids are dense), so dependencies resolve across `synchronize` calls.
    completed: Vec<bool>,
}

impl std::fmt::Debug for Pending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Pending({:?}: {} on {:?}, {} deps)",
            self.id,
            self.kernel.name,
            self.stream,
            self.deps.len()
        )
    }
}

impl Gpu {
    /// Creates a GPU with the default stream.
    pub fn new(spec: DeviceSpec) -> Gpu {
        Gpu {
            spec,
            time: 0.0,
            queues: vec![Vec::new()],
            records: Vec::new(),
            completed: Vec::new(),
        }
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Creates an additional stream; kernels in different streams may
    /// co-execute.
    pub fn create_stream(&mut self) -> StreamId {
        self.queues.push(Vec::new());
        StreamId(self.queues.len() - 1)
    }

    /// Returns the stream with the given index, creating intermediate
    /// streams as needed (index 0 is the default stream). Unlike
    /// [`Gpu::create_stream`], repeated calls reuse the same stream.
    pub fn stream(&mut self, index: usize) -> StreamId {
        while self.queues.len() <= index {
            self.queues.push(Vec::new());
        }
        StreamId(index)
    }

    /// Enqueues a kernel on a stream (asynchronous: returns immediately)
    /// and returns its id for use in dependencies. Takes the run form or
    /// a per-block [`KernelProfile`](crate::KernelProfile), which is
    /// collapsed into runs once.
    ///
    /// # Panics
    ///
    /// Panics if `stream` was not created by this GPU.
    pub fn launch(&mut self, stream: StreamId, kernel: impl Into<KernelRuns>) -> KernelId {
        self.launch_after(stream, kernel, &[])
    }

    /// Enqueues a kernel that must additionally wait for every kernel in
    /// `deps` to complete (CUDA events / `cudaStreamWaitEvent`). In-stream
    /// FIFO order still applies on top of the dependencies.
    ///
    /// # Panics
    ///
    /// Panics if `stream` was not created by this GPU.
    pub fn launch_after(
        &mut self,
        stream: StreamId,
        kernel: impl Into<KernelRuns>,
        deps: &[KernelId],
    ) -> KernelId {
        assert!(stream.0 < self.queues.len(), "unknown stream");
        let id = KernelId(self.completed.len());
        self.completed.push(false);
        self.queues[stream.0].push(Pending {
            id,
            kernel: kernel.into(),
            stream,
            deps: deps.to_vec(),
        });
        id
    }

    /// Runs every enqueued kernel to completion, co-executing across
    /// streams, and returns the simulated time.
    pub fn synchronize(&mut self) -> f64 {
        // Active kernel state: (queue idx, grid, duration at its current
        // share, remaining fraction).
        struct Active<'a> {
            queue: usize,
            grid: Grid<'a>,
            share: usize,
            duration_at_share: f64,
            busy_at_share: f64,
            bound_at_share: BoundKind,
            remaining: f64, // fraction of the kernel still to run
            start: f64,
        }
        let mut active: Vec<Active> = Vec::new();
        // Drain queues front-first; keep cursor per queue.
        let mut cursors = vec![0usize; self.queues.len()];

        loop {
            // Admit the head kernel of every stream that has none active
            // and whose dependencies have all completed.
            #[allow(clippy::needless_range_loop)] // q indexes two arrays
            for q in 0..self.queues.len() {
                let has_active = active.iter().any(|a| a.queue == q);
                if !has_active && cursors[q] < self.queues[q].len() {
                    let pending = &self.queues[q][cursors[q]];
                    if pending
                        .deps
                        .iter()
                        .all(|d| self.completed.get(d.0) == Some(&true))
                    {
                        active.push(Active {
                            queue: q,
                            grid: Grid::of(&pending.kernel),
                            share: 0,
                            duration_at_share: 0.0,
                            busy_at_share: 1.0,
                            bound_at_share: BoundKind::Schedule,
                            remaining: 1.0,
                            start: self.time,
                        });
                    }
                }
            }
            if active.is_empty() {
                let all_drained = cursors
                    .iter()
                    .zip(self.queues.iter())
                    .all(|(&c, q)| c >= q.len());
                assert!(
                    all_drained,
                    "dependency deadlock: kernels remain but none is runnable"
                );
                break;
            }

            // Partition SMs proportionally to block demand.
            let demands: Vec<usize> = active
                .iter()
                .map(|a| {
                    let resident = resident_tbs_per_sm(&self.spec, &a.grid.launch).max(1);
                    a.grid
                        .runs
                        .len()
                        .div_ceil(resident)
                        .clamp(1, self.spec.sm_count)
                })
                .collect();
            // Waterfilling: every kernel gets the SMs it can actually
            // occupy, up to a fair share; surplus flows to kernels that
            // can still use it. A lone kernel sees the whole device.
            let shares = waterfill(&demands, self.spec.sm_count);

            // Refresh cached durations where the share changed.
            for (a, &share) in active.iter_mut().zip(shares.iter()) {
                if a.share != share {
                    let (d, busy, bound) = kernel_time_on(&self.spec, &a.grid, share);
                    a.share = share;
                    a.duration_at_share = d;
                    a.busy_at_share = busy;
                    a.bound_at_share = bound;
                }
            }

            // Advance to the next completion.
            let dt = active
                .iter()
                .map(|a| a.remaining * a.duration_at_share)
                .fold(f64::INFINITY, f64::min);
            self.time += dt;
            for a in &mut active {
                a.remaining -= dt / a.duration_at_share;
            }

            // Retire finished kernels (with a tolerance for float error).
            let finished: Vec<usize> = (0..active.len())
                .filter(|&i| active[i].remaining <= 1e-12)
                .collect();
            for &i in finished.iter().rev() {
                let a = active.swap_remove(i);
                let pending = &self.queues[a.queue][cursors[a.queue]];
                self.completed[pending.id.0] = true;
                self.records.push(KernelRecord {
                    name: pending.kernel.name.clone(),
                    stream: pending.stream,
                    start: a.start,
                    end: self.time,
                    dram_bytes: a.grid.total.dram_bytes(),
                    tb_count: a.grid.runs.len(),
                    theoretical_occupancy: theoretical_occupancy(&self.spec, &a.grid.launch),
                    achieved_over_theoretical: a.busy_at_share,
                    bound: a.bound_at_share,
                });
                cursors[a.queue] += 1;
            }
        }
        for q in &mut self.queues {
            q.clear();
        }
        self.time
    }

    /// Convenience: run one kernel alone on the default stream and return
    /// its record.
    pub fn run_solo(&mut self, kernel: impl Into<KernelRuns>) -> KernelRecord {
        self.launch(DEFAULT_STREAM, kernel);
        self.synchronize();
        self.records.last().expect("just ran").clone()
    }

    /// The simulated clock, seconds.
    pub fn elapsed(&self) -> f64 {
        self.time
    }

    /// Advances the simulated clock to `t` seconds if it is behind.
    ///
    /// The device idles until `t`; kernels launched afterwards start no
    /// earlier than `t`. Serving simulators use this to align a device
    /// clock with an external arrival clock, so the recorded kernel
    /// timestamps land on the server timeline. Moving the clock backwards
    /// is a no-op.
    pub fn advance_to(&mut self, t: f64) {
        if t > self.time {
            self.time = t;
        }
    }

    /// Fraction of the window `[from, until]` during which at least one
    /// kernel was executing, computed as the union of record intervals.
    ///
    /// Returns `0.0` for an empty or inverted window. Concurrent kernels
    /// on different streams count once — this measures busy *time*, not
    /// utilization-weighted occupancy.
    pub fn busy_fraction(&self, from: f64, until: f64) -> f64 {
        busy_seconds(&self.records, from, until) / (until - from).max(f64::MIN_POSITIVE)
    }

    /// Halts the device at time `t`: every record that starts at or
    /// after `t` is discarded, records spanning `t` are clipped to end
    /// there (the kernel was cut off mid-flight and its work is lost),
    /// and the clock is pinned to `t`.
    ///
    /// This models a device dropping out of a fleet — a worker failure
    /// in a cluster simulation. The clipped trace shows exactly what the
    /// device had finished when it died; nothing scheduled past the halt
    /// survives. Pending (unsynchronized) kernels are dropped too. A
    /// halt in the future (`t >= elapsed`) only advances the clock.
    pub fn halt_at(&mut self, t: f64) {
        self.records.retain(|r| r.start < t);
        for r in &mut self.records {
            if r.end > t {
                r.end = t;
            }
        }
        for q in &mut self.queues {
            q.clear();
        }
        self.time = t;
    }

    /// Records of every kernel completed so far, in completion order.
    pub fn records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// Total DRAM traffic across all completed kernels, bytes.
    pub fn total_dram_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.dram_bytes).sum()
    }

    /// Clears the clock and records (streams survive).
    pub fn reset(&mut self) {
        self.time = 0.0;
        self.records.clear();
        for q in &mut self.queues {
            q.clear();
        }
    }
}

/// Total seconds within `[from, until]` covered by at least one record's
/// `[start, end]` interval (interval union, not a sum — overlapping
/// kernels on different streams are not double counted).
pub fn busy_seconds(records: &[KernelRecord], from: f64, until: f64) -> f64 {
    let mut spans: Vec<(f64, f64)> = records
        .iter()
        .map(|r| (r.start.max(from), r.end.min(until)))
        .filter(|(s, e)| e > s)
        .collect();
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut busy = 0.0;
    let mut cursor = f64::NEG_INFINITY;
    for (s, e) in spans {
        let s = s.max(cursor);
        if e > s {
            busy += e - s;
            cursor = e;
        }
    }
    busy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelProfile, LaunchConfig, TbWork};

    #[test]
    fn advance_to_only_moves_forward() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        gpu.advance_to(2.5);
        assert_eq!(gpu.elapsed(), 2.5);
        gpu.advance_to(1.0);
        assert_eq!(gpu.elapsed(), 2.5);
        let before = gpu.elapsed();
        gpu.launch(
            DEFAULT_STREAM,
            KernelProfile::uniform(
                "late",
                LaunchConfig::default(),
                4,
                TbWork {
                    cuda_flops: 1 << 16,
                    ..TbWork::default()
                },
            ),
        );
        gpu.synchronize();
        let rec = gpu.records().last().unwrap();
        assert!(
            rec.start >= before,
            "kernel starts after the advanced clock"
        );
    }

    #[test]
    fn halt_clips_records_and_pins_the_clock() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let work = TbWork {
            cuda_flops: 1 << 20,
            dram_read: 1 << 16,
            ..TbWork::default()
        };
        gpu.launch(
            DEFAULT_STREAM,
            KernelProfile::uniform("first", LaunchConfig::default(), 256, work),
        );
        gpu.launch(
            DEFAULT_STREAM,
            KernelProfile::uniform("second", LaunchConfig::default(), 256, work),
        );
        gpu.synchronize();
        assert_eq!(gpu.records().len(), 2);
        let first_end = gpu.records()[0].end;
        let second_end = gpu.records()[1].end;
        // Die halfway through the second kernel: the first record
        // survives whole, the second is clipped at the halt point.
        let halt = (first_end + second_end) / 2.0;
        gpu.halt_at(halt);
        assert_eq!(gpu.records().len(), 2);
        assert_eq!(gpu.records()[0].end, first_end);
        assert_eq!(gpu.records()[1].end, halt);
        assert_eq!(gpu.elapsed(), halt);
        // A halt before everything wipes the trace; pending work dies too.
        gpu.launch(
            DEFAULT_STREAM,
            KernelProfile::uniform("never", LaunchConfig::default(), 16, work),
        );
        gpu.halt_at(0.0);
        assert!(gpu.records().is_empty());
        assert_eq!(gpu.synchronize(), 0.0, "pending queue was dropped");
    }

    #[test]
    fn busy_seconds_unions_overlapping_intervals() {
        let rec = |start: f64, end: f64| KernelRecord {
            name: "k".to_owned(),
            stream: DEFAULT_STREAM,
            start,
            end,
            dram_bytes: 0,
            tb_count: 1,
            theoretical_occupancy: 1.0,
            achieved_over_theoretical: 1.0,
            bound: BoundKind::CudaPipe,
        };
        // [0,2] and [1,3] overlap -> union [0,3]; [5,6] is disjoint.
        let records = vec![rec(0.0, 2.0), rec(1.0, 3.0), rec(5.0, 6.0)];
        let busy = busy_seconds(&records, 0.0, 10.0);
        assert!((busy - 4.0).abs() < 1e-12, "{busy}");
        // Clamped to the window.
        let busy = busy_seconds(&records, 2.5, 5.5);
        assert!((busy - 1.0).abs() < 1e-12, "{busy}");
        // Inverted window -> nothing.
        assert_eq!(busy_seconds(&records, 4.0, 1.0), 0.0);
    }

    #[test]
    fn bound_classification_matches_the_work_shape() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        // Pure tensor work, machine-filling grid -> tensor-pipe bound.
        let rec = gpu.run_solo(KernelProfile::uniform(
            "t",
            LaunchConfig::default(),
            108 * 32,
            TbWork {
                tensor_macs: 1 << 22,
                ..TbWork::default()
            },
        ));
        assert_eq!(rec.bound, BoundKind::TensorPipe);
        gpu.reset();
        // Pure DRAM streaming -> bandwidth bound.
        let rec = gpu.run_solo(KernelProfile::uniform(
            "m",
            LaunchConfig::default(),
            108 * 32,
            TbWork {
                dram_read: 1 << 22,
                ..TbWork::default()
            },
        ));
        assert_eq!(rec.bound, BoundKind::DramBandwidth);
        gpu.reset();
        // One huge straggler in a small grid -> schedule bound.
        let mut tbs = vec![
            TbWork {
                cuda_flops: 1 << 12,
                ..TbWork::default()
            };
            8
        ];
        tbs.push(TbWork {
            cuda_flops: 1 << 28,
            ..TbWork::default()
        });
        let rec = gpu.run_solo(KernelProfile {
            name: "s".into(),
            launch: LaunchConfig::default(),
            tbs,
            cache: None,
        });
        assert_eq!(rec.bound, BoundKind::Schedule);
    }

    #[test]
    fn profile_and_its_runs_time_bit_identically() {
        // A hand-built per-block grid with repeats, a straggler and an
        // empty block, launched as a profile and as its run form.
        let mut tbs = vec![compute_tb(1 << 16); 300];
        tbs.push(compute_tb(1 << 24));
        tbs.extend(vec![TbWork::default(); 5]);
        tbs.extend(vec![compute_tb(1 << 16); 40]);
        let profile = KernelProfile {
            name: "hand".into(),
            launch: LaunchConfig::default(),
            tbs,
            cache: None,
        };
        let runs = KernelRuns::from(profile.clone());
        assert_eq!(runs.tbs.len(), profile.tbs.len());
        let spec = DeviceSpec::a100();
        let a = Gpu::new(spec.clone()).run_solo(profile);
        let b = Gpu::new(spec.clone()).run_solo(runs.clone());
        let c = time_kernel(&spec, &runs);
        for r in [&b, &c] {
            assert_eq!(r.duration().to_bits(), a.duration().to_bits());
            assert_eq!(
                r.achieved_over_theoretical.to_bits(),
                a.achieved_over_theoretical.to_bits()
            );
            assert_eq!(
                (r.bound, r.tb_count, r.dram_bytes),
                (a.bound, a.tb_count, a.dram_bytes)
            );
        }
    }

    #[test]
    fn waterfill_lone_claimant_takes_everything() {
        assert_eq!(waterfill(&[10], 108), vec![108]);
    }

    #[test]
    fn waterfill_small_demands_fully_satisfied() {
        let shares = waterfill(&[4, 200], 108);
        assert_eq!(shares[0], 4, "small demand satisfied exactly");
        assert_eq!(shares[1], 104, "surplus flows to the hungry claimant");
    }

    #[test]
    fn waterfill_equal_demands_split_evenly() {
        let shares = waterfill(&[500, 500], 108);
        assert_eq!(shares[0] + shares[1], 108);
        assert!((shares[0] as i64 - shares[1] as i64).abs() <= 1);
    }

    #[test]
    fn waterfill_never_grants_zero() {
        let shares = waterfill(&[1000, 1, 1000], 2);
        assert!(shares.iter().all(|&s| s >= 1));
    }

    #[test]
    fn waterfill_conserves_capacity_when_demand_exceeds_it() {
        let shares = waterfill(&[300, 200, 100], 108);
        assert_eq!(shares.iter().sum::<usize>(), 108);
    }

    fn compute_tb(flops: u64) -> TbWork {
        TbWork {
            cuda_flops: flops,
            ..TbWork::default()
        }
    }

    fn uniform(name: &str, n: usize, flops: u64) -> KernelProfile {
        KernelProfile::uniform(name, LaunchConfig::default(), n, compute_tb(flops))
    }

    #[test]
    fn more_work_takes_longer() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let small = gpu.run_solo(uniform("small", 108, 1 << 20)).duration();
        gpu.reset();
        let big = gpu.run_solo(uniform("big", 108, 1 << 24)).duration();
        assert!(big > small);
    }

    #[test]
    fn duration_scales_down_with_parallelism() {
        // Same total work in 10x more blocks finishes faster when the few
        // blocks underfill the machine.
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let few = gpu.run_solo(uniform("few", 8, 10 << 20)).duration();
        gpu.reset();
        let many = gpu.run_solo(uniform("many", 80, 1 << 20)).duration();
        assert!(many < few, "many={many} few={few}");
    }

    #[test]
    fn straggler_block_dominates() {
        let mut tbs = vec![compute_tb(1 << 16); 1000];
        tbs.push(compute_tb(1 << 28));
        let profile = KernelProfile {
            name: "skewed".into(),
            launch: LaunchConfig::default(),
            tbs,
            cache: None,
        };
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let rec = gpu.run_solo(profile);
        assert!(
            rec.achieved_over_theoretical < 0.5,
            "imbalance visible: {}",
            rec.achieved_over_theoretical
        );
    }

    #[test]
    fn balanced_grid_has_high_busy_fraction() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let rec = gpu.run_solo(uniform("balanced", 108 * 8 * 4, 1 << 22));
        assert!(
            rec.achieved_over_theoretical > 0.9,
            "busy {}",
            rec.achieved_over_theoretical
        );
    }

    #[test]
    fn memory_bound_kernel_hits_bandwidth_roofline() {
        let spec = DeviceSpec::a100();
        let bytes_total: u64 = 16 << 30; // 16 GiB
        let n = 108 * 32;
        let w = TbWork {
            dram_read: bytes_total / n as u64,
            ..TbWork::default()
        };
        let mut gpu = Gpu::new(spec.clone());
        let d = gpu
            .run_solo(KernelProfile::uniform("mem", LaunchConfig::default(), n, w))
            .duration();
        let roofline = bytes_total as f64 / spec.mem_bw_bytes_per_s;
        assert!(d >= roofline, "cannot beat bandwidth: {d} vs {roofline}");
        assert!(
            d < roofline * 1.5,
            "should be near the roofline: {d} vs {roofline}"
        );
    }

    #[test]
    fn two_streams_overlap() {
        let mut serial = Gpu::new(DeviceSpec::a100());
        serial.launch(DEFAULT_STREAM, uniform("a", 2000, 1 << 22));
        serial.launch(DEFAULT_STREAM, uniform("b", 2000, 1 << 22));
        let t_serial = serial.synchronize();

        let mut par = Gpu::new(DeviceSpec::a100());
        let s1 = par.create_stream();
        par.launch(DEFAULT_STREAM, uniform("a", 2000, 1 << 22));
        par.launch(s1, uniform("b", 2000, 1 << 22));
        let t_par = par.synchronize();

        assert!(t_par < t_serial, "overlap must help: {t_par} vs {t_serial}");
        // But not below the single-kernel time (they share the machine).
        let mut solo = Gpu::new(DeviceSpec::a100());
        let t_solo = solo.run_solo(uniform("a", 2000, 1 << 22)).duration();
        assert!(t_par >= t_solo * 0.99);
    }

    #[test]
    fn stream_order_is_preserved() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        gpu.launch(DEFAULT_STREAM, uniform("first", 64, 1 << 20));
        gpu.launch(DEFAULT_STREAM, uniform("second", 64, 1 << 20));
        gpu.synchronize();
        let names: Vec<&str> = gpu.records().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["first", "second"]);
        assert!(gpu.records()[0].end <= gpu.records()[1].start + 1e-12);
    }

    #[test]
    fn records_accumulate_dram_traffic() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let w = TbWork {
            dram_read: 1000,
            dram_write: 24,
            ..TbWork::default()
        };
        gpu.run_solo(KernelProfile::uniform("m", LaunchConfig::default(), 10, w));
        assert_eq!(gpu.total_dram_bytes(), 10240);
    }

    #[test]
    fn reset_clears_state() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        gpu.run_solo(uniform("k", 16, 1 << 18));
        gpu.reset();
        assert_eq!(gpu.elapsed(), 0.0);
        assert!(gpu.records().is_empty());
    }

    #[test]
    fn cross_stream_dependency_orders_execution() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let s1 = gpu.create_stream();
        let a = gpu.launch(DEFAULT_STREAM, uniform("a", 500, 1 << 22));
        // b waits for a even though it sits on another stream.
        gpu.launch_after(s1, uniform("b", 500, 1 << 22), &[a]);
        gpu.synchronize();
        let recs = gpu.records();
        let ra = recs.iter().find(|r| r.name == "a").expect("a ran");
        let rb = recs.iter().find(|r| r.name == "b").expect("b ran");
        assert!(rb.start >= ra.end - 1e-12, "b must wait for a");
    }

    #[test]
    fn independent_streams_still_overlap_with_dep_api() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let s1 = gpu.create_stream();
        gpu.launch_after(DEFAULT_STREAM, uniform("a", 2000, 1 << 22), &[]);
        gpu.launch_after(s1, uniform("b", 2000, 1 << 22), &[]);
        gpu.synchronize();
        let recs = gpu.records();
        assert!(recs[0].start < recs[1].end && recs[1].start < recs[0].end);
    }

    #[test]
    #[should_panic(expected = "dependency deadlock")]
    fn waiting_on_a_never_launched_kernel_deadlocks() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let s1 = gpu.create_stream();
        // Reserve an id by launching on s1 AFTER the dependent: the dep
        // id used here is never completed first because it's behind.
        let _first = gpu.launch(DEFAULT_STREAM, uniform("x", 4, 1 << 16));
        let ghost = KernelId(999);
        gpu.launch_after(s1, uniform("y", 4, 1 << 16), &[ghost]);
        gpu.synchronize();
    }

    #[test]
    fn dependency_on_a_kernel_from_an_earlier_synchronize_resolves() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let s1 = gpu.create_stream();
        let a = gpu.launch(DEFAULT_STREAM, uniform("a", 64, 1 << 18));
        gpu.synchronize();
        gpu.launch_after(s1, uniform("b", 64, 1 << 18), &[a]);
        gpu.synchronize();
        let recs = gpu.records();
        assert_eq!(recs.len(), 2);
        assert!(recs[1].start >= recs[0].end);
    }

    #[test]
    #[should_panic(expected = "dependency deadlock")]
    fn dependency_on_a_kernel_dropped_by_a_halt_deadlocks() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let s1 = gpu.create_stream();
        let dropped = gpu.launch(DEFAULT_STREAM, uniform("dropped", 4, 1 << 16));
        gpu.halt_at(0.0);
        gpu.launch_after(s1, uniform("y", 4, 1 << 16), &[dropped]);
        gpu.synchronize();
    }

    #[test]
    fn empty_profiles_across_streams_complete() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let s1 = gpu.create_stream();
        gpu.launch(
            DEFAULT_STREAM,
            KernelProfile {
                name: "a".into(),
                launch: LaunchConfig::default(),
                tbs: vec![],
                cache: None,
            },
        );
        gpu.launch(
            s1,
            KernelProfile {
                name: "b".into(),
                launch: LaunchConfig::default(),
                tbs: vec![],
                cache: None,
            },
        );
        let t = gpu.synchronize();
        assert!(t > 0.0);
        assert_eq!(gpu.records().len(), 2);
    }

    #[test]
    fn launch_on_unknown_stream_panics() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpu.launch(
                StreamId(99),
                KernelProfile::uniform("k", LaunchConfig::default(), 1, TbWork::default()),
            );
        }));
        assert!(result.is_err(), "unknown stream must be rejected");
    }

    #[test]
    fn empty_kernel_costs_launch_overhead() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let d = gpu
            .run_solo(KernelProfile {
                name: "empty".into(),
                launch: LaunchConfig::default(),
                tbs: vec![],
                cache: None,
            })
            .duration();
        assert!((d - DeviceSpec::a100().launch_overhead_s).abs() < 1e-12);
    }

    #[test]
    fn tensor_pipe_beats_cuda_pipe_for_same_flops() {
        let spec = DeviceSpec::a100();
        let n = 108 * 8;
        let tensor = KernelProfile::uniform(
            "tensor",
            LaunchConfig::default(),
            n,
            TbWork {
                tensor_macs: 1 << 22,
                ..TbWork::default()
            }, // 2 FLOPs/MAC
        );
        let cuda = KernelProfile::uniform(
            "cuda",
            LaunchConfig::default(),
            n,
            TbWork {
                cuda_flops: 1 << 23,
                ..TbWork::default()
            },
        );
        let mut gpu = Gpu::new(spec);
        let t_tensor = gpu.run_solo(tensor).duration();
        gpu.reset();
        let t_cuda = gpu.run_solo(cuda).duration();
        assert!(t_tensor < t_cuda, "tensor {t_tensor} vs cuda {t_cuda}");
    }
}
