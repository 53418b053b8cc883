//! Property-based tests on the timing engine: monotonicity, conservation,
//! and scheduling invariants over randomized kernel profiles, and the
//! run-grouped list schedule against a per-block oracle.

use mg_gpusim::occupancy::resident_tbs_per_sm;
use mg_gpusim::{
    time_kernel, BoundKind, DeviceSpec, Gpu, KernelProfile, KernelRuns, LaunchConfig, TbWork,
    DEFAULT_STREAM,
};
use proptest::prelude::*;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

fn arb_work() -> impl Strategy<Value = TbWork> {
    (0u64..1 << 22, 0u64..1 << 22, 0u64..1 << 14, 0u64..1 << 16).prop_map(
        |(tensor, cuda, sfu, bytes)| TbWork {
            tensor_macs: tensor,
            cuda_flops: cuda,
            sfu_ops: sfu,
            l2_read: bytes,
            dram_read: bytes / 2,
            dram_write: bytes / 4,
            stall_cycles: 0,
        },
    )
}

fn arb_profile() -> impl Strategy<Value = KernelProfile> {
    (proptest::collection::vec(arb_work(), 1..200), 1usize..9).prop_map(|(tbs, warps)| {
        KernelProfile {
            name: "k".to_owned(),
            launch: LaunchConfig {
                threads_per_tb: warps * 32,
                regs_per_thread: 64,
                smem_per_tb: 4096,
            },
            tbs,
            cache: None,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Durations are strictly positive and finite.
    #[test]
    fn durations_positive_and_finite(p in arb_profile()) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let d = gpu.run_solo(p).duration();
        prop_assert!(d.is_finite() && d > 0.0);
    }

    /// Adding a thread block never makes the kernel faster.
    #[test]
    fn adding_a_block_never_speeds_up(p in arb_profile(), extra in arb_work()) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let base = gpu.run_solo(p.clone()).duration();
        gpu.reset();
        let mut bigger = p;
        bigger.tbs.push(extra);
        let more = gpu.run_solo(bigger).duration();
        prop_assert!(more >= base * 0.999, "{more} < {base}");
    }

    /// Doubling every block's work never makes the kernel faster.
    #[test]
    fn doubling_work_never_speeds_up(p in arb_profile()) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let base = gpu.run_solo(p.clone()).duration();
        gpu.reset();
        let mut doubled = p;
        for tb in &mut doubled.tbs {
            tb.tensor_macs *= 2;
            tb.cuda_flops *= 2;
            tb.l2_read *= 2;
            tb.dram_read *= 2;
        }
        let more = gpu.run_solo(doubled).duration();
        prop_assert!(more >= base * 0.999);
    }

    /// Two-stream co-execution lies between max(solo) and roughly
    /// solo_a + solo_b. A small interference allowance (35 %) covers the
    /// case of two bandwidth-bound kernels thrashing the shared memory
    /// system — which real multi-stream exhibits too.
    #[test]
    fn overlap_bounded_by_serial_and_parallel_ideal(
        a in arb_profile(),
        b in arb_profile(),
    ) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let ta = gpu.run_solo(a.clone()).duration();
        gpu.reset();
        let tb = gpu.run_solo(b.clone()).duration();
        gpu.reset();
        let s1 = gpu.create_stream();
        gpu.launch(DEFAULT_STREAM, a);
        gpu.launch(s1, b);
        let t_par = gpu.synchronize();
        prop_assert!(
            t_par <= (ta + tb) * 1.35,
            "bounded interference: {t_par} vs {}",
            ta + tb
        );
        prop_assert!(t_par >= ta.max(tb) * 0.99, "no better than the heavier kernel");
    }

    /// DRAM accounting equals the profile's declared bytes regardless of
    /// how the kernel is scheduled.
    #[test]
    fn dram_bytes_conserved(p in arb_profile()) {
        let declared: u64 = p.tbs.iter().map(TbWork::dram_bytes).sum();
        let mut gpu = Gpu::new(DeviceSpec::rtx3090());
        let rec = gpu.run_solo(p);
        prop_assert_eq!(rec.dram_bytes, declared);
    }

    /// The busy-fraction metric stays in (0, 1].
    #[test]
    fn occupancy_ratio_in_unit_interval(p in arb_profile()) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let rec = gpu.run_solo(p);
        prop_assert!(rec.achieved_over_theoretical > 0.0);
        prop_assert!(rec.achieved_over_theoretical <= 1.0);
    }
}

/// f64 ordered by value, for the oracle's heap (all times are finite).
#[derive(PartialEq, PartialOrd)]
struct Time(f64);
impl Eq for Time {}
#[expect(
    clippy::derive_ord_xor_partial_ord,
    reason = "total order over finite times, consistent with the derived PartialOrd"
)]
impl Ord for Time {
    fn cmp(&self, other: &Self) -> Ordering {
        self.partial_cmp(other).expect("finite times")
    }
}

/// The per-block timing model: every block pops the earliest-free slot
/// from a heap of single slots. Returns `(duration, busy, bound)` on the
/// whole device, as `time_kernel` reports them.
fn per_block_oracle(spec: &DeviceSpec, profile: &KernelProfile) -> (f64, f64, BoundKind) {
    let sms = spec.sm_count.max(1);
    if profile.tbs.is_empty() {
        return (spec.launch_overhead_s, 1.0, BoundKind::Schedule);
    }
    let resident = resident_tbs_per_sm(spec, &profile.launch);
    let concurrent = profile.tbs.len().div_ceil(sms).clamp(1, resident);
    let slots = sms * concurrent;
    let share = (profile.launch.warps_per_tb() as f64 / spec.warps_to_saturate)
        .min(1.0 / concurrent as f64)
        .min(1.0);
    let tensor_rate = spec.sm_tensor_rate() * share;
    let cuda_rate = spec.sm_cuda_rate() * share;
    let sfu_rate = spec.sm_sfu_rate() * share;
    let tb_time = |w: &TbWork| -> f64 {
        let t_tensor = 2.0 * w.tensor_macs as f64 / tensor_rate;
        let t_cuda = w.cuda_flops as f64 / cuda_rate;
        let t_sfu = w.sfu_ops as f64 / sfu_rate;
        let t_mem = w.dram_bytes() as f64 / spec.bw_per_sm();
        let t_l2 = (w.l2_read + w.dram_write) as f64 / spec.l2_bw_per_sm();
        let t_stall = w.stall_cycles as f64 / (spec.clock_ghz * 1e9);
        t_tensor.max(t_cuda).max(t_sfu).max(t_mem).max(t_l2) + t_stall + spec.tb_overhead_s()
    };
    let mut heap: BinaryHeap<Reverse<Time>> = (0..slots.min(profile.tbs.len()))
        .map(|_| Reverse(Time(0.0)))
        .collect();
    let mut busy_total = 0.0;
    let mut makespan = 0.0f64;
    for w in &profile.tbs {
        let Reverse(Time(free_at)) = heap.pop().expect("slots > 0");
        let t = tb_time(w);
        busy_total += t;
        let end = free_at + t;
        makespan = makespan.max(end);
        heap.push(Reverse(Time(end)));
    }
    let total = profile
        .tbs
        .iter()
        .fold(TbWork::default(), |acc, &w| acc.merged(w));
    let frac = sms as f64 / spec.sm_count as f64;
    let bw_frac = frac.max(0.5);
    let aggregates = [
        (
            total.dram_bytes() as f64 / (spec.mem_bw_bytes_per_s * bw_frac),
            BoundKind::DramBandwidth,
        ),
        (
            (total.l2_read + total.dram_write) as f64 / (spec.l2_bw_bytes_per_s * bw_frac),
            BoundKind::L2Bandwidth,
        ),
        (
            2.0 * total.tensor_macs as f64 / (spec.sm_tensor_rate() * sms as f64),
            BoundKind::TensorPipe,
        ),
        (
            total.cuda_flops as f64 / (spec.sm_cuda_rate() * sms as f64),
            BoundKind::CudaPipe,
        ),
        (
            total.sfu_ops as f64 / (spec.sm_sfu_rate() * sms as f64),
            BoundKind::SfuPipe,
        ),
    ];
    let (best_agg, agg_bound) = aggregates
        .into_iter()
        .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"))
        .expect("non-empty");
    let bound = if makespan > best_agg * 1.10 {
        BoundKind::Schedule
    } else {
        agg_bound
    };
    let busy = if makespan > 0.0 {
        (busy_total / (slots as f64 * makespan)).min(1.0)
    } else {
        1.0
    };
    (makespan.max(best_agg) + spec.launch_overhead_s, busy, bound)
}

/// A small palette of block shapes: compute-, memory- and stall-heavy
/// blocks, zero-work blocks, and twins of the first shape that differ
/// only in a pipe that does not bind, so distinct runs tie in time.
fn arb_palette() -> impl Strategy<Value = Vec<TbWork>> {
    proptest::collection::vec(
        (0u64..1 << 20, 0u64..1 << 16, 0u64..1 << 18, 0u64..2000),
        1..5,
    )
    .prop_map(|shapes| {
        let mut palette: Vec<TbWork> = shapes
            .into_iter()
            .map(|(flops, bytes, macs, stall)| TbWork {
                tensor_macs: macs,
                cuda_flops: flops,
                sfu_ops: flops / 64,
                l2_read: bytes * 2,
                dram_read: bytes,
                dram_write: bytes / 4,
                stall_cycles: stall,
            })
            .collect();
        palette.push(TbWork::default());
        let twin = TbWork {
            sfu_ops: palette[0].sfu_ops / 2,
            ..palette[0]
        };
        palette.push(twin);
        palette
    })
}

/// Profiles built as runs over a palette: long runs, singletons and
/// adjacent runs of different shapes, with 1 to 8 warps per block.
fn arb_run_profile() -> impl Strategy<Value = KernelProfile> {
    (
        arb_palette(),
        proptest::collection::vec((0usize..7, prop_oneof![Just(1usize), 1usize..600]), 1..24),
        1usize..9,
    )
        .prop_map(|(palette, runs, warps)| KernelProfile {
            name: "runs".to_owned(),
            launch: LaunchConfig {
                threads_per_tb: warps * 32,
                regs_per_thread: 32,
                smem_per_tb: 0,
            },
            tbs: runs
                .into_iter()
                .flat_map(|(i, n)| std::iter::repeat_n(palette[i % palette.len()], n))
                .collect(),
            cache: None,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The run-grouped schedule is bit-identical to the per-block heap:
    /// same duration, busy fraction and bound, on devices of 1 to 128
    /// SMs — slot counts from 1 to 2048 and beyond.
    #[test]
    fn grouped_schedule_matches_the_per_block_oracle(
        p in arb_run_profile(),
        sms in prop_oneof![Just(1usize), 1usize..129],
    ) {
        let spec = DeviceSpec { sm_count: sms, ..DeviceSpec::a100() };
        let (duration, busy, bound) = per_block_oracle(&spec, &p);
        let rec = time_kernel(&spec, &KernelRuns::from(p.clone()));
        prop_assert_eq!(rec.duration().to_bits(), duration.to_bits());
        prop_assert_eq!(rec.achieved_over_theoretical.to_bits(), busy.to_bits());
        prop_assert_eq!(rec.bound, bound);
        prop_assert_eq!(rec.tb_count, p.tbs.len());
        let dram: u64 = p.tbs.iter().map(TbWork::dram_bytes).sum();
        prop_assert_eq!(rec.dram_bytes, dram);
    }
}
