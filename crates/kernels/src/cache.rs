//! Cache-hierarchy traffic model.
//!
//! Kernels record their *raw* loads per thread block in `TbWork::l2_read`
//! (every load not served by shared memory or registers). This module then
//! splits those raw touches across the hierarchy:
//!
//! * re-touches with a small reuse footprint hit the per-SM L1 and are
//!   dropped from the L2 pipe;
//! * the remainder flows through L2 (`l2_read`), and of that, compulsory
//!   first-touches plus an L2-capacity miss fraction reach DRAM
//!   (`dram_read`).
//!
//! This is what makes the paper's data-reuse story quantitative: the
//! coarse kernels stage operands in shared memory (few raw touches), the
//! fine kernels re-touch operands per element (many raw touches, filtered
//! by whatever locality the pattern has).

use mg_gpusim::{CacheStats, DeviceSpec, KernelRuns, LaunchConfig, Runs, TbWork};

/// Locality hints a kernel provides about its loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheHints {
    /// Total bytes of distinct input data the kernel touches.
    pub unique_bytes: u64,
    /// Approximate bytes touched between two touches of the same datum
    /// (the reuse distance): small for sliding-window patterns, the whole
    /// operand for scattered ones.
    pub reuse_footprint: u64,
}

/// Fraction of re-touches served by the per-SM L1 for a given reuse
/// footprint.
pub fn l1_hit_rate(spec: &DeviceSpec, reuse_footprint: u64) -> f64 {
    let l1 = spec.l1_per_sm as f64;
    let fp = reuse_footprint as f64;
    if fp <= 0.6 * l1 {
        0.95
    } else if fp <= 3.0 * l1 {
        0.6
    } else {
        // Even fully scattered row loads keep some line-granularity and
        // short-temporal reuse in L1.
        0.35
    }
}

/// L2 miss rate for re-reads of a working set of `unique_bytes`.
pub fn l2_miss_rate(spec: &DeviceSpec, unique_bytes: u64) -> f64 {
    if unique_bytes == 0 {
        return 1.0;
    }
    let ratio = spec.l2_bytes as f64 / unique_bytes as f64;
    (0.08 + 0.92 * (1.0 - ratio).max(0.0)).clamp(0.08, 1.0)
}

/// Models L2 write-back caching for intermediate tensors: an output that
/// fits comfortably in L2 is consumed by the next kernel before most of
/// it is ever evicted to DRAM. Only the evicted fraction of `dram_write`
/// survives; the L2-bandwidth cost of the writes is unchanged (the engine
/// charges `dram_write` on the L2 pipe regardless).
pub fn apply_writeback_filter(spec: &DeviceSpec, kernel: &mut KernelRuns) {
    let raw_write = filter_writes(spec, &mut kernel.tbs, 1);
    let cache = kernel.cache.get_or_insert(CacheStats {
        unique_bytes: 0,
        reuse_footprint: 0,
        raw_l2: 0,
        raw_write: 0,
    });
    cache.raw_write = raw_write;
}

/// Finishes a kernel builder: applies the cache model and the write-back
/// filter to `per_instance`, one instance's raw grid, and replicates it
/// over `instances` heads.
///
/// Kernels store raw touch bytes in `l2_read` and leave `dram_read`
/// zero. The cache model rescales every block's `l2_read` (raw touches
/// in, post-L1 traffic out) and sets its `dram_read` share; per-block
/// proportions are preserved so load-imbalance effects survive the
/// filtering. The filters' sums over the replicated grid are
/// `instances ×` the per-instance sums and every block is rescaled on its
/// own, so filtering one instance equals filtering the replicated grid.
pub fn filter_and_replicate(
    spec: &DeviceSpec,
    name: &str,
    launch: LaunchConfig,
    per_instance: Runs,
    instances: usize,
    hints: CacheHints,
) -> KernelRuns {
    let mut runs = per_instance;
    let raw_l2 = filter_loads(spec, &mut runs, instances as u64, hints);
    let raw_write = filter_writes(spec, &mut runs, instances as u64);
    KernelRuns {
        name: name.to_owned(),
        launch,
        tbs: runs.repeat(instances),
        // The filter inputs, so merged kernels can be re-filtered.
        cache: Some(CacheStats {
            unique_bytes: hints.unique_bytes,
            reuse_footprint: hints.reuse_footprint,
            raw_l2,
            raw_write,
        }),
    }
}

/// Merges the same kernel of several plans into one batched launch and
/// re-applies the cache and write-back filters to it, using the
/// accumulated [`CacheStats`]. Capacity effects are nonlinear, so the
/// merged working set must be filtered as a whole — concatenating
/// individually filtered kernels underestimates DRAM traffic badly.
///
/// The result equals concatenating the parts' blocks and then restoring
/// the raw loads and writes proportionally and re-filtering them with the
/// merged working set, block by block; it is worked out once per run of
/// equal blocks.
///
/// Kernels without stats (raw, or mixed raw/filtered merges) are only
/// concatenated.
///
/// # Panics
///
/// Panics if `parts` is empty.
pub fn merge_and_refilter(spec: &DeviceSpec, parts: Vec<KernelRuns>) -> KernelRuns {
    let mut parts = parts.into_iter();
    let mut merged = parts.next().expect("at least one part to merge");
    for part in parts {
        debug_assert_eq!(
            merged.launch, part.launch,
            "batched grids share a launch config"
        );
        merged.tbs.extend(&part.tbs);
        merged.cache = merged.cache.zip(part.cache).map(|(a, b)| a.merged(b));
    }
    if let Some(stats) = merged.cache {
        let runs = &mut merged.tbs;
        let mut raw_l2 = stats.raw_l2;
        let cur_l2 = sum(runs, |w| w.l2_read);
        if stats.raw_l2 > 0 && cur_l2 > 0 {
            let scale = stats.raw_l2 as f64 / cur_l2 as f64;
            *runs = runs.map(|w| TbWork {
                l2_read: (w.l2_read as f64 * scale).round() as u64,
                dram_read: 0,
                ..w
            });
            let hints = CacheHints {
                unique_bytes: stats.unique_bytes,
                reuse_footprint: stats.reuse_footprint,
            };
            raw_l2 = filter_loads(spec, runs, 1, hints);
        }
        let cur_w = sum(runs, |w| w.dram_write);
        if stats.raw_write > 0 && cur_w > 0 {
            let scale = stats.raw_write as f64 / cur_w as f64;
            *runs = runs.map(|w| TbWork {
                dram_write: (w.dram_write as f64 * scale).round() as u64,
                ..w
            });
            filter_writes(spec, runs, 1);
        }
        // Keep the merged hints and raw writes for any further merging.
        merged.cache = Some(CacheStats { raw_l2, ..stats });
    }
    merged
}

/// Applies the cache model to a grid made of `copies` back-to-back
/// copies of `runs` (rescaling `runs` in place) and returns the raw load
/// total.
fn filter_loads(spec: &DeviceSpec, runs: &mut Runs, copies: u64, hints: CacheHints) -> u64 {
    let raw = copies * sum(runs, |w| w.l2_read);
    if raw == 0 {
        return 0;
    }
    let unique = hints.unique_bytes.min(raw);
    let retouches = (raw - unique) as f64;

    let l1_hit = l1_hit_rate(spec, hints.reuse_footprint);
    let l2_total = unique as f64 + retouches * (1.0 - l1_hit);
    let dram_total = unique as f64 + (l2_total - unique as f64) * l2_miss_rate(spec, unique);

    let l2_scale = l2_total / raw as f64;
    let dram_scale = dram_total / raw as f64;
    *runs = runs.map(|tb| {
        debug_assert_eq!(
            tb.dram_read, 0,
            "kernels must leave dram_read to the cache model"
        );
        let raw_tb = tb.l2_read as f64;
        TbWork {
            l2_read: (raw_tb * l2_scale).round() as u64,
            dram_read: (raw_tb * dram_scale).round() as u64,
            ..tb
        }
    });
    raw
}

/// Applies the write-back filter to a grid made of `copies` back-to-back
/// copies of `runs` (rescaling `runs` in place) and returns the raw write
/// total.
fn filter_writes(spec: &DeviceSpec, runs: &mut Runs, copies: u64) -> u64 {
    let raw = copies * sum(runs, |w| w.dram_write);
    if raw == 0 {
        return 0;
    }
    let l2_half = spec.l2_bytes as f64 * 0.5;
    let evicted = (raw as f64 / l2_half).clamp(0.25, 1.0);
    *runs = runs.map(|tb| TbWork {
        dram_write: (tb.dram_write as f64 * evicted).round() as u64,
        ..tb
    });
    raw
}

/// `field` summed over the blocks of `runs`: `count × value` per run.
fn sum(runs: &Runs, field: fn(&TbWork) -> u64) -> u64 {
    runs.iter().map(|(w, n)| field(&w) * n as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` blocks of `raw_per_tb` raw load bytes, filtered with `hints`.
    fn filtered(raw_per_tb: u64, n: usize, unique_bytes: u64, reuse_footprint: u64) -> KernelRuns {
        let raw = TbWork {
            l2_read: raw_per_tb,
            ..TbWork::default()
        };
        let hints = CacheHints {
            unique_bytes,
            reuse_footprint,
        };
        filter_and_replicate(
            &DeviceSpec::a100(),
            "k",
            LaunchConfig::default(),
            Runs::from_blocks(&[raw]),
            n,
            hints,
        )
    }

    #[test]
    fn sliding_window_retouches_stay_in_l1() {
        let p = filtered(1 << 20, 100, 1 << 20, 64 * 1024); // 100 MiB raw
        let l2 = p.total().l2_read;
        // 1 MiB unique + 5% of 99 MiB re-touches.
        assert!(l2 < 8 << 20, "l2 traffic filtered by L1: {l2}");
    }

    #[test]
    fn scattered_retouches_flow_through_l2() {
        let p = filtered(1 << 20, 100, 1 << 20, 8 << 20);
        let l2 = p.total().l2_read;
        // 1 MiB unique + 65% of the 99 MiB re-touches (L1 floor is 35%).
        assert!(l2 > 50 << 20, "scattered touches hit L2: {l2}");
        // But the working set fits L2, so DRAM stays near-compulsory.
        let dram = p.total().dram_read;
        assert!(dram < 10 << 20, "dram filtered by L2: {dram}");
    }

    #[test]
    fn giant_working_set_reaches_dram() {
        let p = filtered(1 << 30, 100, 80 << 30, 80 << 30); // 100 GiB raw
        let dram = p.total().dram_read;
        assert!(dram > 90 << 30, "little cache help: {dram}");
    }

    #[test]
    fn per_tb_proportions_preserved() {
        let grid = [1000, 3000].map(|l2_read| TbWork {
            l2_read,
            ..TbWork::default()
        });
        let hints = CacheHints {
            unique_bytes: 2000,
            reuse_footprint: 1 << 30,
        };
        let spec = DeviceSpec::a100();
        let p = filter_and_replicate(
            &spec,
            "k",
            LaunchConfig::default(),
            Runs::from_blocks(&grid),
            1,
            hints,
        );
        let tbs = p.tbs.to_blocks();
        assert!(tbs[1].l2_read >= 2 * tbs[0].l2_read);
        assert!(tbs[1].dram_read >= 2 * tbs[0].dram_read);
    }

    #[test]
    fn writeback_filter_keeps_small_outputs_in_l2() {
        let spec = DeviceSpec::a100();
        let mut p = KernelRuns::uniform(
            "k",
            LaunchConfig::default(),
            10,
            TbWork {
                dram_write: 100_000,
                ..TbWork::default()
            },
        );
        apply_writeback_filter(&spec, &mut p); // 1 MB << 20 MB half-L2
        let w = p.total().dram_write;
        assert_eq!(w, 250_000, "25% eviction floor");
    }

    #[test]
    fn writeback_filter_passes_large_outputs_through() {
        let spec = DeviceSpec::a100();
        let mut p = KernelRuns::uniform(
            "k",
            LaunchConfig::default(),
            10,
            TbWork {
                dram_write: 1 << 30,
                ..TbWork::default()
            },
        );
        apply_writeback_filter(&spec, &mut p); // 10 GiB >> L2
        let w = p.total().dram_write;
        assert_eq!(w, 10 << 30);
    }

    #[test]
    fn reapply_restores_capacity_effects_after_merging() {
        // One instance: working set fits L2, DRAM stays near-compulsory.
        let one = filtered(1 << 22, 64, 8 << 20, 8 << 20); // 256 MiB raw
                                                           // Sixteen instances in one profile (ground truth).
        let sixteen = filtered(1 << 22, 64 * 16, 128 << 20, 8 << 20);
        // Sixteen per-instance profiles merged, then re-filtered.
        let naive = one.tbs.repeat(16).total().dram_read;
        let merged = merge_and_refilter(&DeviceSpec::a100(), vec![one; 16]);
        let refiltered = merged.total().dram_read;
        let truth = sixteen.total().dram_read;
        assert!(
            naive < truth / 2,
            "naive merge undercounts: {naive} vs {truth}"
        );
        let err = (refiltered as f64 - truth as f64).abs() / truth as f64;
        assert!(err < 0.05, "re-filtered {refiltered} vs truth {truth}");
    }

    #[test]
    fn zero_raw_is_noop() {
        let p = filtered(0, 4, 100, 10);
        assert_eq!(p.total_dram_bytes(), 0);
    }
}
