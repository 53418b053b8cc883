//! SM occupancy calculation (paper §2.1): how many thread blocks an SM
//! can host given its shared-memory, register, warp-slot, and block-slot
//! limits.

use crate::{DeviceSpec, LaunchConfig};

/// Maximum thread blocks resident on one SM for the given launch
/// configuration: the tightest of the warp, register, shared-memory and
/// block-slot caps. A resource the launch does not consume (zero
/// registers, zero shared memory) does not bound it. Always at least 1 (a
/// kernel whose single block exceeds an SM's resources still runs, just
/// serialized — we model it as one resident block).
pub fn resident_tbs_per_sm(spec: &DeviceSpec, launch: &LaunchConfig) -> usize {
    // `warps_per_tb()` is clamped to >= 1, so this also covers
    // `threads_per_tb == 0` without dividing by zero.
    let by_warps = spec.max_warps_per_sm / launch.warps_per_tb();
    let regs_per_tb = launch.regs_per_thread * launch.threads_per_tb;
    let by_regs = (regs_per_tb > 0).then(|| spec.regs_per_sm / regs_per_tb);
    let by_smem = (launch.smem_per_tb > 0).then(|| spec.smem_per_sm / launch.smem_per_tb);
    [by_regs, by_smem]
        .into_iter()
        .flatten()
        .fold(by_warps.min(spec.max_tbs_per_sm), usize::min)
        .max(1)
}

/// Theoretical occupancy: resident warps over the SM's warp capacity.
pub fn theoretical_occupancy(spec: &DeviceSpec, launch: &LaunchConfig) -> f64 {
    let resident = resident_tbs_per_sm(spec, launch);
    let warps = resident * launch.warps_per_tb();
    (warps.min(spec.max_warps_per_sm)) as f64 / spec.max_warps_per_sm as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn launch(threads: usize, regs: usize, smem: usize) -> LaunchConfig {
        LaunchConfig {
            threads_per_tb: threads,
            regs_per_thread: regs,
            smem_per_tb: smem,
        }
    }

    #[test]
    fn warp_limited() {
        let spec = DeviceSpec::a100();
        // 1024 threads = 32 warps; 64 warp slots -> 2 blocks.
        let r = resident_tbs_per_sm(&spec, &launch(1024, 32, 0));
        assert_eq!(r, 2);
        // 256 threads x 32 regs: warps (64 / 8) and registers
        // (65536 / 8192) tie at 8 blocks.
        assert_eq!(resident_tbs_per_sm(&spec, &launch(256, 32, 0)), 8);
    }

    #[test]
    fn register_limited() {
        let spec = DeviceSpec::a100();
        // 256 threads x 255 regs = 65280 regs -> 1 block.
        let r = resident_tbs_per_sm(&spec, &launch(256, 255, 0));
        assert_eq!(r, 1);
    }

    #[test]
    fn smem_limited() {
        let spec = DeviceSpec::a100();
        // 96 KB smem per block on a 164 KB SM -> 1 block.
        let cfg = launch(128, 32, 96 * 1024);
        assert_eq!(resident_tbs_per_sm(&spec, &cfg), 1);
    }

    #[test]
    fn block_slot_cap_applies() {
        let spec = DeviceSpec::a100();
        // Tiny blocks would fit hundreds of times; capped at 32.
        let cfg = launch(32, 16, 0);
        assert_eq!(resident_tbs_per_sm(&spec, &cfg), 32);
    }

    #[test]
    fn unconsumed_resources_are_never_blamed() {
        // A launch that consumes no registers and no shared memory is
        // bounded only by the resources it actually uses.
        let spec = DeviceSpec::a100();
        let cfg = launch(1024, 0, 0);
        // 32 warps per block -> 2 blocks by warp slots.
        assert_eq!(resident_tbs_per_sm(&spec, &cfg), 2);
    }

    #[test]
    fn zero_thread_launch_does_not_panic() {
        // Degenerate launch: no threads at all. warps_per_tb() clamps to 1
        // and the register product is zero, so nothing divides by zero and
        // the block-slot cap binds.
        let spec = DeviceSpec::a100();
        let cfg = launch(0, 64, 0);
        assert_eq!(resident_tbs_per_sm(&spec, &cfg), spec.max_tbs_per_sm);
    }

    #[test]
    fn occupancy_never_exceeds_one() {
        let spec = DeviceSpec::rtx3090();
        for threads in [32, 64, 128, 256, 512, 1024] {
            let occ = theoretical_occupancy(&spec, &launch(threads, 64, 8192));
            assert!(
                (0.0..=1.0).contains(&occ),
                "occ {occ} for {threads} threads"
            );
        }
    }

    #[test]
    fn oversized_block_still_resident_once() {
        let spec = DeviceSpec::rtx3090();
        let cfg = launch(1024, 255, 200 * 1024);
        assert_eq!(resident_tbs_per_sm(&spec, &cfg), 1);
    }
}
