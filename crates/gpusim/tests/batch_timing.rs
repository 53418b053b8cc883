//! Batch kernel timing: `time_kernels_par` must be bit-identical to solo
//! runs regardless of thread count.

use mg_gpusim::{
    time_kernel, time_kernels_par, DeviceSpec, Gpu, KernelProfile, KernelRuns, LaunchConfig, TbWork,
};
use rayon::ThreadPoolBuilder;

fn pool(n: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

fn profiles() -> Vec<KernelRuns> {
    (0..24)
        .map(|i| {
            let mut tbs: Vec<TbWork> = (0..(16 + i * 7))
                .map(|j| TbWork {
                    tensor_macs: (1 << 14) + (j as u64) * 1000,
                    cuda_flops: (1 << 12) * (i as u64 + 1),
                    dram_read: 4096 + 128 * j as u64,
                    dram_write: 1024,
                    ..TbWork::default()
                })
                .collect();
            if i % 5 == 0 {
                // A straggler makes schedule effects visible.
                tbs.push(TbWork {
                    cuda_flops: 1 << 24,
                    ..TbWork::default()
                });
            }
            KernelProfile {
                name: format!("k{i}"),
                launch: LaunchConfig {
                    threads_per_tb: 128 + 32 * (i % 4),
                    regs_per_thread: 64,
                    smem_per_tb: 16 * 1024,
                },
                tbs,
                cache: None,
            }
            .into()
        })
        .collect()
}

#[test]
fn time_kernel_matches_run_solo() {
    let spec = DeviceSpec::a100();
    for p in profiles() {
        let stateless = time_kernel(&spec, &p);
        let mut gpu = Gpu::new(spec.clone());
        let solo = gpu.run_solo(p);
        assert_eq!(stateless.end.to_bits(), solo.duration().to_bits());
        assert_eq!(stateless.bound, solo.bound);
        assert_eq!(
            stateless.achieved_over_theoretical.to_bits(),
            solo.achieved_over_theoretical.to_bits()
        );
    }
}

#[test]
fn batch_timing_is_bit_identical_across_thread_counts() {
    let spec = DeviceSpec::h100();
    let ps = profiles();
    let serial = pool(1).install(|| time_kernels_par(&spec, &ps));
    for threads in [2, 3, 8] {
        let par = pool(threads).install(|| time_kernels_par(&spec, &ps));
        assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(par.iter()) {
            assert_eq!(a.name, b.name, "records stay in input order");
            assert_eq!(a.end.to_bits(), b.end.to_bits(), "threads={threads}");
            assert_eq!(a.bound, b.bound);
        }
    }
}

#[test]
fn empty_batch_is_fine() {
    let spec = DeviceSpec::a100();
    assert!(time_kernels_par(&spec, &[]).is_empty());
}
