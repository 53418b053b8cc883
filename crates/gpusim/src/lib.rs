//! # mg-gpusim — GPU execution model
//!
//! An analytical, event-driven model of a modern NVIDIA GPU at the level
//! the paper's arguments live at: SMs with occupancy limits, separate
//! tensor-core / CUDA-core / SFU pipes, device-memory bandwidth, greedy
//! thread-block scheduling (which exposes load imbalance), and
//! multi-stream space sharing (which lets coarse- and fine-grained
//! kernels overlap, §3.1 of the paper).
//!
//! Functional kernels in `mg-kernels` describe their work as
//! [`KernelRuns`], a grid stored as runs of equal consecutive blocks
//! (hand-built per-block [`KernelProfile`]s convert into it); this crate
//! turns kernels into durations, DRAM traffic, and occupancy counters
//! comparable to Nsight Compute's.
//!
//! # Examples
//!
//! ```
//! use mg_gpusim::{DeviceSpec, Gpu, KernelRuns, LaunchConfig, TbWork, DEFAULT_STREAM};
//!
//! let mut gpu = Gpu::new(DeviceSpec::a100());
//! let stream = gpu.create_stream();
//! let work = TbWork { tensor_macs: 1 << 20, ..TbWork::default() };
//! gpu.launch(DEFAULT_STREAM, KernelRuns::uniform("coarse", LaunchConfig::default(), 128, work));
//! gpu.launch(stream, KernelRuns::uniform("fine", LaunchConfig::default(), 128, work));
//! let elapsed = gpu.synchronize(); // the two kernels co-execute
//! assert!(elapsed > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod device;
pub mod digest;
mod engine;
pub mod json;
mod kernel;
pub mod occupancy;
mod timeline;

pub use device::DeviceSpec;
pub use engine::{
    busy_seconds, time_kernel, time_kernels_par, BoundKind, Gpu, KernelId, KernelRecord, StreamId,
    DEFAULT_STREAM,
};
pub use kernel::{CacheStats, KernelProfile, KernelRuns, LaunchConfig, Runs, TbWork};
pub use timeline::{export_chrome_trace, export_chrome_trace_grouped, render_timeline};
