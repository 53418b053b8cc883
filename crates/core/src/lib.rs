//! # multigrain — compound sparse attention on a simulated GPU
//!
//! A from-scratch reproduction of *"A Slice and Dice Approach to
//! Accelerate Compound Sparse Attention on GPU"* (IISWC 2022). The crate
//! plans a compound-sparse-attention problem three ways and executes it
//! on the [`mg_gpusim`] execution model:
//!
//! * [`Method::Multigrain`] — slice the pattern by grain (coarse blocked
//!   part on tensor-core kernels, fine element-wise part on CSR kernels,
//!   global rows on dense kernels), dice the work across three CUDA
//!   streams, and normalize mixed rows with a single compound softmax.
//! * [`Method::TritonStyle`] — the coarse-only baseline.
//! * [`Method::SputnikStyle`] — the fine-only baseline.
//!
//! # Examples
//!
//! ```
//! use mg_gpusim::{DeviceSpec, Gpu};
//! use mg_patterns::{AtomicPattern, CompoundPattern};
//! use multigrain::{Attention, AttentionProblem, Method};
//!
//! let pattern = CompoundPattern::new(256)
//!     .with(AtomicPattern::Local { window: 32 })
//!     .with(AtomicPattern::Global { tokens: vec![0, 1] });
//! let problem = AttentionProblem::new(pattern, 64, 1, 4, 32);
//!
//! let mut gpu = Gpu::new(DeviceSpec::a100());
//! let mg = Attention::plan(Method::Multigrain, problem.clone())?;
//! let report = mg.run_timed(&mut gpu);
//! assert!(report.total() > 0.0);
//! # Ok::<(), mg_sparse::SparseError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod attention;
mod problem;
mod reference;
mod report;

pub use attention::{
    autotune_block_size, Attention, Method, Op, PlanMemory, StreamRole, AUTOTUNE_BLOCK_SIZES,
};
pub use problem::AttentionProblem;
pub use reference::reference_attention;
pub use report::PipelineReport;
