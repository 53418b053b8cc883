//! # mg-kernels — functional GPU kernels with work profiles
//!
//! Every kernel the paper's three execution methods need, in two aspects
//! per kernel:
//!
//! * a `*_compute` function that produces the actual numeric result
//!   (FP16 storage, FP32 accumulation — tensor-core semantics), tested
//!   against dense references; and
//! * a `*_profile` function that describes the same kernel's work per
//!   thread block for the timing engine, as runs of equal consecutive
//!   blocks ([`mg_gpusim::KernelRuns`]).
//!
//! Correctness and performance share one work decomposition, so the
//! modelled kernel cannot drift from the computed one.
//!
//! Kernel families: coarse blocked SDDMM/SpMM, fine element-wise
//! SDDMM/SpMM, the compound / element-wise / blocked / dense sparse
//! softmaxes, dense tiled GEMM (with split-K), the Blocked-ELL SpMM, the
//! §2.4 chunk-conversion methods, and the partial-context merge.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
mod chunked;
pub mod coarse;
mod decode;
mod dense;
mod dims;
mod ell;
pub mod fine;
pub mod fused;
mod merge;
mod softmax;
mod structured;

/// Calibration constants of the kernel cost model.
///
/// These are the few free parameters of the reproduction; they are shared
/// by every kernel so no method can be tuned in isolation.
pub mod tuning {
    /// Exposed latency of a software-pipelined kernel (first tile load).
    pub const PIPELINED_STALL_CYCLES: u64 = 300;
    /// Extra exposed latency per inner-loop iteration in kernels without
    /// cross-iteration pipelining (Triton-style SpMM).
    pub const UNPIPELINED_STALL_PER_ITER: u64 = 450;
    /// Exposed latency of the fine-grained kernels' gather loops.
    pub const FINE_STALL_CYCLES: u64 = 400;
    /// Exposed latency per non-zero of the fused kernel's online-softmax
    /// rescale chain: the running max/sum/accumulator update is a
    /// loop-carried dependency across a row's columns, so the longest row
    /// in a thread block's group serializes (the register tiling
    /// pipelines the score dots, not the rescale).
    pub const FUSED_CHAIN_STALL_PER_NNZ: u64 = 24;
}

pub use chunked::{
    blockify_plan, sliding_chunk_attention_compute, sliding_chunk_attention_profile,
    sliding_chunk_plan, ChunkedPlan,
};
pub use coarse::{
    coarse_sddmm_compute, coarse_sddmm_profile, coarse_spmm_compute, coarse_spmm_profile,
    CoarseMapping,
};
pub use decode::decode_step_profile;
pub use dense::{
    dense_gemm_profile, dense_sddmm_compute, dense_sddmm_profile, dense_spmm_compute,
    dense_spmm_profile, DENSE_TILE,
};
pub use dims::AttnDims;
pub use ell::{ell_spmm_compute, ell_spmm_profile};
pub use fine::{
    fine_reuse_footprint, fine_sddmm_compute, fine_sddmm_profile, fine_spmm_compute,
    fine_spmm_profile, FineSddmmScheme, ONE_DIM_TILE,
};
pub use fused::{fused_attention_compute, fused_attention_profile};
pub use merge::{merge_add_compute, merge_add_profile};
pub use softmax::{
    blocked_softmax_profile, compound_softmax_compute, compound_softmax_profile,
    dense_softmax_compute, dense_softmax_profile, element_softmax_profile,
};
pub use structured::{attention_2_4_profiles, gemm_2_4_profile, prune_2_4};
