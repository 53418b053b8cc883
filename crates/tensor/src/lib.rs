//! # mg-tensor — dense tensor substrate
//!
//! Foundation crate for the Multigrain reproduction: a software
//! [`Half`] type with IEEE 754 binary16 semantics, row-major [`Matrix`]
//! containers generic over [`Scalar`], dense GEMM with FP32 accumulation
//! (the reference for every sparse kernel), and the safe row softmax that
//! anchors the sparse-softmax kernels.
//!
//! # Examples
//!
//! ```
//! use mg_tensor::{Half, gemm_nt, softmax_rows, Matrix};
//!
//! // A miniature dense attention step: S = Q*K^T, P = softmax(S/sqrt(d)).
//! let q = Matrix::<Half>::random(8, 4, 1);
//! let k = Matrix::<Half>::random(8, 4, 2);
//! let s: Matrix<f32> = gemm_nt(&q, &k);
//! let p: Matrix<Half> = softmax_rows(&s, 0.5, None);
//! assert_eq!(p.rows(), 8);
//! ```

#![warn(missing_docs)]
// `deny` instead of `forbid` for exactly one reason: the [`simd`] module
// carries a module-scoped `#![allow(unsafe_code)]` for its std::arch
// intrinsic calls (a `forbid` here could not be overridden). Every other
// module stays unsafe-free, every crate above this one keeps `forbid`,
// and mg-lint's U1 pass enforces the confinement workspace-wide.
#![deny(unsafe_code)]
#![allow(non_camel_case_types)]

pub mod dsan;
mod gemm;
mod half;
mod matrix;
mod ops;
pub mod pack;
pub mod par;
mod scalar;
pub mod scratch;
pub mod simd;
mod softmax;

pub use gemm::{
    accumulate_row_window, accumulate_row_window2, dot, dot_f32, dot_rows_block, gemm, gemm_nt,
    naive, NR,
};
pub use half::Half;
pub use matrix::Matrix;
pub use ops::{add, apply_mask, gelu, layer_norm, scale};
pub use scalar::Scalar;
pub use softmax::{softmax_row_in_place, softmax_rows};
