//! # mg-sparse — sparse matrix formats
//!
//! The three formats the system runs: [`Csr`] for the fine-grained
//! (element-wise) kernels, [`Bsr`] for the coarse-grained (blocked)
//! kernels — one consistent format per grain, the paper's §3.2 point —
//! and [`BlockedEll`], the padded blocked format of the cuSPARSE SpMM
//! baseline. Triton's BCOO metadata is modelled by count, not built:
//! `Attention::plan_memory_bytes` (crate `multigrain`) charges it as
//! `nnz_blocks × 8` bytes on top of the BSR metadata.
//!
//! All constructors validate metadata and return [`SparseError`] on
//! malformed input. Structure is immutable after construction; values can
//! be updated in place (the SDDMM kernels fill value buffers whose
//! structure was generated ahead of time, as §3.1 of the paper describes).
//!
//! # Examples
//!
//! ```
//! use mg_sparse::Bsr;
//! use mg_tensor::Matrix;
//!
//! let dense = Matrix::<f32>::from_fn(8, 8, |r, c| if r == c { 1.0 } else { 0.0 });
//! let bsr = Bsr::from_dense(&dense, 4);
//! assert_eq!(bsr.nnz_blocks(), 2);
//! assert_eq!(bsr.to_dense(), dense);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod blocked_ell;
mod bsr;
mod csr;
mod error;

pub use blocked_ell::{BlockedEll, ELL_PAD};
pub use bsr::Bsr;
pub use csr::Csr;
pub use error::SparseError;
