//! # mg-serve — deterministic online-serving simulation
//!
//! The paper evaluates compound sparse attention offline: one batch, one
//! method, one device. This crate asks the serving question instead —
//! what happens when heterogeneous requests *arrive over time* — while
//! staying inside the repo's simulated, perfectly reproducible world:
//!
//! 1. [`TrafficConfig`] turns the dataset-style workload generators of
//!    [`mg_models::workload`] into a timestamped stream of [`Request`]s
//!    (Poisson or bursty arrivals, per-request SLOs).
//! 2. A [`Batcher`] groups compatible requests under a [`BatchPolicy`]
//!    (FIFO-timeout, length-bucketed, or SLO-aware), releasing a batch
//!    when it fills or its wait budget expires.
//! 3. A [`PlanCache`] canonicalizes each request's sample and reuses
//!    built attention plans across near-identical inputs, with full
//!    hit/miss/eviction accounting.
//! 4. A [`Dispatcher`] round-robins batches over a pool of simulated
//!    [`Gpu`](mg_gpusim::Gpu) workers under a [`StreamPolicy`] (serial,
//!    role streams, or fully pipelined), advancing each worker's clock
//!    to the server timeline.
//! 5. A [`ServeReport`] condenses the run: latency percentiles,
//!    throughput, SLO violations, cache hit rate, device utilization,
//!    and an optional Chrome-trace export of the whole pool.
//!
//! Every stage is a pure function of the configuration and seed, so any
//! number — a p99, a hit rate, a busy fraction — reproduces exactly.
//!
//! # Examples
//!
//! ```
//! use mg_gpusim::DeviceSpec;
//! use mg_models::ModelConfig;
//! use mg_serve::{ServeConfig, ServeSim, TrafficConfig};
//! use multigrain::Method;
//!
//! let config = ServeConfig::new(ModelConfig::tiny(), DeviceSpec::a100());
//! let traffic = TrafficConfig::poisson(200.0, 24, Method::Multigrain, 0.5, 42);
//! let mut sim = ServeSim::new(config);
//! let report = sim.run(&traffic)?;
//! assert_eq!(report.outcomes.len(), 24);
//! assert!(report.p99() >= report.p50());
//! # Ok::<(), mg_sparse::SparseError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod cache;
mod dispatch;
mod metrics;
mod request;
mod sim;
mod tune;

pub use batch::{Batch, BatchPolicy, Batcher};
pub use cache::{canonicalize, CacheStats, PlanCache, PlanKey};
pub use dispatch::{BatchOutcome, DispatchAttempt, Dispatcher, StreamPolicy, WorkerState};
pub use metrics::{export_serve_trace, nearest_rank_percentile, RequestOutcome, ServeReport};
pub use request::{ArrivalProcess, Request, RequestClass, TrafficConfig};
pub use sim::{ServeConfig, ServeSim};
pub use tune::{TunePolicy, TuneStats, Tuner};
