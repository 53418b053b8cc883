//! The serving simulation loop.
//!
//! A [`ServeSim`] wires the pieces together: a traffic trace feeds the
//! [`Batcher`], released batches flow through the [`PlanCache`] into the
//! [`Dispatcher`], and the resulting timeline is condensed into a
//! [`ServeReport`]. Everything runs on one simulated clock, so a run is
//! a pure function of its configuration.

use crate::batch::{BatchPolicy, Batcher};
use crate::cache::PlanCache;
use crate::dispatch::{BatchOutcome, Dispatcher, StreamPolicy};
use crate::metrics::{export_serve_trace, ServeReport};
use crate::request::TrafficConfig;
use crate::tune::{TunePolicy, Tuner};
use mg_autotune::TuningDb;
use mg_gpusim::DeviceSpec;
use mg_models::{ModelConfig, SparseTransformer};
use mg_sparse::SparseError;

/// Configuration of one serving simulation.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The served model.
    pub model: ModelConfig,
    /// Device each worker simulates.
    pub device: DeviceSpec,
    /// Number of workers in the pool.
    pub workers: usize,
    /// Batching policy.
    pub batch_policy: BatchPolicy,
    /// Stream policy of every worker.
    pub stream_policy: StreamPolicy,
    /// Plan-cache capacity (plans, not bytes).
    pub cache_capacity: usize,
    /// Plan-cache valid-length bucket, tokens.
    pub cache_len_bucket: usize,
    /// When set, the planner consults the autotuner's tuning database
    /// before the plan cache and serves the tuned `(method, block size)`
    /// instead of the request's. `None` (the default) serves requests
    /// as addressed.
    pub tuning: Option<TunePolicy>,
    /// When `true`, every dispatched plan is also executed numerically
    /// on request-seeded Q/K/V through the packed compute kernels, and
    /// the output bits are folded into each batch's
    /// [`BatchOutcome::numeric_digest`]. Off by default — timing-only
    /// simulation.
    pub numeric: bool,
}

impl ServeConfig {
    /// A reasonable default stack over `model` and `device`: two
    /// workers, FIFO batching of up to 4 with a 10 ms wait budget,
    /// role-stream dispatch, 64 cached plans bucketed to an eighth of
    /// the padded length.
    pub fn new(model: ModelConfig, device: DeviceSpec) -> ServeConfig {
        let bucket = (model.max_seq_len / 8).max(1);
        ServeConfig {
            model,
            device,
            workers: 2,
            batch_policy: BatchPolicy::FifoTimeout {
                max_batch: 4,
                max_wait_s: 0.010,
            },
            stream_policy: StreamPolicy::RoleStreams,
            cache_capacity: 64,
            cache_len_bucket: bucket,
            tuning: None,
            numeric: false,
        }
    }
}

/// One serving simulation instance; see the crate docs for the flow.
pub struct ServeSim {
    config: ServeConfig,
    cache: PlanCache,
    dispatcher: Dispatcher,
    trace: Option<String>,
}

impl ServeSim {
    /// Builds the stack described by `config`.
    pub fn new(config: ServeConfig) -> ServeSim {
        let model = SparseTransformer::new(config.model.clone());
        let mut cache = PlanCache::new(model, config.cache_capacity, config.cache_len_bucket);
        if let Some(policy) = config.tuning.clone() {
            cache = cache.with_tuner(Tuner::new(
                policy,
                config.device.clone(),
                config.stream_policy,
            ));
        }
        let dispatcher = Dispatcher::new(&config.device, config.workers, config.stream_policy)
            .with_numeric_execution(config.numeric);
        ServeSim {
            config,
            cache,
            dispatcher,
            trace: None,
        }
    }

    /// Runs `traffic` to completion and reports.
    ///
    /// The loop is event-driven on two event sources — arrivals and
    /// batcher release deadlines — and therefore deterministic: given
    /// the same config and traffic seed it produces bit-identical
    /// reports.
    pub fn run(&mut self, traffic: &TrafficConfig) -> Result<ServeReport, SparseError> {
        let requests = traffic.generate(self.config.model.max_seq_len);
        let mut batcher = Batcher::new(self.config.batch_policy);
        let mut executed: Vec<BatchOutcome> = Vec::new();

        for request in &requests {
            let now = request.arrival_s;
            // Release everything due before this arrival, plus the batch
            // (if any) the arrival itself fills, in release order.
            let mut due = batcher.poll(now);
            due.extend(batcher.push(request.clone(), now));
            executed.extend(self.dispatcher.dispatch_many(&due, &mut self.cache)?);
        }
        // End of trace: release the stragglers at their deadlines.
        let end = requests.last().map(|r| r.arrival_s).unwrap_or(0.0);
        while let Some(deadline) = batcher.next_deadline() {
            let due = batcher.poll(deadline.max(end));
            executed.extend(self.dispatcher.dispatch_many(&due, &mut self.cache)?);
        }

        self.trace = Some(export_serve_trace(&self.dispatcher));
        let tuning = self.cache.tuner().map(Tuner::stats).unwrap_or_default();
        Ok(ServeReport::from_batches(
            &requests,
            &executed,
            self.cache.stats(),
            tuning,
            &self.dispatcher,
        ))
    }

    /// Chrome-trace JSON of the last [`run`](ServeSim::run), one process
    /// lane per worker.
    pub fn chrome_trace(&self) -> Option<&str> {
        self.trace.as_deref()
    }

    /// The plan cache (for inspection).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The tuning database accumulated so far (database entries recorded
    /// by online tunes and fallbacks included), when tuning is enabled.
    pub fn tuning_db(&self) -> Option<&TuningDb> {
        self.cache.tuner().map(Tuner::db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multigrain::Method;

    fn tiny_config() -> ServeConfig {
        ServeConfig::new(ModelConfig::tiny(), DeviceSpec::a100())
    }

    fn traffic(rate: f64, n: usize, seed: u64) -> TrafficConfig {
        TrafficConfig::poisson(rate, n, Method::Multigrain, 0.5, seed)
    }

    #[test]
    fn every_request_completes_exactly_once() {
        let mut sim = ServeSim::new(tiny_config());
        let report = sim.run(&traffic(200.0, 40, 1)).unwrap();
        assert_eq!(report.outcomes.len(), 40);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.id, i);
            assert!(o.queue_s >= 0.0 && o.service_s > 0.0);
        }
        assert!(report.throughput_rps() > 0.0);
        assert!(report.busy_fraction() > 0.0);
    }

    #[test]
    fn single_request_run_has_degenerate_but_sane_percentiles() {
        // End-to-end degenerate run: one request means every percentile
        // is that request's latency — no interpolation artifacts, no
        // NaNs, and the aggregate rates stay finite.
        let report = ServeSim::new(tiny_config())
            .run(&traffic(100.0, 1, 3))
            .unwrap();
        assert_eq!(report.outcomes.len(), 1);
        let only = report.outcomes[0].total_s();
        assert!(only > 0.0 && only.is_finite());
        for p in [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(report.latency_percentile(p), only, "p{p}");
        }
        assert_eq!(report.mean_latency(), only);
        assert!(report.throughput_rps().is_finite() && report.throughput_rps() > 0.0);
        assert!(report.busy_fraction() > 0.0 && report.busy_fraction() <= 1.0);
        let slo = report.slo_violation_rate();
        assert!(
            slo == 0.0 || slo == 1.0,
            "one request: all or nothing ({slo})"
        );
        assert!(report.makespan_s >= only);
    }

    #[test]
    fn runs_are_deterministic() {
        let t = traffic(500.0, 30, 7);
        let a = ServeSim::new(tiny_config()).run(&t).unwrap();
        let b = ServeSim::new(tiny_config()).run(&t).unwrap();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.cache, b.cache);
        assert_eq!(a.makespan_s, b.makespan_s);
    }

    #[test]
    fn numeric_serving_digests_every_batch_deterministically() {
        let config = ServeConfig {
            numeric: true,
            ..tiny_config()
        };
        let t = traffic(300.0, 12, 9);
        let a = ServeSim::new(config.clone()).run(&t).unwrap();
        let digests: Vec<u64> = a.batches.iter().map(|b| b.numeric_digest).collect();
        assert!(!digests.is_empty());
        assert!(
            digests.iter().all(|&d| d != 0),
            "every batch carries a live digest: {digests:?}"
        );
        let b = ServeSim::new(config).run(&t).unwrap();
        let replay: Vec<u64> = b.batches.iter().map(|b| b.numeric_digest).collect();
        assert_eq!(digests, replay, "numeric outputs replay bit-identically");
        // The timing-only simulation is unchanged by numeric execution.
        let plain = ServeSim::new(tiny_config()).run(&t).unwrap();
        assert_eq!(a.outcomes, plain.outcomes);
    }

    #[test]
    fn trace_exists_after_a_run() {
        let mut sim = ServeSim::new(tiny_config());
        assert!(sim.chrome_trace().is_none());
        sim.run(&traffic(100.0, 10, 2)).unwrap();
        let trace = sim.chrome_trace().unwrap();
        assert!(trace.contains("traceEvents") && trace.contains("worker-0"));
    }

    #[test]
    fn tuned_serving_consults_the_database_and_stays_deterministic() {
        use crate::tune::TunePolicy;
        use mg_autotune::TuningDb;

        let config = ServeConfig {
            tuning: Some(TunePolicy::online(TuningDb::new())),
            ..tiny_config()
        };
        let t = traffic(300.0, 30, 11);
        let mut sim = ServeSim::new(config.clone());
        let a = sim.run(&t).unwrap();
        assert_eq!(a.outcomes.len(), 30);
        // The cold-miss path demonstrably consulted the tuning database:
        // at least one miss resolved online, and warm traffic hit.
        assert!(a.tuning.misses >= 1, "{:?}", a.tuning);
        assert!(a.tuning.online_tunes + a.tuning.fallbacks == a.tuning.misses);
        assert!(a.tuning.hits >= 1, "{:?}", a.tuning);
        let db = sim.tuning_db().unwrap();
        assert_eq!(db.len() as u64, a.tuning.misses, "every miss persisted");
        // Bit-identical replay, tuning database included.
        let mut sim2 = ServeSim::new(config);
        let b = sim2.run(&t).unwrap();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.tuning, b.tuning);
        assert_eq!(sim2.tuning_db().unwrap().to_json(), db.to_json());
    }

    #[test]
    fn untuned_runs_report_zero_tuning_activity() {
        let report = ServeSim::new(tiny_config())
            .run(&traffic(200.0, 10, 5))
            .unwrap();
        assert_eq!(report.tuning, crate::tune::TuneStats::default());
    }

    #[test]
    fn overload_shows_up_as_queueing() {
        // In the saturated regime (offered load at or beyond pool
        // capacity) the same trace replayed faster queues strictly
        // harder, so p99 is monotone non-decreasing in the rate.
        let mut prev = 0.0;
        for rate in [500_000.0, 1_000_000.0, 2_000_000.0, 4_000_000.0] {
            let report = ServeSim::new(tiny_config())
                .run(&traffic(rate, 120, 3))
                .unwrap();
            assert!(
                report.p99() >= prev,
                "p99 regressed at rate {rate}: {} < {prev}",
                report.p99()
            );
            prev = report.p99();
        }
    }
}
