//! Serving metrics: latency percentiles, throughput, SLO accounting,
//! device utilization, and trace export.

use crate::cache::CacheStats;
use crate::dispatch::{BatchOutcome, Dispatcher};
use crate::request::{Request, RequestClass};
use crate::tune::TuneStats;
use mg_gpusim::digest::Fnv1a;
use mg_gpusim::export_chrome_trace_grouped;

/// Per-request latency decomposition, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// Request id.
    pub id: usize,
    /// Dataset class of the request.
    pub class: RequestClass,
    /// Arrival time.
    pub arrival_s: f64,
    /// Time spent queued before execution began.
    pub queue_s: f64,
    /// Time from execution start to completion.
    pub service_s: f64,
    /// Whether completion beat the request's SLO deadline.
    pub slo_met: bool,
    /// Whether the request's plan came from the cache.
    pub cache_hit: bool,
}

impl RequestOutcome {
    /// Arrival-to-completion latency.
    pub fn total_s(&self) -> f64 {
        self.queue_s + self.service_s
    }
}

/// Aggregated result of one serving simulation.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-request outcomes, in request-id order.
    pub outcomes: Vec<RequestOutcome>,
    /// Wall-clock span from first arrival to last completion.
    pub makespan_s: f64,
    /// Plan-cache accounting over the whole run.
    pub cache: CacheStats,
    /// Tuning-database consultations over the whole run (all zeros when
    /// tuning is disabled).
    pub tuning: TuneStats,
    /// Fraction of the makespan each worker spent executing kernels.
    pub worker_busy_fraction: Vec<f64>,
    /// The executed batches, in dispatch order — carries per-batch
    /// timing and, when numeric execution is on, each batch's
    /// [`BatchOutcome::numeric_digest`].
    pub batches: Vec<BatchOutcome>,
}

impl ServeReport {
    /// Builds the report from the executed batches.
    pub(crate) fn from_batches(
        requests: &[Request],
        batches: &[BatchOutcome],
        cache: CacheStats,
        tuning: TuneStats,
        dispatcher: &Dispatcher,
    ) -> ServeReport {
        let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(requests.len());
        for batch in batches {
            for (pos, &id) in batch.request_ids.iter().enumerate() {
                let request = &requests[id];
                debug_assert_eq!(request.id, id, "requests indexed by id");
                outcomes.push(RequestOutcome {
                    id,
                    class: request.class,
                    arrival_s: request.arrival_s,
                    queue_s: batch.started_s - request.arrival_s,
                    service_s: batch.finished_s - batch.started_s,
                    slo_met: batch.finished_s <= request.deadline_s(),
                    cache_hit: batch.cache_hits[pos],
                });
            }
        }
        outcomes.sort_by_key(|o| o.id);
        // An empty run has no meaningful time span: folding over no
        // requests/batches would pair t0 = +inf with t1 = 0, producing a
        // denormal makespan and ~1e308 busy fractions. Report zeros.
        if requests.is_empty() || batches.is_empty() {
            return ServeReport {
                outcomes,
                makespan_s: 0.0,
                cache,
                tuning,
                worker_busy_fraction: vec![0.0; dispatcher.worker_count()],
                batches: batches.to_vec(),
            };
        }
        let t0 = requests
            .iter()
            .map(|r| r.arrival_s)
            .fold(f64::INFINITY, f64::min);
        let t1 = batches.iter().map(|b| b.finished_s).fold(0.0f64, f64::max);
        let makespan_s = (t1 - t0).max(f64::MIN_POSITIVE);
        let worker_busy_fraction = (0..dispatcher.worker_count())
            .map(|w| dispatcher.worker_busy_seconds(w, t1) / makespan_s)
            .collect();
        ServeReport {
            outcomes,
            makespan_s,
            cache,
            tuning,
            worker_busy_fraction,
            batches: batches.to_vec(),
        }
    }

    /// One digest over the whole run: the batches' numeric digests folded
    /// together in dispatch order. `0` when numeric execution was off.
    pub fn numeric_digest(&self) -> u64 {
        if self.batches.iter().all(|b| b.numeric_digest == 0) {
            return 0;
        }
        let mut h = Fnv1a::new();
        for batch in &self.batches {
            h.write_u64(batch.numeric_digest);
        }
        h.finish()
    }

    /// The `p`-th percentile (0–100) of total latency, by the
    /// nearest-rank method. Returns `0.0` for an empty report.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let mut latencies: Vec<f64> = self.outcomes.iter().map(RequestOutcome::total_s).collect();
        latencies.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * latencies.len() as f64).ceil() as usize;
        latencies[rank.clamp(1, latencies.len()) - 1]
    }

    /// Median total latency.
    pub fn p50(&self) -> f64 {
        self.latency_percentile(50.0)
    }

    /// 95th-percentile total latency.
    pub fn p95(&self) -> f64 {
        self.latency_percentile(95.0)
    }

    /// 99th-percentile total latency.
    pub fn p99(&self) -> f64 {
        self.latency_percentile(99.0)
    }

    /// Mean total latency.
    pub fn mean_latency(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(RequestOutcome::total_s)
            .sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// Completed requests per second of makespan. Returns `0.0` for an
    /// empty run (zero makespan).
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / self.makespan_s
    }

    /// Fraction of requests that missed their SLO deadline.
    pub fn slo_violation_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| !o.slo_met).count() as f64 / self.outcomes.len() as f64
    }

    /// Plan-cache hit rate over the run.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Mean worker busy fraction (GPU utilization of the pool).
    pub fn busy_fraction(&self) -> f64 {
        if self.worker_busy_fraction.is_empty() {
            return 0.0;
        }
        self.worker_busy_fraction.iter().sum::<f64>() / self.worker_busy_fraction.len() as f64
    }
}

/// Exports the pool's kernel records as one Chrome-trace JSON document,
/// one process lane per worker, on the shared server timeline.
pub fn export_serve_trace(dispatcher: &Dispatcher) -> String {
    let names: Vec<String> = (0..dispatcher.worker_count())
        .map(|w| format!("worker-{w}"))
        .collect();
    let groups: Vec<(&str, &[mg_gpusim::KernelRecord])> = names
        .iter()
        .enumerate()
        .map(|(w, name)| (name.as_str(), dispatcher.worker_records(w)))
        .collect();
    export_chrome_trace_grouped(&groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::cache::PlanCache;
    use crate::dispatch::StreamPolicy;
    use mg_gpusim::DeviceSpec;
    use mg_models::workload::WorkloadSample;
    use mg_models::{ModelConfig, SparseTransformer};
    use multigrain::Method;

    fn outcome(id: usize, queue_s: f64, service_s: f64, slo_met: bool) -> RequestOutcome {
        RequestOutcome {
            id,
            class: RequestClass::HotpotQa,
            arrival_s: 0.0,
            queue_s,
            service_s,
            slo_met,
            cache_hit: id.is_multiple_of(2),
        }
    }

    fn report(outcomes: Vec<RequestOutcome>) -> ServeReport {
        ServeReport {
            outcomes,
            makespan_s: 10.0,
            cache: CacheStats {
                hits: 9,
                misses: 1,
                ..CacheStats::default()
            },
            tuning: TuneStats::default(),
            worker_busy_fraction: vec![0.5, 0.25],
            batches: Vec::new(),
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let r = report((0..100).map(|i| outcome(i, i as f64, 0.0, true)).collect());
        assert_eq!(r.p50(), 49.0);
        assert_eq!(r.p95(), 94.0);
        assert_eq!(r.p99(), 98.0);
        assert_eq!(r.latency_percentile(100.0), 99.0);
        assert!(r.latency_percentile(0.0) <= 0.0 + 1e-12);
    }

    #[test]
    fn rates_aggregate_over_outcomes() {
        let r = report(vec![
            outcome(0, 0.0, 1.0, true),
            outcome(1, 1.0, 1.0, true),
            outcome(2, 2.0, 1.0, false),
            outcome(3, 3.0, 1.0, false),
        ]);
        assert_eq!(r.slo_violation_rate(), 0.5);
        assert_eq!(r.throughput_rps(), 0.4);
        assert_eq!(r.cache_hit_rate(), 0.9);
        assert_eq!(r.busy_fraction(), 0.375);
        assert!((r.mean_latency() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_inert() {
        let r = report(Vec::new());
        assert_eq!(r.p99(), 0.0);
        assert_eq!(r.slo_violation_rate(), 0.0);
        assert_eq!(r.mean_latency(), 0.0);
    }

    #[test]
    fn single_outcome_dominates_every_percentile() {
        let r = report(vec![outcome(0, 1.5, 0.5, true)]);
        for p in [0.0, 0.1, 50.0, 99.9, 100.0] {
            assert_eq!(r.latency_percentile(p), 2.0, "p={p}");
        }
    }

    #[test]
    fn percentile_ordering_is_total_even_for_nonfinite_latencies() {
        let r = report(vec![
            outcome(0, f64::INFINITY, 0.0, false),
            outcome(1, 1.0, 0.0, true),
            outcome(2, 3.0, 0.0, true),
        ]);
        assert_eq!(r.latency_percentile(0.0), 1.0);
        assert_eq!(r.latency_percentile(50.0), 3.0);
        assert_eq!(r.latency_percentile(100.0), f64::INFINITY);
    }

    #[test]
    fn empty_run_reports_zeros_not_denormals() {
        // Regression: folding over zero requests/batches used to pair
        // t0 = +inf with t1 = 0 and clamp the makespan to
        // f64::MIN_POSITIVE instead of reporting an inert zero span.
        let d = Dispatcher::new(&DeviceSpec::a100(), 3, StreamPolicy::RoleStreams);
        let r =
            ServeReport::from_batches(&[], &[], CacheStats::default(), TuneStats::default(), &d);
        assert!(r.outcomes.is_empty());
        assert_eq!(r.makespan_s, 0.0);
        assert_eq!(r.worker_busy_fraction, vec![0.0; 3]);
        assert_eq!(r.throughput_rps(), 0.0);
        assert_eq!(r.busy_fraction(), 0.0);
    }

    #[test]
    fn never_dispatched_workers_report_zero_busy_fraction() {
        let model = SparseTransformer::new(ModelConfig::tiny());
        let mut cache = PlanCache::new(model, 8, 8);
        let mut d = Dispatcher::new(&DeviceSpec::a100(), 3, StreamPolicy::RoleStreams);
        let requests = vec![Request {
            id: 0,
            class: RequestClass::TriviaQa,
            method: Method::Multigrain,
            max_seq_len: 64,
            sample: WorkloadSample {
                valid_len: 64,
                special_tokens: vec![0, 1, 2, 3],
            },
            arrival_s: 0.0,
            slo_s: 1.0,
        }];
        let batch = Batch {
            requests: requests.clone(),
            admitted_s: 0.0,
        };
        let executed = vec![d.dispatch(&batch, &mut cache).unwrap()];
        let r = ServeReport::from_batches(
            &requests,
            &executed,
            cache.stats(),
            TuneStats::default(),
            &d,
        );
        assert_eq!(r.worker_busy_fraction.len(), 3);
        assert!(r.worker_busy_fraction[0] > 0.0, "worker 0 ran the batch");
        assert_eq!(r.worker_busy_fraction[1], 0.0);
        assert_eq!(r.worker_busy_fraction[2], 0.0);
        assert!(r.worker_busy_fraction.iter().all(|f| f.is_finite()));
    }
}
