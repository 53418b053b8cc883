//! Cluster run reports: per-request outcomes, shedding and failure
//! accounting, per-pool utilization, and a replay digest.

use crate::config::Routing;
use mg_gpusim::digest::Fnv1a;
use mg_serve::RequestClass;

/// Per-request latency decomposition for a completed request, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterOutcome {
    /// Request id.
    pub id: usize,
    /// Dataset class of the request.
    pub class: RequestClass,
    /// Pool that completed the request.
    pub pool: usize,
    /// Worker within the pool that completed it.
    pub worker: usize,
    /// Arrival time.
    pub arrival_s: f64,
    /// Time spent queued before execution began (re-dispatch wait
    /// included for retried requests).
    pub queue_s: f64,
    /// Time from (final) execution start to completion.
    pub service_s: f64,
    /// Whether completion beat the request's SLO deadline.
    pub slo_met: bool,
    /// Whether the request survived a worker failure and was
    /// re-dispatched.
    pub retried: bool,
}

impl ClusterOutcome {
    /// Arrival-to-completion latency.
    pub fn total_s(&self) -> f64 {
        self.queue_s + self.service_s
    }
}

/// Per-pool accounting of one cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolReport {
    /// Marketing name of the pool's device.
    pub device: &'static str,
    /// Workers the pool ended the run with (failed and parked included).
    pub workers: usize,
    /// Workers still online at the end of the run.
    pub online_workers: usize,
    /// Requests the pool completed.
    pub completed: usize,
    /// Fraction of the makespan each worker spent executing kernels.
    pub busy_fraction: Vec<f64>,
}

/// Aggregated result of one cluster simulation.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Routing policy the run used.
    pub routing: Routing,
    /// Requests offered by the traffic trace.
    pub n_requests: usize,
    /// Per-request outcomes of completed requests, in request-id order.
    pub outcomes: Vec<ClusterOutcome>,
    /// Ids of shed (refused) requests, in arrival order.
    pub shed: Vec<usize>,
    /// Ids of lost requests — admitted but never completed. The failure
    /// model's re-dispatch contract keeps this empty; anything else is a
    /// bug the study binaries assert on.
    pub lost: Vec<usize>,
    /// Wall-clock span from first arrival to last completion.
    pub makespan_s: f64,
    /// Per-pool accounting.
    pub pools: Vec<PoolReport>,
    /// Workers killed by the failure injector.
    pub failures: usize,
    /// Requests re-dispatched after a worker failure.
    pub redispatched: usize,
    /// Autoscale scale-up actions across all pools.
    pub scale_ups: usize,
    /// Autoscale scale-down actions across all pools.
    pub scale_downs: usize,
}

impl ClusterReport {
    /// Completed requests.
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// Fraction of offered requests that were shed.
    pub fn shed_rate(&self) -> f64 {
        if self.n_requests == 0 {
            return 0.0;
        }
        self.shed.len() as f64 / self.n_requests as f64
    }

    /// The `p`-th percentile (0–100) of completed-request total latency,
    /// by the nearest-rank method. Returns `0.0` when nothing completed
    /// (the all-shed degenerate run).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let mut latencies: Vec<f64> = self.outcomes.iter().map(ClusterOutcome::total_s).collect();
        latencies.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * latencies.len() as f64).ceil() as usize;
        latencies[rank.clamp(1, latencies.len()) - 1]
    }

    /// Median total latency of completed requests.
    pub fn p50(&self) -> f64 {
        self.latency_percentile(50.0)
    }

    /// 99th-percentile total latency of completed requests.
    pub fn p99(&self) -> f64 {
        self.latency_percentile(99.0)
    }

    /// Mean total latency of completed requests (`0.0` when none).
    pub fn mean_latency(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(ClusterOutcome::total_s)
            .sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// Fraction of completed requests that missed their SLO deadline.
    pub fn slo_violation_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| !o.slo_met).count() as f64 / self.outcomes.len() as f64
    }

    /// Mean busy fraction of pool `pool`'s workers.
    pub fn pool_busy_fraction(&self, pool: usize) -> f64 {
        let fractions = &self.pools[pool].busy_fraction;
        if fractions.is_empty() {
            return 0.0;
        }
        fractions.iter().sum::<f64>() / fractions.len() as f64
    }

    /// FNV-1a digest over every simulated number in the report: request
    /// outcomes (bit-exact latencies included), shed and lost ids, and
    /// the failure/autoscale counters. Two runs of the same
    /// configuration must produce the same digest at any `MG_THREADS`
    /// setting — the bit-equality gate CI enforces.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut fold = |bytes: &[u8]| h.write(bytes);
        fold(&(self.n_requests as u64).to_le_bytes());
        for o in &self.outcomes {
            fold(&(o.id as u64).to_le_bytes());
            fold(&(o.pool as u64).to_le_bytes());
            fold(&(o.worker as u64).to_le_bytes());
            fold(&o.queue_s.to_bits().to_le_bytes());
            fold(&o.service_s.to_bits().to_le_bytes());
            fold(&[u8::from(o.slo_met), u8::from(o.retried)]);
        }
        for &id in self.shed.iter().chain(&self.lost) {
            fold(&(id as u64).to_le_bytes());
        }
        fold(&self.makespan_s.to_bits().to_le_bytes());
        for counter in [
            self.failures,
            self.redispatched,
            self.scale_ups,
            self.scale_downs,
        ] {
            fold(&(counter as u64).to_le_bytes());
        }
        h.finish()
    }
}
