//! `serve-qds`: one serving simulation per call.

use crate::trace::{RootKind, Tracer};
use crate::{derive_seed, Bench, Fnv, Scale};
use mg_gpusim::{busy_seconds, export_chrome_trace_grouped, DeviceSpec, Gpu, KernelProfile};
use mg_models::{ModelConfig, SparseTransformer};
use mg_serve::{
    canonicalize, Batch, Batcher, CacheStats, PlanCache, Request, ServeConfig, ServeSim,
    StreamPolicy, TrafficConfig,
};
use multigrain::{Attention, AttentionProblem, Method, Op, StreamRole};
use std::sync::Arc;

/// Distinct traces per run: about as many as a run completes calls, so
/// that a run's cost is an average over many traces.
const INPUTS: usize = 8;

pub(crate) struct ServeBench {
    config: ServeConfig,
    traffics: Vec<TrafficConfig>,
    /// Requests each trace holds.
    requests: Vec<u64>,
}

impl ServeBench {
    pub(crate) fn setup(scale: Scale, seed: u64, tr: &mut Tracer) -> ServeBench {
        let (model, n, rate_rps, slo_s) = match scale {
            Scale::Full => (ModelConfig::qds_base(), 160, 4_000.0, 0.010),
            Scale::Smoke => (ModelConfig::tiny(), 24, 200.0, 0.5),
        };
        let config = ServeConfig::new(model, DeviceSpec::a100());
        let traffics: Vec<TrafficConfig> = (0..INPUTS as u64)
            .map(|j| {
                TrafficConfig::poisson(rate_rps, n, Method::Multigrain, slo_s, derive_seed(seed, j))
            })
            .collect();
        let max_seq_len = config.model.max_seq_len;
        let requests = tr.span("models.traffic", || {
            traffics
                .iter()
                .map(|t| t.generate(max_seq_len).len() as u64)
                .collect()
        });
        ServeBench {
            config,
            traffics,
            requests,
        }
    }
}

/// The numbers a serving report is judged by, in request-id order.
struct ServeSummary<'a> {
    /// `(queue_s, service_s, cache_hit)` per request.
    requests: Vec<(f64, f64, bool)>,
    cache: CacheStats,
    busy: &'a [f64],
    makespan_s: f64,
}

impl ServeSummary<'_> {
    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for &(queue, service, hit) in &self.requests {
            h.word(queue.to_bits());
            h.word(service.to_bits());
            h.word(u64::from(hit));
        }
        for v in [
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.prefill_hits,
            self.cache.prefill_misses,
        ] {
            h.word(v);
        }
        for b in self.busy {
            h.word(b.to_bits());
        }
        h.word(self.makespan_s.to_bits());
        h.finish()
    }
}

/// One executed batch of the replica.
struct Executed {
    request_ids: Vec<usize>,
    started_s: f64,
    finished_s: f64,
    cache_hits: Vec<bool>,
}

struct Worker {
    gpu: Gpu,
    free_at: f64,
}

/// A planned batch bound for one worker.
struct Assignment {
    batch: usize,
    plans: Vec<Arc<Attention>>,
    cache_hits: Vec<bool>,
}

/// A plan-cache miss: the request and the plan it built.
type Miss = (Request, Arc<Attention>);

/// The replica's state: the public pieces `ServeSim::run` wires together.
struct Replica {
    cache: PlanCache,
    workers: Vec<Worker>,
    next: usize,
    executed: Vec<Executed>,
    /// Every miss, in order.
    misses: Vec<Miss>,
}

/// Launches the merged phase kernels of `plans` as role streams with a
/// barrier after each phase — what `Attention::run_timed_batch` does.
pub(crate) fn run_role_streams(plans: &[&Attention], gpu: &mut Gpu, tr: &mut Tracer) {
    let spec = gpu.spec().clone();
    for op in [Op::Sddmm, Op::Softmax, Op::Spmm, Op::Merge] {
        let profiles = tr.span("kernels.profile", || {
            Attention::batch_phase_profiles(plans, &spec, op)
        });
        let tbs: usize = profiles.iter().map(|(_, p)| p.tbs.len()).sum();
        tr.count("kernels.profile.tbs", tbs as f64);
        tr.count("gpusim.tbs", tbs as f64);
        tr.count("gpusim.kernels", profiles.len() as f64);
        tr.span("gpusim.schedule", || {
            for (role, profile) in profiles {
                let stream = gpu.stream(match role {
                    StreamRole::Main => 0,
                    StreamRole::Fine => 1,
                    StreamRole::Dense => 2,
                });
                gpu.launch(stream, profile);
            }
            gpu.synchronize();
        });
    }
}

/// Launches one kernel on stream 0, counting it.
pub(crate) fn launch_counted(gpu: &mut Gpu, profile: KernelProfile, tr: &mut Tracer) {
    tr.count("gpusim.tbs", profile.tbs.len() as f64);
    tr.count("gpusim.kernels", 1.0);
    tr.span("gpusim.schedule", || {
        let stream = gpu.stream(0);
        gpu.launch(stream, profile);
    });
}

impl Replica {
    /// `Dispatcher::dispatch_many`: plan every batch serially in
    /// admission order, then step each worker through its share.
    fn dispatch(&mut self, batches: &[Batch], tr: &mut Tracer) -> Result<(), String> {
        let mut queues: Vec<Vec<Assignment>> =
            (0..self.workers.len()).map(|_| Vec::new()).collect();
        for (idx, batch) in batches.iter().enumerate() {
            let worker = self.next;
            self.next = (self.next + 1) % self.workers.len();
            let mut plans = Vec::with_capacity(batch.requests.len());
            let mut hits = Vec::with_capacity(batch.requests.len());
            for request in &batch.requests {
                let before = self.cache.stats();
                let plan = tr
                    .span("serve.plan_cache", || self.cache.get_or_plan(request))
                    .map_err(|e| e.to_string())?;
                let after = self.cache.stats();
                let hit = after.hits > before.hits;
                tr.count("serve.plan_cache.lookups", 1.0);
                tr.count("serve.plan_cache.hits", f64::from(u8::from(hit)));
                tr.count(
                    "serve.plan_cache.misses",
                    (after.misses - before.misses) as f64,
                );
                if !hit {
                    self.misses.push((request.clone(), Arc::clone(&plan)));
                }
                plans.push(plan);
                hits.push(hit);
            }
            tr.count("serve.batches", 1.0);
            tr.count("serve.requests", batch.requests.len() as f64);
            queues[worker].push(Assignment {
                batch: idx,
                plans,
                cache_hits: hits,
            });
        }
        for (worker, queue) in self.workers.iter_mut().zip(queues) {
            for Assignment {
                batch,
                plans,
                cache_hits,
            } in queue
            {
                let batch = &batches[batch];
                let started_s = batch.admitted_s.max(worker.free_at);
                worker.gpu.advance_to(started_s);
                let refs: Vec<&Attention> = plans.iter().map(Arc::as_ref).collect();
                run_role_streams(&refs, &mut worker.gpu, tr);
                let finished_s = worker.gpu.elapsed();
                worker.free_at = finished_s;
                self.executed.push(Executed {
                    request_ids: batch.requests.iter().map(|r| r.id).collect(),
                    started_s,
                    finished_s,
                    cache_hits,
                });
            }
        }
        Ok(())
    }
}

impl ServeBench {
    /// `ServeSim::run` rebuilt from the public `Batcher`, `PlanCache`,
    /// `Attention::batch_phase_profiles` and `Gpu`. Returns the report
    /// digest and every miss.
    fn replica(
        &self,
        traffic: &TrafficConfig,
        tr: &mut Tracer,
    ) -> Result<(u64, Vec<Miss>), String> {
        let cfg = &self.config;
        assert_eq!(
            cfg.stream_policy,
            StreamPolicy::RoleStreams,
            "replica covers role streams"
        );
        let requests = tr.span("models.traffic", || traffic.generate(cfg.model.max_seq_len));
        let mut batcher = Batcher::new(cfg.batch_policy);
        let mut rep = Replica {
            cache: PlanCache::new(
                SparseTransformer::new(cfg.model.clone()),
                cfg.cache_capacity,
                cfg.cache_len_bucket,
            ),
            workers: (0..cfg.workers.max(1))
                .map(|_| {
                    let mut gpu = Gpu::new(cfg.device.clone());
                    gpu.stream(2);
                    Worker { gpu, free_at: 0.0 }
                })
                .collect(),
            next: 0,
            executed: Vec::new(),
            misses: Vec::new(),
        };

        for request in &requests {
            let now = request.arrival_s;
            let due = tr.span("serve.batcher", || {
                let mut due = batcher.poll(now);
                due.extend(batcher.push(request.clone(), now));
                due
            });
            rep.dispatch(&due, tr)?;
        }
        let end = requests.last().map_or(0.0, |r| r.arrival_s);
        while let Some(deadline) = tr.span("serve.batcher", || batcher.next_deadline()) {
            let due = tr.span("serve.batcher", || batcher.poll(deadline.max(end)));
            rep.dispatch(&due, tr)?;
        }

        let names: Vec<String> = (0..rep.workers.len())
            .map(|w| format!("worker-{w}"))
            .collect();
        let chrome = tr.span("serve.trace_export", || {
            let groups: Vec<(&str, &[mg_gpusim::KernelRecord])> = names
                .iter()
                .zip(&rep.workers)
                .map(|(name, w)| (name.as_str(), w.gpu.records()))
                .collect();
            export_chrome_trace_grouped(&groups)
        });
        std::hint::black_box(chrome);

        // `ServeReport::from_batches`.
        let mut outcomes: Vec<(usize, f64, f64, bool)> = Vec::with_capacity(requests.len());
        for b in &rep.executed {
            for (pos, &id) in b.request_ids.iter().enumerate() {
                outcomes.push((
                    id,
                    b.started_s - requests[id].arrival_s,
                    b.finished_s - b.started_s,
                    b.cache_hits[pos],
                ));
            }
        }
        outcomes.sort_by_key(|o| o.0);
        let t0 = requests
            .iter()
            .map(|r| r.arrival_s)
            .fold(f64::INFINITY, f64::min);
        let t1 = rep
            .executed
            .iter()
            .map(|b| b.finished_s)
            .fold(0.0f64, f64::max);
        let makespan_s = (t1 - t0).max(f64::MIN_POSITIVE);
        let busy: Vec<f64> = rep
            .workers
            .iter()
            .map(|w| busy_seconds(w.gpu.records(), 0.0, t1) / makespan_s)
            .collect();
        let plan_bytes: u64 = rep
            .misses
            .iter()
            .map(|(_, p)| p.plan_memory_bytes().total())
            .sum();
        tr.count("core.plan.bytes", plan_bytes as f64);
        let summary = ServeSummary {
            requests: outcomes.iter().map(|&(_, q, s, h)| (q, s, h)).collect(),
            cache: rep.cache.stats(),
            busy: &busy,
            makespan_s,
        };
        Ok((summary.digest(), rep.misses))
    }

    /// Re-runs the two steps `PlanCache` performs inside one call on a
    /// miss — the canonical pattern build and `Attention::plan` — so they
    /// can be timed apart. The rebuilt plan must match the cached one.
    fn probe_misses(&self, misses: &[Miss], tr: &mut Tracer) -> Result<(), String> {
        let cfg = &self.config.model;
        let model = SparseTransformer::new(cfg.clone());
        for (request, cached) in misses {
            let canon = canonicalize(
                &request.sample,
                cfg.max_seq_len,
                self.config.cache_len_bucket,
            );
            let pattern = tr.span("patterns.build", || model.pattern_for(&canon));
            let plan = tr
                .span("core.plan", || {
                    let problem =
                        AttentionProblem::new(pattern, cfg.head_dim, 1, cfg.heads, cfg.block_size);
                    Attention::plan(request.method, problem)
                })
                .map_err(|e| e.to_string())?;
            if plan.plan_memory_bytes() != cached.plan_memory_bytes() {
                return Err(format!(
                    "probe rebuilt a different plan for request {}",
                    request.id
                ));
            }
        }
        Ok(())
    }
}

impl Bench for ServeBench {
    fn inputs(&self) -> usize {
        INPUTS
    }

    fn items(&self, input: usize) -> u64 {
        self.requests[input]
    }

    fn call(&self, input: usize) -> Result<u64, String> {
        let report = ServeSim::new(self.config.clone())
            .run(&self.traffics[input])
            .map_err(|e| e.to_string())?;
        Ok(ServeSummary {
            requests: report
                .outcomes
                .iter()
                .map(|o| (o.queue_s, o.service_s, o.cache_hit))
                .collect(),
            cache: report.cache,
            busy: &report.worker_busy_fraction,
            makespan_s: report.makespan_s,
        }
        .digest())
    }

    fn replay(&self, input: usize, tr: &mut Tracer) -> Result<u64, String> {
        let (digest, misses) = tr.root("serve", RootKind::Call, |tr| {
            self.replica(&self.traffics[input], tr)
        })?;
        tr.root("probe", RootKind::Probe, |tr| {
            self.probe_misses(&misses, tr)
        })?;
        Ok(digest)
    }
}
