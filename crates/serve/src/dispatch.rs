//! Multi-stream batch dispatcher over a pool of simulated devices.
//!
//! Admitted batches round-robin across a pool of workers, each owning
//! one [`Gpu`]. A worker's clock is advanced to the batch's start time
//! with [`Gpu::advance_to`] before launching, so every kernel record
//! lands on the shared server timeline and the pool's records can be
//! merged into one trace.

use crate::batch::Batch;
use crate::cache::PlanCache;
use mg_gpusim::digest::Fnv1a;
use mg_gpusim::{DeviceSpec, Gpu, KernelRecord};
use mg_sparse::SparseError;
use mg_tensor::{par, Half, Matrix};
use multigrain::{Attention, Op};
use std::sync::Arc;

/// How a dispatched batch uses the device's streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamPolicy {
    /// Everything on stream 0 with a barrier after every phase — the
    /// no-overlap baseline.
    Serial,
    /// Coarse/fine/dense phase kernels on their role streams with
    /// barriers between phases (the paper's §3.1 space sharing), via
    /// [`Attention::run_timed_batch`].
    RoleStreams,
    /// Dependency-driven launches with no phase barriers, via
    /// [`Attention::run_timed_pipelined`].
    Pipelined,
}

impl StreamPolicy {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            StreamPolicy::Serial => "serial",
            StreamPolicy::RoleStreams => "role-streams",
            StreamPolicy::Pipelined => "pipelined",
        }
    }
}

/// One executed batch: who ran, where, and when.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Ids of the member requests.
    pub request_ids: Vec<usize>,
    /// Worker that executed the batch.
    pub worker: usize,
    /// When the batch was admitted by the batcher.
    pub admitted_s: f64,
    /// When execution began (>= admitted; the worker may have been busy).
    pub started_s: f64,
    /// When every member completed.
    pub finished_s: f64,
    /// Whether each member's plan came from the cache (admission order).
    pub cache_hits: Vec<bool>,
    /// FNV-1a digest over the bits of every member's numerically executed
    /// attention output, in admission order. `0` when the dispatcher runs
    /// with numeric execution off (the default).
    pub numeric_digest: u64,
}

/// Lifecycle state of one pool worker.
///
/// The cluster layer drives workers through this state machine:
/// autoscaling parks and unparks them, the failure injector kills them.
/// A plain [`Dispatcher`] keeps every worker `Online` forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Eligible for new batches.
    Online,
    /// Scaled down: alive but not accepting work until unparked.
    Parked,
    /// Dropped mid-run by the failure injector; never comes back.
    Failed,
}

struct Worker {
    gpu: Gpu,
    free_at: f64,
    state: WorkerState,
}

/// Result of a targeted [`Dispatcher::dispatch_on`]: the batch outcome,
/// plus whether the worker died mid-batch. On failure the outcome's
/// `finished_s` is the failure instant and the member requests did NOT
/// complete — the caller owns re-dispatching them (exactly once).
#[derive(Debug, Clone)]
pub struct DispatchAttempt {
    /// Timing of the attempt (on failure, `finished_s` is the halt time).
    pub outcome: BatchOutcome,
    /// `true` when the worker failed before the batch could finish.
    pub failed: bool,
}

/// One planned batch bound for a specific worker: everything the worker
/// needs to execute it without touching shared mutable state.
struct Assignment {
    batch_idx: usize,
    admitted_s: f64,
    request_ids: Vec<usize>,
    plans: Vec<Arc<Attention>>,
    cache_hits: Vec<bool>,
}

/// A worker, its share of a dispatch group, and the outcomes it produced
/// (tagged with the batch's index in the group).
type WorkUnit = (Worker, Vec<Assignment>, Vec<(usize, BatchOutcome)>);

/// Round-robin dispatcher over `workers` simulated devices.
pub struct Dispatcher {
    workers: Vec<Worker>,
    policy: StreamPolicy,
    numeric: bool,
    next: usize,
}

impl Dispatcher {
    /// Creates a pool of `workers` devices of the given spec.
    ///
    /// Each worker pre-creates the three role streams so stream indices
    /// are stable regardless of policy.
    pub fn new(spec: &DeviceSpec, workers: usize, policy: StreamPolicy) -> Dispatcher {
        let workers = (0..workers.max(1))
            .map(|_| {
                let mut gpu = Gpu::new(spec.clone());
                gpu.stream(2); // materialize streams 0..=2
                Worker {
                    gpu,
                    free_at: 0.0,
                    state: WorkerState::Online,
                }
            })
            .collect();
        Dispatcher {
            workers,
            policy,
            numeric: false,
            next: 0,
        }
    }

    /// Enables or disables numeric execution: besides timing each batch,
    /// every member's plan is executed numerically on request-seeded
    /// Q/K/V through the packed compute kernels, and the output bits are
    /// folded into [`BatchOutcome::numeric_digest`]. The digest depends
    /// only on the batch contents, so it is bit-identical at any worker
    /// or thread count.
    #[must_use]
    pub fn with_numeric_execution(mut self, on: bool) -> Dispatcher {
        self.numeric = on;
        self
    }

    /// Whether numeric execution is in force.
    pub fn numeric_execution(&self) -> bool {
        self.numeric
    }

    /// The stream policy in force.
    pub fn policy(&self) -> StreamPolicy {
        self.policy
    }

    /// Number of workers in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Executes `batch` on the next worker in round-robin order,
    /// planning each member through `cache`.
    ///
    /// Execution starts at the later of the admission time and the
    /// moment the chosen worker frees up.
    pub fn dispatch(
        &mut self,
        batch: &Batch,
        cache: &mut PlanCache,
    ) -> Result<BatchOutcome, SparseError> {
        let mut outcomes = self.dispatch_many(std::slice::from_ref(batch), cache)?;
        Ok(outcomes.pop().expect("one batch in, one outcome out"))
    }

    /// Executes a group of batches released at the same simulated event,
    /// bit-identically to dispatching them one at a time in slice order.
    ///
    /// Planning runs serially in admission order — the LRU cache is
    /// shared mutable state and its hit/evict sequence is part of the
    /// deterministic contract. Worker stepping, the expensive part, then
    /// runs with one task per worker: each worker owns its [`Gpu`] and
    /// replays its share of the batches sequentially, so the per-worker
    /// timeline (and thus every outcome) is independent of thread count.
    pub fn dispatch_many(
        &mut self,
        batches: &[Batch],
        cache: &mut PlanCache,
    ) -> Result<Vec<BatchOutcome>, SparseError> {
        if batches.is_empty() {
            return Ok(Vec::new());
        }
        let mut queues: Vec<Vec<Assignment>> =
            (0..self.workers.len()).map(|_| Vec::new()).collect();
        for (batch_idx, batch) in batches.iter().enumerate() {
            let worker_idx = self.next_online_worker();
            let mut plans = Vec::with_capacity(batch.requests.len());
            let mut cache_hits = Vec::with_capacity(batch.requests.len());
            for request in &batch.requests {
                let hits_before = cache.stats().hits;
                plans.push(cache.get_or_plan(request)?);
                cache_hits.push(cache.stats().hits > hits_before);
            }
            queues[worker_idx].push(Assignment {
                batch_idx,
                admitted_s: batch.admitted_s,
                request_ids: batch.requests.iter().map(|r| r.id).collect(),
                plans,
                cache_hits,
            });
        }

        let policy = self.policy;
        let numeric = self.numeric;
        let workers = std::mem::take(&mut self.workers);
        let mut units: Vec<WorkUnit> = workers
            .into_iter()
            .zip(queues)
            .map(|(worker, queue)| (worker, queue, Vec::new()))
            .collect();
        par::for_each_chunk_mut(&mut units, 1, |worker_idx, unit| {
            let (worker, queue, done) = &mut unit[0];
            for a in queue.drain(..) {
                let started_s = a.admitted_s.max(worker.free_at);
                worker.gpu.advance_to(started_s);
                let refs: Vec<&Attention> = a.plans.iter().map(Arc::as_ref).collect();
                match policy {
                    StreamPolicy::Serial => run_serial(&refs, &mut worker.gpu),
                    StreamPolicy::RoleStreams => {
                        Attention::run_timed_batch(&refs, &mut worker.gpu);
                    }
                    StreamPolicy::Pipelined => {
                        Attention::run_timed_pipelined_batch(&refs, &mut worker.gpu);
                    }
                }
                let finished_s = worker.gpu.elapsed();
                worker.free_at = finished_s;
                let numeric_digest = if numeric {
                    batch_numeric_digest(&a.plans, &a.request_ids)
                } else {
                    0
                };
                done.push((
                    a.batch_idx,
                    BatchOutcome {
                        request_ids: a.request_ids,
                        worker: worker_idx,
                        admitted_s: a.admitted_s,
                        started_s,
                        finished_s,
                        cache_hits: a.cache_hits,
                        numeric_digest,
                    },
                ));
            }
        });

        let mut outcomes: Vec<Option<BatchOutcome>> = (0..batches.len()).map(|_| None).collect();
        self.workers = units
            .into_iter()
            .map(|(worker, _, done)| {
                for (batch_idx, outcome) in done {
                    outcomes[batch_idx] = Some(outcome);
                }
                worker
            })
            .collect();
        Ok(outcomes
            .into_iter()
            .map(|o| o.expect("every batch executed"))
            .collect())
    }

    /// Index of the next online worker in round-robin order, advancing
    /// the cursor past it. Panics if the whole pool is parked or failed —
    /// callers that manage lifecycle must route around dead pools.
    fn next_online_worker(&mut self) -> usize {
        let n = self.workers.len();
        for step in 0..n {
            let idx = (self.next + step) % n;
            if self.workers[idx].state == WorkerState::Online {
                self.next = (idx + 1) % n;
                return idx;
            }
        }
        panic!("dispatch with no online workers in the pool");
    }

    /// Grows the pool by one worker whose device clock starts at
    /// `ready_at` (simulated warm-up: it can take no batch earlier).
    /// Returns the new worker's index.
    pub fn add_worker(&mut self, ready_at: f64) -> usize {
        let spec = self.workers[0].gpu.spec().clone();
        let mut gpu = Gpu::new(spec);
        gpu.stream(2); // same stream layout as the founding workers
        gpu.advance_to(ready_at.max(0.0));
        self.workers.push(Worker {
            gpu,
            free_at: ready_at.max(0.0),
            state: WorkerState::Online,
        });
        self.workers.len() - 1
    }

    /// Parks an online worker: it keeps its history but takes no new
    /// batches until [`Dispatcher::unpark_worker`]. No-op on a failed
    /// worker — the dead stay dead.
    pub fn park_worker(&mut self, worker: usize) {
        let w = &mut self.workers[worker];
        if w.state == WorkerState::Online {
            w.state = WorkerState::Parked;
        }
    }

    /// Brings a parked worker back online, no earlier than `ready_at`
    /// (simulated warm-up). No-op unless the worker is parked.
    pub fn unpark_worker(&mut self, worker: usize, ready_at: f64) {
        let w = &mut self.workers[worker];
        if w.state == WorkerState::Parked {
            w.state = WorkerState::Online;
            w.free_at = w.free_at.max(ready_at);
        }
    }

    /// Kills a worker at simulated time `at`: its device halts (kernel
    /// records past `at` are clipped, pending work is dropped) and it
    /// never takes another batch.
    pub fn fail_worker(&mut self, worker: usize, at: f64) {
        let w = &mut self.workers[worker];
        w.gpu.halt_at(at);
        w.state = WorkerState::Failed;
        w.free_at = f64::INFINITY;
    }

    /// Lifecycle state of worker `worker`.
    pub fn worker_state(&self, worker: usize) -> WorkerState {
        self.workers[worker].state
    }

    /// When worker `worker` frees up (`INFINITY` once failed).
    pub fn worker_free_at(&self, worker: usize) -> f64 {
        self.workers[worker].free_at
    }

    /// Number of workers currently online.
    pub fn online_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.state == WorkerState::Online)
            .count()
    }

    /// Executes `batch` on a specific worker, planning each member
    /// through `cache`. This is the cluster layer's entry point: the
    /// router picks the worker, and `abort_at` injects a failure — if
    /// the worker's pre-drawn failure time lands before the batch
    /// finishes, the device halts there, the attempt comes back with
    /// `failed = true`, and the members must be re-dispatched by the
    /// caller. Pass `abort_at = None` for a failure-immune attempt
    /// (retries, so a request is re-dispatched exactly once).
    pub fn dispatch_on(
        &mut self,
        worker: usize,
        batch: &Batch,
        cache: &mut PlanCache,
        abort_at: Option<f64>,
    ) -> Result<DispatchAttempt, SparseError> {
        assert_eq!(
            self.workers[worker].state,
            WorkerState::Online,
            "dispatch_on targets an online worker"
        );
        let mut plans = Vec::with_capacity(batch.requests.len());
        let mut cache_hits = Vec::with_capacity(batch.requests.len());
        for request in &batch.requests {
            let hits_before = cache.stats().hits;
            plans.push(cache.get_or_plan(request)?);
            cache_hits.push(cache.stats().hits > hits_before);
        }
        let request_ids: Vec<usize> = batch.requests.iter().map(|r| r.id).collect();

        let w = &mut self.workers[worker];
        let started_s = batch.admitted_s.max(w.free_at);
        w.gpu.advance_to(started_s);
        let refs: Vec<&Attention> = plans.iter().map(Arc::as_ref).collect();
        match self.policy {
            StreamPolicy::Serial => run_serial(&refs, &mut w.gpu),
            StreamPolicy::RoleStreams => {
                Attention::run_timed_batch(&refs, &mut w.gpu);
            }
            StreamPolicy::Pipelined => {
                Attention::run_timed_pipelined_batch(&refs, &mut w.gpu);
            }
        }
        let mut finished_s = w.gpu.elapsed();
        let failed = matches!(abort_at, Some(t) if t < finished_s);
        let numeric_digest = if failed {
            // The batch never completed: its outputs are lost, not hashed.
            finished_s = abort_at.expect("failed implies abort_at").max(started_s);
            self.fail_worker(worker, finished_s);
            0
        } else {
            self.workers[worker].free_at = finished_s;
            if self.numeric {
                batch_numeric_digest(&plans, &request_ids)
            } else {
                0
            }
        };
        Ok(DispatchAttempt {
            outcome: BatchOutcome {
                request_ids,
                worker,
                admitted_s: batch.admitted_s,
                started_s,
                finished_s,
                cache_hits,
                numeric_digest,
            },
            failed,
        })
    }

    /// When every live worker is idle again (failed workers, parked at
    /// infinity, are ignored).
    pub fn drained_at(&self) -> f64 {
        self.workers
            .iter()
            .map(|w| w.free_at)
            .filter(|t| t.is_finite())
            .fold(0.0f64, f64::max)
    }

    /// Kernel records of one worker, on the shared server timeline.
    pub fn worker_records(&self, worker: usize) -> &[KernelRecord] {
        self.workers[worker].gpu.records()
    }

    /// Seconds worker `worker` spent executing kernels in `[0, until]`.
    pub fn worker_busy_seconds(&self, worker: usize, until: f64) -> f64 {
        mg_gpusim::busy_seconds(self.workers[worker].gpu.records(), 0.0, until)
    }
}

/// Executes every plan in a batch numerically on request-seeded Q/K/V
/// and folds the FP16 output bits into one FNV-1a digest. The operands
/// are a pure function of each request's id and plan dimensions, so the
/// digest is reproducible across runs, workers, and thread counts.
fn batch_numeric_digest(plans: &[Arc<Attention>], request_ids: &[usize]) -> u64 {
    let mut h = Fnv1a::new();
    for (plan, &id) in plans.iter().zip(request_ids) {
        let dims = plan.problem().dims();
        let seed = id as u64;
        let q = Matrix::<Half>::random(dims.seq_len, dims.head_dim, seed * 3 + 1);
        let k = Matrix::<Half>::random(dims.seq_len, dims.head_dim, seed * 3 + 2);
        let v = Matrix::<Half>::random(dims.seq_len, dims.head_dim, seed * 3 + 3);
        let context = plan.execute_numeric(&q, &k, &v);
        for value in context.as_slice() {
            h.write(&value.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

/// The serial baseline: the batch's merged phase profiles launch on the
/// single default stream, one phase at a time.
fn run_serial(attns: &[&Attention], gpu: &mut Gpu) {
    let spec = gpu.spec().clone();
    for op in [Op::Sddmm, Op::Softmax, Op::Spmm, Op::Merge] {
        let profiles = Attention::batch_phase_profiles(attns, &spec, op);
        let stream = gpu.stream(0);
        for (_, profile) in profiles {
            gpu.launch(stream, profile);
        }
        gpu.synchronize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::request::{Request, RequestClass};
    use mg_models::workload::WorkloadSample;
    use mg_models::{ModelConfig, SparseTransformer};
    use multigrain::Method;

    fn tiny_cache() -> PlanCache {
        let model = SparseTransformer::new(ModelConfig::tiny());
        PlanCache::new(model, 32, 8)
    }

    fn tiny_batch(ids: std::ops::Range<usize>, admitted_s: f64) -> Batch {
        Batch {
            requests: ids
                .map(|id| Request {
                    id,
                    class: RequestClass::TriviaQa,
                    method: Method::Multigrain,
                    max_seq_len: 64,
                    sample: WorkloadSample {
                        valid_len: 64,
                        special_tokens: vec![0, 1, 2, 3],
                    },
                    arrival_s: admitted_s,
                    slo_s: 1.0,
                })
                .collect(),
            admitted_s,
        }
    }

    #[test]
    fn batches_round_robin_and_respect_admission_times() {
        let mut cache = tiny_cache();
        let mut d = Dispatcher::new(&DeviceSpec::a100(), 2, StreamPolicy::RoleStreams);
        let a = d.dispatch(&tiny_batch(0..2, 0.0), &mut cache).unwrap();
        let b = d.dispatch(&tiny_batch(2..4, 0.5), &mut cache).unwrap();
        assert_eq!((a.worker, b.worker), (0, 1));
        assert_eq!(b.started_s, 0.5, "idle worker starts at admission");
        assert!(a.finished_s > a.started_s);
        // Worker 0 again; it is long idle, so the batch starts on time.
        let c = d.dispatch(&tiny_batch(4..6, 1.0), &mut cache).unwrap();
        assert_eq!(c.worker, 0);
        assert_eq!(c.started_s, 1.0);
    }

    #[test]
    fn busy_worker_delays_the_next_batch() {
        let mut cache = tiny_cache();
        let mut d = Dispatcher::new(&DeviceSpec::a100(), 1, StreamPolicy::RoleStreams);
        let a = d.dispatch(&tiny_batch(0..2, 0.0), &mut cache).unwrap();
        let b = d.dispatch(&tiny_batch(2..4, 0.0), &mut cache).unwrap();
        assert_eq!(b.started_s, a.finished_s, "queued behind the first batch");
        assert_eq!(d.drained_at(), b.finished_s);
    }

    #[test]
    fn serial_is_no_faster_than_role_streams() {
        let mut cache_s = tiny_cache();
        let mut cache_m = tiny_cache();
        let mut serial = Dispatcher::new(&DeviceSpec::a100(), 1, StreamPolicy::Serial);
        let mut multi = Dispatcher::new(&DeviceSpec::a100(), 1, StreamPolicy::RoleStreams);
        let s = serial
            .dispatch(&tiny_batch(0..4, 0.0), &mut cache_s)
            .unwrap();
        let m = multi
            .dispatch(&tiny_batch(0..4, 0.0), &mut cache_m)
            .unwrap();
        let serial_time = s.finished_s - s.started_s;
        let multi_time = m.finished_s - m.started_s;
        assert!(
            multi_time <= serial_time + 1e-12,
            "streams can only help: serial {serial_time} vs multi {multi_time}"
        );
    }

    #[test]
    fn numeric_digest_is_zero_off_and_thread_invariant_on() {
        let off = Dispatcher::new(&DeviceSpec::a100(), 2, StreamPolicy::RoleStreams);
        assert!(!off.numeric_execution());
        let mut cache = tiny_cache();
        let mut off = off;
        let o = off.dispatch(&tiny_batch(0..2, 0.0), &mut cache).unwrap();
        assert_eq!(o.numeric_digest, 0, "digest stays zero when disabled");

        // With numeric execution on, the digest is nonzero and
        // bit-identical across reruns and thread counts.
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    let mut cache = tiny_cache();
                    let mut d = Dispatcher::new(&DeviceSpec::a100(), 2, StreamPolicy::RoleStreams)
                        .with_numeric_execution(true);
                    let batches = [tiny_batch(0..2, 0.0), tiny_batch(2..4, 0.0)];
                    d.dispatch_many(&batches, &mut cache)
                        .unwrap()
                        .iter()
                        .map(|o| o.numeric_digest)
                        .collect::<Vec<u64>>()
                })
        };
        let serial = run(1);
        assert!(
            serial.iter().all(|&d| d != 0),
            "digests are live: {serial:?}"
        );
        assert_ne!(serial[0], serial[1], "distinct requests, distinct bits");
        assert_eq!(serial, run(4), "digest is thread-count invariant");
        assert_eq!(serial, run(1), "digest is reproducible");
    }

    #[test]
    fn round_robin_skips_parked_and_failed_workers() {
        let mut cache = tiny_cache();
        let mut d = Dispatcher::new(&DeviceSpec::a100(), 3, StreamPolicy::RoleStreams);
        d.park_worker(1);
        let a = d.dispatch(&tiny_batch(0..1, 0.0), &mut cache).unwrap();
        let b = d.dispatch(&tiny_batch(1..2, 0.0), &mut cache).unwrap();
        let c = d.dispatch(&tiny_batch(2..3, 0.0), &mut cache).unwrap();
        assert_eq!(
            (a.worker, b.worker, c.worker),
            (0, 2, 0),
            "parked worker 1 is skipped"
        );
        assert_eq!(d.online_workers(), 2);
        d.unpark_worker(1, 5.0);
        assert_eq!(d.online_workers(), 3);
        assert_eq!(d.worker_free_at(1), 5.0, "unpark applies warm-up");
    }

    #[test]
    fn added_worker_obeys_its_ready_time() {
        let mut cache = tiny_cache();
        let mut d = Dispatcher::new(&DeviceSpec::a100(), 1, StreamPolicy::RoleStreams);
        let w = d.add_worker(3.0);
        assert_eq!(w, 1);
        let a = d
            .dispatch_on(w, &tiny_batch(0..2, 1.0), &mut cache, None)
            .unwrap();
        assert!(!a.failed);
        assert_eq!(a.outcome.started_s, 3.0, "warm-up delays the first batch");
    }

    #[test]
    fn failed_worker_halts_and_attempt_reports_it() {
        let mut cache = tiny_cache();
        let mut d = Dispatcher::new(&DeviceSpec::a100(), 1, StreamPolicy::RoleStreams)
            .with_numeric_execution(true);
        // Measure an undisturbed run to find a mid-batch instant.
        let probe = d
            .dispatch_on(0, &tiny_batch(0..2, 0.0), &mut cache, None)
            .unwrap();
        assert!(!probe.failed);
        assert_ne!(probe.outcome.numeric_digest, 0);
        let mid =
            probe.outcome.finished_s + (probe.outcome.finished_s - probe.outcome.started_s) / 2.0;

        // Same batch again: the worker dies halfway through it.
        let attempt = d
            .dispatch_on(
                0,
                &tiny_batch(0..2, probe.outcome.finished_s),
                &mut cache,
                Some(mid),
            )
            .unwrap();
        assert!(attempt.failed);
        assert_eq!(attempt.outcome.finished_s, mid, "clipped to the failure");
        assert_eq!(attempt.outcome.numeric_digest, 0, "lost work is not hashed");
        assert_eq!(d.worker_state(0), WorkerState::Failed);
        assert_eq!(d.online_workers(), 0);
        assert!(d.worker_free_at(0).is_infinite());
        assert!(
            d.worker_records(0).iter().all(|r| r.end <= mid + 1e-12),
            "no kernel record outlives the failure"
        );
        assert!(
            d.drained_at().is_finite(),
            "failed workers do not pin drain"
        );
    }

    #[test]
    fn records_land_on_the_server_timeline() {
        let mut cache = tiny_cache();
        let mut d = Dispatcher::new(&DeviceSpec::a100(), 1, StreamPolicy::Pipelined);
        d.dispatch(&tiny_batch(0..2, 2.0), &mut cache).unwrap();
        let records = d.worker_records(0);
        assert!(!records.is_empty());
        assert!(
            records.iter().all(|r| r.start >= 2.0),
            "aligned to admit time"
        );
        assert!(d.worker_busy_seconds(0, d.drained_at()) > 0.0);
    }
}
