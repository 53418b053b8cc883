//! The decode serving event loop: chat sessions, growing KV caches,
//! incremental pattern rows, and three batching disciplines.
//!
//! Every session alternates full/incremental prefills with bursts of
//! single-token decode steps. The engine replays that job stream over
//! simulated GPU workers under one of three [`BatchingMode`]s and
//! reports per-phase latency percentiles, plan-cache behaviour split by
//! phase, and KV growth accounting. The loop is deliberately serial —
//! one global event order, ties broken by worker then session id — so
//! its digests are invariant under the numeric layer's thread count.

use crate::kv::{KvCacheState, KvStats};
use mg_gpusim::digest::Fnv1a;
use mg_gpusim::{DeviceSpec, Gpu, KernelProfile, LaunchConfig, TbWork};
use mg_kernels::decode_step_profile;
use mg_models::workload::{chat_sessions, ChatSession, WorkloadSample};
use mg_models::{ModelConfig, SparseTransformer};
use mg_patterns::DecodePatternState;
use mg_serve::{CacheStats, PlanCache, RequestClass};
use mg_sparse::SparseError;
use multigrain::{Attention, Method};

/// How prefill jobs and decode steps share the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchingMode {
    /// No decode layer at all: every response token re-runs a full
    /// prefill over the grown context. This is what the stack costs
    /// without KV caches and incremental patterns — the strawman.
    PrefillOnly,
    /// KV caches and incremental steps exist, but scheduling is plain
    /// FIFO by ready time: decode steps queue behind any earlier-ready
    /// prefill (head-of-line blocking).
    Segregated,
    /// Continuous batching with decode priority: at each launch, every
    /// ready decode step across sessions batches into one kernel and
    /// goes first; prefills fill the gaps.
    Mixed,
}

impl BatchingMode {
    /// Stable lowercase label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            BatchingMode::PrefillOnly => "prefill-only",
            BatchingMode::Segregated => "segregated",
            BatchingMode::Mixed => "mixed",
        }
    }
}

/// Static configuration of a [`DecodeSim`].
#[derive(Debug, Clone)]
pub struct DecodeConfig {
    /// Model whose patterns and dimensions drive every cost.
    pub model: ModelConfig,
    /// Simulated device per worker.
    pub device: DeviceSpec,
    /// Fallback attention method for plan building.
    pub method: Method,
    /// Scheduling discipline.
    pub mode: BatchingMode,
    /// Simulated GPU workers; sessions pin round-robin (KV affinity).
    pub workers: usize,
    /// Length bucket shared by the plan cache and KV growth policy.
    pub len_bucket: usize,
    /// Plan-cache capacity in plans.
    pub cache_capacity: usize,
    /// Most decode steps merged into one kernel launch.
    pub max_decode_batch: usize,
}

impl DecodeConfig {
    /// Defaults: one worker, Multigrain fallback, a length bucket of an
    /// eighth of the padded length, 64 cached plans, decode batches of
    /// up to 16 steps.
    pub fn new(model: ModelConfig, device: DeviceSpec, mode: BatchingMode) -> DecodeConfig {
        let len_bucket = (model.max_seq_len / 8).max(1);
        DecodeConfig {
            model,
            device,
            method: Method::Multigrain,
            mode,
            workers: 1,
            len_bucket,
            cache_capacity: 64,
            max_decode_batch: 16,
        }
    }
}

/// Chat-session traffic for one run: a request class shapes the token
/// budgets and special-token layouts, [`chat_sessions`] turns them into
/// multi-turn sessions.
#[derive(Debug, Clone)]
pub struct DecodeTraffic {
    /// Workload class the session contexts are drawn from.
    pub class: RequestClass,
    /// Number of sessions.
    pub sessions: usize,
    /// Upper bound on turns per session (at least 2 attempted).
    pub max_turns: usize,
    /// Session arrival rate (Poisson), sessions per second.
    pub rate_rps: f64,
    /// Mean user think time between turns, seconds.
    pub mean_think_s: f64,
    /// Seed for arrivals, lengths, and turn structure.
    pub seed: u64,
}

impl DecodeTraffic {
    /// Materializes the deterministic session list for a model length.
    pub fn sessions_for(&self, max_seq_len: usize) -> Vec<ChatSession> {
        chat_sessions(
            &self.class.samples(max_seq_len, self.sessions, self.seed),
            self.max_turns,
            self.mean_think_s,
            self.rate_rps,
            self.seed,
        )
    }
}

/// Everything one [`DecodeSim::run`] measured.
#[derive(Debug, Clone)]
pub struct DecodeReport {
    /// Discipline the run used.
    pub mode: BatchingMode,
    /// Sessions completed.
    pub sessions: usize,
    /// Turns across all sessions.
    pub turns: usize,
    /// Response tokens produced (decode steps, or token re-prefills
    /// under [`BatchingMode::PrefillOnly`]).
    pub decode_steps: usize,
    /// Per-token latency (ready → finish), completion order.
    pub decode_latencies_s: Vec<f64>,
    /// Per-prefill latency (full and incremental), completion order.
    pub prefill_latencies_s: Vec<f64>,
    /// Latest prefill finish time — the prefill makespan the decode
    /// priority must not regress.
    pub prefill_makespan_s: f64,
    /// Latest finish of any job.
    pub makespan_s: f64,
    /// Decode kernel launches (each covers a whole batch).
    pub decode_batches: u64,
    /// Plan-cache accounting, split prefill versus decode.
    pub cache: CacheStats,
    /// KV growth accounting summed over sessions.
    pub kv: KvStats,
}

impl DecodeReport {
    /// Median decode-token latency.
    pub fn decode_p50(&self) -> f64 {
        percentile(&self.decode_latencies_s, 0.50)
    }

    /// Tail decode-token latency.
    pub fn decode_p99(&self) -> f64 {
        percentile(&self.decode_latencies_s, 0.99)
    }

    /// Tail prefill latency.
    pub fn prefill_p99(&self) -> f64 {
        percentile(&self.prefill_latencies_s, 0.99)
    }

    /// Mean decode steps per decode launch (1.0 with no batching).
    pub fn mean_decode_batch(&self) -> f64 {
        if self.decode_batches == 0 {
            0.0
        } else {
            self.decode_latencies_s.len() as f64 / self.decode_batches as f64
        }
    }

    /// FNV-1a digest over every number in the report, in a fixed
    /// order. Byte-identical across thread counts by construction (the
    /// event loop is serial and the numeric layer is bit-stable).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut fold = |v: u64| h.write_u64(v);
        fold(match self.mode {
            BatchingMode::PrefillOnly => 0,
            BatchingMode::Segregated => 1,
            BatchingMode::Mixed => 2,
        });
        fold(self.sessions as u64);
        fold(self.turns as u64);
        fold(self.decode_steps as u64);
        for &l in &self.decode_latencies_s {
            fold(l.to_bits());
        }
        for &l in &self.prefill_latencies_s {
            fold(l.to_bits());
        }
        fold(self.prefill_makespan_s.to_bits());
        fold(self.makespan_s.to_bits());
        fold(self.decode_batches);
        fold(self.cache.hits);
        fold(self.cache.misses);
        fold(self.cache.evictions);
        fold(self.cache.prefill_hits);
        fold(self.cache.prefill_misses);
        fold(self.cache.decode_hits);
        fold(self.cache.decode_misses);
        fold(self.kv.growth_events);
        fold(self.kv.bytes_copied);
        fold(self.kv.appended_tokens);
        h.finish()
    }
}

/// Nearest-rank percentile of an unsorted slice; 0 when empty.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One pending unit of work for a session.
#[derive(Debug, Clone, Copy)]
enum JobKind {
    /// Plan and run full attention over `to_len` context tokens.
    /// `token` marks the prefill-only mode's per-token re-prefills,
    /// whose latency counts as decode latency.
    FullPrefill { to_len: usize, token: bool },
    /// Extend the session pattern by `rows` user-turn tokens and run
    /// the incremental kernel.
    IncrPrefill { rows: usize },
    /// Produce one response token.
    DecodeStep,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    kind: JobKind,
    ready_s: f64,
}

struct Live {
    chat: ChatSession,
    worker: usize,
    turn: usize,
    tokens_left: usize,
    context_len: usize,
    pattern: Option<DecodePatternState>,
    kv: Option<KvCacheState>,
    job: Option<Job>,
}

/// What one worker launches next.
enum Action {
    Single(usize),
    DecodeBatch(Vec<usize>),
}

struct Worker {
    gpu: Gpu,
    free_s: f64,
}

/// The decode serving simulation: shared plan cache, per-worker GPUs,
/// and the serial event loop of [`DecodeSim::run`].
pub struct DecodeSim {
    config: DecodeConfig,
    model: SparseTransformer,
    cache: PlanCache,
}

impl DecodeSim {
    /// Builds the simulation, its plan cache sized and bucketed from
    /// the configuration.
    pub fn new(config: DecodeConfig) -> DecodeSim {
        let model = SparseTransformer::new(config.model.clone());
        let cache = PlanCache::new(
            SparseTransformer::new(config.model.clone()),
            config.cache_capacity,
            config.len_bucket,
        );
        DecodeSim {
            config,
            model,
            cache,
        }
    }

    /// Bytes one token's K and V rows occupy across all heads (FP16).
    fn kv_row_bytes(&self) -> u64 {
        (self.config.model.heads * self.config.model.head_dim * 2 * 2) as u64
    }

    /// Runs the traffic to completion and reports.
    pub fn run(&mut self, traffic: &DecodeTraffic) -> Result<DecodeReport, SparseError> {
        let max_seq_len = self.config.model.max_seq_len;
        let workers = self.config.workers.max(1);
        let mut live: Vec<Live> = traffic
            .sessions_for(max_seq_len)
            .into_iter()
            .enumerate()
            .map(|(i, chat)| {
                let first = Job {
                    kind: JobKind::FullPrefill {
                        to_len: chat.prefill.valid_len,
                        token: false,
                    },
                    ready_s: chat.arrival_s,
                };
                Live {
                    worker: i % workers,
                    turn: 0,
                    tokens_left: 0,
                    context_len: 0,
                    pattern: None,
                    kv: None,
                    job: Some(first),
                    chat,
                }
            })
            .collect();
        let mut pool: Vec<Worker> = (0..workers)
            .map(|_| Worker {
                gpu: Gpu::new(self.config.device.clone()),
                free_s: 0.0,
            })
            .collect();

        let turns = live.iter().map(|s| s.chat.turns.len()).sum();
        let mut report = DecodeReport {
            mode: self.config.mode,
            sessions: live.len(),
            turns,
            decode_steps: 0,
            decode_latencies_s: Vec::new(),
            prefill_latencies_s: Vec::new(),
            prefill_makespan_s: 0.0,
            makespan_s: 0.0,
            decode_batches: 0,
            cache: CacheStats::default(),
            kv: KvStats::default(),
        };

        loop {
            // Globally earliest launch; ties break by worker index,
            // then (inside `select`) by session id. One total order.
            let mut best: Option<(f64, usize)> = None;
            for (w, worker) in pool.iter().enumerate() {
                if let Some((start, _)) = self.select(&live, w, worker.free_s) {
                    if best.is_none_or(|(s, _)| start < s) {
                        best = Some((start, w));
                    }
                }
            }
            let Some((start, w)) = best else { break };
            let (_, action) = self
                .select(&live, w, pool[w].free_s)
                .expect("candidate vanished");
            self.execute(&mut live, &mut pool[w], start, action, &mut report)?;
        }

        for s in &live {
            if let Some(kv) = &s.kv {
                report.kv.absorb(&kv.stats());
            }
        }
        report.cache = self.cache.stats();
        report.makespan_s = pool.iter().fold(0.0f64, |m, w| m.max(w.free_s));
        Ok(report)
    }

    /// Picks worker `w`'s next launch among its sessions' pending
    /// jobs, per the configured discipline. Returns the start time and
    /// the action.
    fn select(&self, live: &[Live], w: usize, free_s: f64) -> Option<(f64, Action)> {
        let pending: Vec<(usize, Job)> = live
            .iter()
            .enumerate()
            .filter(|(_, s)| s.worker == w)
            .filter_map(|(i, s)| s.job.map(|j| (i, j)))
            .collect();
        if pending.is_empty() {
            return None;
        }
        let min_ready = pending
            .iter()
            .map(|(_, j)| j.ready_s)
            .fold(f64::INFINITY, f64::min);
        let start = free_s.max(min_ready);
        let decode_ready = |t: f64| -> Vec<usize> {
            let mut ids: Vec<usize> = pending
                .iter()
                .filter(|(_, j)| matches!(j.kind, JobKind::DecodeStep) && j.ready_s <= t)
                .map(|(i, _)| *i)
                .collect();
            ids.truncate(self.config.max_decode_batch.max(1));
            ids
        };
        match self.config.mode {
            // Decode priority: any ready decode step preempts queued
            // prefills and batches with its peers.
            BatchingMode::Mixed => {
                let batch = decode_ready(start);
                if !batch.is_empty() {
                    return Some((start, Action::DecodeBatch(batch)));
                }
                let (head, job) = pending
                    .iter()
                    .copied()
                    .min_by(|(i, a), (j, b)| a.ready_s.total_cmp(&b.ready_s).then(i.cmp(j)))
                    .expect("non-empty");
                Some((free_s.max(job.ready_s), Action::Single(head)))
            }
            // Plain FIFO: the earliest-ready job goes next regardless
            // of kind. A decode step at the head still batches with
            // other steps ready by its start (continuous batching
            // without priority).
            BatchingMode::Segregated | BatchingMode::PrefillOnly => {
                let (head, job) = pending
                    .iter()
                    .copied()
                    .min_by(|(i, a), (j, b)| a.ready_s.total_cmp(&b.ready_s).then(i.cmp(j)))
                    .expect("non-empty");
                let start = free_s.max(job.ready_s);
                if matches!(job.kind, JobKind::DecodeStep) {
                    Some((start, Action::DecodeBatch(decode_ready(start))))
                } else {
                    Some((start, Action::Single(head)))
                }
            }
        }
    }

    fn execute(
        &mut self,
        live: &mut [Live],
        worker: &mut Worker,
        start: f64,
        action: Action,
        report: &mut DecodeReport,
    ) -> Result<(), SparseError> {
        worker.gpu.advance_to(start);
        match action {
            Action::Single(sid) => {
                let job = live[sid].job.take().expect("selected job");
                match job.kind {
                    JobKind::FullPrefill { to_len, token } => {
                        let sample = WorkloadSample {
                            valid_len: to_len,
                            special_tokens: live[sid].chat.prefill.special_tokens.clone(),
                        };
                        let plan = self.cache.get_or_plan_sample(self.config.method, &sample)?;
                        Attention::run_timed_batch(&[plan.as_ref()], &mut worker.gpu);
                        let finish = worker.gpu.elapsed();
                        worker.free_s = finish;
                        let latency = finish - job.ready_s;
                        live[sid].context_len = to_len;
                        if token {
                            report.decode_steps += 1;
                            report.decode_latencies_s.push(latency);
                            live[sid].tokens_left -= 1;
                        } else {
                            report.prefill_latencies_s.push(latency);
                            report.prefill_makespan_s = report.prefill_makespan_s.max(finish);
                            if self.config.mode == BatchingMode::PrefillOnly {
                                live[sid].tokens_left = live[sid]
                                    .chat
                                    .turns
                                    .get(live[sid].turn)
                                    .map_or(0, |t| t.decode_tokens);
                            } else {
                                // Turn-0 prefill: materialize the
                                // session's incremental state.
                                let pattern = self.model.pattern_for(&sample);
                                live[sid].pattern = Some(DecodePatternState::from_prefill(pattern));
                                live[sid].kv = Some(KvCacheState::new(
                                    to_len,
                                    self.config.len_bucket,
                                    self.config.model.max_seq_len,
                                    self.kv_row_bytes(),
                                ));
                                live[sid].tokens_left = live[sid]
                                    .chat
                                    .turns
                                    .get(live[sid].turn)
                                    .map_or(0, |t| t.decode_tokens);
                            }
                        }
                        self.after_token_or_context(live, sid, finish);
                    }
                    JobKind::IncrPrefill { rows } => {
                        let (nnzs, copied) = {
                            let s = &mut live[sid];
                            let pattern = s.pattern.as_mut().expect("decode state");
                            let nnzs: Vec<usize> = (0..rows)
                                .map(|_| pattern.extend_decode_row().len())
                                .collect();
                            let copied = s.kv.as_mut().expect("kv state").append(rows);
                            (nnzs, copied)
                        };
                        let stream = worker.gpu.stream(0);
                        if copied > 0 {
                            worker.gpu.launch(stream, kv_grow_profile(copied));
                        }
                        let profile = decode_step_profile(
                            &self.config.device,
                            self.config.model.head_dim,
                            self.config.model.heads,
                            &nnzs,
                            "incr_prefill",
                        );
                        worker.gpu.launch(stream, profile);
                        let finish = worker.gpu.synchronize();
                        worker.free_s = finish;
                        report.prefill_latencies_s.push(finish - job.ready_s);
                        report.prefill_makespan_s = report.prefill_makespan_s.max(finish);
                        live[sid].context_len += rows;
                        live[sid].tokens_left = live[sid].chat.turns[live[sid].turn].decode_tokens;
                        live[sid].job = Some(Job {
                            kind: JobKind::DecodeStep,
                            ready_s: finish,
                        });
                    }
                    JobKind::DecodeStep => unreachable!("decode steps launch as batches"),
                }
            }
            Action::DecodeBatch(members) => {
                let mut nnzs = Vec::with_capacity(members.len());
                let mut readies = Vec::with_capacity(members.len());
                let mut copied_total = 0u64;
                for &sid in &members {
                    let job = live[sid].job.take().expect("selected job");
                    readies.push(job.ready_s);
                    let sample = WorkloadSample {
                        valid_len: live[sid].context_len + 1,
                        special_tokens: live[sid].chat.prefill.special_tokens.clone(),
                    };
                    // The plan handle itself is the reuse artifact; the
                    // step's cost is the incremental kernel below.
                    let _plan =
                        self.cache
                            .get_or_plan_decode(sid as u64, self.config.method, &sample)?;
                    let s = &mut live[sid];
                    nnzs.push(
                        s.pattern
                            .as_mut()
                            .expect("decode state")
                            .extend_decode_row()
                            .len(),
                    );
                    copied_total += s.kv.as_mut().expect("kv state").append(1);
                }
                let stream = worker.gpu.stream(0);
                if copied_total > 0 {
                    worker.gpu.launch(stream, kv_grow_profile(copied_total));
                }
                let profile = decode_step_profile(
                    &self.config.device,
                    self.config.model.head_dim,
                    self.config.model.heads,
                    &nnzs,
                    "decode_step",
                );
                worker.gpu.launch(stream, profile);
                let finish = worker.gpu.synchronize();
                worker.free_s = finish;
                report.decode_batches += 1;
                for (&sid, &ready) in members.iter().zip(&readies) {
                    report.decode_steps += 1;
                    report.decode_latencies_s.push(finish - ready);
                    live[sid].context_len += 1;
                    live[sid].tokens_left -= 1;
                    self.after_token_or_context(live, sid, finish);
                }
            }
        }
        Ok(())
    }

    /// Schedules a session's next job once a token was produced or a
    /// turn's context became ready.
    fn after_token_or_context(&mut self, live: &mut [Live], sid: usize, finish: f64) {
        let prefill_only = self.config.mode == BatchingMode::PrefillOnly;
        let s = &mut live[sid];
        if s.tokens_left > 0 {
            s.job = Some(Job {
                kind: if prefill_only {
                    JobKind::FullPrefill {
                        to_len: s.context_len + 1,
                        token: true,
                    }
                } else {
                    JobKind::DecodeStep
                },
                ready_s: finish,
            });
            return;
        }
        // Turn finished: user thinks, then follows up (or the session
        // ends and its plan memo is dropped).
        s.turn += 1;
        match s.chat.turns.get(s.turn) {
            Some(t) => {
                let ready_s = finish + t.think_s;
                s.job = Some(if prefill_only {
                    Job {
                        kind: JobKind::FullPrefill {
                            to_len: s.context_len + t.user_tokens,
                            token: false,
                        },
                        ready_s,
                    }
                } else if t.user_tokens == 0 {
                    s.tokens_left = t.decode_tokens;
                    Job {
                        kind: JobKind::DecodeStep,
                        ready_s,
                    }
                } else {
                    Job {
                        kind: JobKind::IncrPrefill {
                            rows: t.user_tokens,
                        },
                        ready_s,
                    }
                });
            }
            None => {
                s.job = None;
                self.cache.end_session(sid as u64);
            }
        }
    }
}

/// The reallocation copy a KV growth event costs: a streaming
/// read-modify-write of the resident cache bytes.
fn kv_grow_profile(bytes: u64) -> KernelProfile {
    KernelProfile {
        name: "kv_grow".to_owned(),
        launch: LaunchConfig {
            threads_per_tb: 256,
            regs_per_thread: 32,
            smem_per_tb: 0,
        },
        tbs: vec![TbWork {
            tensor_macs: 0,
            cuda_flops: 0,
            sfu_ops: 0,
            l2_read: bytes,
            dram_read: bytes,
            dram_write: bytes,
            stall_cycles: 0,
        }],
        cache: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic(sessions: usize) -> DecodeTraffic {
        DecodeTraffic {
            class: RequestClass::HotpotQa,
            sessions,
            max_turns: 3,
            rate_rps: 20_000.0,
            mean_think_s: 2e-4,
            seed: 11,
        }
    }

    fn run(mode: BatchingMode) -> DecodeReport {
        let config = DecodeConfig::new(ModelConfig::tiny(), DeviceSpec::a100(), mode);
        DecodeSim::new(config).run(&traffic(6)).unwrap()
    }

    #[test]
    fn incremental_modes_produce_every_token() {
        for mode in [BatchingMode::Segregated, BatchingMode::Mixed] {
            let report = run(mode);
            let expected: usize = traffic(6)
                .sessions_for(64)
                .iter()
                .map(|s| s.decode_steps())
                .sum();
            assert_eq!(report.decode_steps, expected, "{}", mode.label());
            assert!(report.prefill_makespan_s <= report.makespan_s);
            assert!(report.decode_p50() > 0.0);
            // Steady-state steps hit the session memo.
            assert!(report.cache.decode_hit_rate() > 0.5, "{:?}", report.cache);
            assert_eq!(
                report.cache.hits + report.cache.misses,
                report.cache.prefill_hits
                    + report.cache.prefill_misses
                    + report.cache.decode_hits
                    + report.cache.decode_misses
            );
            // Every appended token went through a KV cache.
            assert!(report.kv.appended_tokens > 0);
        }
    }

    #[test]
    fn prefill_only_pays_full_runs_per_token() {
        let strawman = run(BatchingMode::PrefillOnly);
        let mixed = run(BatchingMode::Mixed);
        assert_eq!(strawman.decode_steps, mixed.decode_steps);
        assert_eq!(
            strawman.kv.appended_tokens, 0,
            "no KV cache in the strawman"
        );
        assert!(
            strawman.decode_p50() > mixed.decode_p50() * 2.0,
            "re-prefilling per token must dominate an incremental step: {} vs {}",
            strawman.decode_p50(),
            mixed.decode_p50()
        );
    }

    #[test]
    fn decode_priority_never_loses_to_fifo_on_decode_tail() {
        let seg = run(BatchingMode::Segregated);
        let mixed = run(BatchingMode::Mixed);
        assert!(
            mixed.decode_p99() <= seg.decode_p99(),
            "mixed {} vs segregated {}",
            mixed.decode_p99(),
            seg.decode_p99()
        );
    }

    #[test]
    fn reports_are_deterministic() {
        for mode in [
            BatchingMode::PrefillOnly,
            BatchingMode::Segregated,
            BatchingMode::Mixed,
        ] {
            let a = run(mode);
            let b = run(mode);
            assert_eq!(a.digest(), b.digest(), "{}", mode.label());
        }
    }

    #[test]
    fn kv_growth_is_charged() {
        // Long sessions on a coarse bucket must cross at least one
        // boundary somewhere in the traffic.
        let report = run(BatchingMode::Mixed);
        assert!(
            report.kv.growth_events > 0,
            "expected at least one growth event: {:?}",
            report.kv
        );
    }
}
