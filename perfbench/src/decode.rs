//! `decode-chat`: one decode-serving simulation per call.

use crate::serve::{launch_counted, run_role_streams};
use crate::trace::{RootKind, Tracer};
use crate::{derive_seed, Bench, Scale};
use mg_decode::{
    BatchingMode, DecodeConfig, DecodeReport, DecodeSim, DecodeTraffic, KvCacheState, KvStats,
};
use mg_gpusim::{DeviceSpec, Gpu, KernelProfile, LaunchConfig, TbWork};
use mg_kernels::decode_step_profile;
use mg_models::workload::ChatSession;
use mg_models::{ModelConfig, SparseTransformer, WorkloadSample};
use mg_patterns::DecodePatternState;
use mg_serve::{PlanCache, RequestClass};

/// Traffics per run, cycling through the dataset classes: four of each,
/// so that a run's cost is an average over many sessions of every class.
const INPUTS: usize = 16;

pub(crate) struct DecodeBench {
    config: DecodeConfig,
    traffics: Vec<DecodeTraffic>,
    /// Decode steps each traffic produces, from its session list.
    steps: Vec<u64>,
}

impl DecodeBench {
    /// `decode_study`'s full traffic settings, [`INPUTS`] seeds.
    pub(crate) fn setup(scale: Scale, seed: u64, tr: &mut Tracer) -> DecodeBench {
        let (model, sessions, rate_rps, mean_think_s) = match scale {
            Scale::Full => (ModelConfig::qds_base(), 12, 2_000.0, 2e-3),
            Scale::Smoke => (ModelConfig::tiny(), 4, 10_000.0, 4e-4),
        };
        let max_seq_len = model.max_seq_len;
        let config = DecodeConfig::new(model, DeviceSpec::a100(), BatchingMode::Mixed);
        let traffics: Vec<DecodeTraffic> = (0..INPUTS)
            .map(|j| DecodeTraffic {
                class: RequestClass::ALL[j % RequestClass::ALL.len()],
                sessions,
                max_turns: 3,
                rate_rps,
                mean_think_s,
                seed: derive_seed(seed, j as u64),
            })
            .collect();
        let steps = tr.span("models.traffic", || {
            traffics
                .iter()
                .map(|t| {
                    t.sessions_for(max_seq_len)
                        .iter()
                        .map(|s| s.decode_steps() as u64)
                        .sum()
                })
                .collect()
        });
        DecodeBench {
            config,
            traffics,
            steps,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum JobKind {
    FullPrefill { to_len: usize },
    IncrPrefill { rows: usize },
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

enum Action {
    Single(usize),
    DecodeBatch(Vec<usize>),
}

struct Worker {
    gpu: Gpu,
    free_s: f64,
}

/// The reallocation copy of a KV growth event, as `DecodeSim` prices it.
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

/// `DecodeSim::run` in mixed mode, rebuilt from the public plan cache,
/// pattern state, KV state, decode profile and `Gpu`, with the
/// simulator's event loop (earliest launch first, ties by worker then
/// session; ready decode steps batch and preempt prefills).
struct Replica<'a> {
    config: &'a DecodeConfig,
    model: SparseTransformer,
    cache: PlanCache,
    live: Vec<Live>,
    report: DecodeReport,
}

impl Replica<'_> {
    fn select(&self, w: usize, free_s: f64) -> Option<(f64, Action)> {
        let pending: Vec<(usize, Job)> = self
            .live
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
        let mut batch: Vec<usize> = pending
            .iter()
            .filter(|(_, j)| matches!(j.kind, JobKind::DecodeStep) && j.ready_s <= start)
            .map(|(i, _)| *i)
            .collect();
        batch.truncate(self.config.max_decode_batch.max(1));
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

    fn kv_row_bytes(&self) -> u64 {
        (self.config.model.heads * self.config.model.head_dim * 2 * 2) as u64
    }

    fn decode_profile(&self, nnzs: &[usize], name: &str, tr: &mut Tracer) -> KernelProfile {
        tr.count("kernels.decode_profile.calls", 1.0);
        let m = &self.config.model;
        tr.span("kernels.decode_profile", || {
            decode_step_profile(&self.config.device, m.head_dim, m.heads, nnzs, name)
        })
    }

    fn execute(
        &mut self,
        worker: &mut Worker,
        start: f64,
        action: Action,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        worker.gpu.advance_to(start);
        match action {
            Action::Single(sid) => {
                let job = self.live[sid].job.take().expect("selected job");
                match job.kind {
                    JobKind::FullPrefill { to_len } => {
                        let sample = WorkloadSample {
                            valid_len: to_len,
                            special_tokens: self.live[sid].chat.prefill.special_tokens.clone(),
                        };
                        let method = self.config.method;
                        let plan = tr
                            .span("serve.plan_cache", || {
                                self.cache.get_or_plan_sample(method, &sample)
                            })
                            .map_err(|e| e.to_string())?;
                        run_role_streams(&[plan.as_ref()], &mut worker.gpu, tr);
                        let finish = worker.gpu.elapsed();
                        worker.free_s = finish;
                        self.report.prefill_latencies_s.push(finish - job.ready_s);
                        self.report.prefill_makespan_s = self.report.prefill_makespan_s.max(finish);
                        let pattern = tr.span("patterns.build", || {
                            DecodePatternState::from_prefill(self.model.pattern_for(&sample))
                        });
                        let (bucket, max_len, row_bytes) = (
                            self.config.len_bucket,
                            self.config.model.max_seq_len,
                            self.kv_row_bytes(),
                        );
                        let kv = tr.span("decode.kv", || {
                            KvCacheState::new(to_len, bucket, max_len, row_bytes)
                        });
                        let s = &mut self.live[sid];
                        s.context_len = to_len;
                        s.pattern = Some(pattern);
                        s.kv = Some(kv);
                        s.tokens_left = s.chat.turns.get(s.turn).map_or(0, |t| t.decode_tokens);
                        self.after_token_or_context(sid, finish);
                    }
                    JobKind::IncrPrefill { rows } => {
                        let s = &mut self.live[sid];
                        let pattern = s.pattern.as_mut().expect("decode state");
                        tr.count("patterns.decode_extend.calls", rows as f64);
                        let nnzs: Vec<usize> = tr.span("patterns.decode_extend", || {
                            (0..rows)
                                .map(|_| pattern.extend_decode_row().len())
                                .collect()
                        });
                        let kv = s.kv.as_mut().expect("kv state");
                        let copied = tr.span("decode.kv", || kv.append(rows));
                        if copied > 0 {
                            launch_counted(&mut worker.gpu, kv_grow_profile(copied), tr);
                        }
                        let profile = self.decode_profile(&nnzs, "incr_prefill", tr);
                        launch_counted(&mut worker.gpu, profile, tr);
                        let finish = tr.span("gpusim.schedule", || worker.gpu.synchronize());
                        worker.free_s = finish;
                        self.report.prefill_latencies_s.push(finish - job.ready_s);
                        self.report.prefill_makespan_s = self.report.prefill_makespan_s.max(finish);
                        let s = &mut self.live[sid];
                        s.context_len += rows;
                        s.tokens_left = s.chat.turns[s.turn].decode_tokens;
                        s.job = Some(Job {
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
                    let job = self.live[sid].job.take().expect("selected job");
                    readies.push(job.ready_s);
                    let sample = WorkloadSample {
                        valid_len: self.live[sid].context_len + 1,
                        special_tokens: self.live[sid].chat.prefill.special_tokens.clone(),
                    };
                    let method = self.config.method;
                    let before = self.cache.stats().decode_hits;
                    tr.span("serve.plan_cache.decode", || {
                        self.cache.get_or_plan_decode(sid as u64, method, &sample)
                    })
                    .map_err(|e| e.to_string())?;
                    tr.count("serve.plan_cache.decode_lookups", 1.0);
                    tr.count(
                        "serve.plan_cache.decode_hits",
                        (self.cache.stats().decode_hits - before) as f64,
                    );
                    let s = &mut self.live[sid];
                    let pattern = s.pattern.as_mut().expect("decode state");
                    tr.count("patterns.decode_extend.calls", 1.0);
                    nnzs.push(tr.span("patterns.decode_extend", || {
                        pattern.extend_decode_row().len()
                    }));
                    let kv = s.kv.as_mut().expect("kv state");
                    copied_total += tr.span("decode.kv", || kv.append(1));
                }
                if copied_total > 0 {
                    launch_counted(&mut worker.gpu, kv_grow_profile(copied_total), tr);
                }
                let profile = self.decode_profile(&nnzs, "decode_step", tr);
                launch_counted(&mut worker.gpu, profile, tr);
                let finish = tr.span("gpusim.schedule", || worker.gpu.synchronize());
                worker.free_s = finish;
                self.report.decode_batches += 1;
                for (&sid, &ready) in members.iter().zip(&readies) {
                    self.report.decode_steps += 1;
                    self.report.decode_latencies_s.push(finish - ready);
                    self.live[sid].context_len += 1;
                    self.live[sid].tokens_left -= 1;
                    self.after_token_or_context(sid, finish);
                }
            }
        }
        Ok(())
    }

    fn after_token_or_context(&mut self, sid: usize, finish: f64) {
        let s = &mut self.live[sid];
        if s.tokens_left > 0 {
            s.job = Some(Job {
                kind: JobKind::DecodeStep,
                ready_s: finish,
            });
            return;
        }
        s.turn += 1;
        match s.chat.turns.get(s.turn) {
            Some(t) => {
                let ready_s = finish + t.think_s;
                s.job = Some(if t.user_tokens == 0 {
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

impl DecodeBench {
    fn replica(&self, traffic: &DecodeTraffic, tr: &mut Tracer) -> Result<DecodeReport, String> {
        let cfg = &self.config;
        assert_eq!(
            cfg.mode,
            BatchingMode::Mixed,
            "replica covers mixed batching"
        );
        let max_seq_len = cfg.model.max_seq_len;
        let workers = cfg.workers.max(1);
        let sessions = tr.span("models.traffic", || traffic.sessions_for(max_seq_len));
        let live: Vec<Live> = sessions
            .into_iter()
            .enumerate()
            .map(|(i, chat)| Live {
                worker: i % workers,
                turn: 0,
                tokens_left: 0,
                context_len: 0,
                pattern: None,
                kv: None,
                job: Some(Job {
                    kind: JobKind::FullPrefill {
                        to_len: chat.prefill.valid_len,
                    },
                    ready_s: chat.arrival_s,
                }),
                chat,
            })
            .collect();
        let turns = live.iter().map(|s| s.chat.turns.len()).sum();
        let mut pool: Vec<Worker> = (0..workers)
            .map(|_| Worker {
                gpu: Gpu::new(cfg.device.clone()),
                free_s: 0.0,
            })
            .collect();
        let mut rep = Replica {
            config: cfg,
            model: SparseTransformer::new(cfg.model.clone()),
            cache: PlanCache::new(
                SparseTransformer::new(cfg.model.clone()),
                cfg.cache_capacity,
                cfg.len_bucket,
            ),
            report: DecodeReport {
                mode: cfg.mode,
                sessions: live.len(),
                turns,
                decode_steps: 0,
                decode_latencies_s: Vec::new(),
                prefill_latencies_s: Vec::new(),
                prefill_makespan_s: 0.0,
                makespan_s: 0.0,
                decode_batches: 0,
                cache: Default::default(),
                kv: KvStats::default(),
            },
            live,
        };

        loop {
            let mut best: Option<(f64, usize)> = None;
            for (w, worker) in pool.iter().enumerate() {
                if let Some((start, _)) = rep.select(w, worker.free_s) {
                    if best.is_none_or(|(s, _)| start < s) {
                        best = Some((start, w));
                    }
                }
            }
            let Some((start, w)) = best else { break };
            let (_, action) = rep.select(w, pool[w].free_s).expect("candidate vanished");
            rep.execute(&mut pool[w], start, action, tr)?;
        }

        let mut report = rep.report;
        for s in &rep.live {
            if let Some(kv) = &s.kv {
                report.kv.absorb(&kv.stats());
            }
        }
        tr.count("decode.kv.growth_events", report.kv.growth_events as f64);
        report.cache = rep.cache.stats();
        report.makespan_s = pool.iter().fold(0.0f64, |m, w| m.max(w.free_s));
        Ok(report)
    }
}

impl Bench for DecodeBench {
    fn inputs(&self) -> usize {
        self.traffics.len()
    }

    fn items(&self, input: usize) -> u64 {
        self.steps[input]
    }

    fn call(&self, input: usize) -> Result<u64, String> {
        let report = DecodeSim::new(self.config.clone())
            .run(&self.traffics[input])
            .map_err(|e| e.to_string())?;
        if report.decode_steps as u64 != self.steps[input] {
            return Err(format!(
                "{} decode steps, the sessions hold {}",
                report.decode_steps, self.steps[input]
            ));
        }
        Ok(report.digest())
    }

    fn replay(&self, input: usize, tr: &mut Tracer) -> Result<u64, String> {
        tr.root("decode", RootKind::Call, |tr| {
            self.replica(&self.traffics[input], tr)
        })
        .map(|r| r.digest())
    }
}
