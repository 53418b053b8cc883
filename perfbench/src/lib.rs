//! # mg-perfbench — one benchmark for the numeric path and the simulators
//!
//! Four closed-loop workloads drive the repository's crates through
//! their public functions, with the parallel layer pinned to one thread:
//!
//! * `forward-qds` — [`SparseTransformer::forward_numeric`] on
//!   QDS-Transformer-base dimensions cut to two layers;
//! * `attention-longformer` — [`Attention::execute_numeric`] on single
//!   Longformer-large heads under Multigrain and the fused kernel;
//! * `serve-qds` — a fresh [`ServeSim`] per 160-request Poisson trace;
//! * `decode-chat` — [`DecodeSim`] in mixed continuous batching over
//!   multi-turn chat sessions.
//!
//! The untraced run reports end-to-end metrics. The traced run replays
//! each call from the same public pieces inside [`trace::Tracer`] spans,
//! demands that the replay's output equal the untraced call's bit for
//! bit, and reports per-layer self times and counts. See `README.md`
//! beside this crate for the metric map.
//!
//! [`SparseTransformer::forward_numeric`]: mg_models::SparseTransformer::forward_numeric
//! [`Attention::execute_numeric`]: multigrain::Attention::execute_numeric
//! [`ServeSim`]: mg_serve::ServeSim
//! [`DecodeSim`]: mg_decode::DecodeSim

#![forbid(unsafe_code)]

mod attention;
mod decode;
mod forward;
pub mod metrics;
mod pinned;
mod serve;
pub mod trace;

use metrics::{Metric, END_TO_END, PER_LAYER};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::{RootKind, Tracer};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Model forward on QDS-Transformer-base dimensions.
    ForwardQds,
    /// One Longformer-large attention head per call.
    AttentionLongformer,
    /// One serving simulation per call.
    ServeQds,
    /// One decode simulation per call.
    DecodeChat,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ForwardQds,
        Workload::AttentionLongformer,
        Workload::ServeQds,
        Workload::DecodeChat,
    ];

    /// The name used on the command line and in pinned digests.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ForwardQds => "forward-qds",
            Workload::AttentionLongformer => "attention-longformer",
            Workload::ServeQds => "serve-qds",
            Workload::DecodeChat => "decode-chat",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size. `Full` is what the benchmark measures; `Smoke` runs the
/// same code paths on `ModelConfig::tiny()`-scale inputs for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Tiny inputs that finish in well under a second.
    Smoke,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// What to run.
    pub workload: Workload,
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// How long the measured loop runs; the call in flight finishes.
    pub seconds: f64,
    /// `false`: untraced calls, end-to-end metrics. `true`: each call is
    /// followed by its traced replay, per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// Where and how the run executed.
#[derive(Debug, Clone)]
pub struct Env {
    /// Threads of the parallel layer (pinned to 1 by the binary).
    pub threads: usize,
    /// Whether the explicit SIMD microkernels are dispatched.
    pub simd_active: bool,
    /// Processors of the machine.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Whether the outputs were checked against digests pinned for this
    /// seed (otherwise each input's first output is the reference and
    /// later calls must repeat it bit for bit).
    pub pinned: bool,
}

impl Env {
    fn detect(pinned: bool) -> Env {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_owned(), |m| m.trim().to_owned());
        let nproc = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        Env {
            threads: rayon::current_num_threads(),
            simd_active: mg_tensor::simd::active(),
            nproc: if nproc > 0 {
                nproc
            } else {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            },
            cpu_model,
            pinned,
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output matched its reference and every check passed.
    pub correct: bool,
    /// Top-level calls attempted (untraced and, in a traced run, replays).
    pub attempted: u64,
    /// Calls that errored, panicked or produced a wrong digest.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Host time of every timed top-level call, ms, in call order.
    pub call_ms: Vec<f64>,
    /// Number of set-ups behind `setup_s`.
    pub setups: usize,
    /// Output digest of every input, in input order (`None` if no call
    /// of that input succeeded).
    pub digests: Vec<Option<u64>>,
    /// One line per failure.
    pub failures: Vec<String>,
    /// The run environment.
    pub env: Env,
    /// The recorded spans as JSON lines (traced run only).
    pub spans: Option<String>,
}

impl RunResult {
    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Seeds derived from the run seed: a SplitMix64 step over the seed and
/// a per-purpose index, so inputs of one run never share a stream.
pub(crate) fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words, little-endian bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a digest of a matrix's FP16 output bits.
pub(crate) fn half_digest(m: &mg_tensor::Matrix<mg_tensor::Half>) -> u64 {
    let mut h = Fnv::new();
    for v in m.as_slice() {
        h.bytes(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// One workload, set up and ready to be called.
pub(crate) trait Bench {
    /// Distinct inputs; call `i` uses input `i % inputs()`.
    fn inputs(&self) -> usize;
    /// Units of work one call on `input` completes.
    fn items(&self, input: usize) -> u64;
    /// The untraced top-level call; returns the output digest.
    fn call(&self, input: usize) -> Result<u64, String>;
    /// Replays the call from public pieces inside spans, under roots it
    /// opens itself: exactly one [`RootKind::Call`] root for the replica
    /// and optionally [`RootKind::Probe`] roots after it. Returns the
    /// replica's output digest.
    fn replay(&self, input: usize, tr: &mut Tracer) -> Result<u64, String>;
}

/// Builds the workload's state under the current (set-up) root.
fn setup(cfg: &RunConfig, tr: &mut Tracer) -> Result<Box<dyn Bench>, String> {
    Ok(match cfg.workload {
        Workload::ForwardQds => Box::new(forward::Forward::setup(cfg.scale, cfg.seed, tr)),
        Workload::AttentionLongformer => {
            Box::new(attention::AttentionBench::setup(cfg.scale, cfg.seed, tr)?)
        }
        Workload::ServeQds => Box::new(serve::ServeBench::setup(cfg.scale, cfg.seed, tr)),
        Workload::DecodeChat => Box::new(decode::DecodeBench::setup(cfg.scale, cfg.seed, tr)),
    })
}

/// Set-ups per untraced run before the first call: at least
/// `MIN_SETUPS`, and more until they add up to `SETUP_BUDGET_S`.
/// `setup_s` is the median of every set-up timed in the run.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 0.5;

/// A set-up shorter than this is also repeated before every call, in a
/// burst of at most `BURST_SETUPS` lasting at most `BURST_S`, so that
/// its median samples the whole run. On a shared VM the host runs in
/// phases seconds long; a set-up of microseconds timed only at start-up
/// read about 90 or 150 µs for the same input depending on the phase it
/// landed in.
const INTERLEAVE_BELOW_S: f64 = 0.01;
const BURST_S: f64 = 0.002;
const BURST_SETUPS: usize = 50;

/// One timed set-up under a fresh set-up root.
fn timed_setup(cfg: &RunConfig) -> (f64, Result<Box<dyn Bench>, String>, Tracer) {
    let mut tr = Tracer::new();
    let t = Instant::now();
    tr.open_root("setup", RootKind::Setup);
    let built = catch_unwind(AssertUnwindSafe(|| setup(cfg, &mut tr)));
    tr.unwind();
    let dt = t.elapsed().as_secs_f64();
    let built = match built {
        Ok(Ok(b)) => Ok(b),
        Ok(Err(e)) => Err(format!("set-up failed: {e}")),
        Err(p) => Err(format!("set-up panicked: {}", panic_message(&*p))),
    };
    (dt, built, tr)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_owned())
}

/// Output references per input: pinned digests when the seed has them,
/// otherwise the first output each input produced.
struct References {
    expected: Vec<Option<u64>>,
    pinned: bool,
    observed: Vec<Option<u64>>,
}

impl References {
    fn new(cfg: &RunConfig, inputs: usize) -> References {
        let pinned = match cfg.scale {
            Scale::Full => pinned::lookup(cfg.workload.name(), cfg.seed),
            Scale::Smoke => None,
        };
        match pinned {
            Some(digests) if digests.len() == inputs => References {
                expected: digests.into_iter().map(Some).collect(),
                pinned: true,
                observed: vec![None; inputs],
            },
            _ => References {
                expected: vec![None; inputs],
                pinned: false,
                observed: vec![None; inputs],
            },
        }
    }

    /// Checks one output; the first output of an unpinned input becomes
    /// its reference.
    fn check(&mut self, input: usize, digest: u64) -> Result<(), String> {
        self.observed[input].get_or_insert(digest);
        match self.expected[input] {
            Some(want) if want != digest => Err(format!(
                "input {input}: digest {digest:#018x}, expected {want:#018x}"
            )),
            Some(_) => Ok(()),
            None => {
                self.expected[input] = Some(digest);
                Ok(())
            }
        }
    }
}

/// Runs one benchmark configuration.
pub fn run(cfg: &RunConfig) -> RunResult {
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Set-up: repeated in the untraced run so `setup_s` is a median; in
    // the traced run once, under a set-up root whose spans are kept. The
    // previous set-up is dropped first, so peak memory holds one.
    let mut tracer = Tracer::new();
    let mut setup_times = Vec::new();
    let mut bench: Option<Box<dyn Bench>> = None;
    loop {
        let total: f64 = setup_times.iter().sum();
        let done = setup_times.len();
        let enough = if cfg.trace {
            done == 1
        } else {
            done >= MIN_SETUPS
                && (total >= SETUP_BUDGET_S || median(&setup_times) < INTERLEAVE_BELOW_S)
        };
        if enough {
            break;
        }
        drop(bench.take());
        let (dt, built, tr) = timed_setup(cfg);
        setup_times.push(dt);
        tracer = tr;
        match built {
            Ok(b) => bench = Some(b),
            Err(e) => {
                failures.push(e);
                break;
            }
        }
    }
    let interleave = !cfg.trace && median(&setup_times) < INTERLEAVE_BELOW_S;
    let Some(bench) = bench else {
        return RunResult {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            call_ms: Vec::new(),
            setups: setup_times.len(),
            digests: Vec::new(),
            failures,
            env: Env::detect(false),
            spans: None,
        };
    };

    let inputs = bench.inputs();
    let mut refs = References::new(cfg, inputs);
    let mut call_times: Vec<f64> = Vec::new();
    let mut items = 0u64;
    let mut untraced_paired = 0.0f64;
    let mut traced_paired = 0.0f64;

    let start = Instant::now();
    let mut i = 0usize;
    while i == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let input = i % inputs;
        i += 1;

        let burst = Instant::now();
        for _ in 0..if interleave { BURST_SETUPS } else { 0 } {
            let (dt, built, _) = timed_setup(cfg);
            setup_times.push(dt);
            if let Err(e) = built {
                failures.push(e);
                failed += 1;
            }
            if burst.elapsed().as_secs_f64() >= BURST_S {
                break;
            }
        }

        attempted += 1;
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| bench.call(input)));
        let dt = t.elapsed().as_secs_f64();
        let untraced = match out {
            Ok(Ok(d)) => match refs.check(input, d) {
                Ok(()) => {
                    call_times.push(dt);
                    items += bench.items(input);
                    Some(d)
                }
                Err(e) => {
                    failures.push(format!("call {}: {e}", i - 1));
                    None
                }
            },
            Ok(Err(e)) => {
                failures.push(format!("call {}: error: {e}", i - 1));
                None
            }
            Err(p) => {
                failures.push(format!("call {}: panic: {}", i - 1, panic_message(&*p)));
                None
            }
        };
        if untraced.is_none() {
            failed += 1;
        }
        if !cfg.trace {
            continue;
        }

        attempted += 1;
        let replayed = catch_unwind(AssertUnwindSafe(|| bench.replay(input, &mut tracer)));
        tracer.unwind();
        let replica = match replayed {
            Ok(Ok(d)) => Some(d),
            Ok(Err(e)) => {
                failures.push(format!("replay {}: error: {e}", i - 1));
                None
            }
            Err(p) => {
                failures.push(format!("replay {}: panic: {}", i - 1, panic_message(&*p)));
                None
            }
        };
        match (untraced, replica) {
            (Some(u), Some(r)) if u == r => {
                untraced_paired += dt;
                traced_paired += tracer.last_root_duration(RootKind::Call);
            }
            (Some(u), Some(r)) => {
                failures.push(format!(
                    "replay {}: replica digest {r:#018x} differs from the call's {u:#018x}",
                    i - 1
                ));
                failed += 1;
            }
            _ => failed += 1,
        }
    }

    let wall: f64 = call_times.iter().sum();
    let metrics = if cfg.trace {
        if let Err(e) = tracer.check_closure() {
            failures.push(format!("closure: {e}"));
            failed += 1;
        }
        let overhead = if untraced_paired > 0.0 {
            traced_paired / untraced_paired
        } else {
            0.0
        };
        PER_LAYER
            .iter()
            .map(|def| def.measure(&tracer, overhead))
            .collect()
    } else {
        let values = [
            (
                "items_per_s",
                if wall > 0.0 { items as f64 / wall } else { 0.0 },
            ),
            ("call_p50_ms", median(&call_times) * 1e3),
            ("setup_s", median(&setup_times)),
            ("peak_rss_mib", peak_rss_mib()),
        ];
        END_TO_END
            .iter()
            .map(|def| Metric {
                name: def.name,
                unit: def.unit,
                value: values
                    .iter()
                    .find(|(n, _)| *n == def.name)
                    .map_or(0.0, |(_, v)| *v),
            })
            .collect()
    };

    RunResult {
        correct: failed == 0 && failures.is_empty(),
        attempted,
        failed,
        metrics,
        call_ms: call_times.iter().map(|t| t * 1e3).collect(),
        setups: setup_times.len(),
        digests: refs.observed,
        failures,
        env: Env::detect(refs.pinned),
        spans: cfg.trace.then(|| tracer.to_json_lines()),
    }
}

/// Prints one output digest per input for `seed`, in the format of the
/// pinned-digest file.
pub fn pin_lines(workload: Workload, seed: u64) -> Result<String, String> {
    let cfg = RunConfig {
        workload,
        seed,
        seconds: 0.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut tr = Tracer::new();
    tr.open_root("setup", RootKind::Setup);
    let bench = setup(&cfg, &mut tr)?;
    tr.unwind();
    let digests = (0..bench.inputs())
        .map(|i| bench.call(i).map(|d| format!("{d:016x}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(format!(
        "{} {} {}",
        workload.name(),
        seed,
        digests.join(" ")
    ))
}
