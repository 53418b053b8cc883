//! `forward-qds`: the numeric model forward, end to end.

use crate::trace::{RootKind, Tracer};
use crate::{derive_seed, half_digest, Bench, Scale};
use mg_models::{workload, ModelConfig, SparseTransformer, WorkloadSample};
use mg_tensor::{gelu, gemm, layer_norm, Half, Matrix};
use multigrain::{Attention, AttentionProblem, Method};

/// Distinct (sample, token seed) inputs per run.
const INPUTS: usize = 2;

pub(crate) struct Forward {
    model: SparseTransformer,
    samples: Vec<WorkloadSample>,
    token_seeds: Vec<u64>,
}

impl Forward {
    pub(crate) fn setup(scale: Scale, seed: u64, tr: &mut Tracer) -> Forward {
        let config = match scale {
            Scale::Full => ModelConfig {
                layers: 2,
                ..ModelConfig::qds_base()
            },
            Scale::Smoke => ModelConfig::tiny(),
        };
        let max_seq_len = config.max_seq_len;
        let model = SparseTransformer::new(config);
        let samples = tr.span("models.samples", || {
            workload::msmarco_like(max_seq_len, INPUTS, derive_seed(seed, 0))
        });
        let token_seeds = (0..INPUTS as u64)
            .map(|j| derive_seed(seed, 1 + j))
            .collect();
        Forward {
            model,
            samples,
            token_seeds,
        }
    }

    /// `forward_numeric` rebuilt from the public calls it makes, in the
    /// same order on the same operands, with a span around each call.
    fn replica(&self, input: usize, tr: &mut Tracer) -> Result<Matrix<Half>, String> {
        let cfg = self.model.config();
        let l = cfg.max_seq_len;
        let dm = cfg.hidden;
        let sample = &self.samples[input];
        let pattern = tr.span("patterns.build", || self.model.pattern_for(sample));
        let attention = tr
            .span("core.plan", || {
                let problem =
                    AttentionProblem::new(pattern, cfg.head_dim, 1, cfg.heads, cfg.block_size);
                Attention::plan(Method::Multigrain, problem)
            })
            .map_err(|e| e.to_string())?;

        let mut hidden: Matrix<Half> = Matrix::random(l, dm, self.token_seeds[input]);
        let gamma = vec![1.0f32; dm];
        let beta = vec![0.0f32; dm];
        let ffn_gamma = vec![1.0f32; dm];
        let gemm_flops = |m: usize, k: usize, n: usize| 2.0 * (m * k * n) as f64;

        for layer in 0..cfg.layers {
            let seed = 1000 + layer as u64 * 17;
            let [wq, wk, wv, wo, w1, w2] = tr.span("models.weights", || {
                [
                    Matrix::<Half>::random(dm, dm, seed),
                    Matrix::<Half>::random(dm, dm, seed + 1),
                    Matrix::<Half>::random(dm, dm, seed + 2),
                    Matrix::<Half>::random(dm, dm, seed + 3),
                    Matrix::<Half>::random(dm, cfg.ffn_hidden, seed + 4),
                    Matrix::<Half>::random(cfg.ffn_hidden, dm, seed + 5),
                ]
            });

            let timed_gemm = |tr: &mut Tracer, a: &Matrix<Half>, b: &Matrix<Half>| {
                tr.count("tensor.gemm.calls", 1.0);
                tr.count(
                    "tensor.gemm.flops",
                    gemm_flops(a.rows(), a.cols(), b.cols()),
                );
                tr.span("tensor.gemm", || gemm::<Half, Half, Half>(a, b))
            };
            let q = timed_gemm(tr, &hidden, &wq);
            let k = timed_gemm(tr, &hidden, &wk);
            let v = timed_gemm(tr, &hidden, &wv);

            let mut context = tr.span("models.head_copy", || Matrix::<Half>::zeros(l, dm));
            for h in 0..cfg.heads {
                let lo = h * cfg.head_dim;
                let slice =
                    |m: &Matrix<Half>| Matrix::from_fn(l, cfg.head_dim, |r, c| m.get(r, lo + c));
                let (qh, kh, vh) =
                    tr.span("models.head_copy", || (slice(&q), slice(&k), slice(&v)));
                let ch = tr.span("core.attention", || {
                    attention.execute_numeric(&qh, &kh, &vh)
                });
                tr.span("models.head_copy", || {
                    for r in 0..l {
                        for c in 0..cfg.head_dim {
                            context.set(r, lo + c, ch.get(r, c));
                        }
                    }
                });
            }
            let attn_out = timed_gemm(tr, &context, &wo);
            let residual: Matrix<Half> =
                tr.span("tensor.add", || mg_tensor::add(&hidden, &attn_out));
            let normed: Matrix<Half> =
                tr.span("tensor.layer_norm", || layer_norm(&residual, &gamma, &beta));

            let up = timed_gemm(tr, &normed, &w1);
            let act: Matrix<Half> = tr.span("tensor.gelu", || gelu(&up));
            let down = timed_gemm(tr, &act, &w2);
            let residual2: Matrix<Half> = tr.span("tensor.add", || mg_tensor::add(&normed, &down));
            hidden = tr.span("tensor.layer_norm", || {
                layer_norm(&residual2, &ffn_gamma, &beta)
            });
        }
        Ok(hidden)
    }
}

impl Bench for Forward {
    fn inputs(&self) -> usize {
        INPUTS
    }

    fn items(&self, _input: usize) -> u64 {
        self.model.config().max_seq_len as u64
    }

    fn call(&self, input: usize) -> Result<u64, String> {
        self.model
            .forward_numeric(
                Method::Multigrain,
                &self.samples[input],
                self.token_seeds[input],
            )
            .map(|out| half_digest(&out))
            .map_err(|e| e.to_string())
    }

    fn replay(&self, input: usize, tr: &mut Tracer) -> Result<u64, String> {
        tr.root("forward", RootKind::Call, |tr| self.replica(input, tr))
            .map(|out| half_digest(&out))
    }
}
