//! `attention-longformer`: one sparse attention head per call.

use crate::trace::{RootKind, Tracer};
use crate::{derive_seed, half_digest, Bench, Scale};
use mg_kernels::{
    coarse_sddmm_compute, coarse_spmm_compute, compound_softmax_compute, dense_sddmm_compute,
    dense_softmax_compute, dense_spmm_compute, fine_sddmm_compute, fine_spmm_compute,
    fused_attention_compute, merge_add_compute,
};
use mg_models::{workload, ModelConfig, SparseTransformer};
use mg_patterns::SliceStats;
use mg_serve::RequestClass;
use mg_tensor::{Half, Matrix};
use multigrain::{Attention, AttentionProblem, Method};

/// Draws per dataset class; each head uses their median-length sample.
const DRAWS: usize = 9;

/// The methods each head runs under, alternating call by call.
const METHODS: [Method; 2] = [Method::Multigrain, Method::FusedStyle];

/// One seeded head: its two plans and its operands.
struct Head {
    plans: [Attention; 2],
    stats: SliceStats,
    q: Matrix<Half>,
    k: Matrix<Half>,
    v: Matrix<Half>,
}

pub(crate) struct AttentionBench {
    heads: Vec<Head>,
}

impl AttentionBench {
    /// One head per dataset class, planned ahead of time under both
    /// methods.
    pub(crate) fn setup(
        scale: Scale,
        seed: u64,
        tr: &mut Tracer,
    ) -> Result<AttentionBench, String> {
        let config = match scale {
            Scale::Full => ModelConfig::longformer_large(),
            Scale::Smoke => ModelConfig::tiny(),
        };
        let (l, d, block) = (config.max_seq_len, config.head_dim, config.block_size);
        let model = SparseTransformer::new(config);
        let mut heads = Vec::new();
        for (c, class) in RequestClass::ALL.iter().enumerate() {
            let c = c as u64;
            // The median-length of several draws, so that a run's cost does
            // not hinge on one unusually long or short draw.
            let sample = tr.span("models.samples", || {
                workload::representative(&class.samples(l, DRAWS, derive_seed(seed, c)))
            });
            let pattern = tr.span("patterns.build", || model.pattern_for(&sample));
            let problem = AttentionProblem::new(pattern, d, 1, 1, block);
            let mut plan = |method| {
                tr.span("core.plan", || Attention::plan(method, problem.clone()))
                    .map_err(|e| e.to_string())
            };
            let plans = [plan(METHODS[0])?, plan(METHODS[1])?];
            let stats = plans[0]
                .sliced()
                .expect("Multigrain plans are sliced")
                .stats();
            let [q, k, v] = tr.span("models.operands", || {
                [1, 2, 3].map(|j| Matrix::random(l, d, derive_seed(seed, 4 * c + 16 + j)))
            });
            heads.push(Head {
                plans,
                stats,
                q,
                k,
                v,
            });
        }
        Ok(AttentionBench { heads })
    }
}

/// `Attention::execute_numeric` for a Multigrain plan, rebuilt from the
/// public kernels in the same order on the same operands.
fn multigrain_replica(head: &Head, tr: &mut Tracer) -> Matrix<Half> {
    let attn = &head.plans[0];
    let sliced = attn.sliced().expect("Multigrain plans are sliced");
    let (q, k, v) = (&head.q, &head.k, &head.v);
    let (l, d) = (q.rows() as f64, q.cols() as f64);
    let scale = attn.problem().dims().scale();
    count_kernel_work(head, tr);

    let coarse_s = sliced.coarse().map(|c| {
        tr.span("kernels.coarse_sddmm", || {
            coarse_sddmm_compute(q, k, &c.structure)
        })
    });
    let fine_s = sliced
        .fine()
        .map(|f| tr.span("kernels.fine_sddmm", || fine_sddmm_compute(q, k, f)));
    let (coarse_p, fine_p) = tr.span("kernels.softmax", || {
        compound_softmax_compute(
            coarse_s.as_ref().map(|s| {
                (
                    s,
                    sliced.coarse().expect("coarse structure").mask.as_slice(),
                )
            }),
            fine_s.as_ref(),
            scale,
        )
    });
    let coarse_c = coarse_p.map(|p| tr.span("kernels.coarse_spmm", || coarse_spmm_compute(&p, v)));
    let fine_c = fine_p.map(|p| tr.span("kernels.fine_spmm", || fine_spmm_compute(&p, v)));
    let mut context = match (coarse_c, fine_c) {
        (Some(a), Some(b)) => {
            tr.count("kernels.merge.flops", l * d);
            tr.count("kernels.merge.bytes", 2.0 * 3.0 * l * d);
            tr.span("kernels.merge", || merge_add_compute(&[&a, &b]))
        }
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (None, None) => Matrix::zeros(q.rows(), v.cols()),
    };

    let global = sliced.global_rows();
    if !global.is_empty() {
        let q_rows = tr.span("core.global_gather", || {
            Matrix::from_fn(global.len(), q.cols(), |i, j| q.get(global[i], j))
        });
        let mut s_g = tr.span("kernels.dense_global", || dense_sddmm_compute(&q_rows, k));
        let valid = attn.problem().pattern().valid_len();
        tr.span("core.global_gather", || {
            for r in 0..s_g.rows() {
                for c in valid..s_g.cols() {
                    s_g.set(r, c, Half::NEG_INFINITY);
                }
            }
        });
        let p_g = tr.span("kernels.dense_global", || {
            dense_softmax_compute(&s_g, scale)
        });
        let c_g = tr.span("kernels.dense_global", || dense_spmm_compute(&p_g, v));
        tr.span("core.global_gather", || {
            for (i, &r) in global.iter().enumerate() {
                for j in 0..context.cols() {
                    context.set(r, j, c_g.get(i, j));
                }
            }
        });
    }
    context
}

/// Computed FLOPs and operand bytes of every Multigrain kernel one head
/// runs: FP16 values read and written (2 bytes), 4-byte column indices,
/// 4-byte f32 mask entries. Derived from operand sizes, not measured.
fn count_kernel_work(head: &Head, tr: &mut Tracer) {
    let s = &head.stats;
    let (l, d) = (head.q.rows() as f64, head.q.cols() as f64);
    let attn = &head.plans[0];
    let sliced = attn.sliced().expect("Multigrain plans are sliced");
    let b = sliced.block_size() as f64;
    let coarse = s.coarse_stored_elements as f64;
    let blocks = s.coarse_blocks as f64;
    let fine = s.fine_elements as f64;
    let g = s.global_rows as f64;
    if blocks > 0.0 {
        tr.count("kernels.coarse_sddmm.flops", 2.0 * coarse * d);
        tr.count(
            "kernels.coarse_sddmm.bytes",
            2.0 * (2.0 * blocks * b * d + coarse),
        );
        tr.count("kernels.coarse_spmm.flops", 2.0 * coarse * d);
        tr.count(
            "kernels.coarse_spmm.bytes",
            2.0 * (coarse + blocks * b * d + l * d),
        );
        tr.count("kernels.coarse.useful", s.coarse_valid_elements as f64);
        tr.count("kernels.coarse.computed", coarse);
    }
    if fine > 0.0 {
        tr.count("kernels.fine_sddmm.flops", 2.0 * fine * d);
        tr.count(
            "kernels.fine_sddmm.bytes",
            2.0 * (2.0 * fine * d + fine) + 4.0 * fine,
        );
        tr.count("kernels.fine_spmm.flops", 2.0 * fine * d);
        tr.count(
            "kernels.fine_spmm.bytes",
            2.0 * (fine + fine * d + l * d) + 4.0 * fine,
        );
    }
    if coarse + fine > 0.0 {
        tr.count("kernels.softmax.flops", 5.0 * (coarse + fine));
        tr.count(
            "kernels.softmax.bytes",
            2.0 * 2.0 * (coarse + fine) + 4.0 * coarse + 4.0 * fine,
        );
    }
    if g > 0.0 {
        tr.count("kernels.dense_global.flops", 4.0 * g * l * d + 5.0 * g * l);
        tr.count(
            "kernels.dense_global.bytes",
            2.0 * (2.0 * g * d + 2.0 * l * d + 4.0 * g * l),
        );
    }
}

/// Computed work of the fused kernel over the same pattern.
fn count_fused_work(head: &Head, tr: &mut Tracer) {
    let (l, d) = (head.q.rows() as f64, head.q.cols() as f64);
    let sliced = head.plans[0].sliced().expect("Multigrain plans are sliced");
    let nnz = sliced.total_valid_elements() as f64;
    tr.count("kernels.fused.flops", 4.0 * nnz * d + 5.0 * nnz);
    tr.count("kernels.fused.bytes", 2.0 * 4.0 * l * d + 4.0 * nnz);
}

impl Bench for AttentionBench {
    fn inputs(&self) -> usize {
        self.heads.len() * METHODS.len()
    }

    fn items(&self, _input: usize) -> u64 {
        1
    }

    fn call(&self, input: usize) -> Result<u64, String> {
        let head = &self.heads[input / METHODS.len()];
        let plan = &head.plans[input % METHODS.len()];
        Ok(half_digest(
            &plan.execute_numeric(&head.q, &head.k, &head.v),
        ))
    }

    fn replay(&self, input: usize, tr: &mut Tracer) -> Result<u64, String> {
        let head = &self.heads[input / METHODS.len()];
        let out = tr.root("attention", RootKind::Call, |tr| {
            match input % METHODS.len() {
                0 => multigrain_replica(head, tr),
                _ => {
                    let plan = &head.plans[1];
                    let scale = plan.problem().dims().scale();
                    count_fused_work(head, tr);
                    tr.span("kernels.fused", || {
                        fused_attention_compute(
                            &head.q,
                            &head.k,
                            &head.v,
                            plan.problem().pattern(),
                            scale,
                        )
                    })
                }
            }
        });
        Ok(half_digest(&out))
    }
}
