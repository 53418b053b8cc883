//! The three execution methods behind one API: Multigrain (the paper's
//! contribution), the Triton-style coarse-only baseline, and the
//! Sputnik-style fine-only baseline.
//!
//! [`Attention::plan`] performs the ahead-of-time steps of §3.1: pattern
//! classification, grain slicing, and metadata generation. The planned
//! attention can then be
//!
//! * timed on a simulated GPU ([`Attention::run_timed`], with Multigrain
//!   using three streams to co-execute its coarse, fine, and dense
//!   kernels), or
//! * executed numerically ([`Attention::execute_numeric`]) — all three
//!   methods produce the same context up to FP16 rounding, which the test
//!   suite pins against the dense reference.

use crate::{AttentionProblem, PipelineReport};
use mg_gpusim::{Gpu, KernelRuns, StreamId};
use mg_kernels::{
    blocked_softmax_profile, coarse_sddmm_compute, coarse_sddmm_profile, coarse_spmm_compute,
    coarse_spmm_profile, compound_softmax_compute, compound_softmax_profile, dense_sddmm_compute,
    dense_sddmm_profile, dense_softmax_compute, dense_softmax_profile, dense_spmm_compute,
    dense_spmm_profile, element_softmax_profile, fine_sddmm_compute, fine_sddmm_profile,
    fine_spmm_compute, fine_spmm_profile, merge_add_compute, merge_add_profile, CoarseMapping,
    FineSddmmScheme,
};
use mg_patterns::{BlockedPattern, SlicedPattern};
use mg_sparse::{Csr, SparseError};
use mg_tensor::{Half, Matrix};

/// Which execution method processes the compound sparse attention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Method {
    /// The paper's method: slice by grain, run coarse + fine + dense
    /// kernels concurrently with multi-stream.
    Multigrain,
    /// Coarse-grained only (Triton/DeepSpeed): everything as blocks.
    TritonStyle,
    /// Fine-grained only (optimized Sputnik): everything element-wise.
    SputnikStyle,
    /// Fused one-pass attention with an online softmax (post-paper
    /// extension): no attention-map materialization, one heavyweight
    /// kernel.
    FusedStyle,
}

impl Method {
    /// The paper's three methods, in its comparison order.
    pub const ALL: [Method; 3] = [
        Method::Multigrain,
        Method::TritonStyle,
        Method::SputnikStyle,
    ];

    /// The paper's methods plus the fused extension.
    pub const EXTENDED: [Method; 4] = [
        Method::Multigrain,
        Method::TritonStyle,
        Method::SputnikStyle,
        Method::FusedStyle,
    ];

    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Multigrain => "Multigrain",
            Method::TritonStyle => "Triton",
            Method::SputnikStyle => "Sputnik",
            Method::FusedStyle => "Fused",
        }
    }
}

/// One phase of the attention pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `S = Q × Kᵀ` over the pattern.
    Sddmm,
    /// Fused scale + mask + sparse softmax.
    Softmax,
    /// `C = P × V`.
    Spmm,
    /// Partial-context merge (Multigrain only).
    Merge,
}

/// Which stream a kernel is launched into. Multigrain maps these to three
/// real streams; the baselines put everything on `Main`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamRole {
    /// Default stream (coarse kernels and the compound softmax).
    Main,
    /// Stream for the fine-grained kernels.
    Fine,
    /// Stream for the dense kernels handling global rows.
    Dense,
}

#[derive(Debug, Clone)]
enum Plan {
    Multigrain(Box<SlicedPattern>),
    Triton(Box<BlockedPattern>),
    Sputnik(Box<Csr<Half>>),
    /// The fused kernel needs no precomputed sparse metadata beyond the
    /// pattern itself (it walks the pattern's rows directly).
    Fused,
}

/// Sparse-plan memory footprint, bytes per head instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanMemory {
    /// Compressed-format metadata (offsets, indices, coordinates).
    pub metadata: u64,
    /// Value buffers the S/P matrices occupy (including padding/masks).
    pub values: u64,
}

impl PlanMemory {
    /// Metadata plus values.
    pub fn total(&self) -> u64 {
        self.metadata + self.values
    }
}

/// A planned sparse attention: the problem plus the method-specific
/// metadata generated ahead of inference (paper §3.1, step 2).
#[derive(Debug, Clone)]
pub struct Attention {
    method: Method,
    problem: AttentionProblem,
    plan: Plan,
}

impl Attention {
    /// Plans the attention: classifies and slices the pattern (Multigrain)
    /// or renders it whole in the method's single format (baselines), and
    /// generates the compressed metadata.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] if the sequence length is not divisible by
    /// the block size (blocked methods).
    pub fn plan(method: Method, problem: AttentionProblem) -> Result<Attention, SparseError> {
        let plan = match method {
            Method::Multigrain => Plan::Multigrain(Box::new(SlicedPattern::from_compound(
                problem.pattern(),
                problem.block_size(),
            )?)),
            Method::TritonStyle => Plan::Triton(Box::new(
                problem.pattern().to_blocked(problem.block_size())?,
            )),
            Method::SputnikStyle => Plan::Sputnik(Box::new(problem.pattern().to_csr())),
            Method::FusedStyle => Plan::Fused,
        };
        Ok(Attention {
            method,
            problem,
            plan,
        })
    }

    /// The execution method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The planned problem.
    pub fn problem(&self) -> &AttentionProblem {
        &self.problem
    }

    /// The grain slicing, if this is a Multigrain plan.
    pub fn sliced(&self) -> Option<&SlicedPattern> {
        match &self.plan {
            Plan::Multigrain(s) => Some(s),
            _ => None,
        }
    }

    /// Device-memory footprint of the plan's sparse metadata and value
    /// buffers, bytes per instance. The paper's §3.2 point: Triton keeps
    /// *both* BCOO (SDDMM) and BSR (SpMM) metadata, and its blocked value
    /// buffers store every padded element; Sputnik pays per-element
    /// metadata; Multigrain stores each part in its natural format once.
    pub fn plan_memory_bytes(&self) -> PlanMemory {
        match &self.plan {
            Plan::Sputnik(csr) => PlanMemory {
                metadata: csr.metadata_bytes(),
                values: csr.value_bytes(),
            },
            Plan::Triton(blocked) => {
                let bsr_meta = blocked.structure.metadata_bytes();
                // BCOO coordinates kept alongside for the SDDMM kernel.
                let bcoo_meta = blocked.structure.nnz_blocks() as u64 * 8;
                PlanMemory {
                    metadata: bsr_meta + bcoo_meta,
                    values: blocked.structure.value_bytes(),
                }
            }
            Plan::Fused => PlanMemory {
                metadata: 0,
                values: 0,
            },
            Plan::Multigrain(sliced) => {
                let coarse = sliced.coarse().map_or((0, 0), |c| {
                    (
                        c.structure.metadata_bytes(),
                        // Values plus the storage-aligned FP16 mask.
                        c.structure.value_bytes() + c.mask.len() as u64 * 2,
                    )
                });
                let fine = sliced
                    .fine()
                    .map_or((0, 0), |f| (f.metadata_bytes(), f.value_bytes()));
                let global =
                    sliced.global_rows().len() as u64 * self.problem.dims().seq_len as u64 * 2;
                PlanMemory {
                    metadata: coarse.0 + fine.0 + sliced.global_rows().len() as u64 * 4,
                    values: coarse.1 + fine.1 + global,
                }
            }
        }
    }

    /// The kernels of one pipeline phase, tagged with their stream role.
    pub fn phase_profiles(
        &self,
        spec: &mg_gpusim::DeviceSpec,
        op: Op,
    ) -> Vec<(StreamRole, KernelRuns)> {
        let dims = self.problem.dims();
        match (&self.plan, op) {
            (Plan::Sputnik(csr), Op::Sddmm) => vec![(
                StreamRole::Main,
                fine_sddmm_profile(spec, dims, csr, FineSddmmScheme::RowSplit, "sputnik.sddmm"),
            )],
            (Plan::Sputnik(csr), Op::Softmax) => vec![(
                StreamRole::Main,
                element_softmax_profile(spec, dims, csr, "sputnik.softmax"),
            )],
            (Plan::Sputnik(csr), Op::Spmm) => vec![(
                StreamRole::Main,
                fine_spmm_profile(spec, dims, csr, "sputnik.spmm"),
            )],
            (Plan::Sputnik(_), Op::Merge) => vec![],

            (Plan::Triton(blocked), Op::Sddmm) => vec![(
                StreamRole::Main,
                coarse_sddmm_profile(
                    spec,
                    dims,
                    &blocked.structure,
                    CoarseMapping::BlockPerTb,
                    "triton.sddmm",
                ),
            )],
            (Plan::Triton(blocked), Op::Softmax) => vec![(
                StreamRole::Main,
                blocked_softmax_profile(spec, dims, blocked, "triton.softmax"),
            )],
            (Plan::Triton(blocked), Op::Spmm) => vec![(
                StreamRole::Main,
                coarse_spmm_profile(
                    spec,
                    dims,
                    &blocked.structure,
                    CoarseMapping::BlockPerTb,
                    "triton.spmm",
                ),
            )],
            (Plan::Triton(_), Op::Merge) => vec![],

            (Plan::Fused, Op::Sddmm) => vec![(
                StreamRole::Main,
                mg_kernels::fused_attention_profile(
                    spec,
                    dims,
                    self.problem.pattern(),
                    "fused.attention",
                ),
            )],
            // One kernel does the whole pipeline; the other phases are empty.
            (Plan::Fused, _) => vec![],

            (Plan::Multigrain(sliced), op) => self.multigrain_phase(spec, sliced, op),
        }
    }

    fn multigrain_phase(
        &self,
        spec: &mg_gpusim::DeviceSpec,
        sliced: &SlicedPattern,
        op: Op,
    ) -> Vec<(StreamRole, KernelRuns)> {
        let dims = self.problem.dims();
        let g = sliced.global_rows().len();
        let mut out = Vec::new();
        match op {
            Op::Sddmm => {
                if let Some(coarse) = sliced.coarse() {
                    out.push((
                        StreamRole::Main,
                        coarse_sddmm_profile(
                            spec,
                            dims,
                            &coarse.structure,
                            CoarseMapping::BlockRowPerTb,
                            "mg.sddmm.coarse",
                        ),
                    ));
                }
                if let Some(fine) = sliced.fine() {
                    out.push((
                        StreamRole::Fine,
                        fine_sddmm_profile(
                            spec,
                            dims,
                            fine,
                            FineSddmmScheme::RowSplit,
                            "mg.sddmm.fine",
                        ),
                    ));
                }
                if g > 0 {
                    out.push((
                        StreamRole::Dense,
                        dense_sddmm_profile(
                            spec,
                            g,
                            dims.seq_len,
                            dims.head_dim,
                            dims.instances(),
                            "mg.sddmm.dense",
                        ),
                    ));
                }
            }
            Op::Softmax => {
                if sliced.coarse().is_some() || sliced.fine().is_some() {
                    out.push((
                        StreamRole::Main,
                        compound_softmax_profile(
                            spec,
                            dims,
                            sliced.coarse(),
                            sliced.fine(),
                            "mg.softmax.compound",
                        ),
                    ));
                }
                if g > 0 {
                    out.push((
                        StreamRole::Dense,
                        dense_softmax_profile(spec, dims, g, "mg.softmax.dense"),
                    ));
                }
            }
            Op::Spmm => {
                if let Some(coarse) = sliced.coarse() {
                    out.push((
                        StreamRole::Main,
                        coarse_spmm_profile(
                            spec,
                            dims,
                            &coarse.structure,
                            CoarseMapping::BlockRowPerTb,
                            "mg.spmm.coarse",
                        ),
                    ));
                }
                if let Some(fine) = sliced.fine() {
                    out.push((
                        StreamRole::Fine,
                        fine_spmm_profile(spec, dims, fine, "mg.spmm.fine"),
                    ));
                }
                if g > 0 {
                    out.push((
                        StreamRole::Dense,
                        dense_spmm_profile(
                            spec,
                            g,
                            dims.seq_len,
                            dims.head_dim,
                            dims.instances(),
                            "mg.spmm.dense",
                        ),
                    ));
                }
            }
            Op::Merge => {
                if sliced.coarse().is_some() && sliced.fine().is_some() {
                    out.push((
                        StreamRole::Main,
                        merge_add_profile(
                            spec,
                            dims.seq_len * dims.head_dim,
                            2,
                            dims.instances(),
                            "mg.merge",
                        ),
                    ));
                }
            }
        }
        out
    }

    fn stream_of(gpu: &mut Gpu, role: StreamRole) -> StreamId {
        match role {
            StreamRole::Main => gpu.stream(0),
            StreamRole::Fine => gpu.stream(1),
            StreamRole::Dense => gpu.stream(2),
        }
    }

    /// Times one phase in isolation (kernels co-execute across streams
    /// within the phase) and returns its duration in seconds.
    pub fn time_op(&self, gpu: &mut Gpu, op: Op) -> f64 {
        self.time_op_with(gpu, op, true)
    }

    /// Like [`Attention::time_op`], but with multi-stream concurrency
    /// optionally disabled (every kernel goes to the default stream, in
    /// order) — the ablation isolating the paper's "dice" step.
    fn time_op_with(&self, gpu: &mut Gpu, op: Op, multistream: bool) -> f64 {
        let spec = gpu.spec().clone();
        let t0 = gpu.elapsed();
        for (role, profile) in self.phase_profiles(&spec, op) {
            let stream = if multistream {
                Self::stream_of(gpu, role)
            } else {
                gpu.stream(0)
            };
            gpu.launch(stream, profile);
        }
        gpu.synchronize() - t0
    }

    /// Runs the full pipeline (SDDMM → softmax → SpMM → merge) with
    /// synchronization barriers between phases, and reports the per-phase
    /// durations and DRAM traffic.
    pub fn run_timed(&self, gpu: &mut Gpu) -> PipelineReport {
        self.run_timed_with(gpu, true)
    }

    /// Like [`Attention::run_timed`], with multi-stream concurrency
    /// optionally disabled. With `multistream == false` Multigrain still
    /// slices the pattern but serializes its kernels, which quantifies
    /// how much of its win comes from co-execution versus from the
    /// better-matched kernels alone.
    pub fn run_timed_with(&self, gpu: &mut Gpu, multistream: bool) -> PipelineReport {
        let records_before = gpu.records().len();
        let sddmm = self.time_op_with(gpu, Op::Sddmm, multistream);
        let softmax = self.time_op_with(gpu, Op::Softmax, multistream);
        let spmm = self.time_op_with(gpu, Op::Spmm, multistream);
        let merge = self.time_op_with(gpu, Op::Merge, multistream);
        let dram_bytes = gpu.records()[records_before..]
            .iter()
            .map(|r| r.dram_bytes)
            .sum();
        PipelineReport {
            sddmm,
            softmax,
            spmm,
            merge,
            dram_bytes,
        }
    }

    /// Merges the same-phase kernels of several planned attentions (e.g.
    /// one per batch sample, each with its own pattern) into combined
    /// grids, as a batched kernel launch would. Kernels merge when they
    /// share a stream role and kernel name; their thread blocks
    /// concatenate.
    ///
    /// This is how a serving system batches *heterogeneous* inputs
    /// without padding every sample to a shared pattern.
    pub fn batch_phase_profiles(
        attns: &[&Attention],
        spec: &mg_gpusim::DeviceSpec,
        op: Op,
    ) -> Vec<(StreamRole, KernelRuns)> {
        let mut groups: Vec<(StreamRole, Vec<KernelRuns>)> = Vec::new();
        for attn in attns {
            for (role, profile) in attn.phase_profiles(spec, op) {
                if let Some((_, parts)) = groups
                    .iter_mut()
                    .find(|(r, parts)| *r == role && parts[0].name == profile.name)
                {
                    parts.push(profile);
                } else {
                    groups.push((role, vec![profile]));
                }
            }
        }
        // Cache-capacity effects are nonlinear: re-filter each merged
        // profile against its combined working set.
        groups
            .into_iter()
            .map(|(role, parts)| (role, mg_kernels::cache::merge_and_refilter(spec, parts)))
            .collect()
    }

    /// Times a heterogeneous batch: every attention contributes its own
    /// kernels (merged per phase), with phase barriers between phases.
    pub fn run_timed_batch(attns: &[&Attention], gpu: &mut Gpu) -> PipelineReport {
        let spec = gpu.spec().clone();
        let records_before = gpu.records().len();
        let mut phases = [0.0f64; 4];
        for (i, op) in [Op::Sddmm, Op::Softmax, Op::Spmm, Op::Merge]
            .into_iter()
            .enumerate()
        {
            let t0 = gpu.elapsed();
            for (role, profile) in Self::batch_phase_profiles(attns, &spec, op) {
                let stream = Self::stream_of(gpu, role);
                gpu.launch(stream, profile);
            }
            phases[i] = gpu.synchronize() - t0;
        }
        let dram_bytes = gpu.records()[records_before..]
            .iter()
            .map(|r| r.dram_bytes)
            .sum();
        PipelineReport {
            sddmm: phases[0],
            softmax: phases[1],
            spmm: phases[2],
            merge: phases[3],
            dram_bytes,
        }
    }

    /// Runs the full pipeline with *kernel-level* dependencies instead of
    /// phase barriers (CUDA events): the compound softmax waits only on
    /// the two SDDMM kernels it consumes, the dense chain for global rows
    /// runs completely independently, and the merge waits on the two
    /// partial-context SpMMs. This exposes strictly more overlap than
    /// [`Attention::run_timed`]'s barrier-per-phase schedule.
    ///
    /// Returns the total simulated time.
    pub fn run_timed_pipelined(&self, gpu: &mut Gpu) -> f64 {
        let spec = gpu.spec().clone();
        let t0 = gpu.elapsed();
        self.launch_pipelined_dag(gpu, &spec);
        gpu.synchronize() - t0
    }

    /// Times a batch under the kernel-level dependency schedule of
    /// [`Attention::run_timed_pipelined`]: every attention launches its
    /// own dependency DAG, with no barriers between attentions (and none
    /// within), so independent requests' phases overlap freely across
    /// the streams. One synchronize at the end times the whole batch.
    ///
    /// Returns the total simulated time.
    pub fn run_timed_pipelined_batch(attns: &[&Attention], gpu: &mut Gpu) -> f64 {
        let spec = gpu.spec().clone();
        let t0 = gpu.elapsed();
        for attn in attns {
            attn.launch_pipelined_dag(gpu, &spec);
        }
        gpu.synchronize() - t0
    }

    /// Launches this attention's kernels with kernel-level dependencies
    /// but does not synchronize; the caller owns the barrier.
    fn launch_pipelined_dag(&self, gpu: &mut Gpu, spec: &mg_gpusim::DeviceSpec) {
        // Kernel-name -> id table. Lookup-only today, but a BTreeMap
        // keeps even accidental iteration deterministic (`clippy.toml`
        // bans `HashMap`).
        let mut ids: std::collections::BTreeMap<String, mg_gpusim::KernelId> =
            std::collections::BTreeMap::new();
        for op in [Op::Sddmm, Op::Softmax, Op::Spmm, Op::Merge] {
            for (role, profile) in self.phase_profiles(spec, op) {
                let stream = Self::stream_of(gpu, role);
                let deps: Vec<mg_gpusim::KernelId> = match profile.name.as_str() {
                    // Compound softmax consumes both S parts.
                    "mg.softmax.compound" => ["mg.sddmm.coarse", "mg.sddmm.fine"]
                        .iter()
                        .filter_map(|k| ids.get(*k).copied())
                        .collect(),
                    "mg.softmax.dense" => ids.get("mg.sddmm.dense").into_iter().copied().collect(),
                    "mg.spmm.coarse" | "mg.spmm.fine" => ids
                        .get("mg.softmax.compound")
                        .into_iter()
                        .copied()
                        .collect(),
                    "mg.spmm.dense" => ids.get("mg.softmax.dense").into_iter().copied().collect(),
                    "mg.merge" => ["mg.spmm.coarse", "mg.spmm.fine"]
                        .iter()
                        .filter_map(|k| ids.get(*k).copied())
                        .collect(),
                    // Baselines: single stream, FIFO order is the chain.
                    _ => Vec::new(),
                };
                let name = profile.name.clone();
                let id = gpu.launch_after(stream, profile, &deps);
                ids.insert(name, id);
            }
        }
    }

    /// Executes one head numerically and returns the context matrix. All
    /// three methods agree with [`crate::reference_attention`] up to FP16
    /// rounding.
    ///
    /// # Panics
    ///
    /// Panics if the matrices do not match the problem's dimensions.
    pub fn execute_numeric(
        &self,
        q: &Matrix<Half>,
        k: &Matrix<Half>,
        v: &Matrix<Half>,
    ) -> Matrix<Half> {
        let scale = self.problem.dims().scale();
        match &self.plan {
            Plan::Sputnik(csr) => {
                let s = fine_sddmm_compute(q, k, csr);
                let (_, p) = compound_softmax_compute(None, Some(&s), scale);
                fine_spmm_compute(&p.expect("fine part present"), v)
            }
            Plan::Triton(blocked) => {
                let s = coarse_sddmm_compute(q, k, &blocked.structure);
                let (p, _) = compound_softmax_compute(Some((&s, &blocked.mask)), None, scale);
                coarse_spmm_compute(&p.expect("coarse part present"), v)
            }
            Plan::Fused => {
                mg_kernels::fused_attention_compute(q, k, v, self.problem.pattern(), scale)
            }
            Plan::Multigrain(sliced) => self.multigrain_numeric(sliced, q, k, v, scale),
        }
    }

    fn multigrain_numeric(
        &self,
        sliced: &SlicedPattern,
        q: &Matrix<Half>,
        k: &Matrix<Half>,
        v: &Matrix<Half>,
        scale: f32,
    ) -> Matrix<Half> {
        // SDDMM per grain.
        let coarse_s = sliced
            .coarse()
            .map(|c| coarse_sddmm_compute(q, k, &c.structure));
        let fine_s = sliced.fine().map(|f| fine_sddmm_compute(q, k, f));

        // Compound softmax over the sliced parts (global rows excluded by
        // construction, so their absence cannot skew normalization).
        let (coarse_p, fine_p) = compound_softmax_compute(
            coarse_s.as_ref().map(|s| {
                (
                    s,
                    sliced.coarse().expect("coarse structure").mask.as_slice(),
                )
            }),
            fine_s.as_ref(),
            scale,
        );

        // SpMM per grain, merged.
        let coarse_c = coarse_p.map(|p| coarse_spmm_compute(&p, v));
        let fine_c = fine_p.map(|p| fine_spmm_compute(&p, v));
        let mut context = match (coarse_c, fine_c) {
            (Some(a), Some(b)) => merge_add_compute(&[&a, &b]),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => Matrix::zeros(q.rows(), v.cols()),
        };

        // Global rows: dense SDDMM → dense softmax → dense SpMM, scattered
        // into the context.
        let global = sliced.global_rows();
        if !global.is_empty() {
            let q_rows = Matrix::from_fn(global.len(), q.cols(), |i, j| q.get(global[i], j));
            let mut s_g = dense_sddmm_compute(&q_rows, k);
            // Padded key columns must not enter the softmax: a global row
            // attends every *valid* token, not the zero padding.
            let valid = self.problem.pattern().valid_len();
            for r in 0..s_g.rows() {
                for c in valid..s_g.cols() {
                    s_g.set(r, c, mg_tensor::Half::NEG_INFINITY);
                }
            }
            let p_g = dense_softmax_compute(&s_g, scale);
            let c_g = dense_spmm_compute(&p_g, v);
            for (i, &r) in global.iter().enumerate() {
                for j in 0..context.cols() {
                    context.set(r, j, c_g.get(i, j));
                }
            }
        }
        context
    }
}

/// The block sizes [`autotune_block_size`] tries, smallest first.
pub const AUTOTUNE_BLOCK_SIZES: [usize; 4] = [16, 32, 64, 128];

/// Picks the coarse block size that minimizes Multigrain's simulated
/// pipeline time for this problem on the given device — a small design-
/// space search using the execution model itself (the paper fixes 64; the
/// best choice shifts with the pattern's fill and granularity).
///
/// Candidates are the [`AUTOTUNE_BLOCK_SIZES`] that divide the sequence
/// length. Returns `(block_size, simulated_seconds)`.
///
/// # Panics
///
/// Panics if no candidate divides the sequence length.
pub fn autotune_block_size(
    spec: &mg_gpusim::DeviceSpec,
    problem: &AttentionProblem,
) -> (usize, f64) {
    let mut best: Option<(usize, f64)> = None;
    for block in AUTOTUNE_BLOCK_SIZES {
        if !problem.pattern().seq_len().is_multiple_of(block) {
            continue;
        }
        let candidate = AttentionProblem::new(
            problem.pattern().clone(),
            problem.dims().head_dim,
            problem.dims().batch,
            problem.dims().heads,
            block,
        );
        let Ok(attn) = Attention::plan(Method::Multigrain, candidate) else {
            continue;
        };
        let mut gpu = Gpu::new(spec.clone());
        let total = attn.run_timed(&mut gpu).total();
        if best.is_none_or(|(_, t)| total < t) {
            best = Some((block, total));
        }
    }
    best.expect("at least one block size must divide the sequence length")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_attention;
    use mg_gpusim::DeviceSpec;
    use mg_patterns::{AtomicPattern, CompoundPattern};

    fn problem() -> AttentionProblem {
        let pattern = CompoundPattern::new(64)
            .with(AtomicPattern::Local { window: 8 })
            .with(AtomicPattern::Random {
                per_row: 4,
                seed: 3,
            })
            .with(AtomicPattern::Global {
                tokens: vec![0, 17],
            });
        AttentionProblem::new(pattern, 16, 1, 2, 8)
    }

    fn qkv() -> (Matrix<Half>, Matrix<Half>, Matrix<Half>) {
        (
            Matrix::random(64, 16, 1),
            Matrix::random(64, 16, 2),
            Matrix::random(64, 16, 3),
        )
    }

    #[test]
    fn all_methods_match_dense_reference() {
        let (q, k, v) = qkv();
        let prob = problem();
        let reference = reference_attention(&q, &k, &v, prob.pattern(), prob.dims().scale());
        for method in Method::ALL {
            let attn = Attention::plan(method, prob.clone()).expect("plans");
            let c = attn.execute_numeric(&q, &k, &v);
            let diff = c.max_abs_diff(&reference);
            assert!(
                diff < 0.02,
                "{} diverges from reference: {diff}",
                method.name()
            );
        }
    }

    #[test]
    fn methods_agree_with_each_other() {
        let (q, k, v) = qkv();
        let prob = problem();
        let results: Vec<Matrix<Half>> = Method::ALL
            .iter()
            .map(|&m| {
                Attention::plan(m, prob.clone())
                    .expect("plans")
                    .execute_numeric(&q, &k, &v)
            })
            .collect();
        assert!(results[0].max_abs_diff(&results[1]) < 0.02);
        assert!(results[0].max_abs_diff(&results[2]) < 0.02);
    }

    #[test]
    fn multigrain_uses_multiple_streams_for_sddmm() {
        let attn = Attention::plan(Method::Multigrain, problem()).expect("plans");
        let spec = DeviceSpec::a100();
        let roles: Vec<StreamRole> = attn
            .phase_profiles(&spec, Op::Sddmm)
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        assert!(roles.contains(&StreamRole::Main));
        assert!(roles.contains(&StreamRole::Fine));
        assert!(roles.contains(&StreamRole::Dense));
    }

    #[test]
    fn baselines_are_single_stream() {
        let spec = DeviceSpec::a100();
        for method in [Method::TritonStyle, Method::SputnikStyle] {
            let attn = Attention::plan(method, problem()).expect("plans");
            for op in [Op::Sddmm, Op::Softmax, Op::Spmm, Op::Merge] {
                for (role, _) in attn.phase_profiles(&spec, op) {
                    assert_eq!(role, StreamRole::Main, "{:?}", method);
                }
            }
        }
    }

    #[test]
    fn run_timed_produces_positive_phases() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let attn = Attention::plan(Method::Multigrain, problem()).expect("plans");
        let report = attn.run_timed(&mut gpu);
        assert!(report.sddmm > 0.0);
        assert!(report.softmax > 0.0);
        assert!(report.spmm > 0.0);
        assert!(report.total() > 0.0);
        assert!(report.dram_bytes > 0);
    }

    #[test]
    fn merge_phase_present_only_with_both_grains() {
        let spec = DeviceSpec::a100();
        let coarse_only = AttentionProblem::new(
            CompoundPattern::new(32).with(AtomicPattern::BlockedLocal { block: 8 }),
            8,
            1,
            1,
            8,
        );
        let attn = Attention::plan(Method::Multigrain, coarse_only).expect("plans");
        assert!(attn.phase_profiles(&spec, Op::Merge).is_empty());

        let attn = Attention::plan(Method::Multigrain, problem()).expect("plans");
        assert_eq!(attn.phase_profiles(&spec, Op::Merge).len(), 1);
    }

    #[test]
    fn heterogeneous_batch_merges_kernels() {
        let spec = DeviceSpec::a100();
        let a = Attention::plan(Method::Multigrain, problem()).expect("plans");
        let b = Attention::plan(Method::Multigrain, problem()).expect("plans");
        let merged = Attention::batch_phase_profiles(&[&a, &b], &spec, Op::Sddmm);
        let solo = a.phase_profiles(&spec, Op::Sddmm);
        assert_eq!(merged.len(), solo.len(), "same kernel set");
        for ((_, m), (_, s)) in merged.iter().zip(solo.iter()) {
            assert_eq!(
                m.tbs.len(),
                2 * s.tbs.len(),
                "{}: grids concatenate",
                m.name
            );
        }
    }

    #[test]
    fn heterogeneous_batch_times_like_a_batch() {
        let a = Attention::plan(Method::Multigrain, problem()).expect("plans");
        let b = Attention::plan(Method::Multigrain, problem()).expect("plans");
        let t_batch =
            Attention::run_timed_batch(&[&a, &b], &mut Gpu::new(DeviceSpec::a100())).total();
        let t_solo = a.run_timed(&mut Gpu::new(DeviceSpec::a100())).total();
        assert!(t_batch > t_solo * 0.9, "two samples cost more than one");
        assert!(
            t_batch < t_solo * 2.5,
            "but far less than 2x serial launches"
        );
    }

    #[test]
    fn pipelined_schedule_never_loses_to_barriers() {
        for method in Method::ALL {
            let attn = Attention::plan(method, problem()).expect("plans");
            let barriers = attn.run_timed(&mut Gpu::new(DeviceSpec::a100())).total();
            let pipelined = attn.run_timed_pipelined(&mut Gpu::new(DeviceSpec::a100()));
            // Barriers include one launch sync per phase; the pipelined
            // schedule must be at least as fast up to launch-overhead noise.
            assert!(
                pipelined <= barriers * 1.05,
                "{}: pipelined {pipelined} vs barriers {barriers}",
                method.name()
            );
        }
    }

    #[test]
    fn pipelined_schedule_respects_data_dependencies() {
        let attn = Attention::plan(Method::Multigrain, problem()).expect("plans");
        let mut gpu = Gpu::new(DeviceSpec::a100());
        attn.run_timed_pipelined(&mut gpu);
        let rec = |name: &str| {
            gpu.records()
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("{name} ran"))
                .clone()
        };
        let softmax = rec("mg.softmax.compound");
        assert!(softmax.start >= rec("mg.sddmm.coarse").end - 1e-12);
        assert!(softmax.start >= rec("mg.sddmm.fine").end - 1e-12);
        let merge = rec("mg.merge");
        assert!(merge.start >= rec("mg.spmm.coarse").end - 1e-12);
        assert!(merge.start >= rec("mg.spmm.fine").end - 1e-12);
    }

    #[test]
    fn disabling_multistream_never_helps() {
        let attn = Attention::plan(Method::Multigrain, problem()).expect("plans");
        let with = attn
            .run_timed_with(&mut Gpu::new(DeviceSpec::a100()), true)
            .total();
        let without = attn
            .run_timed_with(&mut Gpu::new(DeviceSpec::a100()), false)
            .total();
        assert!(
            with <= without * 1.001,
            "streams must not hurt: {with} vs {without}"
        );
    }

    #[test]
    fn fused_method_matches_reference_through_the_api() {
        let (q, k, v) = qkv();
        let prob = problem();
        let reference = reference_attention(&q, &k, &v, prob.pattern(), prob.dims().scale());
        let attn = Attention::plan(Method::FusedStyle, prob).expect("plans");
        let c = attn.execute_numeric(&q, &k, &v);
        assert!(c.max_abs_diff(&reference) < 0.02);
        // One kernel, no plan memory, everything in the first phase.
        assert_eq!(attn.plan_memory_bytes().total(), 0);
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let report = attn.run_timed(&mut gpu);
        assert!(report.sddmm > 0.0);
        assert_eq!(gpu.records().len(), 1);
    }

    #[test]
    fn autotuner_returns_a_valid_divisor_and_best_time() {
        let spec = DeviceSpec::a100();
        let prob = problem(); // seq_len 64
        let (block, time) = autotune_block_size(&spec, &prob);
        assert!(prob.pattern().seq_len().is_multiple_of(block));
        assert!(time > 0.0);
        // The tuned choice is at least as good as using block 16 directly.
        let fixed = Attention::plan(
            Method::Multigrain,
            AttentionProblem::new(prob.pattern().clone(), 16, 1, 2, 16),
        )
        .expect("plans")
        .run_timed(&mut Gpu::new(spec))
        .total();
        assert!(time <= fixed * 1.001, "tuned {time} vs fixed {fixed}");
    }

    #[test]
    fn triton_plan_stores_the_most_memory() {
        // §3.2: inconsistent formats + padded blocks cost Triton extra
        // metadata and value storage; Multigrain's sliced plan is lean.
        let mems: Vec<_> = Method::ALL
            .iter()
            .map(|&m| {
                Attention::plan(m, problem())
                    .expect("plans")
                    .plan_memory_bytes()
            })
            .collect();
        let (mg, triton, sputnik) = (mems[0], mems[1], mems[2]);
        assert!(
            triton.values >= mg.values,
            "padded blocks: {triton:?} vs {mg:?}"
        );
        assert!(triton.total() >= sputnik.total().min(mg.total()));
        assert!(mg.total() > 0 && sputnik.metadata > 0);
    }

    #[test]
    fn all_global_pattern_has_only_dense_parts() {
        let pattern = CompoundPattern::new(32).with(AtomicPattern::Global {
            tokens: (0..32).collect(),
        });
        let prob = AttentionProblem::new(pattern, 8, 1, 1, 8);
        let attn = Attention::plan(Method::Multigrain, prob).expect("plans");
        let sliced = attn.sliced().expect("multigrain");
        assert!(sliced.coarse().is_none());
        assert!(sliced.fine().is_none());
        assert_eq!(sliced.global_rows().len(), 32);
        // Numerics: equivalent to full dense attention.
        let q = Matrix::random(32, 8, 1);
        let k = Matrix::random(32, 8, 2);
        let v = Matrix::random(32, 8, 3);
        let c = attn.execute_numeric(&q, &k, &v);
        let reference = crate::reference_attention(
            &q,
            &k,
            &v,
            &CompoundPattern::new(32).with(AtomicPattern::Dense),
            attn.problem().dims().scale(),
        );
        assert!(c.max_abs_diff(&reference) < 0.02);
    }

    #[test]
    fn empty_pattern_times_quickly_and_returns_zeros() {
        let prob = AttentionProblem::new(CompoundPattern::new(16), 8, 1, 1, 8);
        for method in Method::ALL {
            let attn = Attention::plan(method, prob.clone()).expect("plans");
            let q = Matrix::random(16, 8, 1);
            let c = attn.execute_numeric(&q, &q.clone(), &q.clone());
            assert!(
                c.as_slice().iter().all(|v| v.to_f32() == 0.0),
                "{}: empty pattern yields a zero context",
                method.name()
            );
            let mut gpu = Gpu::new(DeviceSpec::a100());
            let t = attn.run_timed(&mut gpu).total();
            assert!(
                t < 50e-6,
                "{}: near-instant on nothing, got {t}",
                method.name()
            );
        }
    }

    #[test]
    fn timing_scales_with_instances() {
        let attn1 = Attention::plan(Method::Multigrain, problem()).expect("plans");
        let attn4 = Attention::plan(Method::Multigrain, problem().with_batch(4)).expect("plans");
        let t1 = attn1.run_timed(&mut Gpu::new(DeviceSpec::a100())).total();
        let t4 = attn4.run_timed(&mut Gpu::new(DeviceSpec::a100())).total();
        assert!(t4 > t1, "4x instances must cost more");
        assert!(t4 < t1 * 6.0, "and at most ~linear with slack");
    }

    #[test]
    fn dram_traffic_ordering_matches_paper() {
        // Multigrain must move the least memory on a mixed pattern.
        let mut dram = Vec::new();
        for method in Method::ALL {
            let attn = Attention::plan(method, problem()).expect("plans");
            let mut gpu = Gpu::new(DeviceSpec::a100());
            dram.push(attn.run_timed(&mut gpu).dram_bytes);
        }
        assert!(dram[0] <= dram[1], "MG <= Triton traffic: {dram:?}");
    }

    #[test]
    fn plan_rejects_misaligned_block_size() {
        let pattern = CompoundPattern::new(60).with(AtomicPattern::Dense);
        let prob = AttentionProblem::new(pattern, 16, 1, 1, 8);
        assert!(Attention::plan(Method::Multigrain, prob.clone()).is_err());
        assert!(Attention::plan(Method::TritonStyle, prob.clone()).is_err());
        // Sputnik does not care about blocks.
        assert!(Attention::plan(Method::SputnikStyle, prob).is_ok());
    }
}
