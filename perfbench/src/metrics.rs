//! The metric tables: one definition per reported metric, shared by the
//! runner, the tests and `BENCHMARK.json`.

use crate::trace::{RootKind, Tracer};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// An end-to-end metric, measured with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
}

/// The end-to-end metrics, in output order.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "items_per_s",
        unit: "items/s",
    },
    EndToEnd {
        name: "call_p50_ms",
        unit: "ms",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
    },
];

/// How a per-layer metric is derived from the traced run. Every busy
/// time and count is normalized per root of the kind it was recorded
/// under: per replayed call, per probe, or per set-up.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Summed self time of the spans with this name.
    Busy(&'static str),
    /// A counter.
    Count(&'static str),
    /// Counter over counter.
    Ratio(&'static str, &'static str),
    /// Counter (in FLOPs) over the busy time of a span, in GFLOP/s.
    Gflops(&'static str, &'static str),
    /// Counter over the busy time of a span, per second.
    PerSec(&'static str, &'static str),
    /// Traced replay wall time over untraced call wall time.
    Overhead,
}

/// A per-layer metric, measured in the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Derivation.
    pub source: Source,
}

const KINDS: [RootKind; 3] = [RootKind::Setup, RootKind::Call, RootKind::Probe];

fn busy(tr: &Tracer, span: &str) -> f64 {
    KINDS
        .iter()
        .fold(0.0, |a, &k| a + tr.busy_per_root(span, k))
}

fn count(tr: &Tracer, counter: &str) -> f64 {
    KINDS
        .iter()
        .fold(0.0, |a, &k| a + tr.count_per_root(counter, k))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl PerLayer {
    /// Derives the metric from a traced run. Layers a workload does not
    /// exercise report 0.
    pub fn measure(&self, tr: &Tracer, overhead: f64) -> Metric {
        let value = match self.source {
            Source::Busy(span) => busy(tr, span),
            Source::Count(c) => count(tr, c),
            Source::Ratio(a, b) => ratio(count(tr, a), count(tr, b)),
            Source::Gflops(flops, span) => ratio(count(tr, flops), busy(tr, span)) / 1e9,
            Source::PerSec(c, span) => ratio(count(tr, c), busy(tr, span)),
            Source::Overhead => overhead,
        };
        Metric {
            name: self.name,
            value,
            unit: self.unit,
        }
    }
}

macro_rules! per_layer {
    ($($name:literal, $unit:literal, $source:expr;)*) => {
        /// The per-layer metrics, in output order.
        pub const PER_LAYER: &[PerLayer] = &[
            $(PerLayer { name: $name, unit: $unit, source: $source },)*
        ];
    };
}

use Source::{Busy, Count, Gflops, Overhead, PerSec, Ratio};

per_layer! {
    // forward-qds
    "models.weights.busy_s", "s", Busy("models.weights");
    "tensor.gemm.busy_s", "s", Busy("tensor.gemm");
    "tensor.gemm.calls", "count", Count("tensor.gemm.calls");
    "tensor.gemm.gflops", "GFLOP/s-computed", Gflops("tensor.gemm.flops", "tensor.gemm");
    "tensor.gelu.busy_s", "s", Busy("tensor.gelu");
    "tensor.layer_norm.busy_s", "s", Busy("tensor.layer_norm");
    "tensor.add.busy_s", "s", Busy("tensor.add");
    "models.head_copy.busy_s", "s", Busy("models.head_copy");
    "core.attention.busy_s", "s", Busy("core.attention");
    "forward.unattributed_s", "s", Busy("forward");
    // attention-longformer
    "kernels.coarse_sddmm.busy_s", "s", Busy("kernels.coarse_sddmm");
    "kernels.coarse_sddmm.gflops", "GFLOP/s-computed", Gflops("kernels.coarse_sddmm.flops", "kernels.coarse_sddmm");
    "kernels.coarse_sddmm.bytes", "bytes-computed", Count("kernels.coarse_sddmm.bytes");
    "kernels.fine_sddmm.busy_s", "s", Busy("kernels.fine_sddmm");
    "kernels.fine_sddmm.gflops", "GFLOP/s-computed", Gflops("kernels.fine_sddmm.flops", "kernels.fine_sddmm");
    "kernels.fine_sddmm.bytes", "bytes-computed", Count("kernels.fine_sddmm.bytes");
    "kernels.softmax.busy_s", "s", Busy("kernels.softmax");
    "kernels.softmax.gflops", "GFLOP/s-computed", Gflops("kernels.softmax.flops", "kernels.softmax");
    "kernels.softmax.bytes", "bytes-computed", Count("kernels.softmax.bytes");
    "kernels.coarse_spmm.busy_s", "s", Busy("kernels.coarse_spmm");
    "kernels.coarse_spmm.gflops", "GFLOP/s-computed", Gflops("kernels.coarse_spmm.flops", "kernels.coarse_spmm");
    "kernels.coarse_spmm.bytes", "bytes-computed", Count("kernels.coarse_spmm.bytes");
    "kernels.fine_spmm.busy_s", "s", Busy("kernels.fine_spmm");
    "kernels.fine_spmm.gflops", "GFLOP/s-computed", Gflops("kernels.fine_spmm.flops", "kernels.fine_spmm");
    "kernels.fine_spmm.bytes", "bytes-computed", Count("kernels.fine_spmm.bytes");
    "kernels.merge.busy_s", "s", Busy("kernels.merge");
    "kernels.merge.gflops", "GFLOP/s-computed", Gflops("kernels.merge.flops", "kernels.merge");
    "kernels.merge.bytes", "bytes-computed", Count("kernels.merge.bytes");
    "kernels.dense_global.busy_s", "s", Busy("kernels.dense_global");
    "kernels.dense_global.gflops", "GFLOP/s-computed", Gflops("kernels.dense_global.flops", "kernels.dense_global");
    "kernels.dense_global.bytes", "bytes-computed", Count("kernels.dense_global.bytes");
    "kernels.fused.busy_s", "s", Busy("kernels.fused");
    "kernels.fused.gflops", "GFLOP/s-computed", Gflops("kernels.fused.flops", "kernels.fused");
    "kernels.fused.bytes", "bytes-computed", Count("kernels.fused.bytes");
    "kernels.coarse.useful_ratio", "ratio", Ratio("kernels.coarse.useful", "kernels.coarse.computed");
    "core.global_gather.busy_s", "s", Busy("core.global_gather");
    "core.plan.busy_s", "s", Busy("core.plan");
    "attention.unattributed_s", "s", Busy("attention");
    // serve-qds
    "models.traffic.busy_s", "s", Busy("models.traffic");
    "serve.batcher.busy_s", "s", Busy("serve.batcher");
    "serve.batches", "count", Count("serve.batches");
    "serve.batch_size_mean", "count", Ratio("serve.requests", "serve.batches");
    "serve.plan_cache.busy_s", "s", Busy("serve.plan_cache");
    "serve.plan_cache.hit_ratio", "ratio", Ratio("serve.plan_cache.hits", "serve.plan_cache.lookups");
    "serve.plan_cache.misses", "count", Count("serve.plan_cache.misses");
    "patterns.build.busy_s", "s", Busy("patterns.build");
    "core.plan.bytes", "bytes", Count("core.plan.bytes");
    "kernels.profile.busy_s", "s", Busy("kernels.profile");
    "kernels.profile.tbs", "count", Count("kernels.profile.tbs");
    "gpusim.schedule.busy_s", "s", Busy("gpusim.schedule");
    "gpusim.kernels", "count", Count("gpusim.kernels");
    "gpusim.tbs_per_s", "1/s", PerSec("gpusim.tbs", "gpusim.schedule");
    "serve.trace_export.busy_s", "s", Busy("serve.trace_export");
    "serve.unattributed_s", "s", Busy("serve");
    // decode-chat
    "patterns.decode_extend.busy_s", "s", Busy("patterns.decode_extend");
    "patterns.decode_extend.calls", "count", Count("patterns.decode_extend.calls");
    "serve.plan_cache.decode_busy_s", "s", Busy("serve.plan_cache.decode");
    "serve.plan_cache.decode_hit_ratio", "ratio", Ratio("serve.plan_cache.decode_hits", "serve.plan_cache.decode_lookups");
    "kernels.decode_profile.busy_s", "s", Busy("kernels.decode_profile");
    "kernels.decode_profile.calls", "count", Count("kernels.decode_profile.calls");
    "decode.kv.busy_s", "s", Busy("decode.kv");
    "decode.kv.growth_events", "count", Count("decode.kv.growth_events");
    "decode.unattributed_s", "s", Busy("decode");
    // every workload
    "trace.overhead_ratio", "ratio", Overhead;
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(PER_LAYER.len() <= 128);
    }
}
