//! Smoke-size runs of every workload: tiny inputs, the same code paths.

use mg_perfbench::metrics::{valid_name, END_TO_END, PER_LAYER};
use mg_perfbench::{run, RunConfig, RunResult, Scale, Workload};
use std::process::Command;

fn smoke(workload: Workload, seed: u64, trace: bool) -> RunResult {
    run(&RunConfig {
        workload,
        seed,
        seconds: 0.2,
        trace,
        scale: Scale::Smoke,
    })
}

fn names(r: &RunResult) -> Vec<&'static str> {
    r.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    for w in Workload::ALL {
        let r = smoke(w, 7, false);
        assert!(r.correct, "{}: {:?}", w.name(), r.failures);
        assert_eq!(r.failed, 0);
        assert!(r.attempted >= 1 && !r.call_ms.is_empty());
        assert_eq!(names(&r), expected, "{}", w.name());
        for m in &r.metrics {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        assert!(r.env.threads >= 1 && r.env.nproc >= 1);
    }
}

#[test]
fn traced_runs_replay_bit_identically_and_emit_every_per_layer_metric() {
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    let exercised = [
        (
            Workload::ForwardQds,
            [
                "tensor.gemm.busy_s",
                "core.attention.busy_s",
                "forward.unattributed_s",
            ],
        ),
        (
            Workload::AttentionLongformer,
            [
                "kernels.fused.busy_s",
                "kernels.softmax.busy_s",
                "attention.unattributed_s",
            ],
        ),
        (
            Workload::ServeQds,
            [
                "gpusim.kernels",
                "serve.plan_cache.busy_s",
                "serve.unattributed_s",
            ],
        ),
        (
            Workload::DecodeChat,
            [
                "patterns.decode_extend.calls",
                "kernels.decode_profile.calls",
                "decode.unattributed_s",
            ],
        ),
    ];
    for (w, layers) in exercised {
        // `correct` covers the replica-equals-call check and the closure rule.
        let r = smoke(w, 7, true);
        assert!(r.correct, "{}: {:?}", w.name(), r.failures);
        assert_eq!(names(&r), expected, "{}", w.name());
        for m in &r.metrics {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(
                m.value >= 0.0 && m.value.is_finite(),
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        for layer in layers {
            assert!(
                r.metric(layer).expect("emitted") > 0.0,
                "{}: {layer} is 0",
                w.name()
            );
        }
        assert!(r.metric("trace.overhead_ratio").expect("emitted") > 0.0);
        let spans = r.spans.as_deref().expect("traced runs keep spans");
        assert!(spans.lines().count() > 1 && spans.contains("\"parent\":null"));
    }
}

#[test]
fn same_seed_gives_identical_digests() {
    for w in Workload::ALL {
        let a = smoke(w, 11, false);
        let b = smoke(w, 11, false);
        assert!(a.correct && b.correct, "{}", w.name());
        assert!(a.digests.iter().any(Option::is_some), "{}", w.name());
        for (da, db) in a.digests.iter().zip(&b.digests) {
            if let (Some(da), Some(db)) = (da, db) {
                assert_eq!(da, db, "{}", w.name());
            }
        }
        let c = smoke(w, 12, false);
        assert_ne!(
            a.digests[0],
            c.digests[0],
            "{}: another seed, other inputs",
            w.name()
        );
    }
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mg-perfbench"))
        .args(args)
        .output()
        .expect("runs the benchmark binary")
}

#[test]
fn bad_input_exits_2_with_a_named_error() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let blocker = tmp.join("perfbench-not-a-dir");
    std::fs::write(&blocker, b"").expect("temp file");
    let unwritable = blocker.join("out");
    let unwritable = unwritable.to_str().expect("utf-8 path");
    for (args, needle) in [
        (
            vec!["--workload", "nope", "--seed", "1"],
            "unknown workload 'nope'",
        ),
        (
            vec!["--workload", "decode-chat", "--seed", "x1"],
            "unparsable seed 'x1'",
        ),
        (
            vec!["--workload", "decode-chat", "--seed", "1", "--trace", "2"],
            "bad --trace",
        ),
        (
            vec!["--workload", "decode-chat", "--seed", "1", "--bogus"],
            "unknown argument",
        ),
        (vec!["--workload", "decode-chat"], "missing required --seed"),
        (
            vec![
                "--workload",
                "decode-chat",
                "--seed",
                "1",
                "--out",
                unwritable,
            ],
            "unwritable output path",
        ),
    ] {
        let out = bench(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
