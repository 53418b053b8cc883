//! ASCII timeline rendering of kernel records — a poor man's Nsight
//! Systems view, used to see multi-stream overlap at a glance.

use crate::json::Json;
use crate::KernelRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the records as one Gantt row per stream, `width` characters
/// across the full simulated span. Concurrent kernels appear as
/// overlapping bars on different rows.
///
/// # Examples
///
/// ```
/// use mg_gpusim::{render_timeline, DeviceSpec, Gpu, KernelProfile, LaunchConfig, TbWork, DEFAULT_STREAM};
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let s1 = gpu.create_stream();
/// let w = TbWork { cuda_flops: 1 << 20, ..TbWork::default() };
/// gpu.launch(DEFAULT_STREAM, KernelProfile::uniform("coarse", LaunchConfig::default(), 500, w));
/// gpu.launch(s1, KernelProfile::uniform("fine", LaunchConfig::default(), 500, w));
/// gpu.synchronize();
/// let chart = render_timeline(gpu.records(), 60);
/// assert!(chart.contains("stream 0") && chart.contains("stream 1"));
/// ```
pub fn render_timeline(records: &[KernelRecord], width: usize) -> String {
    let width = width.max(10);
    if records.is_empty() {
        return "(no kernels)\n".to_owned();
    }
    let t0 = records
        .iter()
        .map(|r| r.start)
        .fold(f64::INFINITY, f64::min);
    let t1 = records.iter().map(|r| r.end).fold(0.0f64, f64::max);
    let span = (t1 - t0).max(1e-12);
    let scale = |t: f64| -> usize { (((t - t0) / span) * (width as f64 - 1.0)).round() as usize };

    // Group records by stream, keep launch order.
    let mut streams: BTreeMap<usize, Vec<&KernelRecord>> = BTreeMap::new();
    for r in records {
        streams.entry(stream_index(r)).or_default().push(r);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline: {:.1} us total, {} kernels on {} stream(s)",
        span * 1e6,
        records.len(),
        streams.len()
    );
    for (stream, recs) in &streams {
        let mut bar = vec![' '; width];
        for r in recs {
            let (a, b) = (scale(r.start), scale(r.end).max(scale(r.start)));
            let glyph = r.name.chars().next().unwrap_or('#');
            for slot in bar.iter_mut().take(b + 1).skip(a) {
                *slot = glyph;
            }
        }
        let _ = writeln!(out, "stream {stream}: |{}|", bar.iter().collect::<String>());
    }
    let _ = writeln!(out, "legend:");
    for (stream, recs) in &streams {
        for r in recs {
            let _ = writeln!(
                out,
                "  [{}] stream {stream} {:<24} {:8.1} us  ({:.1} MB DRAM, {}-bound)",
                r.name.chars().next().unwrap_or('#'),
                r.name,
                r.duration() * 1e6,
                r.dram_bytes as f64 / 1e6,
                r.bound.label(),
            );
        }
    }
    out
}

fn stream_index(r: &KernelRecord) -> usize {
    r.stream.index()
}

/// Exports the records as a Chrome-trace (`chrome://tracing` / Perfetto)
/// JSON document: one row per stream, one complete event per kernel, with
/// DRAM bytes and occupancy attached as event arguments.
///
/// # Examples
///
/// ```
/// use mg_gpusim::{export_chrome_trace, DeviceSpec, Gpu, KernelProfile, LaunchConfig, TbWork, DEFAULT_STREAM};
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let w = TbWork { cuda_flops: 1 << 20, ..TbWork::default() };
/// gpu.launch(DEFAULT_STREAM, KernelProfile::uniform("k", LaunchConfig::default(), 64, w));
/// gpu.synchronize();
/// let json = export_chrome_trace(gpu.records());
/// assert!(json.contains("\"traceEvents\""));
/// ```
pub fn export_chrome_trace(records: &[KernelRecord]) -> String {
    trace_document(records.iter().map(|r| kernel_event(0, r)).collect())
}

/// Exports several record sets into one Chrome-trace document, one
/// process row per named group (e.g. one simulated GPU worker each):
/// group `i` becomes `pid == i` with a `process_name` metadata event, and
/// each kernel keeps its stream index as the `tid`. Viewing tools then
/// render the groups as separately labelled lanes on a shared timeline,
/// which is how serving simulations show their device pool.
///
/// # Examples
///
/// ```
/// use mg_gpusim::{export_chrome_trace_grouped, DeviceSpec, Gpu, KernelProfile, LaunchConfig, TbWork, DEFAULT_STREAM};
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let w = TbWork { cuda_flops: 1 << 20, ..TbWork::default() };
/// gpu.launch(DEFAULT_STREAM, KernelProfile::uniform("k", LaunchConfig::default(), 64, w));
/// gpu.synchronize();
/// let json = export_chrome_trace_grouped(&[("worker-0", gpu.records())]);
/// assert!(json.contains("process_name") && json.contains("worker-0"));
/// ```
pub fn export_chrome_trace_grouped(groups: &[(&str, &[KernelRecord])]) -> String {
    let names = groups.iter().enumerate().map(|(pid, (name, _))| {
        Json::obj([
            ("name", "process_name".into()),
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("args", Json::obj([("name", (*name).into())])),
        ])
    });
    let kernels = groups
        .iter()
        .enumerate()
        .flat_map(|(pid, (_, records))| records.iter().map(move |r| kernel_event(pid, r)));
    trace_document(names.chain(kernels).collect())
}

fn trace_document(events: Vec<Json>) -> String {
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", "ns".into()),
    ])
    .to_compact()
}

fn kernel_event(pid: usize, r: &KernelRecord) -> Json {
    Json::obj([
        ("name", r.name.as_str().into()),
        ("cat", "kernel".into()),
        ("ph", "X".into()),
        ("ts", (r.start * 1e6).into()),
        ("dur", (r.duration() * 1e6).into()),
        ("pid", pid.into()),
        ("tid", r.stream.index().into()),
        (
            "args",
            Json::obj([
                ("dram_bytes", r.dram_bytes.into()),
                ("tb_count", r.tb_count.into()),
                (
                    "achieved_over_theoretical",
                    r.achieved_over_theoretical.into(),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceSpec, Gpu, KernelProfile, LaunchConfig, TbWork, DEFAULT_STREAM};

    fn run_two_streams() -> Gpu {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let s1 = gpu.create_stream();
        let w = TbWork {
            cuda_flops: 1 << 20,
            ..TbWork::default()
        };
        gpu.launch(
            DEFAULT_STREAM,
            KernelProfile::uniform("alpha", LaunchConfig::default(), 400, w),
        );
        gpu.launch(
            s1,
            KernelProfile::uniform("beta", LaunchConfig::default(), 400, w),
        );
        gpu.synchronize();
        gpu
    }

    #[test]
    fn timeline_shows_both_streams_and_kernels() {
        let gpu = run_two_streams();
        let chart = render_timeline(gpu.records(), 50);
        assert!(chart.contains("stream 0") && chart.contains("stream 1"));
        assert!(chart.contains("alpha") && chart.contains("beta"));
        assert!(
            chart.contains('a') && chart.contains('b'),
            "bars use name initials"
        );
    }

    #[test]
    fn empty_records_render_placeholder() {
        assert_eq!(render_timeline(&[], 40), "(no kernels)\n");
    }

    #[test]
    fn chrome_trace_is_wellformed_and_complete() {
        let gpu = run_two_streams();
        let json = export_chrome_trace(gpu.records());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"tid\":0") && json.contains("\"tid\":1"));
        assert!(json.contains("alpha") && json.contains("beta"));
        // Balanced braces (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn chrome_trace_escapes_names() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let w = TbWork {
            cuda_flops: 1 << 16,
            ..TbWork::default()
        };
        gpu.launch(
            DEFAULT_STREAM,
            KernelProfile::uniform("with \"quotes\"", LaunchConfig::default(), 4, w),
        );
        gpu.synchronize();
        let json = export_chrome_trace(gpu.records());
        assert!(json.contains("with \\\"quotes\\\""));
    }

    #[test]
    fn chrome_trace_escapes_control_characters() {
        let name = "a\nb\u{1}";
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let w = TbWork {
            cuda_flops: 1 << 16,
            ..TbWork::default()
        };
        gpu.launch(
            DEFAULT_STREAM,
            KernelProfile::uniform(name, LaunchConfig::default(), 4, w),
        );
        gpu.synchronize();
        let json = export_chrome_trace(gpu.records());
        assert!(
            json.bytes().all(|b| b >= 0x20),
            "raw control byte in {json:?}"
        );
        let doc = crate::json::parse(&json).expect("trace parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some(name));
    }

    #[test]
    fn grouped_trace_separates_workers_by_pid() {
        let gpu_a = run_two_streams();
        let gpu_b = run_two_streams();
        let json = export_chrome_trace_grouped(&[
            ("worker-0", gpu_a.records()),
            ("worker-1", gpu_b.records()),
        ]);
        assert_eq!(json.matches("process_name").count(), 2);
        assert!(json.contains("worker-0") && json.contains("worker-1"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"pid\":0") && json.contains("\"pid\":1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn concurrent_kernels_overlap_in_time() {
        let gpu = run_two_streams();
        let rs = gpu.records();
        assert!(
            rs[0].start < rs[1].end && rs[1].start < rs[0].end,
            "bars overlap"
        );
    }
}
