//! GPU device specifications (paper Table 1 plus public architecture
//! parameters needed by the occupancy and timing models).

use crate::digest::Fnv1a;
use crate::json::{parse, Json};

/// Static description of a GPU used by the execution model.
///
/// The two constructors [`DeviceSpec::a100`] and [`DeviceSpec::rtx3090`]
/// reproduce Table 1 of the paper; custom devices can be built literally.
///
/// # Examples
///
/// ```
/// use mg_gpusim::DeviceSpec;
///
/// let a100 = DeviceSpec::a100();
/// assert_eq!(a100.sm_count, 108);
/// assert!(a100.tensor_fp16_flops > a100.cuda_fp16_flops);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, used in reports.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// Boost clock in GHz (used to convert cycle overheads to seconds).
    pub clock_ghz: f64,
    /// Device-memory bandwidth in bytes per second.
    pub mem_bw_bytes_per_s: f64,
    /// Whole-GPU FP16 throughput of the CUDA cores, FLOP/s.
    pub cuda_fp16_flops: f64,
    /// Whole-GPU FP16 throughput of the tensor cores, FLOP/s.
    pub tensor_fp16_flops: f64,
    /// Whole-GPU special-function-unit throughput (exp, rsqrt), op/s.
    pub sfu_ops_per_s: f64,
    /// Shared memory usable per SM, bytes.
    pub smem_per_sm: usize,
    /// 32-bit registers per SM.
    pub regs_per_sm: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Maximum resident thread blocks per SM.
    pub max_tbs_per_sm: usize,
    /// Combined L1/shared capacity per SM, bytes (Table 1's "L1 D$ per SM").
    pub l1_per_sm: usize,
    /// L2 cache capacity, bytes (Table 1's "L2").
    pub l2_bytes: usize,
    /// Aggregate L2 cache bandwidth, bytes per second. On-chip data reuse
    /// (or its absence) shows up on this pipe.
    pub l2_bw_bytes_per_s: f64,
    /// Host-side kernel launch overhead, seconds.
    pub launch_overhead_s: f64,
    /// Per-thread-block dispatch/drain overhead, cycles.
    pub tb_overhead_cycles: f64,
    /// Resident warps needed to saturate an SM's arithmetic pipes; blocks
    /// with fewer warps on an otherwise idle SM cannot reach peak.
    pub warps_to_saturate: f64,
}

impl DeviceSpec {
    /// NVIDIA A100 (SXM, 40 GB): Table 1 row 1.
    pub fn a100() -> DeviceSpec {
        DeviceSpec {
            name: "A100",
            sm_count: 108,
            clock_ghz: 1.41,
            mem_bw_bytes_per_s: 1555.0e9,
            cuda_fp16_flops: 42.3e12,
            tensor_fp16_flops: 169.0e12,
            sfu_ops_per_s: 42.3e12 / 8.0,
            smem_per_sm: 164 * 1024,
            regs_per_sm: 65536,
            max_warps_per_sm: 64,
            max_tbs_per_sm: 32,
            l1_per_sm: 192 * 1024,
            l2_bytes: 40 * 1024 * 1024,
            l2_bw_bytes_per_s: 4.7e12,
            launch_overhead_s: 1.5e-6,
            tb_overhead_cycles: 600.0,
            warps_to_saturate: 8.0,
        }
    }

    /// NVIDIA GeForce RTX 3090: Table 1 row 2. Note the tensor-core FP16
    /// rate drops far more than the CUDA-core rate relative to A100, which
    /// drives the paper's cross-GPU observations (§5.1).
    pub fn rtx3090() -> DeviceSpec {
        DeviceSpec {
            name: "RTX3090",
            sm_count: 82,
            clock_ghz: 1.70,
            mem_bw_bytes_per_s: 936.2e9,
            cuda_fp16_flops: 29.3e12,
            tensor_fp16_flops: 58.0e12,
            sfu_ops_per_s: 29.3e12 / 8.0,
            smem_per_sm: 100 * 1024,
            regs_per_sm: 65536,
            max_warps_per_sm: 48,
            max_tbs_per_sm: 16,
            l1_per_sm: 128 * 1024,
            l2_bytes: 6 * 1024 * 1024,
            l2_bw_bytes_per_s: 2.0e12,
            launch_overhead_s: 1.5e-6,
            tb_overhead_cycles: 600.0,
            warps_to_saturate: 8.0,
        }
    }

    /// NVIDIA H100 (SXM5): a Hopper-generation projection for the
    /// paper's §6.2 discussion (sparse tensor cores arrive with Ampere
    /// and Hopper). Public specs; not part of the paper's Table 1.
    pub fn h100() -> DeviceSpec {
        DeviceSpec {
            name: "H100",
            sm_count: 132,
            clock_ghz: 1.83,
            mem_bw_bytes_per_s: 3350.0e9,
            cuda_fp16_flops: 133.8e12,
            tensor_fp16_flops: 989.0e12,
            sfu_ops_per_s: 133.8e12 / 8.0,
            smem_per_sm: 228 * 1024,
            regs_per_sm: 65536,
            max_warps_per_sm: 64,
            max_tbs_per_sm: 32,
            l1_per_sm: 256 * 1024,
            l2_bytes: 50 * 1024 * 1024,
            l2_bw_bytes_per_s: 12.0e12,
            launch_overhead_s: 1.5e-6,
            tb_overhead_cycles: 600.0,
            warps_to_saturate: 8.0,
        }
    }

    /// A stable 64-bit fingerprint of everything the timing model reads:
    /// the name, every pipe rate, and every memory/occupancy parameter.
    ///
    /// Persisted tuning-database entries are keyed by this value, so a
    /// tuned choice is invalidated the moment any aspect of the device
    /// model changes — a recalibrated bandwidth, a different SM count, a
    /// new launch-overhead estimate. The hash is FNV-1a over a fixed
    /// field order (not `DefaultHasher`, whose output may change across
    /// Rust releases and would silently orphan every saved database).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.name.as_bytes());
        for v in [
            self.clock_ghz,
            self.mem_bw_bytes_per_s,
            self.cuda_fp16_flops,
            self.tensor_fp16_flops,
            self.sfu_ops_per_s,
            self.l2_bw_bytes_per_s,
            self.launch_overhead_s,
            self.tb_overhead_cycles,
            self.warps_to_saturate,
        ] {
            h.write_u64(v.to_bits());
        }
        for v in [
            self.sm_count,
            self.smem_per_sm,
            self.regs_per_sm,
            self.max_warps_per_sm,
            self.max_tbs_per_sm,
            self.l1_per_sm,
            self.l2_bytes,
        ] {
            h.write_u64(v as u64);
        }
        h.finish()
    }

    /// Loads a custom device from a flat JSON object, for GPUs beyond the
    /// two Table-1 presets — every field of [`DeviceSpec`] by its Rust
    /// name, e.g.:
    ///
    /// ```json
    /// {"name": "L40S", "sm_count": 142, "clock_ghz": 2.52,
    ///  "mem_bw_bytes_per_s": 864e9, "cuda_fp16_flops": 91.6e12,
    ///  "tensor_fp16_flops": 183e12, "sfu_ops_per_s": 11.45e12,
    ///  "smem_per_sm": 102400, "regs_per_sm": 65536,
    ///  "max_warps_per_sm": 48, "max_tbs_per_sm": 24,
    ///  "l1_per_sm": 131072, "l2_bytes": 100663296,
    ///  "l2_bw_bytes_per_s": 5.0e12, "launch_overhead_s": 1.5e-6,
    ///  "tb_overhead_cycles": 600.0, "warps_to_saturate": 8.0}
    /// ```
    ///
    /// The name is interned for the process lifetime (specs carry a
    /// `&'static str`); loading is a one-time configuration step, so the
    /// few leaked bytes per distinct device are intentional.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing/ill-typed field or
    /// JSON syntax error, or the first field out of range: every count
    /// and capacity must be positive, every rate (and `clock_ghz`,
    /// `warps_to_saturate`) positive and finite, and both overheads
    /// non-negative and finite.
    pub fn from_json(text: &str) -> Result<DeviceSpec, String> {
        let doc = parse(text)?;
        let num = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
        };
        // Counts and capacities: zero would divide by zero or leave a
        // kernel no SM to run on.
        let count = |key: &str| -> Result<usize, String> {
            match doc.get(key).and_then(Json::as_u64) {
                None => Err(format!("missing or non-integer field '{key}'")),
                Some(0) => Err(format!("field '{key}' must be positive, got 0")),
                Some(v) => Ok(v as usize),
            }
        };
        // Rates and the clock divide work into time.
        let rate = |key: &str| -> Result<f64, String> {
            let v = num(key)?;
            if v.is_finite() && v > 0.0 {
                Ok(v)
            } else {
                Err(format!(
                    "field '{key}' must be positive and finite, got {v}"
                ))
            }
        };
        let overhead = |key: &str| -> Result<f64, String> {
            let v = num(key)?;
            if v.is_finite() && v >= 0.0 {
                Ok(v)
            } else {
                Err(format!(
                    "field '{key}' must be non-negative and finite, got {v}"
                ))
            }
        };
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing or non-string field 'name'".to_string())?;
        Ok(DeviceSpec {
            name: Box::leak(name.to_string().into_boxed_str()),
            sm_count: count("sm_count")?,
            clock_ghz: rate("clock_ghz")?,
            mem_bw_bytes_per_s: rate("mem_bw_bytes_per_s")?,
            cuda_fp16_flops: rate("cuda_fp16_flops")?,
            tensor_fp16_flops: rate("tensor_fp16_flops")?,
            sfu_ops_per_s: rate("sfu_ops_per_s")?,
            smem_per_sm: count("smem_per_sm")?,
            regs_per_sm: count("regs_per_sm")?,
            max_warps_per_sm: count("max_warps_per_sm")?,
            max_tbs_per_sm: count("max_tbs_per_sm")?,
            l1_per_sm: count("l1_per_sm")?,
            l2_bytes: count("l2_bytes")?,
            l2_bw_bytes_per_s: rate("l2_bw_bytes_per_s")?,
            launch_overhead_s: overhead("launch_overhead_s")?,
            tb_overhead_cycles: overhead("tb_overhead_cycles")?,
            warps_to_saturate: rate("warps_to_saturate")?,
        })
    }

    /// FP16 tensor-core FLOP/s available to one SM.
    pub fn sm_tensor_rate(&self) -> f64 {
        self.tensor_fp16_flops / self.sm_count as f64
    }

    /// FP16 CUDA-core FLOP/s available to one SM.
    pub fn sm_cuda_rate(&self) -> f64 {
        self.cuda_fp16_flops / self.sm_count as f64
    }

    /// Special-function op/s available to one SM.
    pub fn sm_sfu_rate(&self) -> f64 {
        self.sfu_ops_per_s / self.sm_count as f64
    }

    /// Fair per-SM share of device-memory bandwidth, bytes/s.
    pub fn bw_per_sm(&self) -> f64 {
        self.mem_bw_bytes_per_s / self.sm_count as f64
    }

    /// Fair per-SM share of L2 bandwidth, bytes/s.
    pub fn l2_bw_per_sm(&self) -> f64 {
        self.l2_bw_bytes_per_s / self.sm_count as f64
    }

    /// Per-thread-block overhead in seconds.
    pub fn tb_overhead_s(&self) -> f64 {
        self.tb_overhead_cycles / (self.clock_ghz * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        let a = DeviceSpec::a100();
        assert_eq!(a.mem_bw_bytes_per_s, 1555.0e9);
        assert_eq!(a.cuda_fp16_flops, 42.3e12);
        assert_eq!(a.tensor_fp16_flops, 169.0e12);
        assert_eq!(a.l1_per_sm, 192 * 1024);
        assert_eq!(a.l2_bytes, 40 * 1024 * 1024);
        let r = DeviceSpec::rtx3090();
        assert_eq!(r.mem_bw_bytes_per_s, 936.2e9);
        assert_eq!(r.cuda_fp16_flops, 29.3e12);
        assert_eq!(r.tensor_fp16_flops, 58.0e12);
        assert_eq!(r.l1_per_sm, 128 * 1024);
        assert_eq!(r.l2_bytes, 6 * 1024 * 1024);
    }

    #[test]
    fn tensor_advantage_shrinks_on_rtx3090() {
        let a = DeviceSpec::a100();
        let r = DeviceSpec::rtx3090();
        let a_ratio = a.tensor_fp16_flops / a.cuda_fp16_flops;
        let r_ratio = r.tensor_fp16_flops / r.cuda_fp16_flops;
        assert!(a_ratio > 3.9 && r_ratio < 2.1, "paper §5.1's key ratio");
    }

    #[test]
    fn per_sm_rates_sum_to_device_rates() {
        let a = DeviceSpec::a100();
        let total = a.sm_tensor_rate() * a.sm_count as f64;
        assert!((total - a.tensor_fp16_flops).abs() / a.tensor_fp16_flops < 1e-12);
    }

    #[test]
    fn h100_outclasses_a100_everywhere() {
        let h = DeviceSpec::h100();
        let a = DeviceSpec::a100();
        assert!(h.tensor_fp16_flops > a.tensor_fp16_flops);
        assert!(h.mem_bw_bytes_per_s > a.mem_bw_bytes_per_s);
        assert!(h.sm_count > a.sm_count);
    }

    #[test]
    fn tb_overhead_is_sub_microsecond() {
        let a = DeviceSpec::a100();
        assert!(a.tb_overhead_s() > 0.0 && a.tb_overhead_s() < 2e-6);
    }

    #[test]
    fn fingerprint_is_pinned_and_sensitive() {
        // Pinned value: the fingerprint keys persisted tuning databases,
        // so an accidental change to the hash (or to the A100 model)
        // must fail loudly here, not silently orphan saved entries.
        assert_eq!(DeviceSpec::a100().fingerprint(), 0x69a3_ec57_039a_79d0);
        // The H100 fingerprint keys the heterogeneous-cluster tuning
        // databases (mg-cluster routes on it), so it is pinned too.
        assert_eq!(DeviceSpec::h100().fingerprint(), 0x64c9_651d_988f_e8b2);
        let a = DeviceSpec::a100();
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(a.fingerprint(), DeviceSpec::rtx3090().fingerprint());
        assert_ne!(a.fingerprint(), DeviceSpec::h100().fingerprint());
        // Any single timing-relevant field flips the fingerprint.
        let mut faster = DeviceSpec::a100();
        faster.mem_bw_bytes_per_s *= 1.01;
        assert_ne!(a.fingerprint(), faster.fingerprint());
        let mut fewer = DeviceSpec::a100();
        fewer.sm_count -= 1;
        assert_ne!(a.fingerprint(), fewer.fingerprint());
    }

    #[test]
    fn from_json_round_trips_a_custom_device() {
        let text = r#"{
            "name": "Custom", "sm_count": 64, "clock_ghz": 1.5,
            "mem_bw_bytes_per_s": 500e9, "cuda_fp16_flops": 20e12,
            "tensor_fp16_flops": 80e12, "sfu_ops_per_s": 2.5e12,
            "smem_per_sm": 102400, "regs_per_sm": 65536,
            "max_warps_per_sm": 48, "max_tbs_per_sm": 16,
            "l1_per_sm": 131072, "l2_bytes": 4194304,
            "l2_bw_bytes_per_s": 2.0e12, "launch_overhead_s": 1.5e-6,
            "tb_overhead_cycles": 600.0, "warps_to_saturate": 8.0
        }"#;
        let spec = DeviceSpec::from_json(text).expect("loads");
        assert_eq!(spec.name, "Custom");
        assert_eq!(spec.sm_count, 64);
        assert_eq!(spec.mem_bw_bytes_per_s, 500e9);
        assert_eq!(spec.tb_overhead_cycles, 600.0);
        // Identical documents fingerprint identically; a tweak does not.
        let again = DeviceSpec::from_json(text).expect("loads");
        assert_eq!(spec.fingerprint(), again.fingerprint());
        let tweaked = DeviceSpec::from_json(&text.replace("500e9", "501e9")).expect("loads");
        assert_ne!(spec.fingerprint(), tweaked.fingerprint());
    }

    /// The custom device of `from_json_round_trips_a_custom_device` as
    /// JSON, with `field` set to the literal `value`.
    fn custom_json_with(field: &str, value: &str) -> String {
        let fields = [
            ("sm_count", "64"),
            ("clock_ghz", "1.5"),
            ("mem_bw_bytes_per_s", "500e9"),
            ("cuda_fp16_flops", "20e12"),
            ("tensor_fp16_flops", "80e12"),
            ("sfu_ops_per_s", "2.5e12"),
            ("smem_per_sm", "102400"),
            ("regs_per_sm", "65536"),
            ("max_warps_per_sm", "48"),
            ("max_tbs_per_sm", "16"),
            ("l1_per_sm", "131072"),
            ("l2_bytes", "4194304"),
            ("l2_bw_bytes_per_s", "2.0e12"),
            ("launch_overhead_s", "1.5e-6"),
            ("tb_overhead_cycles", "600.0"),
            ("warps_to_saturate", "8.0"),
        ];
        assert!(fields.iter().any(|(k, _)| *k == field), "unknown {field}");
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", if *k == field { value } else { v }))
            .collect();
        format!("{{\"name\": \"Custom\", {}}}", body.join(", "))
    }

    /// Asserts that `field = value` is refused with an error naming it.
    fn assert_rejected(field: &str, value: &str) {
        match DeviceSpec::from_json(&custom_json_with(field, value)) {
            Ok(_) => panic!("{field} = {value} was accepted"),
            Err(err) => assert!(err.contains(field), "{field} = {value}: {err}"),
        }
    }

    #[test]
    fn from_json_accepts_the_unmodified_custom_device() {
        let spec = DeviceSpec::from_json(&custom_json_with("sm_count", "64")).expect("loads");
        assert_eq!(spec.sm_count, 64);
        // Zero overheads are a valid (idealised) device.
        DeviceSpec::from_json(&custom_json_with("launch_overhead_s", "0")).expect("loads");
        DeviceSpec::from_json(&custom_json_with("tb_overhead_cycles", "0")).expect("loads");
    }

    #[test]
    fn from_json_rejects_zero_sm_count() {
        // An accepted zero-SM device panicked inside `Gpu::synchronize`
        // (`clamp(1, 0)`) on the first kernel timed on it.
        match DeviceSpec::from_json(&custom_json_with("sm_count", "0")) {
            Err(err) => assert!(err.contains("sm_count"), "{err}"),
            Ok(spec) => {
                let work = crate::TbWork {
                    cuda_flops: 1 << 20,
                    ..crate::TbWork::default()
                };
                let kernel = crate::KernelRuns::uniform("k", Default::default(), 8, work);
                crate::Gpu::new(spec).run_solo(kernel);
                panic!("sm_count = 0 was accepted");
            }
        }
    }

    #[test]
    fn from_json_rejects_zero_smem_per_sm() {
        assert_rejected("smem_per_sm", "0");
    }

    #[test]
    fn from_json_rejects_zero_regs_per_sm() {
        assert_rejected("regs_per_sm", "0");
    }

    #[test]
    fn from_json_rejects_zero_max_warps_per_sm() {
        assert_rejected("max_warps_per_sm", "0");
    }

    #[test]
    fn from_json_rejects_zero_max_tbs_per_sm() {
        assert_rejected("max_tbs_per_sm", "0");
    }

    #[test]
    fn from_json_rejects_zero_l1_per_sm() {
        assert_rejected("l1_per_sm", "0");
    }

    #[test]
    fn from_json_rejects_zero_l2_bytes() {
        assert_rejected("l2_bytes", "0");
    }

    #[test]
    fn from_json_rejects_non_positive_clock() {
        assert_rejected("clock_ghz", "0");
        assert_rejected("clock_ghz", "-1.5");
        assert_rejected("clock_ghz", "1e999");
    }

    #[test]
    fn from_json_rejects_non_positive_mem_bandwidth() {
        assert_rejected("mem_bw_bytes_per_s", "0");
        assert_rejected("mem_bw_bytes_per_s", "-500e9");
        assert_rejected("mem_bw_bytes_per_s", "1e999");
    }

    #[test]
    fn from_json_rejects_non_positive_cuda_rate() {
        assert_rejected("cuda_fp16_flops", "0");
        assert_rejected("cuda_fp16_flops", "-1");
        assert_rejected("cuda_fp16_flops", "1e999");
    }

    #[test]
    fn from_json_rejects_non_positive_tensor_rate() {
        assert_rejected("tensor_fp16_flops", "0");
        assert_rejected("tensor_fp16_flops", "-1");
        assert_rejected("tensor_fp16_flops", "1e999");
    }

    #[test]
    fn from_json_rejects_non_positive_sfu_rate() {
        assert_rejected("sfu_ops_per_s", "0");
        assert_rejected("sfu_ops_per_s", "-1");
        assert_rejected("sfu_ops_per_s", "1e999");
    }

    #[test]
    fn from_json_rejects_non_positive_l2_bandwidth() {
        assert_rejected("l2_bw_bytes_per_s", "0");
        assert_rejected("l2_bw_bytes_per_s", "-1");
        assert_rejected("l2_bw_bytes_per_s", "1e999");
    }

    #[test]
    fn from_json_rejects_non_positive_warps_to_saturate() {
        assert_rejected("warps_to_saturate", "0");
        assert_rejected("warps_to_saturate", "-8");
        assert_rejected("warps_to_saturate", "1e999");
    }

    #[test]
    fn from_json_rejects_negative_launch_overhead() {
        assert_rejected("launch_overhead_s", "-1.5e-6");
        assert_rejected("launch_overhead_s", "1e999");
    }

    #[test]
    fn from_json_rejects_negative_tb_overhead() {
        assert_rejected("tb_overhead_cycles", "-600");
        assert_rejected("tb_overhead_cycles", "1e999");
    }

    #[test]
    fn from_json_names_the_missing_field() {
        let err = DeviceSpec::from_json(r#"{"name": "X"}"#).unwrap_err();
        assert!(err.contains("sm_count"), "{err}");
        let err = DeviceSpec::from_json(r#"{"sm_count": 1}"#).unwrap_err();
        assert!(err.contains("name"), "{err}");
        assert!(DeviceSpec::from_json("not json").is_err());
    }
}
