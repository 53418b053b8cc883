//! `BENCHMARK.json` at the repository root lists exactly the metrics and
//! workloads this package emits.

use mg_perfbench::metrics::{END_TO_END, PER_LAYER};
use mg_perfbench::Workload;

fn names_in(json: &str, section: &str, next: Option<&str>) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("{section} section"));
    let end = next.map_or(json.len(), |n| {
        json.find(&format!("\"{n}\"")).expect("next section")
    });
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_owned())
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names_in(&json, "workloads", Some("end_to_end")), workloads);
    assert_eq!(names_in(&json, "end_to_end", Some("per_layer")), e2e);
    assert_eq!(names_in(&json, "per_layer", None), layers);
    for m in END_TO_END.iter() {
        assert!(json.contains(&format!(
            "\"name\": \"{}\",\n      \"unit\": \"{}\"",
            m.name, m.unit
        )));
    }
    for m in PER_LAYER.iter() {
        assert!(json.contains(&format!(
            "\"name\": \"{}\",\n      \"unit\": \"{}\"",
            m.name, m.unit
        )));
    }
}
