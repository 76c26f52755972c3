//! `BENCHMARK.json` and the metrics the benchmark prints agree.

use ntcs_perfbench::report::{END_TO_END, PER_LAYER};
use ntcs_perfbench::workloads::Workload;

fn benchmark_json() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `"name"` values inside the array that follows `"key":`.
fn names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect(key);
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open..close]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
        .collect()
}

#[test]
fn declared_metrics_match_the_printed_ones() {
    let json = benchmark_json();
    assert_eq!(names(&json, "end_to_end"), END_TO_END);
    assert_eq!(names(&json, "per_layer"), PER_LAYER);
}

#[test]
fn declared_workloads_exist() {
    for name in names(&benchmark_json(), "workloads") {
        assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
    }
}
