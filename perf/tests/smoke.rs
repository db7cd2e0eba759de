//! End-to-end smoke: `run --quick` (1 slice x 1 s per workload plus the
//! traced slices) must pass every correctness check and emit exactly the
//! workloads and metrics `BENCHMARK.json` lists.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::process::Command;

fn names(value: Option<&qasom_obs::JsonValue>) -> Vec<String> {
    json::fields(value.expect("object present"))
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn listed(benchmark: &qasom_obs::JsonValue, key: &str) -> Vec<String> {
    json::items(json::get(benchmark, key).expect("BENCHMARK.json key"))
        .iter()
        .map(|m| {
            json::text(json::get(m, "name").expect("name"))
                .expect("string")
                .to_owned()
        })
        .collect()
}

#[test]
fn quick_run_emits_exactly_the_benchmarks_names() {
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/smoke-result.json");
    let status = Command::new(env!("CARGO_BIN_EXE_qasom-perf"))
        .args(["run", "--quick", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("qasom-perf starts");
    assert!(status.success(), "run --quick failed a check");

    let result =
        json::parse(&std::fs::read_to_string(&out).expect("result file")).expect("result parses");
    let benchmark =
        json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    assert_eq!(
        json::get(&result, "correct"),
        Some(&qasom_obs::JsonValue::Bool(true))
    );
    assert_eq!(
        names(json::get(&result, "workloads")),
        listed(&benchmark, "workloads")
    );
    for workload in listed(&benchmark, "workloads") {
        for set in ["end_to_end", "per_layer"] {
            assert_eq!(
                names(json::at(&result, &["workloads", &workload, set])),
                listed(&benchmark, set),
                "{workload}/{set}"
            );
        }
    }
    let _ = std::fs::remove_file(out);
}
