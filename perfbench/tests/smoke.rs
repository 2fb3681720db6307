//! Smoke test of the benchmark itself: every workload at toy size,
//! untraced and traced, must print exactly the metrics `BENCHMARK.json`
//! declares for that mode, each with its declared unit; and the output
//! checks must fire when response bodies are corrupted.
//!
//! ```text
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```

use cfx_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        _ => panic!("BENCHMARK.json has no array {key:?}"),
    }
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing {key:?}"))
}

/// `name → unit` of one metric section.
fn declared(bench: &Value, section: &str) -> BTreeMap<String, String> {
    array(bench, section)
        .iter()
        .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
        .collect()
}

/// Runs one toy workload and returns its result line, parsed.
fn run(workload: &str, trace: u8, extra: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_cfx-perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--toy"])
        .args(extra)
        .output()
        .expect("run the benchmark");
    assert!(out.status.success(), "{workload} trace {trace}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last:?}: {e}"))
}

#[test]
fn every_workload_prints_exactly_its_declared_metrics() {
    let bench = benchmark_json();
    let sections = [
        (0, declared(&bench, "end_to_end")),
        (1, declared(&bench, "per_layer")),
    ];
    for workload in array(&bench, "workloads") {
        let name = str_of(workload, "name");
        for (trace, want) in &sections {
            let result = run(name, *trace, &[]);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{name} {trace}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{name}"
            );
            assert!(
                result.get("attempted").and_then(Value::as_u64) >= Some(1),
                "{name}"
            );
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("{name}: no metrics object");
            };
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(k, v)| {
                    let value = v.get("value").and_then(Value::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{name}: {k} = {v:?}");
                    (k.clone(), str_of(v, "unit").to_string())
                })
                .collect();
            assert_eq!(
                &got, want,
                "{name} trace {trace}: printed vs declared metrics"
            );
        }
    }
}

#[test]
fn output_checks_fire_on_corrupted_response_bodies() {
    for workload in ["serve-lone-adult", "serve-kdd-zipf"] {
        let result = run(workload, 0, &["--corrupt"]);
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(false)),
            "{workload}"
        );
        let failed = result
            .get("failed")
            .and_then(Value::as_u64)
            .expect("failed");
        let attempted = result
            .get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted");
        assert!(
            failed > 0 && failed <= attempted,
            "{workload}: {failed} of {attempted}"
        );
    }
    // A body that is well formed but wrong is caught too.
    let body = br#"{"count":1,"results":[{"cf":[0.5,NaN],"valid":true,"feasible":true}]}"#;
    assert!(cfx_perfbench::check::check_body(body, 1, 2).is_err());
    let body = br#"{"count":2,"results":[{"cf":[0.5,1],"valid":true,"feasible":true}]}"#;
    assert!(cfx_perfbench::check::check_body(body, 2, 2).is_err());
}
