//! Smoke test of the benchmark at tiny scale: every workload prints every
//! metric `BENCHMARK.json` names, with its unit, and a tampered report
//! fails the correctness check.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

/// (name, unit) of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Value::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run the benchmark at tiny scale; returns (exit success, result line).
fn bench(workload: &str, trace: u8, extra: &[&str]) -> (bool, Value) {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{trace}-{}", extra.len()));
    let out = Command::new(env!("CARGO_BIN_EXE_retrodns-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .arg("--work-dir")
        .arg(&work)
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no result line; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let result = serde_json::from_str(last).expect("result line is JSON");
    (out.status.success(), result)
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Num(serde_json::Number::U(n)) => *n as f64,
        Value::Num(serde_json::Number::I(n)) => *n as f64,
        Value::Num(serde_json::Number::F(n)) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

fn assert_metrics(result: &Value, expected: &[(String, String)]) {
    let keys: Vec<&str> = result
        .as_object()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    for (name, unit) in expected {
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("metric {name} missing; printed {printed:?}"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(number(m.get("value").unwrap()).is_finite(), "{name}");
    }
    assert_eq!(printed.len(), expected.len(), "extra metrics: {printed:?}");
    assert!(number(result.get("attempted").unwrap()) >= 1.0);
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let expected = declared("end_to_end");
    for workload in ["batch", "stream", "serve"] {
        let (ok, result) = bench(workload, 0, &[]);
        assert!(ok, "{workload} failed: {result:?}");
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}"
        );
        assert_metrics(&result, &expected);
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let (ok, result) = bench("stream", 1, &[]);
    assert!(ok, "traced run failed: {result:?}");
    assert_metrics(&result, &declared("per_layer"));
}

#[test]
fn tampered_reports_fail_the_check() {
    for workload in ["batch", "stream", "serve"] {
        let (ok, result) = bench(workload, 0, &["--tamper"]);
        assert!(!ok, "{workload} exited 0 with a tampered report");
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(false)),
            "{workload}"
        );
    }
}
