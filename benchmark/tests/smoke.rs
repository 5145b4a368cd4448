//! Runs the built benchmark at smoke size and holds its result lines
//! against `BENCHMARK.json`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_submod-benchmark"))
        .args(args)
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("the benchmark binary starts")
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Every workload of `BENCHMARK.json`, at both trace settings, prints as
/// its last line a result with exactly the metrics listed for that
/// setting, each a number with the listed unit, and no failed check.
#[test]
fn a_smoke_run_prints_every_listed_metric() {
    let doc = benchmark_json();
    for (workload, _) in names(&doc, "workloads") {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = bench(&["--workload", &workload, "--seed", "7", "--smoke", "--trace", trace]);
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(run.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
            let line = stdout.lines().last().expect("a result line");
            let result = Json::parse(line).expect("the last line is JSON");
            let keys: Vec<&str> =
                result.entries().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

            let metrics = result.get("metrics").and_then(Json::entries).expect("metrics");
            let expected = names(&doc, list);
            let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let listed: Vec<&str> = expected.iter().map(|(name, _)| name.as_str()).collect();
            assert_eq!(printed, listed, "{workload} --trace {trace}");
            for ((name, metric), (_, unit)) in metrics.iter().zip(&expected) {
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload} {name} = {value:?}");
                assert_eq!(metric.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                if list == "end_to_end" {
                    assert!(value.unwrap() > 0.0, "{workload} {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn an_inherited_knob_or_a_bad_option_is_refused_before_any_work() {
    let refused = Command::new(env!("CARGO_BIN_EXE_submod-benchmark"))
        .args(["--workload", "embed-knn", "--seed", "1", "--smoke"])
        .env("SUBMOD_KERNELS", "scalar")
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("SUBMOD_KERNELS"));
    assert!(refused.stdout.is_empty());

    for args in [
        &["--workload", "no-such", "--seed", "1"][..],
        &["--workload", "embed-knn"],
        &["--workload", "embed-knn", "--seed", "1", "--frobnicate"],
        &["--workload", "embed-knn", "--seed", "1", "--trace", "2"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_submod-benchmark")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
