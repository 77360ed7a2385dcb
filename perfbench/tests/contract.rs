//! The benchmark's contract with `BENCHMARK.json`: the metrics it declares
//! are exactly the metrics the binary prints, with the same units and
//! directions, and the exact counts of a traced run repeat between runs
//! and between the traced and the untraced pass.

use std::collections::BTreeMap;
use std::process::Command;

use wp_dist::Json;
use wp_perfbench::layers::run_traced;
use wp_perfbench::{MetricDef, WorkloadName, END_TO_END, EXACT_COUNTS, PER_LAYER};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit, better)` of every entry of a metric list.
fn declared(json: &Json, key: &str) -> Vec<(String, String, String)> {
    json.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a '{key}' list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.require_str(f).expect("metric field").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            (
                d.name.to_string(),
                d.unit.to_string(),
                d.better.label().to_string(),
            )
        })
        .collect()
}

/// Runs the benchmark binary and returns the metrics of its last stdout
/// line, by name: `(value, unit)`.
fn printed(args: &[&str]) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_wp_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "exit status {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.require_u64("failed"), Ok(0));
    assert!(result.require_u64("attempted").expect("attempted") >= 1);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("the result line has a metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.require_f64("value").expect("a numeric value");
            let unit = m.require_str("unit").expect("a unit").to_string();
            (name.clone(), (value, unit))
        })
        .collect()
}

fn assert_prints_exactly(printed: &BTreeMap<String, (f64, String)>, defs: &[MetricDef]) {
    let names: Vec<&str> = printed.keys().map(String::as_str).collect();
    let mut expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    expected.sort_unstable();
    assert_eq!(names, expected, "printed metric names");
    for d in defs {
        let (value, unit) = &printed[d.name];
        assert_eq!(unit, d.unit, "unit of {}", d.name);
        assert!(value.is_finite(), "{} = {value}", d.name);
    }
}

#[test]
fn benchmark_json_declares_the_catalogue_and_the_workloads() {
    let json = benchmark_json();
    assert_eq!(declared(&json, "end_to_end"), catalogue(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), catalogue(&PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("a workloads list")
        .iter()
        .map(|w| w.require_str("name").expect("a workload name"))
        .collect();
    let expected: Vec<&str> = WorkloadName::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
}

#[test]
fn an_untraced_run_prints_every_end_to_end_metric_and_nothing_else() {
    let metrics = printed(&[
        "--workload",
        "table1_full",
        "--seed",
        "1",
        "--seconds",
        "0.1",
        "--trace",
        "0",
    ]);
    assert_prints_exactly(&metrics, &END_TO_END);
    for (value, _) in metrics.values() {
        assert!(*value > 0.0, "end-to-end metrics are never 0");
    }
}

#[test]
fn a_traced_run_prints_every_per_layer_metric_and_nothing_else() {
    let metrics = printed(&[
        "--workload",
        "dse_walk80",
        "--seed",
        "2",
        "--seconds",
        "0.1",
        "--trace",
        "1",
    ]);
    assert_prints_exactly(&metrics, &PER_LAYER);
}

#[test]
fn exact_counts_repeat_between_runs_and_between_traced_and_untraced_passes() {
    let first = run_traced(3, 0.1).expect("the traced run builds its inputs");
    let second = run_traced(3, 0.1).expect("the traced run builds its inputs");
    assert_eq!(first.report.failed, 0);
    assert_eq!(second.report.failed, 0);
    for name in EXACT_COUNTS {
        let value = first
            .report
            .value(name)
            .expect("every exact count is printed");
        assert!(value > 0.0 || name == "sweep.steals", "{name} = {value}");
        assert_eq!(
            second.report.value(name),
            Some(value),
            "{name} between runs"
        );
    }
    // Every count the traced pass records equals the untraced pass's.
    assert!(first.traced_counts.len() >= 7);
    for (name, traced) in &first.traced_counts {
        assert_eq!(
            first.untraced_counts.get(name),
            Some(traced),
            "{name}: traced vs untraced"
        );
    }
    assert_eq!(first.untraced_counts, second.untraced_counts);
    assert_eq!(first.traced_counts, second.traced_counts);
}
