//! `sysbench run --smoke` end to end: every workload at toy sizes, untraced
//! and traced, each in its own child process, then `sysbench check` over
//! the result set it wrote.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use shmls_ir::json::Json;

fn sysbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sysbench"))
        .args(args)
        .output()
        .expect("the sysbench binary runs")
}

fn benchmark_json() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn listed(benchmark: &Json, key: &str) -> Vec<String> {
    benchmark
        .get(key)
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists it")
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

#[test]
fn smoke_runs_every_workload_and_check_accepts_its_own_results() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sysbench-smoke");
    let _ = std::fs::remove_dir_all(&out);
    let out_arg = out.to_str().unwrap();

    let run = sysbench(&[
        "run", "--smoke", "--trace", "1", "--seed", "2", "--out", out_arg,
    ]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "sysbench run --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let summary = Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(summary.get("failed").unwrap().as_u64(), Some(0));

    let benchmark = Json::parse(&std::fs::read_to_string(benchmark_json()).unwrap()).unwrap();
    let results_path = out.join("results.json");
    let results = Json::parse(&std::fs::read_to_string(&results_path).unwrap()).unwrap();
    let end_to_end = listed(&benchmark, "end_to_end");
    let per_layer = listed(&benchmark, "per_layer");
    let mut measured_layers = std::collections::BTreeSet::new();
    for workload in listed(&benchmark, "workloads") {
        let of = |half: &str| {
            results
                .get("workloads")
                .and_then(|w| w.get(&workload))
                .and_then(|w| w.get(half))
                .and_then(|h| h.get("metrics"))
                .unwrap_or_else(|| panic!("{workload} has no {half} metrics"))
                .clone()
        };
        // Every end-to-end metric, and none of them zero.
        let metrics = of("end_to_end");
        for name in &end_to_end {
            let value = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            assert!(
                value.is_some_and(|v| v > 0.0 && v.is_finite()),
                "{workload} {name} = {value:?}"
            );
            assert!(
                stdout.contains(&format!("{workload} {name} ")),
                "{workload} {name} is missing from the listing"
            );
        }
        // Every per-layer name, measured (non-zero) by at least one workload.
        let layers = of("per_layer");
        assert_eq!(layers.as_obj().unwrap().len(), per_layer.len());
        for name in &per_layer {
            let value = layers
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload} {name} = {value:?}"
            );
            if stdout.contains(&format!("{workload} {name} ")) {
                measured_layers.insert(name.clone());
            }
        }
        assert!(out.join(format!("{workload}.trace.json")).exists());
    }
    let unmeasured: Vec<&String> = per_layer
        .iter()
        .filter(|n| !measured_layers.contains(*n))
        .collect();
    assert!(unmeasured.is_empty(), "no workload measured {unmeasured:?}");

    // A result set agrees with itself; one with a slower workload does not.
    let benchmark_arg = benchmark_json();
    let check = |candidate: &Path| {
        sysbench(&[
            "check",
            results_path.to_str().unwrap(),
            candidate.to_str().unwrap(),
            "--benchmark",
            benchmark_arg.to_str().unwrap(),
        ])
    };
    let same = check(&results_path);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    let mut slower = results.clone();
    let mut at = &mut slower;
    for key in [
        "workloads",
        "exec_8m",
        "end_to_end",
        "metrics",
        "latency_ms_p50",
        "value",
    ] {
        at = match at {
            Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1,
            other => panic!("{key}: not inside an object but {other:?}"),
        };
    }
    *at = Json::Num(at.as_f64().unwrap() * 2.0);
    let slower_path = out.join("slower.json");
    std::fs::write(&slower_path, slower.pretty()).unwrap();
    let breached = check(&slower_path);
    assert_eq!(breached.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&breached.stdout).contains("BREACH"));
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["run", "--workload", "nonesuch"][..],
        &["run", "--seconds", "0"],
        &["run", "--bogus"],
        &["frobnicate"],
        &["check", "only-one.json"],
    ] {
        let out = sysbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn one_workload_prints_the_contract_result_line() {
    let out = sysbench(&[
        "run",
        "--workload",
        "sim_designs",
        "--smoke",
        "--seed",
        "3",
        "--trace",
        "0",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = Json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(doc.get("attempted").unwrap().as_u64().unwrap() >= 1);
    let metric = doc.get("metrics").unwrap().get("setup_s").unwrap();
    assert_eq!(metric.get("unit").unwrap().as_str(), Some("s"));
    assert!(metric.get("value").unwrap().as_f64().unwrap() > 0.0);
}
