//! Tests for the `repro bench` / `repro compare` ledger: compare
//! classification, JSON round-tripping, and the benchmark itself — that it
//! repeats exactly, and which rows it may hold.

use std::sync::OnceLock;

use shmls_bench::telemetry::{
    compare, run_bench, BenchReport, Better, Metric, RowStatus, SCHEMA_VERSION,
};

/// The gate's tolerance in CI and the `repro compare` default.
const TOLERANCE: f64 = 2.0;

fn metric(value: f64, unit: &str, better: Better) -> Metric {
    Metric {
        value,
        unit: unit.to_string(),
        better,
    }
}

fn report(metrics: Vec<(&str, Metric)>) -> BenchReport {
    BenchReport {
        schema_version: SCHEMA_VERSION,
        git_rev: "test".to_string(),
        metrics: metrics
            .into_iter()
            .map(|(k, m)| (k.to_string(), m))
            .collect(),
    }
}

/// Two back-to-back runs of the benchmark, shared by the tests below.
fn bench_twice() -> &'static [BenchReport; 2] {
    static RUNS: OnceLock<[BenchReport; 2]> = OnceLock::new();
    RUNS.get_or_init(|| [(); 2].map(|()| run_bench().expect("bench runs")))
}

fn row_status(rep: &shmls_bench::telemetry::CompareReport, key: &str) -> RowStatus {
    rep.rows
        .iter()
        .find(|r| r.metric == key)
        .unwrap_or_else(|| panic!("row `{key}` missing"))
        .status
}

#[test]
fn deterministic_regression_detected() {
    let base = report(vec![(
        "sim/k/cycles",
        metric(1000.0, "cycles", Better::Lower),
    )]);
    let new = report(vec![(
        "sim/k/cycles",
        metric(1100.0, "cycles", Better::Lower),
    )]);
    let rep = compare(&base, &new, TOLERANCE).unwrap();
    assert_eq!(row_status(&rep, "sim/k/cycles"), RowStatus::Regressed);
    assert_eq!(rep.regressions(), 1);
}

#[test]
fn within_tolerance_is_ok() {
    let base = report(vec![(
        "sim/k/cycles",
        metric(1000.0, "cycles", Better::Lower),
    )]);
    let new = report(vec![(
        "sim/k/cycles",
        metric(1010.0, "cycles", Better::Lower),
    )]);
    let rep = compare(&base, &new, TOLERANCE).unwrap();
    assert_eq!(row_status(&rep, "sim/k/cycles"), RowStatus::Ok);
    assert_eq!(rep.regressions(), 0);
}

#[test]
fn higher_is_better_direction_respected() {
    // A speed-up dropping is a regression; a speed-up rising is not.
    let at = |value| {
        report(vec![(
            "dse/k/best_speedup",
            metric(value, "x", Better::Higher),
        )])
    };
    let rep = compare(&at(4.0), &at(2.0), TOLERANCE).unwrap();
    assert_eq!(row_status(&rep, "dse/k/best_speedup"), RowStatus::Regressed);
    let rep = compare(&at(4.0), &at(8.0), TOLERANCE).unwrap();
    assert_eq!(row_status(&rep, "dse/k/best_speedup"), RowStatus::Improved);
}

#[test]
fn collapse_of_a_higher_is_better_row_clears_a_loose_tolerance() {
    // Higher-is-better rows compare as a ratio: halving is a 100%
    // degradation, which must clear a 75% tolerance. (Negating the plain
    // delta would cap it at 50%.)
    let at = |value| {
        report(vec![(
            "dse/k/best_speedup",
            metric(value, "x", Better::Higher),
        )])
    };
    let status = |new| {
        row_status(
            &compare(&at(4.0), &at(new), 75.0).unwrap(),
            "dse/k/best_speedup",
        )
    };
    assert_eq!(status(2.0), RowStatus::Regressed);
    // A collapse to zero is unboundedly worse and must also gate.
    assert_eq!(status(0.0), RowStatus::Regressed);
    // A mild drop stays inside the tolerance.
    assert_eq!(status(3.2), RowStatus::Ok);
}

#[test]
fn missing_metric_gates() {
    let base = report(vec![(
        "sim/k/cycles",
        metric(1000.0, "cycles", Better::Lower),
    )]);
    let new = report(vec![]);
    let rep = compare(&base, &new, TOLERANCE).unwrap();
    assert_eq!(row_status(&rep, "sim/k/cycles"), RowStatus::MissingInNew);
    assert_eq!(rep.regressions(), 1);
}

#[test]
fn new_metric_is_informational() {
    let base = report(vec![]);
    let new = report(vec![(
        "sim/k/cycles",
        metric(1000.0, "cycles", Better::Lower),
    )]);
    let rep = compare(&base, &new, TOLERANCE).unwrap();
    assert_eq!(row_status(&rep, "sim/k/cycles"), RowStatus::New);
    assert_eq!(rep.regressions(), 0);
}

#[test]
fn schema_mismatch_is_an_error() {
    let base = report(vec![]);
    let mut new = report(vec![]);
    new.schema_version = SCHEMA_VERSION + 1;
    let err = compare(&base, &new, TOLERANCE).unwrap_err();
    assert!(err.contains("schema version mismatch"), "{err}");
}

#[test]
fn v1_report_is_refused() {
    // A schema-v1 file (`mode`, `host`, a `noise` class per row) still
    // parses, and `compare` refuses it with the refresh-the-baseline error
    // instead of diffing rows that no longer mean the same thing.
    let v1 = r#"{
      "schema_version": 1, "mode": "quick", "git_rev": "712c00c95e37",
      "host": {"os": "linux", "arch": "x86_64", "cpus": 2},
      "metrics": {"sim/k/cycles":
        {"value": 964, "unit": "cycles", "better": "lower", "noise": "deterministic"}}
    }"#;
    let base = BenchReport::from_json(v1).unwrap();
    assert_eq!(base.schema_version, 1);
    let new = report(vec![(
        "sim/k/cycles",
        metric(964.0, "cycles", Better::Lower),
    )]);
    let err = compare(&base, &new, TOLERANCE).unwrap_err();
    assert!(err.contains("baseline v1 vs new v2"), "{err}");
    assert!(err.contains("refresh the baseline"), "{err}");
    // Two v1 files are no better: this tool does not read that schema.
    let err = compare(&base, &base, TOLERANCE).unwrap_err();
    assert!(err.contains("v1 not supported"), "{err}");
}

#[test]
fn report_json_round_trips() {
    let rep = report(vec![
        ("sim/k/cycles", metric(964.0, "cycles", Better::Lower)),
        (
            "scale/k/model_load_imbalance",
            metric(1.0588235294117647, "ratio", Better::Lower),
        ),
        (
            "dse/k/best_speedup",
            metric(4.822349570200573, "x", Better::Higher),
        ),
    ]);
    let text = rep.to_json();
    let back = BenchReport::from_json(&text).unwrap();
    assert_eq!(back, rep);
}

#[test]
fn non_finite_metric_is_rejected_on_parse() {
    // A NaN metric serialises as `null`, and parsing the report back
    // fails loudly instead of recording a bogus value that might slip
    // through the gate.
    let rep = report(vec![(
        "dse/k/best_speedup",
        metric(f64::NAN, "x", Better::Higher),
    )]);
    let text = rep.to_json();
    assert!(text.contains("null"), "{text}");
    let err = BenchReport::from_json(&text).unwrap_err();
    assert!(err.contains("missing numeric `value`"), "{err}");
}

#[test]
fn malformed_json_is_rejected() {
    assert!(BenchReport::from_json("{").is_err());
    assert!(BenchReport::from_json("{}").is_err()); // no schema_version
    assert!(BenchReport::from_json(r#"{"schema_version": 1}"#).is_err()); // no metrics
}

#[test]
fn quick_bench_round_trips_and_self_compares_clean() {
    // The benchmark runs, serialises, parses back identically, and a
    // self-compare at zero tolerance reports zero deltas: the contract
    // the CI bench job relies on.
    let rep = &bench_twice()[0];
    assert_eq!(rep.schema_version, SCHEMA_VERSION);
    let back = BenchReport::from_json(&rep.to_json()).unwrap();
    assert_eq!(&back, rep);

    let cmp = compare(rep, &back, 0.0).unwrap();
    assert_eq!(cmp.regressions(), 0);
    assert!(cmp
        .rows
        .iter()
        .all(|r| r.status == RowStatus::Ok && r.delta_pct == Some(0.0)));
}

#[test]
fn bench_repeats_exactly() {
    // Nothing in the ledger may depend on the clock, the scheduler or an
    // iteration order: two runs in one process agree row for row.
    let [first, second] = bench_twice();
    assert_eq!(first.metrics, second.metrics);
}

#[test]
fn ledger_rows_and_units_are_pinned() {
    // A row cannot vanish, and none can come back under a time or rate
    // unit (`ms`, `elems/s`, `req/s`): those belong to sysbench.
    const UNITS: [&str; 8] = [
        "count", "cycles", "beats", "elems", "bytes", "ratio", "x", "passes",
    ];
    const DESIGN: [&str; 4] = ["compute_stages", "dup_stages", "shift_buffers", "streams"];
    let mut expected: Vec<String> = Vec::new();
    for (kernel, sizes) in [
        ("pw_advection", &["8M", "32M", "134M"][..]),
        ("tracer_advection", &["8M", "33M"]),
    ] {
        for size in sizes {
            expected.extend(DESIGN.map(|row| format!("design/{kernel}/{size}/{row}")));
        }
        for row in ["cycles", "mem_beats", "stepped_cycles", "stream_elements"] {
            expected.push(format!("sim/{kernel}/{row}"));
        }
    }
    for kernel in ["heat3d", "pw_advection", "tracer_advection"] {
        for row in [
            "host_applies",
            "sweep_copied_bytes",
            "sweep_dispatches",
            "sweep_gathered",
            "sweep_temp_bytes",
        ] {
            expected.push(format!("interp/{kernel}/{row}"));
        }
    }
    expected.extend(
        [
            "dse/heat3d/best_speedup",
            "dse/heat3d/candidates_pruned",
            "dse/heat3d/candidates_simulated",
            "dse/heat3d/frontier_size",
            "dse/heat3d/redundant_compiles",
            "scale/pw_advection/cache_hit_rate",
            "scale/pw_advection/model_load_imbalance",
            "scale/pw_advection/model_makespan_cycles",
            "serve/loadgen/error_rate",
            "serve/loadgen/warm_hit_rate",
            "serve/router_error_rate",
            "serve/router_warm_hit_rate",
            "temporal/heat3d/cycle_speedup",
            "temporal/heat3d/deep_sweep_cycles",
            "temporal/heat3d/model_passes_depth4",
            "temporal/heat3d/pass_reduction",
        ]
        .map(String::from),
    );
    expected.sort();
    let rep = &bench_twice()[0];
    assert_eq!(rep.metrics.keys().cloned().collect::<Vec<_>>(), expected);
    for (key, m) in &rep.metrics {
        assert!(UNITS.contains(&m.unit.as_str()), "{key}: unit `{}`", m.unit);
    }
}
