//! Metric names and units, the result documents the benchmark writes, and
//! `sysbench check`, which compares two of them against the bounds in
//! `BENCHMARK.json`.

use std::collections::BTreeMap;

use shmls_ir::json::Json;

/// The workloads, in the order `sysbench run` executes them.
pub const WORKLOADS: [&str; 7] = [
    "compile_cold",
    "exec_8m",
    "march_spatial",
    "march_temporal",
    "sim_designs",
    "serve_direct",
    "serve_routed",
];

/// End-to-end metrics `(name, unit)`: every workload reports every one,
/// from a run with tracing off. `BENCHMARK.json` holds their bounds.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms_p50", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported only by a traced run. A
/// workload measures the layers on its own path; a name it does not
/// measure reads 0. The units `count`, `cycles` and `bytes` promise a value
/// that repeats exactly for one seed (`req` counts requests within a timed
/// phase, which does not).
pub const PER_LAYER: [(&str, &str); 74] = [
    // compile_cold
    ("frontend.parse_us", "us"),
    ("frontend.parse_mb_per_s", "MB/s"),
    ("frontend.lower_us", "us"),
    ("ir.verify_us", "us"),
    ("ir.verify_calls", "count"),
    ("ir.print_us", "us"),
    ("ir.module_ops", "count"),
    ("ir.module_text_bytes", "bytes"),
    ("core.canonicalize_us", "us"),
    ("core.split_us", "us"),
    ("core.hmls_us", "us"),
    ("core.hmls.streams", "count"),
    ("core.hmls.compute_stages", "count"),
    ("core.cpu_lowering_us", "us"),
    ("core.llvm_lowering_us", "us"),
    ("core.fpp_us", "us"),
    ("core.bytecode_plans_us", "us"),
    ("core.compile.residual_pct", "%"),
    // exec_8m
    ("ir.interp.tree_elems_per_s", "1/s"),
    ("ir.bytecode.scalar_elems_per_s", "1/s"),
    ("ir.bytecode.chunked1_elems_per_s", "1/s"),
    // march_spatial, march_temporal
    ("fpga_sim.executor.elems_per_s", "1/s"),
    ("fpga_sim.executor.stream_elements", "count"),
    ("fpga_sim.executor.mem_beats", "count"),
    ("fpga_sim.threaded.elems_per_s", "1/s"),
    ("core.scale.overhead_pct", "%"),
    ("core.scale.parallel_speedup", "x"),
    ("core.scale.load_imbalance", "x"),
    ("core.scale.cache_hits", "count"),
    ("core.scale.cache_misses", "count"),
    ("core.scale.overlap_rows", "count"),
    ("core.cache.key_us", "us"),
    ("core.cache.hit_us", "us"),
    // sim_designs
    ("fpga_sim.design.extract_us", "us"),
    ("fpga_sim.cycle.cycles_pw", "cycles"),
    ("fpga_sim.cycle.cycles_tracer", "cycles"),
    ("fpga_sim.cycle.fires_per_s", "1/s"),
    ("fpga_sim.cycle.stalled_empty_cycles", "cycles"),
    ("fpga_sim.cycle.stalled_full_cycles", "cycles"),
    ("fpga_sim.cycle.simulated_mpts", "Mpts/s"),
    ("fpga_sim.perf.estimate_us", "us"),
    ("fpga_sim.perf.model_vs_sim_err_pct", "%"),
    ("fpga_sim.resources.estimate_us", "us"),
    ("baselines.speedup_vs_paper_err_pct", "%"),
    ("core.autotune.tune_ms", "ms"),
    ("core.autotune.candidates_simulated", "count"),
    ("core.autotune.candidates_pruned", "count"),
    ("core.autotune.redundant_compiles", "count"),
    // serve_direct, serve_routed
    ("serve.protocol.request_parse_us", "us"),
    ("serve.protocol.request_encode_us", "us"),
    ("serve.protocol.response_encode_us", "us"),
    ("serve.protocol.response_parse_us", "us"),
    ("serve.protocol.frame_bytes", "bytes"),
    ("ir.json.parse_mb_per_s", "MB/s"),
    ("core.persist.hit_us", "us"),
    ("core.persist.miss_us", "us"),
    ("core.persist.record_us", "us"),
    ("core.persist.encode_us", "us"),
    ("core.persist.decode_us", "us"),
    ("core.persist.disk_store_us", "us"),
    ("core.persist.disk_load_us", "us"),
    ("serve.latency_ms_p99", "ms"),
    ("serve.server.socket_residual_us", "us"),
    ("serve.server.memory_hits", "req"),
    ("serve.server.misses", "count"),
    ("serve.server.coalesced", "count"),
    ("serve.server.cold_compiles_per_s", "1/s"),
    ("serve.router.routing_key_us", "us"),
    ("serve.router.ring_route_ns", "ns"),
    ("serve.router.hop_us", "us"),
    ("serve.router.forwarded", "req"),
    ("serve.router.replays", "count"),
    ("serve.router.unroutable", "count"),
    // every workload
    ("tracing_overhead_pct", "%"),
];

/// Per-layer metrics that are not counts but still repeat exactly: they
/// are simulated quantities, not host timings.
const EXACT_LAYERS: [&str; 3] = [
    "fpga_sim.cycle.simulated_mpts",
    "fpga_sim.perf.model_vs_sim_err_pct",
    "baselines.speedup_vs_paper_err_pct",
];

/// Output checks of one run: operations attempted and those whose output
/// was wrong, with a line of explanation per failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and checks performed.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// What failed (capped; the counts are complete).
    pub notes: Vec<String>,
}

impl Checks {
    /// Count `n` operations whose outputs the caller has verified.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one check; `note` is rendered only when it failed.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(note());
        }
    }

    /// Count one failure among operations already counted as attempted.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Output checks.
    pub checks: Checks,
    /// `(metric, value)` pairs: the end-to-end metrics from an untraced
    /// run, per-layer metrics from a traced one.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra `name value unit` facts for the human-readable listing
    /// (sample counts, quartiles, the percentile behind the tail).
    pub facts: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The value recorded for a metric, if the run measured it.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, value)| value)
    }

    /// Record a fact for the listing.
    pub fn fact(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.facts.push((name.into(), value, unit));
    }
}

/// The contract's result object for one run: every metric of `table`,
/// reading 0 where the run did not measure it.
pub fn result_json(result: &RunResult, table: &[(&str, &str)]) -> Json {
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = result.value(name).unwrap_or(0.0);
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(result.checks.failed == 0)),
        (
            "attempted".to_string(),
            Json::Num(result.checks.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Json::Num(result.checks.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
}

/// A result set: `{"host": {...}, "seed": n, "workloads": {name: {"end_to_end":
/// result, "per_layer": result}}}`; the traced half is there when the run
/// was asked for it.
pub fn result_set(cpus: usize, seed: u64, workloads: Vec<(String, Json, Option<Json>)>) -> Json {
    let workloads = workloads
        .into_iter()
        .map(|(name, end_to_end, per_layer)| {
            let mut halves = vec![("end_to_end".to_string(), end_to_end)];
            if let Some(doc) = per_layer {
                halves.push(("per_layer".to_string(), doc));
            }
            (name, Json::Obj(halves))
        })
        .collect();
    Json::Obj(vec![
        (
            "host".to_string(),
            Json::Obj(vec![("cpus".to_string(), Json::Num(cpus as f64))]),
        ),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("workloads".to_string(), Json::Obj(workloads)),
    ])
}

/// Bound and direction of one end-to-end metric, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Share of the baseline by which the metric may worsen.
    pub bound: f64,
    /// Whether larger values are better.
    pub higher_is_better: bool,
}

/// Read the end-to-end bounds out of a `BENCHMARK.json` document.
pub fn bounds(benchmark: &Json) -> Result<BTreeMap<String, Bound>, String> {
    let entries = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?;
    entries
        .iter()
        .map(|entry| {
            let text = |key: &str| {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .ok_or(format!("end_to_end entry without `{key}`"))
            };
            let bound = entry
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("end_to_end entry without `bound`")?;
            let higher_is_better = match text("better")? {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("unknown direction `{other}`")),
            };
            Ok((
                text("name")?.to_string(),
                Bound {
                    bound,
                    higher_is_better,
                },
            ))
        })
        .collect()
}

fn metric_values(result: &Json) -> Vec<(&str, f64, &str)> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.as_str(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?,
            ))
        })
        .collect()
}

/// Compare result set `candidate` against `baseline`: an end-to-end metric
/// breaches when it is worse than the baseline by more than its bound (or
/// by an amount that is not a number), a deterministic per-layer metric (a
/// count, or a simulated quantity) when it differs at all, any metric of
/// the baseline when the candidate lacks it, and a workload when an output
/// check failed. Returns the report lines and the number of breaches.
pub fn compare(
    baseline: &Json,
    candidate: &Json,
    bounds: &BTreeMap<String, Bound>,
) -> (Vec<String>, usize) {
    let mut lines = Vec::new();
    let mut breaches = 0;
    let empty: &[(String, Json)] = &[];
    let base_workloads = baseline
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or(empty);
    for (workload, base) in base_workloads {
        let Some(cand) = candidate.get("workloads").and_then(|w| w.get(workload)) else {
            lines.push(format!("{workload}: missing from the candidate set"));
            breaches += 1;
            continue;
        };
        for half in ["end_to_end", "per_layer"] {
            let (Some(base), Some(cand)) = (base.get(half), cand.get(half)) else {
                continue;
            };
            if cand.get("correct") != Some(&Json::Bool(true)) {
                lines.push(format!("{workload} {half}: BREACH output checks failed"));
                breaches += 1;
            }
            let cand_values = metric_values(cand);
            for (name, a, unit) in metric_values(base) {
                let Some(&(_, b, _)) = cand_values.iter().find(|(n, _, _)| *n == name) else {
                    lines.push(format!(
                        "{workload} {name}: BREACH missing from the candidate set"
                    ));
                    breaches += 1;
                    continue;
                };
                let verdict = if half == "end_to_end" {
                    let Some(limit) = bounds.get(name) else {
                        continue;
                    };
                    let worse_by = if limit.higher_is_better {
                        (a - b) / a
                    } else {
                        (b - a) / a
                    };
                    // A zero or missing baseline gives no ratio to hold the
                    // candidate to: that is a breach, not a pass.
                    let verdict = if worse_by.is_finite() && worse_by <= limit.bound {
                        "ok"
                    } else {
                        breaches += 1;
                        "BREACH"
                    };
                    format!(
                        "{verdict} worse by {:+.2}% (bound {:.0}%)",
                        worse_by * 100.0,
                        limit.bound * 100.0
                    )
                } else if matches!(unit, "count" | "cycles" | "bytes")
                    || EXACT_LAYERS.contains(&name)
                {
                    if a == b {
                        "ok identical".to_string()
                    } else {
                        breaches += 1;
                        "BREACH must repeat exactly".to_string()
                    }
                } else {
                    "info".to_string()
                };
                lines.push(format!("{workload} {name} {a} -> {b} {unit}: {verdict}"));
            }
        }
    }
    (lines, breaches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(latency_ms: f64, cycles: f64, correct: bool) -> Json {
        let mut e2e = RunResult::default();
        e2e.checks.passed(10);
        if !correct {
            e2e.checks.fail("wrong".to_string());
        }
        e2e.metric("latency_ms_p50", latency_ms);
        e2e.metric("setup_s", 1.0);
        let mut layers = RunResult::default();
        layers.checks.passed(1);
        layers.metric("fpga_sim.cycle.cycles_pw", cycles);
        layers.metric("fpga_sim.design.extract_us", latency_ms);
        result_set(
            2,
            1,
            vec![(
                "sim_designs".to_string(),
                result_json(&e2e, &END_TO_END),
                Some(result_json(&layers, &PER_LAYER)),
            )],
        )
    }

    fn test_bounds() -> BTreeMap<String, Bound> {
        let doc = Json::parse(
            r#"{"end_to_end": [
                {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        bounds(&doc).unwrap()
    }

    #[test]
    fn result_json_has_every_metric_and_zero_for_unmeasured() {
        let mut r = RunResult::default();
        r.checks.passed(3);
        r.metric("setup_s", 0.5);
        let doc = result_json(&r, &END_TO_END);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(3));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            doc.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("value"),
            Some(&Json::Num(0.5))
        );
        assert_eq!(
            doc.get("metrics")
                .unwrap()
                .get("latency_ms_p50")
                .unwrap()
                .get("value"),
            Some(&Json::Num(0.0))
        );
    }

    #[test]
    fn compare_applies_bounds_by_direction() {
        let b = test_bounds();
        // 5% slower is within the 10% bound; 20% slower is not; faster is fine.
        assert_eq!(
            compare(&set(100.0, 7.0, true), &set(105.0, 7.0, true), &b).1,
            0
        );
        assert_eq!(
            compare(&set(100.0, 7.0, true), &set(120.0, 7.0, true), &b).1,
            1
        );
        assert_eq!(
            compare(&set(100.0, 7.0, true), &set(60.0, 7.0, true), &b).1,
            0
        );
        // Where higher is better, a fall breaches and a rise does not.
        let higher = Bound {
            bound: 0.1,
            higher_is_better: true,
        };
        let b = BTreeMap::from([("peak_rss_mb".to_string(), higher)]);
        let with_memory = |mb: f64| {
            let mut e2e = RunResult::default();
            e2e.checks.passed(1);
            e2e.metric("peak_rss_mb", mb);
            let doc = result_json(&e2e, &[("peak_rss_mb", "MB")]);
            result_set(2, 1, vec![("exec_8m".to_string(), doc, None)])
        };
        assert_eq!(compare(&with_memory(100.0), &with_memory(80.0), &b).1, 1);
        assert_eq!(compare(&with_memory(100.0), &with_memory(120.0), &b).1, 0);
    }

    #[test]
    fn compare_requires_counts_to_repeat_and_outputs_to_be_correct() {
        let b = test_bounds();
        let (lines, breaches) = compare(&set(100.0, 7.0, true), &set(100.0, 8.0, true), &b);
        assert_eq!(breaches, 1, "{lines:?}");
        assert_eq!(
            compare(&set(100.0, 7.0, true), &set(100.0, 7.0, false), &b).1,
            1
        );
        let missing = result_set(2, 1, Vec::new());
        assert_eq!(compare(&set(100.0, 7.0, true), &missing, &b).1, 1);
    }

    #[test]
    fn compare_counts_a_dropped_metric_and_a_zero_baseline_as_breaches() {
        let b = test_bounds();
        let full = set(100.0, 7.0, true);
        let mut e2e = RunResult::default();
        e2e.checks.passed(10);
        let dropped = result_set(
            2,
            1,
            vec![(
                "sim_designs".to_string(),
                result_json(&e2e, &[("setup_s", "s")]),
                None,
            )],
        );
        let (lines, breaches) = compare(&full, &dropped, &b);
        // Every end-to-end metric but `setup_s` is gone from the candidate.
        assert_eq!(breaches, END_TO_END.len() - 1, "{lines:?}");
        // 0 -> 0 is NaN, 0 -> 5 is infinite: neither passes.
        assert_eq!(compare(&set(0.0, 7.0, true), &set(0.0, 7.0, true), &b).1, 1);
        assert_eq!(compare(&set(0.0, 7.0, true), &set(5.0, 7.0, true), &b).1, 1);
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(bounds(&doc).unwrap().len(), END_TO_END.len());
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
