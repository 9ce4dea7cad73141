//! `repro` as a process: exit codes 0 / 1 / 2, what lands on which
//! stream, a reader that closes the pipe, and the autotuner's report
//! against the committed golden.

use std::process::{Command, Output, Stdio};

use shmls_bench::telemetry::{BenchReport, Better, Metric, SCHEMA_VERSION};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("utf-8 output")
}

/// A one-row ledger file in a scratch directory of this test's own.
fn ledger(dir: &std::path::Path, name: &str, cycles: f64) -> String {
    let metric = Metric {
        value: cycles,
        unit: "cycles".to_string(),
        better: Better::Lower,
    };
    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        git_rev: "test".to_string(),
        metrics: [("sim/k/cycles".to_string(), metric)].into(),
    };
    let path = dir.join(name);
    std::fs::write(&path, report.to_json()).expect("scratch file");
    path.to_str().expect("utf-8 path").to_string()
}

#[test]
fn a_successful_command_exits_0_with_its_report_on_stdout() {
    let out = repro(&["run", "--kernel", "heat3d", "--cus", "2", "--steps", "2"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    // The header names the lanes the vector engine ran at, one of the
    // two copies of its block path.
    let first = "heat3d [16, 14, 10]: 2 step(s) over 2 compute unit(s) at temporal depth 1 \
                 on the vector engine (";
    let stdout = text(&out.stdout);
    let lanes = stdout
        .strip_prefix(first)
        .and_then(|rest| rest.split_once('\n'));
    assert!(
        matches!(
            lanes,
            Some(("avx2+fma lanes, parallel)" | "baseline lanes, parallel)", _))
        ),
        "{stdout}"
    );
    assert!(out.stderr.is_empty());
    let stream = repro(&[
        "run", "--kernel", "heat3d", "--steps", "1", "--engine", "stream",
    ]);
    assert!(
        text(&stream.stdout).contains(" on the stream engine (parallel)\n"),
        "{}",
        text(&stream.stdout)
    );

    let help = repro(&["help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(text(&help.stdout).starts_with("repro figure4 "));
}

#[test]
fn a_failed_run_or_gate_exits_1_with_one_prefixed_line() {
    // The march's own structured error, not an argv error.
    let out = repro(&["run", "--depth", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert!(
        text(&out.stderr).starts_with("repro run: "),
        "{}",
        text(&out.stderr)
    );
    assert_eq!(text(&out.stderr).lines().count(), 1);

    // A regression: the table on stdout, the verdict in the exit code.
    let dir = std::env::temp_dir().join(format!("shmls-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let (base, slower) = (
        ledger(&dir, "base.json", 1000.0),
        ledger(&dir, "new.json", 1100.0),
    );
    let regressed = repro(&["compare", &base, &slower]);
    assert_eq!(regressed.status.code(), Some(1));
    assert!(text(&regressed.stdout).contains("sim/k/cycles"));
    assert!(text(&regressed.stderr).starts_with("repro compare: 1 regression(s)"));
    let same = repro(&["compare", &base, &base, "--tolerance", "0"]);
    assert_eq!(same.status.code(), Some(0), "{}", text(&same.stderr));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_refused_command_line_exits_2_naming_the_flag() {
    for (args, named) in [
        (
            &["bogus"][..],
            "repro bogus: unknown command\nrepro figure4 ",
        ),
        (
            &["run", "--engine", "bogus"],
            "repro run: `--engine` needs one of vector|stream|threaded",
        ),
        (
            &["fuzz", "--engine", "gpu"],
            "repro fuzz: `--engine` needs one of bytecode|vector|cpu|stream|threaded|cycle",
        ),
        // The executor's schedules and the vector tier are called what
        // `repro run` calls them.
        (
            &["fuzz", "--engine", "hls"],
            "repro fuzz: `--engine` needs one of bytecode|vector|cpu|stream|threaded|cycle",
        ),
        (
            &["fuzz", "--engine", "simd"],
            "repro fuzz: `--engine` needs one of bytecode|vector|cpu|stream|threaded|cycle",
        ),
        (
            &["tune", "--kernel", "nope"],
            "repro tune: `--kernel` needs one of heat3d|laplace|pw_advection|tracer_advection",
        ),
        (
            &["route", "--chaos-restart", "5"],
            "repro route: `--chaos-restart` needs `--chaos-kill`",
        ),
        (
            &["run", "--grid", "100000,100000,100000"],
            "repro run: `--grid 100000,100000,100000`: cannot allocate the \
             48002880057600384 bytes of its 6 padded fields",
        ),
        (
            &["run", "--grid", "4294967296,4294967296,2"],
            "repro run: `--grid 4294967296,4294967296,2`: the bytes of its 6 padded \
             fields overflow 64 bits",
        ),
        (
            &["compare"],
            "repro compare: needs <baseline.json> and <new.json>",
        ),
        (
            &["compare", "missing-a.json", "missing-b.json"],
            "repro compare: cannot read `missing-a.json`",
        ),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(
            text(&out.stderr).starts_with(named),
            "{args:?}: {}",
            text(&out.stderr)
        );
    }
}

/// One list of tiers: every engine `repro run` marches on, `repro fuzz`
/// checks under the same name, and both headers name it so.
#[test]
fn every_run_engine_is_a_fuzz_engine_of_the_same_name() {
    for engine in stencil_hmls::engine::NAMED {
        let name = engine.name();
        let run = repro(&[
            "run", "--kernel", "heat3d", "--steps", "1", "--engine", name,
        ]);
        assert_eq!(run.status.code(), Some(0), "{}", text(&run.stderr));
        let on = format!(" on the {name} engine (");
        assert!(text(&run.stdout).contains(&on), "{}", text(&run.stdout));
        let fuzz = repro(&["fuzz", "--cases", "1", "--no-scale", "--engine", name]);
        assert_eq!(fuzz.status.code(), Some(0), "{}", text(&fuzz.stderr));
        let header = format!("fuzzing 1 cases, seed 1, engines [{name}]\n");
        assert!(
            text(&fuzz.stdout).starts_with(&header),
            "{}",
            text(&fuzz.stdout)
        );
    }
}

#[test]
fn a_closed_pipe_is_not_a_panic() {
    // `repro … | head -1` once the reader is gone: every write fails with
    // EPIPE.
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("validate")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty(), "{}", text(&out.stderr));
}

#[test]
fn tune_prints_the_committed_golden_byte_for_byte() {
    let out = repro(&["tune", "--kernel", "heat3d", "--quick", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let golden = include_str!("../../../tests/golden/tune_heat3d_quick.json");
    assert_eq!(text(&out.stdout), golden);
}
