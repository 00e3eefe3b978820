//! Runs every workload through the library at a reduced size and checks
//! the benchmark's own contract: traced rounds reproduce untraced rounds,
//! the trace covers the traced time, every reported metric is declared in
//! `BENCHMARK.json`, and a malformed command line exits 2.

use std::path::PathBuf;
use std::process::Command;

use tics_bench::Json;
use tics_perf::{run, Options, Report, Workload};

/// A fiftieth of the benchmark's round, one round per pass.
fn options(workload: Workload, traced: bool) -> Options {
    Options {
        seed: 7,
        seconds: 0.0,
        traced,
        size: 0.02,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(workload.name()),
    }
}

/// The metric names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn assert_names(report: &Report, key: &str) {
    let names: Vec<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
    for name in &names {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "metric name {name:?} is not [A-Za-z0-9_.-]+"
        );
    }
    assert_eq!(
        names,
        declared(key),
        "{} metrics vs BENCHMARK.json {key}",
        report.workload.name()
    );
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

fn check(workload: Workload) {
    let untraced = run(workload, &options(workload, false)).expect("untraced run");
    assert!(untraced.correct(), "{:?}", untraced.problems);
    assert!(untraced.attempted > 0);
    assert_eq!(untraced.failed, 0);
    assert_names(&untraced, "end_to_end");

    let traced = run(workload, &options(workload, true)).expect("traced run");
    assert!(traced.correct(), "{:?}", traced.problems);
    assert_eq!(
        traced.totals, untraced.totals,
        "traced totals differ from untraced"
    );
    assert_names(&traced, "per_layer");
    let coverage = traced.metric("trace.coverage").expect("trace.coverage");
    assert!(coverage >= 0.95, "trace.coverage {coverage}");
    assert!(traced.metric("vm.exec.runs").expect("vm.exec.runs") > 0.0);

    let dir = options(workload, true).out_dir;
    for file in ["trace.json", "layers.txt"] {
        let path = dir.join(format!("{}.{file}", workload.name()));
        assert!(path.exists(), "{} was not written", path.display());
    }
}

#[test]
fn fleet() {
    check(Workload::Fleet);
}

#[test]
fn dispatch() {
    check(Workload::Dispatch);
}

#[test]
fn checkpoint() {
    check(Workload::Checkpoint);
}

#[test]
fn fault() {
    check(Workload::Fault);
}

#[test]
fn malformed_command_lines_exit_2() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload"],
        &["--seed", "abc"],
        &["--seed", "-1"],
        &["--seconds", "soon"],
        &["--trace", "2"],
        &["--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tics-perf"))
            .args(args)
            .output()
            .expect("the binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}
