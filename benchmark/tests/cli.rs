//! The command line end to end: a run prints the contract's result line and
//! exits 0; a run whose oracle is fed a deliberately wrong row counts the
//! failure and exits non-zero; `compare` refuses runs of different shapes.
//! Run with `cargo test --release` (the kernel is slow in a debug build).

use std::path::PathBuf;
use std::process::{Command, Output};

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obliv-benchmark-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a temporary directory");
    dir
}

fn run(trace: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obliv-benchmark"))
        .args(["--workload", "kernel_expanding", "--seed", "5"])
        .args(["--seconds", "1", "--trace", trace, "--out"])
        .arg(temp_dir())
        .args(extra)
        .output()
        .expect("the benchmark binary starts")
}

fn last_line(output: &Output) -> String {
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout.lines().last().unwrap_or_default().to_string()
}

#[test]
fn a_clean_run_prints_the_result_line_and_exits_zero() {
    let output = run("0", &[]);
    assert!(output.status.success(), "{output:?}");
    let line = last_line(&output);
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
    assert!(line.contains("\"failed\":0,"), "{line}");
    for metric in [
        "op_p50_ms",
        "op_tail_ms",
        "ops_per_s",
        "cpu_ms_per_op",
        "setup_s",
        "peak_rss_mb",
    ] {
        assert!(
            line.contains(&format!("\"{metric}\":{{\"value\":")),
            "{metric} missing: {line}"
        );
    }
}

#[test]
fn a_wrong_row_fails_the_run() {
    for trace in ["0", "1"] {
        let output = run(trace, &["--inject-wrong-row"]);
        assert_eq!(output.status.code(), Some(1), "{output:?}");
        let line = last_line(&output);
        assert!(line.starts_with("{\"correct\":false,"), "{line}");
        assert!(line.contains("\"failed\":1,"), "{line}");
        assert!(String::from_utf8_lossy(&output.stderr).contains("differ from the oracle"));
        // The traced run also reports the failure as a share of its ops.
        let share = line.split("\"failed_share\":{\"value\":").nth(1);
        match trace {
            "0" => assert!(share.is_none(), "{line}"),
            _ => assert!(share.is_some_and(|s| !s.starts_with("0,")), "{line}"),
        }
    }
}

#[test]
fn compare_refuses_runs_of_different_shapes() {
    let dir = temp_dir();
    let file = |name: &str, rounds: u32| {
        let path = dir.join(name);
        let text = format!("{{\"run_seconds\":15,\"rounds\":{rounds},\"nproc\":2}}");
        std::fs::write(&path, text).expect("write a results file");
        path
    };
    let output = Command::new(env!("CARGO_BIN_EXE_obliv-benchmark"))
        .arg("compare")
        .args([file("three.json", 3), file("four.json", 4)])
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    assert!(String::from_utf8_lossy(&output.stderr).contains("`rounds` differs"));
}

#[test]
fn unknown_input_is_a_usage_error() {
    for args in [
        &["--workload", "nope"][..],
        &["--bogus", "1"],
        &["frobnicate"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_obliv-benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary starts");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
