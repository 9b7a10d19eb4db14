//! Runs every workload in smoke mode (tiny inputs, every output check) in
//! both the untraced and the traced mode, and checks that the metrics the
//! benchmark prints are exactly the ones `BENCHMARK.json` declares.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["study_cold", "study_warm", "serve_stream"];

/// Runs one smoke workload and returns its last line of standard output.
fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_prism-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The metric names of a result line, in order.
fn metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    let parts: Vec<&str> = metrics.split("\": {\"value\"").collect();
    parts[..parts.len() - 1]
        .iter()
        .map(|part| part[part.rfind('"').expect("quoted name") + 1..].to_string())
        .collect()
}

#[test]
fn every_workload_passes_its_checks_in_both_modes() {
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{workload}: {line}"
            );
            assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
        }
    }
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    let declared =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let declared_names = declared.matches("\"name\":").count();
    let e2e = metric_names(&run("study_cold", "0"));
    let layers = metric_names(&run("study_cold", "1"));
    assert!(!e2e.is_empty() && !layers.is_empty());
    for name in e2e.iter().chain(&layers) {
        assert!(
            declared.contains(&format!("\"name\": \"{name}\"")),
            "{name} is not declared"
        );
    }
    for workload in WORKLOADS {
        assert!(
            declared.contains(&format!("\"name\": \"{workload}\"")),
            "{workload} is not declared"
        );
    }
    assert_eq!(declared_names, WORKLOADS.len() + e2e.len() + layers.len());
}
