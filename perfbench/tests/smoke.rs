//! Runs every workload at minimum length, untraced and traced, and checks
//! that each declared metric is printed by name with its unit and lands in
//! the final JSON line.

use std::process::Command;
use std::sync::Mutex;

use ntcs_perfbench::report::{END_TO_END, PER_LAYER};
use ntcs_perfbench::workloads::Workload;

/// Shortest run at which every round still gathers enough samples for a
/// supported p99 on every workload.
const MIN_SECONDS: &str = "3";

/// Runs one benchmark process at a time: the workloads measure the host.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn run(workload: Workload, trace: bool) -> String {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let out = Command::new(env!("CARGO_BIN_EXE_ntcs-perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "1",
            "--seconds",
            if trace { "1" } else { MIN_SECONDS },
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{} trace={trace} failed: {stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(stdout: &str, declared: &[&str], workload: Workload) {
    let last = stdout.lines().last().expect("output");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    for name in declared {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("metric {name} = "))),
            "{}: {name} not printed\n{stdout}",
            workload.name()
        );
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{}: {name} missing from JSON: {last}",
            workload.name()
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in Workload::ALL {
        let out = run(w, false);
        check(&out, END_TO_END, w);
        assert!(out.contains("metric failed_ratio = "), "{out}");
        if w != Workload::Churn {
            assert!(out.contains("metric ops_per_s = "), "{out}");
        }
        if w == Workload::StreamChain {
            assert!(out.contains("metric mib_per_s = "), "{out}");
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in Workload::ALL {
        check(&run(w, true), PER_LAYER, w);
    }
}
