//! Every `c3-bench` bin handles its command line through `c3_bench::cli`:
//! `--help` exits 0, and each malformed invocation exits 2 with the usage
//! on stderr instead of panicking. `modelcheck` also rejects model
//! configurations it cannot explore, and fails a truncated exploration.

use std::process::{Command, Output};

/// Every bin, with one of its numeric `--flag N` flags where it has any.
const BINS: [(&str, Option<&str>); 15] = [
    (env!("CARGO_BIN_EXE_ablation"), None),
    (env!("CARGO_BIN_EXE_chaos"), Some("--seed")),
    (env!("CARGO_BIN_EXE_fig9"), Some("--ops")),
    (env!("CARGO_BIN_EXE_fig10"), Some("--ops")),
    (env!("CARGO_BIN_EXE_fig11"), Some("--ops")),
    (env!("CARGO_BIN_EXE_metrics"), Some("--interval-ns")),
    (env!("CARGO_BIN_EXE_modelcheck"), Some("--ops")),
    (env!("CARGO_BIN_EXE_oltp"), Some("--ops")),
    (env!("CARGO_BIN_EXE_perf"), Some("--exchanges")),
    (env!("CARGO_BIN_EXE_protocheck"), None),
    (env!("CARGO_BIN_EXE_sweep"), Some("--threads")),
    (env!("CARGO_BIN_EXE_table1"), None),
    (env!("CARGO_BIN_EXE_table2"), None),
    (env!("CARGO_BIN_EXE_table4"), Some("--runs")),
    (env!("CARGO_BIN_EXE_trace"), Some("--cap")),
];

/// Names that resolve to nothing, one per kind of lookup, input files
/// that are missing or malformed, and model configurations the
/// fixed-size model state cannot hold or that would deadlock for a
/// reason other than a protocol bug.
const BAD_INPUTS: [(&str, &[&str]); 20] = [
    (env!("CARGO_BIN_EXE_table2"), &["BOGUS"]),
    (env!("CARGO_BIN_EXE_trace"), &["nosuch"]),
    (env!("CARGO_BIN_EXE_metrics"), &["nosuch"]),
    (env!("CARGO_BIN_EXE_sweep"), &["--workload", "nosuch"]),
    (env!("CARGO_BIN_EXE_fig10"), &["--workloads", "vips,nosuch"]),
    (env!("CARGO_BIN_EXE_protocheck"), &["--inject", "nosuch"]),
    (
        env!("CARGO_BIN_EXE_perf"),
        &["--alloc-budget", "no-such-budget.txt"],
    ),
    (
        env!("CARGO_BIN_EXE_perf"),
        &[
            "--alloc-budget",
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/data/budget_no_value.txt"
            ),
        ],
    ),
    (
        env!("CARGO_BIN_EXE_perf"),
        &[
            "--alloc-budget",
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/data/budget_bad_number.txt"
            ),
        ],
    ),
    (env!("CARGO_BIN_EXE_modelcheck"), &["--inject", "nosuch"]),
    (env!("CARGO_BIN_EXE_modelcheck"), &["--config", "4x1"]),
    (env!("CARGO_BIN_EXE_modelcheck"), &["--config", "0x1"]),
    (env!("CARGO_BIN_EXE_modelcheck"), &["--config", "2x3"]),
    (
        env!("CARGO_BIN_EXE_modelcheck"),
        &["--config", "2x1", "--faults", "2", "--retries", "1"],
    ),
    (
        env!("CARGO_BIN_EXE_modelcheck"),
        &["--config", "1x1", "--faults", "1", "--retries", "5"],
    ),
    (
        env!("CARGO_BIN_EXE_modelcheck"),
        &["--min-reduction", "nan"],
    ),
    (
        env!("CARGO_BIN_EXE_modelcheck"),
        &["--min-reduction", "inf"],
    ),
    (env!("CARGO_BIN_EXE_modelcheck"), &["--min-reduction", "0"]),
    (env!("CARGO_BIN_EXE_modelcheck"), &["--l1-cores", "3"]),
    (
        env!("CARGO_BIN_EXE_modelcheck"),
        &["--inject", "skip-recall-nesting"],
    ),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn bin")
}

fn assert_rejected(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}:\n{stderr}");
    assert!(
        stderr.contains("usage"),
        "{bin} {args:?}: no usage:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked:\n{stderr}"
    );
}

#[test]
fn help_exits_zero_with_usage() {
    for (bin, _) in BINS {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin} --help");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("usage"),
            "{bin} --help printed no usage"
        );
    }
}

#[test]
fn malformed_flags_exit_two_with_usage() {
    for (bin, numeric) in BINS {
        assert_rejected(bin, &["--no-such-flag"]);
        if let Some(flag) = numeric {
            assert_rejected(bin, &[flag]);
            assert_rejected(bin, &[flag, "x"]);
        }
    }
    assert_rejected(env!("CARGO_BIN_EXE_protocheck"), &["--inject"]);
    assert_rejected(env!("CARGO_BIN_EXE_trace"), &[]);
}

#[test]
fn bad_inputs_exit_two_with_usage() {
    for (bin, args) in BAD_INPUTS {
        assert_rejected(bin, args);
    }
}

#[test]
fn truncated_model_check_is_not_a_pass() {
    let out = run(
        env!("CARGO_BIN_EXE_modelcheck"),
        &["--config", "2x1", "--ops", "200", "--max-states", "1000"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("truncated"), "{stdout}");
    assert!(!stdout.contains("clean"), "{stdout}");
}

/// A bin whose reader closes stdout before the bin writes (as `| head`
/// does once it has its lines) ends quietly: no panic on the broken
/// pipe, no backtrace, exit status 0. `table1` is included for a bin
/// that prints as soon as it starts.
#[test]
fn closed_stdout_exits_quietly() {
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_modelcheck"),
            &["--config", "2x2", "--no-symmetry"][..],
        ),
        (env!("CARGO_BIN_EXE_table1"), &[][..]),
        (env!("CARGO_BIN_EXE_modelcheck"), &["--help"][..]),
    ] {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn bench bin");
        // Close the read end before the child can have written a line.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for bench bin");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("panicked"),
            "{bin} {args:?} panicked on a closed stdout:\n{stderr}"
        );
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}: {stderr}");
    }
}
