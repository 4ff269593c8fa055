//! perfbench checks its arguments before measuring anything: a missing
//! output path, or a `--check-against` baseline it cannot use, exits 2 at
//! once and writes no JSON.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A full measurement run takes minutes; rejecting the baseline takes
/// milliseconds. Anything slower means the run started.
const PROMPT: Duration = Duration::from_secs(30);

/// A per-test scratch path under the system temp directory.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("perfbench_args_{}_{name}", std::process::id()))
}

/// Runs perfbench writing to `out` and gated against `baseline`, and
/// returns its exit code and stderr.
fn run_perfbench(out: &PathBuf, baseline: &PathBuf) -> (Option<i32>, String) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    command.arg(out).arg("--check-against").arg(baseline);
    run_promptly(command)
}

/// Runs `command` and returns its exit code and stderr. Kills it and fails
/// if it is not done within [`PROMPT`].
fn run_promptly(mut command: Command) -> (Option<i32>, String) {
    let mut child = command
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("perfbench starts");
    let start = Instant::now();
    while child.try_wait().expect("perfbench can be polled").is_none() {
        if start.elapsed() > PROMPT {
            child.kill().expect("perfbench can be killed");
            panic!("perfbench did not exit within {PROMPT:?}: {command:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("perfbench output");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// The output path is required: given only a baseline, perfbench exits 2
/// with its usage and writes nothing in its working directory, so no
/// default report name can overwrite a committed file.
#[test]
fn missing_output_path_exits_2_before_measuring() {
    let dir = scratch("no_output");
    std::fs::create_dir(&dir).expect("create the working directory");
    let pr9 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR9.json");
    let mut command = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    command.current_dir(&dir).arg("--check-against").arg(pr9);
    let (code, stderr) = run_promptly(command);
    let written = std::fs::read_dir(&dir).expect("list the working directory").count();
    std::fs::remove_dir(&dir).expect("remove the empty working directory");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("usage"), "stderr: {stderr}");
    assert_eq!(written, 0, "perfbench wrote into its working directory");
}

#[test]
fn missing_baseline_exits_2_before_measuring() {
    let out = scratch("missing.json");
    let baseline = PathBuf::from("/nonexistent");
    let (code, stderr) = run_perfbench(&out, &baseline);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("/nonexistent"), "stderr: {stderr}");
    assert!(!out.exists(), "a rejected baseline must not write a JSON");
}

#[test]
fn baseline_without_end_to_end_rows_exits_2_before_measuring() {
    let out = scratch("empty.json");
    let baseline = scratch("empty_baseline.json");
    std::fs::write(&baseline, "{}\n").expect("write the empty baseline");
    let (code, stderr) = run_perfbench(&out, &baseline);
    std::fs::remove_file(&baseline).expect("remove the empty baseline");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("no end_to_end rows"), "stderr: {stderr}");
    assert!(!out.exists(), "a rejected baseline must not write a JSON");
}

/// Gates perfbench against the committed `BENCH_PR9.json` with `from`
/// replaced by `to` (once), and requires an exit 2 naming `expected`
/// before anything is measured.
fn assert_edited_pr9_is_rejected(name: &str, from: &str, to: &str, expected: &str) {
    let pr9 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR9.json");
    let text = std::fs::read_to_string(pr9).expect("read BENCH_PR9.json");
    assert!(text.contains(from), "BENCH_PR9.json holds {from}");
    let (out, baseline) = (
        scratch(&format!("{name}.json")),
        scratch(&format!("{name}_baseline.json")),
    );
    std::fs::write(&baseline, text.replacen(from, to, 1)).expect("write the edited baseline");
    let (code, stderr) = run_perfbench(&out, &baseline);
    std::fs::remove_file(&baseline).expect("remove the edited baseline");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains(expected), "stderr: {stderr}");
    assert!(!out.exists(), "a rejected baseline must not write a JSON");
}

/// A zero rate would make its row's ratio `inf` and the geomean `inf`,
/// which passes the lower bound whatever the other rows measure; a rate
/// that does not parse must not drop its row, digest included, out of the
/// gate.
#[test]
fn zero_baseline_rate_exits_2_before_measuring() {
    let from = "\"records_per_sec\": 2598805";
    for (to, expected) in [("0", "records_per_sec 0"), ("null", "records_per_sec NaN")] {
        let to = format!("\"records_per_sec\": {to}");
        assert_edited_pr9_is_rejected("zero_rate", from, &to, expected);
    }
}

/// A negative ns/op would make the `access_queued` ratio negative, which
/// passes the upper bound whatever the micro measures; one that does not
/// parse must not switch the check off.
#[test]
fn negative_baseline_access_queued_exits_2_before_measuring() {
    let from = "\"ns_per_op\": 823.4";
    for to in ["-823.4", "null"] {
        let to = format!("\"ns_per_op\": {to}");
        assert_edited_pr9_is_rejected("negative_ns", from, &to, "access_queued");
    }
}
