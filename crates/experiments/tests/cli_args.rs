//! The `reproduce` and `fleet` binaries reject bad arguments with exit 2
//! before running anything, and report an output that fails as an error
//! (exit 1), never as a panic or a silent success.

use std::process::{Command, Output, Stdio};

/// The smallest fleet grid: one point at smoke scale on one thread.
const ONE_POINT: &str = "--kinds none --workloads Qry1 --cpt 0 --scale smoke --threads 1";

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("the binary starts")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn reproduce_rejects_zero_threads() {
    let output = run(
        env!("CARGO_BIN_EXE_reproduce"),
        &["sec46", "--threads", "0"],
    );
    assert_eq!(output.status.code(), Some(2), "stderr: {}", stderr(&output));
    assert!(
        stderr(&output).contains("thread count"),
        "stderr: {}",
        stderr(&output)
    );
    assert!(
        output.stdout.is_empty(),
        "a rejected run must print no report"
    );
}

#[test]
fn reproduce_rejects_an_unknown_scale() {
    let output = run(
        env!("CARGO_BIN_EXE_reproduce"),
        &["sec46", "--scale", "smok"],
    );
    assert_eq!(output.status.code(), Some(2), "stderr: {}", stderr(&output));
    assert!(
        stderr(&output).contains("unknown scale 'smok'"),
        "stderr: {}",
        stderr(&output)
    );
    assert!(
        output.stdout.is_empty(),
        "a rejected run must print no report"
    );
}

/// The static experiments: they print without running a simulation.
const STATIC_EXPERIMENTS: [&str; 4] = ["table1", "table2", "table3", "sec46"];

#[test]
fn reproduce_lists_the_catalogue_in_presentation_order() {
    let output = run(env!("CARGO_BIN_EXE_reproduce"), &["--list"]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr(&output));
    let listed = String::from_utf8(output.stdout).expect("names are UTF-8");
    let catalogue: Vec<&str> = pv_experiments::CATALOGUE.iter().map(|e| e.name).collect();
    assert_eq!(listed.lines().collect::<Vec<_>>(), catalogue);
    assert_eq!(catalogue.first(), Some(&"table1"));
    assert_eq!(catalogue.last(), Some(&"repartition"));
}

#[test]
fn reproduce_reports_a_full_disk_instead_of_exiting_0() {
    let Ok(full) = std::fs::File::create("/dev/full") else {
        return;
    };
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(STATIC_EXPERIMENTS)
        .stdin(Stdio::null())
        .stdout(full)
        .output()
        .expect("reproduce starts");
    let stderr = stderr(&output);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("reproduce: writing the output failed"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn reproduce_reports_a_closed_pipe_instead_of_panicking() {
    // Close the read end before the binary starts, so its first write
    // fails however fast it prints.
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(STATIC_EXPERIMENTS)
        .stdin(Stdio::null())
        .stdout(writer)
        .output()
        .expect("reproduce starts");
    let stderr = stderr(&output);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("reproduce: writing the output failed"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn fleet_reports_a_full_disk_instead_of_exiting_0() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let mut args: Vec<&str> = ONE_POINT.split(' ').collect();
    args.extend(["--out", "/dev/full"]);
    let output = run(env!("CARGO_BIN_EXE_fleet"), &args);
    let stderr = stderr(&output);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("writing the output failed"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn fleet_reports_a_closed_pipe_instead_of_panicking() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(ONE_POINT.split(' '))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fleet starts");
    // Close the read end before the first row is ready.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("fleet output");
    let stderr = stderr(&output);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("writing the output failed"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// A `--cpt` above the ceiling is rejected while parsing, so no point
/// runs; at `u64::MAX` a worker used to panic on a wrapped queue delay.
#[test]
fn fleet_rejects_a_cpt_above_the_ceiling() {
    for cpt in ["18446744073709551615", "4294967296"] {
        let args = ONE_POINT.replace("--cpt 0", &format!("--cpt 0,{cpt}"));
        let output = run(
            env!("CARGO_BIN_EXE_fleet"),
            &args.split(' ').collect::<Vec<_>>(),
        );
        let stderr = stderr(&output);
        assert_eq!(output.status.code(), Some(2), "--cpt {cpt}: {stderr}");
        assert!(
            stderr.contains(&format!("--cpt {cpt} exceeds the ceiling of 4294967295")),
            "stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "a rejected sweep must write no row"
        );
    }
}

/// `--mix` adds to the workload axis whichever side of `--workloads` it
/// is given on: each order sweeps the named workload and the mix.
#[test]
fn fleet_keeps_a_mix_given_before_or_after_workloads() {
    let mix = ["--mix", "Apache+Apache+Apache+Apache"];
    let one_point: Vec<&str> = ONE_POINT.split(' ').collect();
    for args in [
        [&mix[..], &one_point].concat(),
        [&one_point, &mix[..]].concat(),
    ] {
        let output = run(env!("CARGO_BIN_EXE_fleet"), &args);
        assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr(&output));
        let stdout = String::from_utf8_lossy(&output.stdout);
        let rows: Vec<&str> =
            stdout.lines().filter(|line| line.contains("\"type\": \"run\"")).collect();
        assert_eq!(rows.len(), 2, "args {args:?}: {stdout}");
        assert_eq!(
            rows.iter().filter(|row| row.contains("mix:")).count(),
            1,
            "args {args:?}: {stdout}"
        );
    }
}
