//! The examples that take a workload name refuse an unknown one with exit
//! status 2 and the list of valid names, instead of running a default.

use pv_workloads::WorkloadId;
use std::process::Command;

#[test]
fn unknown_workload_name_exits_2_listing_valid_names() {
    for exe in [
        env!("CARGO_BIN_EXE_capacity_pressure"),
        env!("CARGO_BIN_EXE_second_backend"),
        env!("CARGO_BIN_EXE_workload_explorer"),
    ] {
        let output = Command::new(exe).arg("NoSuchWorkload").output().expect("example runs");
        assert_eq!(output.status.code(), Some(2), "{exe}");
        assert!(output.stdout.is_empty(), "{exe} must not start a run");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("'NoSuchWorkload'"), "{exe}: {stderr}");
        for id in WorkloadId::all() {
            assert!(stderr.contains(id.name()), "{exe} must list {id}: {stderr}");
        }
    }
}
