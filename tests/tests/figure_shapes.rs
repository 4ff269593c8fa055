//! Shape checks for the paper's figures, run through the experiment harness
//! at smoke scale: the orderings the paper's conclusions rest on must hold.

use pv_experiments::{fig4, fig9, Pair, Runner, Scale};
use pv_workloads::WorkloadId;

fn runner() -> Runner {
    Runner::new(Scale::Smoke, 4)
}

/// Figure 4's coverage of `config` (a PHT label without the `SMS-` prefix)
/// on `workload`.
fn coverage(pairs: &[Pair], workload: &str, config: &str) -> f64 {
    pairs
        .iter()
        .find(|p| p.workload() == workload && p.run.configuration == format!("SMS-{config}"))
        .unwrap_or_else(|| panic!("missing config {config}"))
        .run
        .coverage
        .coverage()
}

#[test]
fn figure4_large_tables_beat_small_tables_on_capacity_sensitive_workloads() {
    let runner = runner();
    let pairs = fig4::comparison().on(&[WorkloadId::Oracle]).pairs(&runner);
    let infinite = coverage(&pairs, "Oracle", "Infinite");
    let large = coverage(&pairs, "Oracle", "1K-11a");
    let small = coverage(&pairs, "Oracle", "8-11a");
    assert!(
        (infinite - large).abs() < 0.05,
        "1K sets must be within a few per cent of the infinite table ({large:.3} vs {infinite:.3})"
    );
    assert!(
        small < large * 0.5,
        "8 sets must lose most of the coverage ({small:.3} vs {large:.3})"
    );
}

#[test]
fn figure4_dss_scan_degrades_more_gently_than_oltp() {
    let runner = runner();
    let pairs = fig4::comparison().on(&[WorkloadId::Oracle, WorkloadId::Qry1]).pairs(&runner);
    let retention = |workload: &str| {
        let large = coverage(&pairs, workload, "1K-11a");
        let small = coverage(&pairs, workload, "8-11a");
        if large == 0.0 {
            0.0
        } else {
            small / large
        }
    };
    assert!(
        retention("Qry1") > retention("Oracle"),
        "the scan query must retain more of its coverage with a tiny PHT than OLTP does"
    );
}

#[test]
fn figure9_virtualized_matches_dedicated_and_beats_small_tables() {
    let runner = runner();
    let pairs = fig9::comparison().on(&[WorkloadId::Qry2]).pairs(&runner);
    assert_eq!(pairs.len(), 4, "one workload, four configurations");
    // [SMS-1K, SMS-16, SMS-8, SMS-PV8]
    let speedups: Vec<f64> = pairs.iter().map(Pair::speedup).collect();
    assert!(speedups[0] > 0.0, "SMS-1K must provide a speedup");
    assert!(
        (speedups[0] - speedups[3]).abs() < 0.05,
        "SMS-PV8 must match SMS-1K ({:.3} vs {:.3})",
        speedups[3],
        speedups[0]
    );
    assert!(
        speedups[2] < speedups[0],
        "the 8-set dedicated table must trail the 1K-set table"
    );
}

#[test]
fn experiment_runner_reuses_cached_simulations_across_figures() {
    let runner = runner();
    let _ = fig9::comparison().on(&[WorkloadId::Qry1]).pairs(&runner);
    let executed_after_fig9 = runner.runs_executed();
    // Figure 4 shares the SMS-1K-11a, 16-11a and 8-11a runs with Figure 9.
    let _ = fig4::comparison().on(&[WorkloadId::Qry1]).pairs(&runner);
    let executed_after_fig4 = runner.runs_executed();
    assert!(
        executed_after_fig4 - executed_after_fig9 <= 2,
        "only the Infinite and 1K-16a configurations should require new runs, got {} new",
        executed_after_fig4 - executed_after_fig9
    );
}
