//! Workload explorer: prints, for one workload (or all of them), how SMS
//! prefetch coverage and performance react to the PHT configuration —
//! the interactive companion to Figures 4, 5 and 9 of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pv-examples --bin workload_explorer [workload] [quick|full]
//! ```
//!
//! `workload` is one of Apache, Zeus, DB2, Oracle, Qry1, Qry2, Qry16, Qry17
//! (case-insensitive; default: Oracle). An unknown name exits with status 2
//! and the list of valid names.

use pv_examples::workload_arg;
use pv_sim::{run_workload, PrefetcherKind, SimConfig};
use pv_workloads::WorkloadId;

fn main() {
    let workload = workload_arg(1, WorkloadId::Oracle);
    let full = std::env::args().nth(2).is_some_and(|s| s == "full");
    let params = workload.params();

    let configs = [
        PrefetcherKind::None,
        PrefetcherKind::sms_infinite(),
        PrefetcherKind::sms_1k_11a(),
        PrefetcherKind::sms_16_11a(),
        PrefetcherKind::sms_8_11a(),
        PrefetcherKind::sms_pv8(),
    ];

    println!("Workload: {} — {}", params.name, params.description);
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>10} {:>10} {:>12}",
        "config", "coverage", "overpred", "PHT-hit", "IPC", "speedup", "L2 req +%"
    );

    let mut baseline = None;
    for prefetcher in configs {
        let sim = if full {
            SimConfig::paper(prefetcher.clone())
        } else {
            SimConfig::quick(prefetcher.clone())
        };
        let metrics = run_workload(&sim, &params);
        let (speedup, l2_increase) = match &baseline {
            Some(base) => (
                metrics.speedup_over(base) * 100.0,
                metrics.l2_request_increase_over(base) * 100.0,
            ),
            None => (0.0, 0.0),
        };
        println!(
            "{:<14} {:>8.1}% {:>8.1}% {:>8.1}% {:>10.3} {:>9.1}% {:>11.1}%",
            metrics.configuration,
            metrics.coverage.coverage() * 100.0,
            metrics.coverage.overprediction_ratio() * 100.0,
            metrics.sms.map_or(0.0, |s| s.pht_hit_ratio()) * 100.0,
            metrics.aggregate_ipc(),
            speedup,
            l2_increase,
        );
        if prefetcher == PrefetcherKind::None {
            baseline = Some(metrics);
        }
    }
}
