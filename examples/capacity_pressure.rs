//! Capacity pressure: the experiment that motivates Predictor Virtualization
//! (paper Sections 1 and 4.2) — large predictor tables are far more
//! effective, but dedicating tens of kilobytes per core is expensive, and a
//! virtualized table delivers the large-table behaviour with under a
//! kilobyte of dedicated storage.
//!
//! For a chosen workload this example sweeps the dedicated PHT from 8 sets
//! to 1K sets, prints the coverage and on-chip cost of each point, and then
//! shows where the virtualized PV-8 design lands.
//!
//! ```text
//! cargo run --release -p pv-examples --bin capacity_pressure [workload]
//! ```
//!
//! `workload` is a paper workload name, case-insensitive (default:
//! Apache); an unknown name exits with status 2 and the list of valid names.

use pv_core::PvConfig;
use pv_examples::workload_arg;
use pv_sim::{run_workload, PrefetcherKind, SimConfig};
use pv_sms::{PhtGeometry, SmsConfig, VirtualizedPht};
use pv_workloads::WorkloadId;

fn main() {
    let workload = workload_arg(1, WorkloadId::Apache);
    let params = workload.params();
    println!(
        "Capacity pressure on {}: {}\n",
        params.name, params.description
    );
    println!(
        "{:<12} {:>14} {:>12} {:>12} {:>14}",
        "PHT", "on-chip bytes", "coverage", "PHT hits", "cores x 4 cost"
    );

    let baseline = run_workload(&SimConfig::quick(PrefetcherKind::None), &params);
    let mut sets = 8usize;
    while sets <= 1024 {
        let geometry = PhtGeometry::finite(sets, 11);
        let config = SmsConfig::with_pht(geometry);
        let metrics = run_workload(&SimConfig::quick(PrefetcherKind::Sms(config)), &params);
        let bytes = geometry.total_bytes().unwrap();
        println!(
            "{:<12} {:>14} {:>11.1}% {:>11.1}% {:>13.1}K",
            geometry.label(),
            bytes,
            metrics.coverage.coverage() * 100.0,
            metrics.sms.map_or(0.0, |s| s.pht_hit_ratio()) * 100.0,
            bytes as f64 * 4.0 / 1024.0
        );
        let _ = metrics.speedup_over(&baseline);
        sets *= 4;
    }

    let pv = run_workload(&SimConfig::quick(PrefetcherKind::sms_pv8()), &params);
    let pv_bytes = VirtualizedPht::storage_budget(&PvConfig::pv8()).total_bytes();
    println!(
        "{:<12} {:>14} {:>11.1}% {:>11.1}% {:>13.1}K   <- virtualized (PV-8)",
        "PV-8",
        pv_bytes,
        pv.coverage.coverage() * 100.0,
        pv.sms.map_or(0.0, |s| s.pht_hit_ratio()) * 100.0,
        pv_bytes as f64 * 4.0 / 1024.0
    );
    println!(
        "\nSpeedup over no prefetching: PV-8 {:+.1}% vs largest dedicated table {:+.1}%.",
        pv.speedup_over(&baseline) * 100.0,
        run_workload(&SimConfig::quick(PrefetcherKind::sms_1k_11a()), &params)
            .speedup_over(&baseline)
            * 100.0
    );
    println!("Naively shrinking the dedicated table loses the coverage; virtualizing it does not.");
}
