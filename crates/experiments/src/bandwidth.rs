//! Bandwidth sensitivity: where virtualized prefetchers win or lose once
//! predictor traffic actually competes with demand traffic.
//!
//! The paper argues PV's extra memory traffic is small enough not to hurt —
//! an argument that is only testable when the memory system has *finite*
//! bandwidth. This experiment runs under [`ContentionModel::Queued`]
//! (`HierarchyVariant::QueuedDram`) and sweeps the DRAM data-bus transfer
//! cost from fast to slow, comparing the dedicated-table SMS prefetcher
//! against SMS-PV8 at every point. Reported per row: speedup over the
//! no-prefetch baseline *at the same bandwidth*, the measured mean DRAM
//! queueing delay split into application and predictor traffic, and the
//! aggregate data-bus utilization. As bandwidth shrinks the queueing delay
//! must rise monotonically — the contention model's acceptance invariant —
//! and the virtualized design's advantage erodes first, because its PHT
//! misses consume the same scarce bus the demand stream needs.
//!
//! [`ContentionModel::Queued`]: pv_mem::ContentionModel

use crate::report::{pct, Table};
use crate::runner::{HierarchyVariant, RunSpec, Runner};
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;
use std::sync::Arc;

/// The swept DRAM data-bus costs in cycles per 64-byte block, fastest
/// first. 16 is the baseline 4-byte-per-cycle bus of `DramConfig::paper`;
/// 128 is a starved half-byte-per-cycle bus. Decreasing bandwidth =
/// increasing cycles per transfer.
pub fn cycles_per_transfer_sweep() -> [u64; 4] {
    [16, 32, 64, 128]
}

/// The workloads compared: the scan query (largest prefetching upside) and
/// a web workload (large footprint, more irregular traffic).
pub fn workloads() -> [WorkloadId; 2] {
    [WorkloadId::Qry1, WorkloadId::Apache]
}

/// One bandwidth-sweep row.
#[derive(Debug, Clone)]
pub struct BandwidthRow {
    /// Workload name.
    pub workload: String,
    /// Prefetcher label (`"SMS-1K-11a"` or `"SMS-PV8"`).
    pub config: String,
    /// DRAM data-bus cost in cycles per block for this point.
    pub cycles_per_transfer: u64,
    /// Speedup over the no-prefetch baseline at the same bandwidth.
    pub speedup: f64,
    /// Mean DRAM queueing delay per application-class read, in cycles.
    pub app_queue_delay: f64,
    /// Mean DRAM queueing delay per predictor-class read, in cycles.
    pub pv_queue_delay: f64,
    /// Total queueing-delay cycles charged to application traffic.
    pub app_queue_cycles: u64,
    /// Total queueing-delay cycles charged to predictor traffic.
    pub pv_queue_cycles: u64,
    /// Aggregate DRAM data-bus utilization (channel-cycles / elapsed).
    pub dram_utilization: f64,
}

/// The prefetchers compared at each bandwidth point.
fn configurations() -> [PrefetcherKind; 2] {
    [PrefetcherKind::sms_1k_11a(), PrefetcherKind::sms_pv8()]
}

/// Runs the sweep and returns one row per (workload, prefetcher,
/// bandwidth point).
pub fn rows(runner: &Runner) -> Vec<BandwidthRow> {
    rows_for(runner, &workloads())
}

/// Runs the sweep for a subset of workloads (used by tests).
pub fn rows_for(runner: &Runner, workloads: &[WorkloadId]) -> Vec<BandwidthRow> {
    let mut specs: Vec<RunSpec> = Vec::new();
    for &workload in workloads {
        for &cycles_per_transfer in &cycles_per_transfer_sweep() {
            let hierarchy = HierarchyVariant::QueuedDram {
                cycles_per_transfer,
            };
            specs.push(RunSpec {
                workload: workload.into(),
                prefetcher: PrefetcherKind::None,
                hierarchy,
            });
            for prefetcher in configurations() {
                specs.push(RunSpec {
                    workload: workload.into(),
                    prefetcher,
                    hierarchy,
                });
            }
        }
    }
    runner.prefetch(&specs);

    let mut rows = Vec::new();
    for &workload in workloads {
        for &cycles_per_transfer in &cycles_per_transfer_sweep() {
            let hierarchy = HierarchyVariant::QueuedDram {
                cycles_per_transfer,
            };
            let baseline = runner.metrics(&RunSpec {
                workload: workload.into(),
                prefetcher: PrefetcherKind::None,
                hierarchy,
            });
            for prefetcher in configurations() {
                let metrics: Arc<_> = runner.metrics(&RunSpec {
                    workload: workload.into(),
                    prefetcher,
                    hierarchy,
                });
                let delay = metrics.hierarchy.dram_queue_delay;
                rows.push(BandwidthRow {
                    workload: workload.name().to_owned(),
                    config: metrics.configuration.clone(),
                    cycles_per_transfer,
                    speedup: metrics.speedup_over(&baseline),
                    app_queue_delay: metrics.dram_queue_delay_application(),
                    pv_queue_delay: metrics.dram_queue_delay_predictor(),
                    app_queue_cycles: delay.application_cycles(),
                    pv_queue_cycles: delay.predictor_cycles(),
                    dram_utilization: metrics.dram_utilization(),
                });
            }
        }
    }
    rows
}

/// Renders the bandwidth-sensitivity report.
pub fn report(runner: &Runner) -> String {
    let mut table = Table::new(
        "Bandwidth sensitivity — dedicated vs virtualized SMS under queued DRAM contention",
    );
    table.header([
        "Workload",
        "Config",
        "Cycles/transfer",
        "Speedup vs NoPrefetch",
        "App queue cycles",
        "PV queue cycles",
        "App queue delay (cyc/read)",
        "PV queue delay (cyc/read)",
        "DRAM bus utilization",
    ]);
    for row in rows(runner) {
        table.row([
            row.workload,
            row.config,
            row.cycles_per_transfer.to_string(),
            pct(row.speedup),
            row.app_queue_cycles.to_string(),
            row.pv_queue_cycles.to_string(),
            format!("{:.1}", row.app_queue_delay),
            format!("{:.1}", row.pv_queue_delay),
            pct(row.dram_utilization),
        ]);
    }
    table.note(
        "ContentionModel::Queued: L2 banks, MSHR files and DRAM channel queues are all finite, so \
         predictor traffic competes with demand traffic for the same bus. Queueing delay must rise \
         monotonically as the configured bandwidth falls (cycles/transfer grows); the virtualized \
         design loses its edge first because PHT misses spend the bandwidth the demand stream needs.",
    );
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_ordered_fastest_first() {
        let sweep = cycles_per_transfer_sweep();
        assert!(sweep.windows(2).all(|pair| pair[0] < pair[1]));
    }
}
