//! Figure 10: sensitivity of the PV off-chip traffic overhead to the L2
//! capacity (2 MB, 4 MB and 8 MB total).

use crate::report::{pct, Table};
use crate::runner::{HierarchyVariant, RunSpec, Runner};
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

/// One (workload, L2 size) point.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Workload name.
    pub workload: String,
    /// Total shared L2 capacity in megabytes.
    pub l2_mb: u64,
    /// Off-chip increase of PV-8 over the dedicated SMS at the same L2 size,
    /// attributable to L2 misses.
    pub miss_increase: f64,
    /// Off-chip increase attributable to L2 write-backs.
    pub writeback_increase: f64,
}

impl Fig10Row {
    /// Total off-chip bandwidth increase.
    pub fn total_increase(&self) -> f64 {
        self.miss_increase + self.writeback_increase
    }
}

/// The L2 capacities swept (total, shared by four cores).
pub fn l2_sizes() -> [u64; 3] {
    [2 * 1024 * 1024, 4 * 1024 * 1024, 8 * 1024 * 1024]
}

/// Runs the sweep for every workload and L2 size.
pub fn rows(runner: &Runner) -> Vec<Fig10Row> {
    let mut specs: Vec<RunSpec> = Vec::new();
    for &workload in &WorkloadId::all() {
        for &size in &l2_sizes() {
            let variant = HierarchyVariant::L2Size(size);
            specs.push(RunSpec {
                workload: workload.into(),
                prefetcher: PrefetcherKind::sms_1k_11a(),
                hierarchy: variant,
            });
            specs.push(RunSpec {
                workload: workload.into(),
                prefetcher: PrefetcherKind::sms_pv8(),
                hierarchy: variant,
            });
        }
    }
    runner.prefetch(&specs);
    let mut rows = Vec::new();
    for &workload in &WorkloadId::all() {
        for &size in &l2_sizes() {
            let variant = HierarchyVariant::L2Size(size);
            let dedicated = runner.metrics(&RunSpec {
                workload: workload.into(),
                prefetcher: PrefetcherKind::sms_1k_11a(),
                hierarchy: variant,
            });
            let pv = runner.metrics(&RunSpec {
                workload: workload.into(),
                prefetcher: PrefetcherKind::sms_pv8(),
                hierarchy: variant,
            });
            let base = dedicated.offchip_blocks().max(1) as f64;
            rows.push(Fig10Row {
                workload: workload.name().to_owned(),
                l2_mb: size / (1024 * 1024),
                miss_increase: (pv.hierarchy.l2_misses.total() as f64
                    - dedicated.hierarchy.l2_misses.total() as f64)
                    / base,
                writeback_increase: (pv.hierarchy.l2_writebacks.total() as f64
                    - dedicated.hierarchy.l2_writebacks.total() as f64)
                    / base,
            });
        }
    }
    rows
}

/// Renders the Figure 10 report.
pub fn report(runner: &Runner) -> String {
    let rows = rows(runner);
    let mut table = Table::new(
        "Figure 10 — off-chip bandwidth increase vs L2 capacity (PV-8 over dedicated SMS)",
    );
    table.header([
        "Workload",
        "L2 size",
        "L2 miss increase",
        "Writeback increase",
        "Total",
    ]);
    for row in &rows {
        table.row([
            row.workload.clone(),
            format!("{}MB", row.l2_mb),
            pct(row.miss_increase),
            pct(row.writeback_increase),
            pct(row.total_increase()),
        ]);
    }
    // Average per size for the trend note.
    let mut by_size: Vec<(u64, f64, usize)> =
        l2_sizes().iter().map(|&s| (s / (1024 * 1024), 0.0, 0)).collect();
    for row in &rows {
        if let Some(entry) = by_size.iter_mut().find(|(mb, _, _)| *mb == row.l2_mb) {
            entry.1 += row.total_increase();
            entry.2 += 1;
        }
    }
    let trend: Vec<String> = by_size
        .iter()
        .map(|(mb, total, count)| format!("{}MB: {}", mb, pct(total / (*count).max(1) as f64)))
        .collect();
    table.note(format!(
        "Average increase by L2 capacity — {} (paper shape: PV interferes less as the L2 grows; minimal at 8 MB).",
        trend.join(", ")
    ));
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_three_sizes() {
        assert_eq!(l2_sizes().len(), 3);
        assert_eq!(l2_sizes()[2], 8 * 1024 * 1024);
    }

    #[test]
    fn total_is_sum_of_parts() {
        let row = Fig10Row {
            workload: "x".into(),
            l2_mb: 2,
            miss_increase: 0.2,
            writeback_increase: 0.1,
        };
        assert!((row.total_increase() - 0.3).abs() < 1e-12);
    }
}
