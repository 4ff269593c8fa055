//! Figure 5: coverage across all intermediate PHT sizes for three
//! representative workloads (Apache, Oracle, Query 17).

use crate::report::{pct, Table};
use crate::runner::{RunSpec, Runner};
use pv_sim::PrefetcherKind;
use pv_sms::{PhtGeometry, SmsConfig};
use pv_workloads::WorkloadId;

/// One point of the Figure 5 sweep.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Workload name.
    pub workload: String,
    /// PHT geometry label.
    pub config: String,
    /// Fraction of baseline L1 read misses covered.
    pub covered: f64,
    /// Over-prediction ratio.
    pub overpredictions: f64,
}

/// The representative workloads the paper uses for this figure.
pub fn workloads() -> [WorkloadId; 3] {
    [WorkloadId::Apache, WorkloadId::Oracle, WorkloadId::Qry17]
}

/// Runs the sweep and returns one row per (workload, geometry).
pub fn rows(runner: &Runner) -> Vec<Fig5Row> {
    let geometries = PhtGeometry::figure5_sweep();
    let specs: Vec<RunSpec> = workloads()
        .iter()
        .flat_map(|&workload| {
            geometries.iter().map(move |&geometry| {
                RunSpec::base(workload, PrefetcherKind::Sms(SmsConfig::with_pht(geometry)))
            })
        })
        .collect();
    runner.prefetch(&specs);
    specs
        .iter()
        .map(|spec| {
            let metrics = runner.metrics(spec);
            Fig5Row {
                workload: spec.workload.label().to_owned(),
                config: spec.prefetcher.label().replace("SMS-", ""),
                covered: metrics.coverage.coverage(),
                overpredictions: metrics.coverage.overprediction_ratio(),
            }
        })
        .collect()
}

/// Renders the Figure 5 report.
pub fn report(runner: &Runner) -> String {
    let mut table = Table::new("Figure 5 — SMS potential across all intermediate PHT sizes");
    table.header(["Workload", "PHT config", "Covered", "Overpredictions"]);
    for row in rows(runner) {
        table.row([
            row.workload,
            row.config,
            pct(row.covered),
            pct(row.overpredictions),
        ]);
    }
    table.note(
        "Paper shape: coverage decreases monotonically (modulo noise) as the table shrinks from 1K to 8 sets, \
         with each workload following its own curve; all workloads lose substantial coverage by 8 sets.",
    );
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_ten_geometries_for_three_workloads() {
        assert_eq!(workloads().len(), 3);
        assert_eq!(PhtGeometry::figure5_sweep().len(), 10);
    }
}
