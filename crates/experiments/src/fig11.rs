//! Figure 11: performance of the virtualized prefetcher with a slower L2
//! (8-cycle tag / 16-cycle data instead of 6/12).

use crate::report::{pct, Table};
use crate::runner::{HierarchyVariant, RunSpec, Runner};
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

/// One workload's Figure 11 bars.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Workload name.
    pub workload: String,
    /// Speedup of the dedicated SMS-1K over the no-prefetch baseline, both
    /// on the slow L2.
    pub sms_1k_speedup: f64,
    /// Speedup of SMS-PV8 over the same baseline.
    pub pv8_speedup: f64,
}

/// Runs the slow-L2 comparison for every workload.
pub fn rows(runner: &Runner) -> Vec<Fig11Row> {
    let variant = HierarchyVariant::SlowL2;
    let configs = [
        PrefetcherKind::None,
        PrefetcherKind::sms_1k_11a(),
        PrefetcherKind::sms_pv8(),
    ];
    let specs: Vec<RunSpec> = WorkloadId::all()
        .iter()
        .flat_map(|&workload| {
            configs.iter().map(move |config| RunSpec {
                workload: workload.into(),
                prefetcher: config.clone(),
                hierarchy: variant,
            })
        })
        .collect();
    runner.prefetch(&specs);
    WorkloadId::all()
        .iter()
        .map(|&workload| {
            let get = |prefetcher: PrefetcherKind| {
                runner.metrics(&RunSpec {
                    workload: workload.into(),
                    prefetcher,
                    hierarchy: variant,
                })
            };
            let baseline = get(PrefetcherKind::None);
            Fig11Row {
                workload: workload.name().to_owned(),
                sms_1k_speedup: get(PrefetcherKind::sms_1k_11a()).speedup_over(&baseline),
                pv8_speedup: get(PrefetcherKind::sms_pv8()).speedup_over(&baseline),
            }
        })
        .collect()
}

/// Renders the Figure 11 report.
pub fn report(runner: &Runner) -> String {
    let rows = rows(runner);
    let mut table =
        Table::new("Figure 11 — speedup with increased L2 latency (8/16-cycle tag/data)");
    table.header(["Workload", "SMS-1K", "SMS-PV8", "Difference"]);
    let mut diff_sum = 0.0;
    for row in &rows {
        diff_sum += (row.sms_1k_speedup - row.pv8_speedup).abs();
        table.row([
            row.workload.clone(),
            pct(row.sms_1k_speedup),
            pct(row.pv8_speedup),
            pct(row.sms_1k_speedup - row.pv8_speedup),
        ]);
    }
    table.note(format!(
        "Mean |difference|: {} (paper: the average difference between the dedicated and virtualized prefetcher \
         stays below 1.5% even with the slower L2).",
        pct(diff_sum / rows.len().max(1) as f64)
    ));
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_structure_holds_two_speedups() {
        let row = Fig11Row {
            workload: "x".into(),
            sms_1k_speedup: 0.2,
            pv8_speedup: 0.19,
        };
        assert!(row.sms_1k_speedup > row.pv8_speedup);
    }
}
