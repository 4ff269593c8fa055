//! Figure 4: SMS performance potential as a function of PHT configuration.
//!
//! The paper plots, for every workload and PHT geometry, the percentage of
//! L1 read misses that are covered, uncovered, and over-predicted. The
//! result motivating PV is that large tables (Infinite, 1K sets) are needed
//! to reach the prefetcher's potential and small dedicated tables (16 or 8
//! sets) lose most of it.

use crate::report::{pct, Table};
use crate::runner::{RunSpec, Runner};
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

/// One bar of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Workload name.
    pub workload: String,
    /// PHT configuration label.
    pub config: String,
    /// Fraction of baseline L1 read misses covered by prefetching.
    pub covered: f64,
    /// Fraction left uncovered.
    pub uncovered: f64,
    /// Over-predictions as a fraction of baseline misses.
    pub overpredictions: f64,
}

/// The PHT configurations of Figure 4, in the paper's order.
pub fn configurations() -> Vec<PrefetcherKind> {
    vec![
        PrefetcherKind::sms_infinite(),
        PrefetcherKind::sms_1k_16a(),
        PrefetcherKind::sms_1k_11a(),
        PrefetcherKind::sms_16_11a(),
        PrefetcherKind::sms_8_11a(),
    ]
}

/// Runs the Figure 4 sweep and returns one row per (workload, configuration).
pub fn rows(runner: &Runner) -> Vec<Fig4Row> {
    rows_for(runner, &WorkloadId::all())
}

/// Runs the sweep for a subset of workloads (used by the benches).
pub fn rows_for(runner: &Runner, workloads: &[WorkloadId]) -> Vec<Fig4Row> {
    let specs: Vec<RunSpec> = workloads
        .iter()
        .flat_map(|&workload| {
            configurations()
                .into_iter()
                .map(move |prefetcher| RunSpec::base(workload, prefetcher))
        })
        .collect();
    runner.prefetch(&specs);
    specs
        .iter()
        .map(|spec| {
            let metrics = runner.metrics(spec);
            Fig4Row {
                workload: spec.workload.label().to_owned(),
                config: spec.prefetcher.label().replace("SMS-", ""),
                covered: metrics.coverage.coverage(),
                uncovered: 1.0 - metrics.coverage.coverage(),
                overpredictions: metrics.coverage.overprediction_ratio(),
            }
        })
        .collect()
}

/// Renders the Figure 4 report.
pub fn report(runner: &Runner) -> String {
    let mut table = Table::new("Figure 4 — SMS performance potential (fraction of L1 read misses)");
    table.header([
        "Workload",
        "PHT config",
        "Covered",
        "Uncovered",
        "Overpredictions",
    ]);
    for row in rows(runner) {
        table.row([
            row.workload,
            row.config,
            pct(row.covered),
            pct(row.uncovered),
            pct(row.overpredictions),
        ]);
    }
    table.note(
        "Paper shape: Infinite ≈ 1K-16a ≈ 1K-11a (within 3%), while 16-11a and 8-11a lose most coverage for \
         the web/OLTP workloads and degrade gently for the DSS queries (e.g. Oracle 44% -> <4%, Qry1 73% -> 62%).",
    );
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_uses_the_paper_configurations() {
        let labels: Vec<String> = configurations().iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "SMS-Infinite",
                "SMS-1K-16a",
                "SMS-1K-11a",
                "SMS-16-11a",
                "SMS-8-11a"
            ]
        );
    }

    #[test]
    fn smoke_rows_have_consistent_fractions() {
        let runner = Runner::new(crate::Scale::Smoke, 4);
        let rows = rows_for(&runner, &[WorkloadId::Qry1]);
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!((row.covered + row.uncovered - 1.0).abs() < 1e-9);
            assert!(row.covered >= 0.0 && row.covered <= 1.0);
        }
        // Large tables must beat the 8-set table on the scan workload.
        let infinite = rows.iter().find(|r| r.config == "Infinite").unwrap();
        let tiny = rows.iter().find(|r| r.config == "8-11a").unwrap();
        assert!(infinite.covered > tiny.covered);
    }
}
