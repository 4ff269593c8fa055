//! Figure 4: SMS performance potential as a function of PHT configuration.
//!
//! The paper plots, for every workload and PHT geometry, the percentage of
//! L1 read misses that are covered, uncovered, and over-predicted. The
//! result motivating PV is that large tables (Infinite, 1K sets) are needed
//! to reach the prefetcher's potential and small dedicated tables (16 or 8
//! sets) lose most of it.

use crate::comparison::{homogeneous, Comparison, Rows};
use crate::report::pct;
use crate::runner::HierarchyVariant;
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

/// Every workload under the paper's PHT configurations, in the paper's
/// order; one row per (workload, configuration).
pub fn comparison() -> Comparison {
    Comparison {
        title: "Figure 4 — SMS performance potential (fraction of L1 read misses)".to_owned(),
        workloads: homogeneous(&WorkloadId::all()),
        variants: vec![HierarchyVariant::Base],
        baseline: None,
        kinds: vec![
            PrefetcherKind::sms_infinite(),
            PrefetcherKind::sms_1k_16a(),
            PrefetcherKind::sms_1k_11a(),
            PrefetcherKind::sms_16_11a(),
            PrefetcherKind::sms_8_11a(),
        ],
        rows: Rows::PerRun(vec![
            ("Workload", |p| p.workload()),
            ("PHT config", |p| p.run.configuration.replace("SMS-", "")),
            ("Covered", |p| pct(p.run.coverage.coverage())),
            ("Uncovered", |p| pct(1.0 - p.run.coverage.coverage())),
            ("Overpredictions", |p| {
                pct(p.run.coverage.overprediction_ratio())
            }),
        ]),
        note: |_| {
            "Paper shape: Infinite ≈ 1K-16a ≈ 1K-11a (within 3%), while 16-11a and 8-11a lose most \
             coverage for the web/OLTP workloads and degrade gently for the DSS queries (e.g. Oracle \
             44% -> <4%, Qry1 73% -> 62%)."
                .to_owned()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::Pair;
    use crate::runner::{Runner, Scale};

    #[test]
    fn figure4_uses_the_paper_configurations() {
        let labels: Vec<String> = comparison().kinds.iter().map(|c| c.label()).collect();
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
        let runner = Runner::new(Scale::Smoke, 4);
        let comparison = comparison().on(&[WorkloadId::Qry1]);
        let pairs = comparison.pairs(&runner);
        assert_eq!(pairs.len(), 5);
        let Rows::PerRun(columns) = &comparison.rows else {
            panic!("Figure 4 prints one row per run");
        };
        let cell = |name: &str, pair: &Pair| {
            let column = columns.iter().find(|c| c.0 == name).expect("column present");
            column.1(pair).trim_end_matches('%').parse::<f64>().expect("a percentage") / 100.0
        };
        for pair in &pairs {
            let covered = cell("Covered", pair);
            // Each cell is rounded to 0.1%, so the two may miss 100% by 0.1%.
            assert!((covered + cell("Uncovered", pair) - 1.0).abs() < 0.0011);
            assert!((0.0..=1.0).contains(&covered));
        }
        // Large tables must beat the 8-set table on the scan workload.
        let covered = |config: &str| {
            let pair = pairs.iter().find(|p| p.run.configuration == config).unwrap();
            pair.run.coverage.coverage()
        };
        assert!(covered("SMS-Infinite") > covered("SMS-8-11a"));
    }
}
