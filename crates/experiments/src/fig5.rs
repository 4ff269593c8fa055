//! Figure 5: coverage across all intermediate PHT sizes for three
//! representative workloads (Apache, Oracle, Query 17).

use crate::comparison::{homogeneous, Comparison, Rows};
use crate::report::pct;
use crate::runner::HierarchyVariant;
use pv_sim::PrefetcherKind;
use pv_sms::{PhtGeometry, SmsConfig};
use pv_workloads::WorkloadId;

/// The paper's representative workloads under every PHT geometry of the
/// sweep; one row per (workload, geometry).
pub fn comparison() -> Comparison {
    Comparison {
        title: "Figure 5 — SMS potential across all intermediate PHT sizes".to_owned(),
        workloads: homogeneous(&[WorkloadId::Apache, WorkloadId::Oracle, WorkloadId::Qry17]),
        variants: vec![HierarchyVariant::Base],
        baseline: None,
        kinds: PhtGeometry::figure5_sweep()
            .into_iter()
            .map(|geometry| PrefetcherKind::Sms(SmsConfig::with_pht(geometry)))
            .collect(),
        rows: Rows::PerRun(vec![
            ("Workload", |p| p.workload()),
            ("PHT config", |p| p.run.configuration.replace("SMS-", "")),
            ("Covered", |p| pct(p.run.coverage.coverage())),
            ("Overpredictions", |p| {
                pct(p.run.coverage.overprediction_ratio())
            }),
        ]),
        note: |_| {
            "Paper shape: coverage decreases monotonically (modulo noise) as the table shrinks from 1K \
             to 8 sets, with each workload following its own curve; all workloads lose substantial \
             coverage by 8 sets."
                .to_owned()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_ten_geometries_for_three_workloads() {
        assert_eq!(comparison().workloads.len(), 3);
        assert_eq!(comparison().kinds.len(), 10);
    }
}
