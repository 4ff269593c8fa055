//! Figure 9: performance of the virtualized predictor.
//!
//! Speedup over the no-prefetch baseline for SMS with a 1K-set dedicated
//! PHT, the two small dedicated PHTs, and the virtualized SMS-PV8. The
//! paper's headline result: SMS-PV8 matches SMS-1K (19% vs 18% average
//! speedup) while the small dedicated tables achieve only about half.

use crate::comparison::{homogeneous, Comparison, Rows};
use crate::runner::HierarchyVariant;
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

/// Every workload's speedup under each configuration, in the paper's
/// order, plus the average over workloads.
pub fn comparison() -> Comparison {
    Comparison {
        title: "Figure 9 — speedup over the no-prefetch baseline".to_owned(),
        workloads: homogeneous(&WorkloadId::all()),
        variants: vec![HierarchyVariant::Base],
        baseline: Some(PrefetcherKind::None),
        kinds: vec![
            PrefetcherKind::sms_1k_11a(),
            PrefetcherKind::sms_16_11a(),
            PrefetcherKind::sms_8_11a(),
            PrefetcherKind::sms_pv8(),
        ],
        rows: Rows::PerWorkload {
            columns: vec![
                ("SMS-1K", |p| p[0].speedup()),
                ("SMS-16", |p| p[1].speedup()),
                ("SMS-8", |p| p[2].speedup()),
                ("SMS-PV8", |p| p[3].speedup()),
            ],
            average: true,
        },
        note: |_| {
            "Paper shape: SMS-PV8 matches SMS-1K (19% vs 18% average), the small dedicated tables \
             reach only about half of that, and Apache gains nothing from the small tables. Absolute \
             speedups here are larger than the paper's because the trace-driven cores expose more of \
             each miss's latency (see EXPERIMENTS.md)."
                .to_owned()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_configurations_in_paper_order() {
        let labels: Vec<String> = comparison().kinds.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec!["SMS-1K-11a", "SMS-16-11a", "SMS-8-11a", "SMS-PV8"]
        );
    }
}
