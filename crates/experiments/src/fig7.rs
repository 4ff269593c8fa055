//! Figure 7: impact of virtualization on off-chip bandwidth, split into L2
//! misses and L2 write-backs, for PV-8 and PV-16.

use crate::comparison::{homogeneous, Comparison, Pair, Rows};
use crate::report::{mean, pct};
use crate::runner::HierarchyVariant;
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

/// PV-8 and PV-16 against the non-virtualized SMS baseline on every
/// workload.
pub fn comparison() -> Comparison {
    Comparison {
        title: "Figure 7 — off-chip bandwidth increase due to virtualization".to_owned(),
        workloads: homogeneous(&WorkloadId::all()),
        variants: vec![HierarchyVariant::Base],
        baseline: Some(PrefetcherKind::sms_1k_11a()),
        kinds: vec![PrefetcherKind::sms_pv8(), PrefetcherKind::sms_pv16()],
        rows: Rows::PerRun(vec![
            ("Workload", |p| p.workload()),
            ("PVCache", |p| p.run.configuration.replace("SMS-", "")),
            ("L2 miss increase", |p| pct(miss_increase(p))),
            ("L2 writeback increase", |p| pct(writeback_increase(p))),
            ("Total", |p| pct(total_increase(p))),
        ]),
        note: |pairs| {
            let pv8 = pairs.iter().filter(|p| p.run.configuration == "SMS-PV8");
            format!(
                "Measured PV-8 average off-chip increase: {} (paper: 3.3% on average, at most 6.5%; \
                 miss increases under 3% and write-back increases under 3.2% for every workload).",
                pct(mean(pv8.map(total_increase)))
            )
        },
    }
}

/// Increase in L2 misses relative to the baseline's off-chip traffic.
pub(crate) fn miss_increase(pair: &Pair) -> f64 {
    let misses = |run: &pv_sim::RunMetrics| run.hierarchy.l2_misses.total() as f64;
    pair.offchip_share(misses(&pair.run) - misses(pair.base()))
}

/// Increase in L2 write-backs relative to the baseline's off-chip traffic.
pub(crate) fn writeback_increase(pair: &Pair) -> f64 {
    let writebacks = |run: &pv_sim::RunMetrics| run.hierarchy.l2_writebacks.total() as f64;
    pair.offchip_share(writebacks(&pair.run) - writebacks(pair.base()))
}

/// Total off-chip bandwidth increase.
pub(crate) fn total_increase(pair: &Pair) -> f64 {
    miss_increase(pair) + writeback_increase(pair)
}
