//! Figure 6: percentage increase of L2 memory requests due to
//! virtualization, as a function of the number of PVCache sets.

use crate::comparison::{homogeneous, Comparison, Pair, Rows};
use crate::report::{mean, pct};
use crate::runner::HierarchyVariant;
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

/// PV-8 and PV-16 against the non-virtualized SMS with the same (1K-set,
/// 11-way) PHT on every workload. The PVCache hit ratio is the diagnostic
/// the paper discusses: entries are used once or exhibit very short-term
/// temporal locality.
pub fn comparison() -> Comparison {
    Comparison {
        title: "Figure 6 — increase of L2 requests due to virtualization".to_owned(),
        workloads: homogeneous(&WorkloadId::all()),
        variants: vec![HierarchyVariant::Base],
        baseline: Some(PrefetcherKind::sms_1k_11a()),
        kinds: vec![PrefetcherKind::sms_pv8(), PrefetcherKind::sms_pv16()],
        rows: Rows::PerRun(vec![
            ("Workload", |p| p.workload()),
            ("PVCache", |p| p.run.configuration.replace("SMS-", "")),
            ("L2 request increase", |p| pct(l2_request_increase(p))),
            ("PVCache hit ratio", |p| {
                pct(p.run.pv.map(|pv| pv.pvcache_hit_ratio()).unwrap_or(0.0))
            }),
        ]),
        note: |pairs| {
            let pv8 = pairs.iter().filter(|p| p.run.configuration == "SMS-PV8");
            format!(
                "Measured PV-8 average increase: {} (paper: 25%-44% per workload, 33% on average; \
                 growing the PVCache to 16 sets changes little).",
                pct(mean(pv8.map(l2_request_increase)))
            )
        },
    }
}

fn l2_request_increase(pair: &Pair) -> f64 {
    pair.run.l2_request_increase_over(pair.base())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_virtualized_configurations_are_compared() {
        let labels: Vec<String> = comparison().kinds.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["SMS-PV8", "SMS-PV16"]);
    }
}
