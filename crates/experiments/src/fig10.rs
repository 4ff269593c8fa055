//! Figure 10: sensitivity of the PV off-chip traffic overhead to the L2
//! capacity (2 MB, 4 MB and 8 MB total).

use crate::comparison::{homogeneous, Comparison, Pair, Rows};
use crate::fig7::{miss_increase, total_increase, writeback_increase};
use crate::report::{mean, pct};
use crate::runner::HierarchyVariant;
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

/// The L2 capacities swept (total, shared by four cores).
const L2_SIZES: [u64; 3] = [2 * 1024 * 1024, 4 * 1024 * 1024, 8 * 1024 * 1024];

/// PV-8 against the dedicated SMS at the same L2 size, for every workload
/// and L2 size.
pub fn comparison() -> Comparison {
    Comparison {
        title: "Figure 10 — off-chip bandwidth increase vs L2 capacity (PV-8 over dedicated SMS)"
            .to_owned(),
        workloads: homogeneous(&WorkloadId::all()),
        variants: L2_SIZES.map(HierarchyVariant::L2Size).to_vec(),
        baseline: Some(PrefetcherKind::sms_1k_11a()),
        kinds: vec![PrefetcherKind::sms_pv8()],
        rows: Rows::PerRun(vec![
            ("Workload", |p| p.workload()),
            ("L2 size", |p| format!("{}MB", l2_mb(p))),
            ("L2 miss increase", |p| pct(miss_increase(p))),
            ("Writeback increase", |p| pct(writeback_increase(p))),
            ("Total", |p| pct(total_increase(p))),
        ]),
        note: |pairs| {
            let trend: Vec<String> = L2_SIZES
                .iter()
                .map(|&size| {
                    let mb = size / (1024 * 1024);
                    let at_size = pairs.iter().filter(|p| l2_mb(p) == mb);
                    format!("{mb}MB: {}", pct(mean(at_size.map(total_increase))))
                })
                .collect();
            format!(
                "Average increase by L2 capacity — {} (paper shape: PV interferes less as the L2 \
                 grows; minimal at 8 MB).",
                trend.join(", ")
            )
        },
    }
}

/// The pair's total L2 capacity in megabytes.
fn l2_mb(pair: &Pair) -> u64 {
    match pair.spec.hierarchy {
        HierarchyVariant::L2Size(bytes) => bytes / (1024 * 1024),
        other => unreachable!("Figure 10 sweeps L2 sizes, not {}", other.label()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_three_sizes() {
        let variants = comparison().variants;
        assert_eq!(variants.len(), 3);
        assert_eq!(variants[2], HierarchyVariant::L2Size(8 * 1024 * 1024));
    }
}
