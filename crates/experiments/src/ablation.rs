//! Ablation studies beyond the paper's figures, for the design decisions
//! DESIGN.md calls out: the PVCache capacity and the importance of packing a
//! whole PHT set into one memory block.

use crate::comparison::{homogeneous, Comparison, Pair, Rows};
use crate::report::{pct, Table};
use crate::runner::HierarchyVariant;
use pv_core::PvConfig;
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

/// The PVCache-capacity sweep (4 to 32 sets) against the dedicated 1K-set
/// SMS, on one capacity-sensitive OLTP workload and one scan.
pub fn comparison() -> Comparison {
    Comparison {
        title: "Ablation — PVCache capacity (supports the paper's choice of 8 sets)".to_owned(),
        workloads: homogeneous(&[WorkloadId::Oracle, WorkloadId::Qry1]),
        variants: vec![HierarchyVariant::Base],
        baseline: Some(PrefetcherKind::sms_1k_11a()),
        kinds: [4, 8, 16, 32]
            .map(|sets| PrefetcherKind::sms_virtualized(PvConfig::pv8().with_pvcache_sets(sets)))
            .to_vec(),
        rows: Rows::PerRun(vec![
            ("Workload", |p| p.workload()),
            ("PVCache sets", |p| pv_config(p).pvcache_sets.to_string()),
            ("Coverage", |p| pct(p.run.coverage.coverage())),
            ("PVCache hit ratio", |p| {
                pct(p.run.pv.map(|pv| pv.pvcache_hit_ratio()).unwrap_or(0.0))
            }),
            ("L2 request increase", |p| {
                pct(p.run.l2_request_increase_over(p.base()))
            }),
            ("On-chip storage", |p| {
                let budget = pv_sms::VirtualizedPht::storage_budget(&pv_config(p));
                format!("{}B", budget.total_bytes())
            }),
        ]),
        note: |_| {
            "Paper Section 4.3: growing the PVCache from 8 to 16 or 32 sets barely reduces the extra L2 \
             traffic, so 8 sets is the sweet spot. Coverage should stay flat across the sweep while \
             storage grows."
                .to_owned()
        },
    }
}

/// The virtualization configuration of a pair's SMS-PV run.
fn pv_config(pair: &Pair) -> PvConfig {
    match pair.spec.prefetcher {
        PrefetcherKind::VirtualizedSms { pv, .. } => pv,
        ref other => unreachable!("the ablation sweeps SMS-PV, not {}", other.label()),
    }
}

/// The set-packing table (Figure 3a layout): static, no simulation.
pub(crate) fn packing() -> String {
    let mut packing = Table::new("Ablation — set packing (Figure 3a layout)");
    packing.header([
        "Layout",
        "Entries per 64B block",
        "PVTable footprint",
        "Requests per PHT-set fetch",
    ]);
    let packed = PvConfig::pv8();
    let ways = pv_core::PvLayout::of::<pv_sms::SmsEntry>(packed.block_bytes).entries_per_block();
    packing.row([
        "Packed (paper)".to_owned(),
        ways.to_string(),
        format!("{}KB", packed.table_bytes() / 1024),
        "1".to_owned(),
    ]);
    packing.row([
        "Unpacked (one entry per block)".to_owned(),
        "1".to_owned(),
        format!("{}KB", ways as u64 * packed.table_bytes() / 1024),
        ways.to_string(),
    ]);
    packing.note(
        "Packing a whole 11-way set into one block is what lets a single L2 request deliver every candidate \
         entry for a lookup; an unpacked layout would need 11x the memory requests and 11x the footprint.",
    );
    packing.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_definitions_are_consistent() {
        let comparison = comparison();
        let labels: Vec<String> = comparison.kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels, ["SMS-PV4", "SMS-PV8", "SMS-PV16", "SMS-PV32"]);
        assert_eq!(comparison.workloads.len(), 2);
    }

    #[test]
    fn storage_grows_with_pvcache_size() {
        let small = pv_sms::VirtualizedPht::storage_budget(&PvConfig::pv8().with_pvcache_sets(4))
            .total_bytes();
        let large = pv_sms::VirtualizedPht::storage_budget(&PvConfig::pv8().with_pvcache_sets(32))
            .total_bytes();
        assert!(small < large);
    }
}
