//! Backend generality: two different predictors on one substrate.
//!
//! The paper's thesis is that Predictor Virtualization is a general
//! mechanism, with SMS only the case study (Sections 2 and 3). This
//! experiment demonstrates it end to end: the SMS prefetcher (43-bit packed
//! entries, 11 per block) and the PC-indexed next-address Markov prefetcher
//! (40-bit entries, 12 per block) both run through the *same* generic
//! PVProxy, and the report compares their packed layouts, on-chip budgets
//! and the predictor-classified memory traffic each induces.

use crate::comparison::{homogeneous, Comparison, Pair, Rows};
use crate::report::pct;
use crate::runner::HierarchyVariant;
use pv_core::{PvConfig, PvLayout};
use pv_markov::{MarkovEntry, VirtualizedMarkov};
use pv_sim::PrefetcherKind;
use pv_sms::{SmsEntry, VirtualizedPht};
use pv_workloads::WorkloadId;

/// Both virtualized backends (PV-8) on a scan and an OLTP workload.
pub fn comparison() -> Comparison {
    Comparison {
        title: "Backend generality — two predictors, one virtualization substrate (PVProxy, PV-8)"
            .to_owned(),
        workloads: homogeneous(&[WorkloadId::Qry1, WorkloadId::Oracle]),
        variants: vec![HierarchyVariant::Base],
        baseline: None,
        kinds: vec![PrefetcherKind::sms_pv8(), PrefetcherKind::markov_pv8()],
        rows: Rows::PerRun(vec![
            ("Workload", |p| p.workload()),
            ("Backend", |p| p.run.configuration.clone()),
            ("Entry bits", |p| backend(p).0.entry_bits().to_string()),
            ("Entries/block", |p| {
                backend(p).0.entries_per_block().to_string()
            }),
            ("On-chip storage", |p| format!("{}B", backend(p).1)),
            ("Coverage", |p| pct(p.run.coverage.coverage())),
            ("PV memory requests", |p| {
                let pv = p.run.pv.expect("virtualized run must expose PV stats");
                pv.memory_requests.to_string()
            }),
            ("L2 predictor requests", |p| {
                p.run.hierarchy.l2_requests.predictor.to_string()
            }),
        ]),
        note: |_| {
            "Both backends run through the same generic PVProxy; only the PvEntry implementation \
             differs. The packed geometry (43-bit/11-per-block for SMS, 40-bit/12-per-block for \
             Markov) and the storage budget are derived from each backend's entry widths, not \
             hard-coded."
                .to_owned()
        },
    }
}

/// The packed layout and on-chip storage bytes of a pair's backend, both
/// derived from its entry widths.
fn backend(pair: &Pair) -> (PvLayout, u64) {
    let pv = PvConfig::pv8();
    match pair.spec.prefetcher {
        PrefetcherKind::VirtualizedSms { .. } => (
            PvLayout::of::<SmsEntry>(pv.block_bytes),
            VirtualizedPht::storage_budget(&pv).total_bytes(),
        ),
        PrefetcherKind::VirtualizedMarkov { .. } => (
            PvLayout::of::<MarkovEntry>(pv.block_bytes),
            VirtualizedMarkov::storage_budget(&pv).total_bytes(),
        ),
        ref other => unreachable!("not a virtualized backend: {}", other.label()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_differ_between_backends() {
        let pv = PvConfig::pv8();
        let sms = PvLayout::of::<SmsEntry>(pv.block_bytes);
        let markov = PvLayout::of::<MarkovEntry>(pv.block_bytes);
        assert_eq!(sms.entry_bits(), 43);
        assert_eq!(markov.entry_bits(), 40);
        assert_ne!(sms.entries_per_block(), markov.entries_per_block());
    }
}
