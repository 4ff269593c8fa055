//! Heterogeneous multi-programmed mixes: four different workloads sharing
//! one memory system.
//!
//! The paper (and every other experiment in this harness) runs the same
//! workload on all four cores. Real consolidated servers do not: a web tier,
//! an OLTP database and two analytics queries share the L2 and the memory
//! channels. [`pv_sim::System::new_mixed`] opens that scenario class; this
//! experiment runs the canonical Apache+DB2+Qry1+Qry17 mix with no
//! prefetching, the dedicated-table SMS and the virtualized SMS-PV8, and
//! reports per-core IPC so the asymmetry is visible: the scan query core
//! speeds up the most, while the OLTP cores see little change but share
//! their L2 with everyone else's prefetches.

use crate::comparison::{Comparison, Rows};
use crate::report::pct;
use crate::runner::{HierarchyVariant, Workload};
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

/// The canonical heterogeneous mix: web + OLTP + two DSS queries.
const CANONICAL_MIX: [WorkloadId; 4] = [
    WorkloadId::Apache,
    WorkloadId::Db2,
    WorkloadId::Qry1,
    WorkloadId::Qry17,
];

/// The canonical mix under no prefetching, the dedicated-table SMS and
/// SMS-PV8; core `i` runs the mix's `i`-th workload.
pub fn comparison() -> Comparison {
    Comparison {
        title: format!(
            "Heterogeneous mix — {} sharing one L2 and memory",
            CANONICAL_MIX.map(|w| w.name()).join("+")
        ),
        workloads: vec![Workload::Mix(CANONICAL_MIX)],
        variants: vec![HierarchyVariant::Base],
        baseline: None,
        kinds: vec![
            PrefetcherKind::None,
            PrefetcherKind::sms_1k_11a(),
            PrefetcherKind::sms_pv8(),
        ],
        rows: Rows::PerRun(vec![
            ("Config", |p| p.run.configuration.clone()),
            ("IPC Apache", |p| format!("{:.3}", p.run.per_core_ipc[0])),
            ("IPC DB2", |p| format!("{:.3}", p.run.per_core_ipc[1])),
            ("IPC Qry1", |p| format!("{:.3}", p.run.per_core_ipc[2])),
            ("IPC Qry17", |p| format!("{:.3}", p.run.per_core_ipc[3])),
            ("Aggregate IPC", |p| format!("{:.3}", p.run.aggregate_ipc())),
            ("Coverage", |p| pct(p.run.coverage.coverage())),
            ("L2 PV requests", |p| {
                p.run.hierarchy.l2_requests.predictor.to_string()
            }),
        ]),
        note: |_| {
            "Core i runs the i-th workload of the mix (System::new_mixed); all cores share the L2 \
             and DRAM. Workloads differ per core, so per-core IPCs are asymmetric: the scan query \
             gains the most from prefetching while the web/OLTP cores are bounded by their irregular \
             access components."
                .to_owned()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_mix_is_heterogeneous() {
        let mut names: Vec<&str> = CANONICAL_MIX.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            4,
            "the canonical mix must not repeat workloads"
        );
    }
}
