//! Bandwidth sensitivity: where virtualized prefetchers win or lose once
//! predictor traffic actually competes with demand traffic.
//!
//! The paper argues PV's extra memory traffic is small enough not to hurt —
//! an argument that is only testable when the memory system has *finite*
//! bandwidth. This experiment runs under [`ContentionModel::Queued`]
//! (`HierarchyVariant::QueuedDram`) and sweeps the DRAM data-bus transfer
//! cost from fast to slow, comparing the dedicated-table SMS prefetcher
//! against SMS-PV8 at every point. Reported per row: speedup over the
//! no-prefetch baseline *at the same bandwidth*, the measured mean DRAM
//! queueing delay split into application and predictor traffic, and the
//! aggregate data-bus utilization. As bandwidth shrinks the queueing delay
//! must rise monotonically — the contention model's acceptance invariant —
//! and the virtualized design's advantage erodes first, because its PHT
//! misses consume the same scarce bus the demand stream needs.
//!
//! [`ContentionModel::Queued`]: pv_mem::ContentionModel

use crate::comparison::{homogeneous, Comparison, Pair, Rows};
use crate::report::pct;
use crate::runner::HierarchyVariant;
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

/// The swept DRAM data-bus costs in cycles per 64-byte block, fastest
/// first. 16 is the baseline 4-byte-per-cycle bus of `DramConfig::paper`;
/// 128 is a starved half-byte-per-cycle bus. Decreasing bandwidth =
/// increasing cycles per transfer.
pub fn cycles_per_transfer_sweep() -> [u64; 4] {
    [16, 32, 64, 128]
}

/// The queued-DRAM hierarchy at every point of the sweep, fastest first.
pub(crate) fn queued_sweep() -> Vec<HierarchyVariant> {
    cycles_per_transfer_sweep()
        .map(|cycles_per_transfer| HierarchyVariant::QueuedDram {
            cycles_per_transfer,
        })
        .to_vec()
}

/// The DRAM data-bus cost in cycles per block of a pair's sweep point.
pub fn cycles_per_transfer(pair: &Pair) -> u64 {
    match pair.spec.hierarchy {
        HierarchyVariant::QueuedDram {
            cycles_per_transfer,
        } => cycles_per_transfer,
        other => unreachable!("not a bandwidth sweep point: {}", other.label()),
    }
}

/// The dedicated-table SMS and SMS-PV8 against the no-prefetch baseline at
/// every bandwidth point, on the scan query (largest prefetching upside)
/// and a web workload (large footprint, more irregular traffic).
pub fn comparison() -> Comparison {
    Comparison {
        title: "Bandwidth sensitivity — dedicated vs virtualized SMS under queued DRAM contention"
            .to_owned(),
        workloads: homogeneous(&[WorkloadId::Qry1, WorkloadId::Apache]),
        variants: queued_sweep(),
        baseline: Some(PrefetcherKind::None),
        kinds: vec![PrefetcherKind::sms_1k_11a(), PrefetcherKind::sms_pv8()],
        rows: Rows::PerRun(vec![
            ("Workload", |p| p.workload()),
            ("Config", |p| p.run.configuration.clone()),
            ("Cycles/transfer", |p| cycles_per_transfer(p).to_string()),
            ("Speedup vs NoPrefetch", |p| pct(p.speedup())),
            ("App queue cycles", |p| {
                p.run.hierarchy.dram_queue_delay.application_cycles().to_string()
            }),
            ("PV queue cycles", |p| {
                p.run.hierarchy.dram_queue_delay.predictor_cycles().to_string()
            }),
            ("App queue delay (cyc/read)", |p| {
                format!("{:.1}", p.run.dram_queue_delay_application())
            }),
            ("PV queue delay (cyc/read)", |p| {
                format!("{:.1}", p.run.dram_queue_delay_predictor())
            }),
            ("DRAM bus utilization", |p| pct(p.run.dram_utilization())),
        ]),
        note: |_| {
            "ContentionModel::Queued: L2 banks, MSHR files and DRAM channel queues are all finite, so \
             predictor traffic competes with demand traffic for the same bus. Queueing delay must rise \
             monotonically as the configured bandwidth falls (cycles/transfer grows); the virtualized \
             design loses its edge first because PHT misses spend the bandwidth the demand stream \
             needs."
                .to_owned()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_ordered_fastest_first() {
        let sweep = cycles_per_transfer_sweep();
        assert!(sweep.windows(2).all(|pair| pair[0] < pair[1]));
    }
}
