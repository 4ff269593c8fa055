//! Figure 11: performance of the virtualized prefetcher with a slower L2
//! (8-cycle tag / 16-cycle data instead of 6/12).

use crate::comparison::{homogeneous, Comparison, Pair, Rows};
use crate::report::{mean, pct};
use crate::runner::HierarchyVariant;
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

/// The speedups of the dedicated SMS-1K and of SMS-PV8 over the
/// no-prefetch baseline, all on the slow L2, and their difference.
pub fn comparison() -> Comparison {
    Comparison {
        title: "Figure 11 — speedup with increased L2 latency (8/16-cycle tag/data)".to_owned(),
        workloads: homogeneous(&WorkloadId::all()),
        variants: vec![HierarchyVariant::SlowL2],
        baseline: Some(PrefetcherKind::None),
        kinds: vec![PrefetcherKind::sms_1k_11a(), PrefetcherKind::sms_pv8()],
        rows: Rows::PerWorkload {
            columns: vec![
                ("SMS-1K", |p| p[0].speedup()),
                ("SMS-PV8", |p| p[1].speedup()),
                ("Difference", difference),
            ],
            average: false,
        },
        note: |pairs| {
            format!(
                "Mean |difference|: {} (paper: the average difference between the dedicated and \
                 virtualized prefetcher stays below 1.5% even with the slower L2).",
                pct(mean(pairs.chunks(2).map(|p| difference(p).abs())))
            )
        },
    }
}

/// SMS-1K's speedup minus SMS-PV8's on one workload.
fn difference(pairs: &[Pair]) -> f64 {
    pairs[0].speedup() - pairs[1].speedup()
}
