//! Figure 8: the PV-8 off-chip traffic increase split into application data
//! and predictor (PV) data.
//!
//! The paper's two observations: predictor entries cached in the L2 do not
//! meaningfully pollute it (application-data misses grow by ~1% on average),
//! and almost all PVProxy requests are filled from the L2, so very little
//! predictor data travels off-chip.

use crate::comparison::{homogeneous, Comparison, Rows};
use crate::report::{mean, pct};
use crate::runner::HierarchyVariant;
use pv_sim::{PrefetcherKind, RunMetrics};
use pv_workloads::WorkloadId;

/// PV-8 against the non-virtualized SMS on every workload. Every increase
/// is relative to the non-virtualized run's off-chip traffic.
pub fn comparison() -> Comparison {
    Comparison {
        title: "Figure 8 — PV-8 off-chip traffic increase split into application and PV data"
            .to_owned(),
        workloads: homogeneous(&WorkloadId::all()),
        variants: vec![HierarchyVariant::Base],
        baseline: Some(PrefetcherKind::sms_1k_11a()),
        kinds: vec![PrefetcherKind::sms_pv8()],
        rows: Rows::PerRun(vec![
            ("Workload", |p| p.workload()),
            ("L2 misses (app)", |p| {
                let misses = |run: &RunMetrics| run.hierarchy.l2_misses.application as f64;
                pct(p.offchip_share(misses(&p.run) - misses(p.base())))
            }),
            ("L2 misses (PV)", |p| {
                pct(p.offchip_share(p.run.hierarchy.l2_misses.predictor as f64))
            }),
            ("Writebacks (app)", |p| {
                let writebacks = |run: &RunMetrics| run.hierarchy.l2_writebacks.application as f64;
                pct(p.offchip_share(writebacks(&p.run) - writebacks(p.base())))
            }),
            ("Writebacks (PV)", |p| {
                pct(p.offchip_share(p.run.hierarchy.l2_writebacks.predictor as f64))
            }),
            ("PV requests filled on chip", |p| {
                pct(filled_on_chip(&p.run))
            }),
        ]),
        note: |pairs| {
            format!(
                "Measured mean fraction of PVProxy requests filled by the L2: {} (paper: more than 98% \
                 across all applications; application-data misses grow by ~1% on average, at most \
                 2.5%).",
                pct(mean(pairs.iter().map(|p| filled_on_chip(&p.run))))
            )
        },
    }
}

/// Fraction of PVProxy memory requests satisfied on chip (by the L2).
fn filled_on_chip(run: &RunMetrics) -> f64 {
    let requests = &run.hierarchy.l2_requests;
    if requests.predictor == 0 {
        0.0
    } else {
        1.0 - run.hierarchy.l2_misses.predictor as f64 / requests.predictor as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Runner, Scale};

    #[test]
    fn smoke_run_shows_pv_data_served_from_l2() {
        let runner = Runner::new(Scale::Smoke, 4);
        let pairs = comparison().on(&[WorkloadId::Qry1]).pairs(&runner);
        assert!(
            filled_on_chip(&pairs[0].run) > 0.5,
            "most PV requests should be L2 hits"
        );
    }
}
