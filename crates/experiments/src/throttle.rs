//! Feedback-directed throttling: can a prefetcher that knows how useful
//! its prefetches are defend its performance when bandwidth gets scarce?
//!
//! The fixed-degree prefetchers issue every prediction regardless of how
//! many of the resulting lines are ever used, so under queued DRAM
//! contention ([`HierarchyVariant::QueuedDram`]) their useless prefetches
//! compete with the demand stream — and with their own PV metadata
//! traffic — for the same scarce data bus. This experiment sweeps the
//! bandwidth knob (cycles per 64-byte transfer, larger = slower) and
//! compares SMS-PV8 at a fixed degree against the `-throttled` variant,
//! whose issue degree adapts to the windowed prefetch accuracy `pv-mem`
//! samples.
//!
//! Two workloads bracket the feedback policy: the scan query (Qry1)
//! predicts accurately, stays inside the controller's dead band, and must
//! keep its large speedup; the web workload (Apache) mispredicts a third
//! of its prefetches, gets throttled, and at the scarcest point the
//! throttled variant must *strictly* reduce the DRAM queueing delay its
//! predictor traffic observes while matching or beating the fixed-degree
//! IPC — the acceptance invariant pinned in `tests/tests/throttling.rs`.
//!
//! The report also surfaces the baseline next-line instruction
//! prefetcher's issued/suppressed counters, which every configuration
//! runs but no experiment previously printed.
//!
//! [`HierarchyVariant::QueuedDram`]: crate::runner::HierarchyVariant::QueuedDram

use crate::bandwidth::{cycles_per_transfer, queued_sweep};
use crate::comparison::{homogeneous, Comparison, Rows};
use crate::report::pct;
use pv_sim::{PrefetcherKind, RunMetrics};
use pv_workloads::WorkloadId;

/// SMS-PV8 at a fixed degree and its `-throttled` variant against the
/// no-prefetch baseline at every bandwidth point, on an accurate predictor
/// (Qry1, stays unthrottled) and a wasteful one (Apache, gets suppressed).
pub fn comparison() -> Comparison {
    Comparison {
        title: "Feedback-directed throttling — fixed vs adaptive issue degree under queued DRAM \
                contention"
            .to_owned(),
        workloads: homogeneous(&[WorkloadId::Qry1, WorkloadId::Apache]),
        variants: queued_sweep(),
        baseline: Some(PrefetcherKind::None),
        kinds: vec![
            PrefetcherKind::sms_pv8(),
            PrefetcherKind::sms_pv8_throttled(),
        ],
        rows: Rows::PerRun(vec![
            ("Workload", |p| p.workload()),
            ("Config", |p| p.run.configuration.clone()),
            ("Cycles/transfer", |p| cycles_per_transfer(p).to_string()),
            ("Speedup vs NoPrefetch", |p| pct(p.speedup())),
            ("PV queue cycles", |p| {
                p.run.hierarchy.dram_queue_delay.predictor_cycles().to_string()
            }),
            ("App queue cycles", |p| {
                p.run.hierarchy.dram_queue_delay.application_cycles().to_string()
            }),
            ("Prefetches", |p| p.run.prefetches_issued.to_string()),
            ("Dropped", |p| p.run.dropped_prefetches().to_string()),
            ("Window accuracy", |p| match accuracy(&p.run) {
                accuracy if accuracy > 0.0 => pct(accuracy),
                _ => "-".to_owned(),
            }),
            ("Max level", |p| max_level(&p.run).to_string()),
            ("NL issued", |p| p.run.next_line_issued().to_string()),
            ("NL suppressed", |p| {
                p.run.next_line_suppressed().to_string()
            }),
        ]),
        note: |_| {
            "The throttle controller maps the windowed prefetch accuracy pv-mem samples (used vs \
             evicted-unused prefetched lines per epoch) to an issue-degree cap with hysteresis. \
             Accurate streams (Qry1) sit in the dead band and keep their full speedup; wasteful \
             streams (Apache) are suppressed, which frees DRAM bandwidth exactly when it is scarce: \
             at the slowest bus the throttled variant strictly reduces the queueing delay predictor \
             traffic observes while matching or beating fixed-degree IPC. NL columns are the \
             baseline next-line instruction prefetcher every configuration runs."
                .to_owned()
        },
    }
}

/// Windowed prefetch accuracy the throttle controller observed (zero for
/// fixed-degree runs, which sample nothing).
pub fn accuracy(run: &RunMetrics) -> f64 {
    run.throttle.as_ref().map_or(0.0, |t| t.accuracy())
}

/// Deepest throttle level any core reached (zero for fixed-degree runs).
pub fn max_level(run: &RunMetrics) -> u8 {
    run.throttle.as_ref().map_or(0, |t| t.max_level_reached())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compared_configurations_are_fixed_and_throttled_variants_of_the_same_design() {
        let [fixed, throttled] = <[PrefetcherKind; 2]>::try_from(comparison().kinds).unwrap();
        assert!(!fixed.is_throttled());
        assert!(throttled.is_throttled());
        assert_eq!(format!("{}-throttled", fixed.label()), throttled.label());
        assert_eq!(fixed.pv_bytes_per_core(), throttled.pv_bytes_per_core());
    }
}
