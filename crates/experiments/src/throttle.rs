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

use crate::bandwidth::cycles_per_transfer_sweep;
use crate::report::{pct, Table};
use crate::runner::{HierarchyVariant, RunSpec, Runner};
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

/// The workloads compared: an accurate predictor (stays unthrottled) and a
/// wasteful one (gets suppressed).
pub fn workloads() -> [WorkloadId; 2] {
    [WorkloadId::Qry1, WorkloadId::Apache]
}

/// The prefetchers compared at each bandwidth point.
pub fn configurations() -> [PrefetcherKind; 2] {
    [
        PrefetcherKind::sms_pv8(),
        PrefetcherKind::sms_pv8_throttled(),
    ]
}

/// One throttling-sweep row.
#[derive(Debug, Clone)]
pub struct ThrottleRow {
    /// Workload name.
    pub workload: String,
    /// Prefetcher label (`"SMS-PV8"` or `"SMS-PV8-throttled"`).
    pub config: String,
    /// DRAM data-bus cost in cycles per block for this point.
    pub cycles_per_transfer: u64,
    /// Aggregate IPC.
    pub ipc: f64,
    /// Speedup over the no-prefetch baseline at the same bandwidth.
    pub speedup: f64,
    /// Total DRAM queueing-delay cycles charged to predictor traffic.
    pub pv_queue_cycles: u64,
    /// Total DRAM queueing-delay cycles charged to application traffic.
    pub app_queue_cycles: u64,
    /// Data prefetches issued into the L1s.
    pub prefetches_issued: u64,
    /// Predictions dropped by the throttle (zero for fixed-degree runs).
    pub dropped_prefetches: u64,
    /// Windowed prefetch accuracy the controller observed (zero for
    /// fixed-degree runs, which sample nothing).
    pub accuracy: f64,
    /// Deepest throttle level any core reached.
    pub max_level: u8,
    /// Next-line instruction prefetches issued (all configurations run the
    /// baseline I-prefetcher).
    pub next_line_issued: u64,
    /// Next-line duplicate-miss suppressions.
    pub next_line_suppressed: u64,
}

/// Runs the sweep and returns one row per (workload, prefetcher,
/// bandwidth point).
pub fn rows(runner: &Runner) -> Vec<ThrottleRow> {
    rows_for(runner, &workloads())
}

/// Runs the sweep for a subset of workloads (used by tests).
pub fn rows_for(runner: &Runner, workloads: &[WorkloadId]) -> Vec<ThrottleRow> {
    let mut specs: Vec<RunSpec> = Vec::new();
    for &workload in workloads {
        for &cycles_per_transfer in &cycles_per_transfer_sweep() {
            let hierarchy = HierarchyVariant::QueuedDram {
                cycles_per_transfer,
            };
            specs.push(RunSpec {
                workload: workload.into(),
                prefetcher: PrefetcherKind::None,
                hierarchy,
            });
            for prefetcher in configurations() {
                specs.push(RunSpec {
                    workload: workload.into(),
                    prefetcher,
                    hierarchy,
                });
            }
        }
    }
    runner.prefetch(&specs);

    let mut rows = Vec::new();
    for &workload in workloads {
        for &cycles_per_transfer in &cycles_per_transfer_sweep() {
            let hierarchy = HierarchyVariant::QueuedDram {
                cycles_per_transfer,
            };
            let baseline = runner.metrics(&RunSpec {
                workload: workload.into(),
                prefetcher: PrefetcherKind::None,
                hierarchy,
            });
            for prefetcher in configurations() {
                let metrics = runner.metrics(&RunSpec {
                    workload: workload.into(),
                    prefetcher,
                    hierarchy,
                });
                let delay = metrics.hierarchy.dram_queue_delay;
                rows.push(ThrottleRow {
                    workload: workload.name().to_owned(),
                    config: metrics.configuration.clone(),
                    cycles_per_transfer,
                    ipc: metrics.aggregate_ipc(),
                    speedup: metrics.speedup_over(&baseline),
                    pv_queue_cycles: delay.predictor_cycles(),
                    app_queue_cycles: delay.application_cycles(),
                    prefetches_issued: metrics.prefetches_issued,
                    dropped_prefetches: metrics.dropped_prefetches(),
                    accuracy: metrics.throttle.as_ref().map_or(0.0, |t| t.accuracy()),
                    max_level: metrics.throttle.as_ref().map_or(0, |t| t.max_level_reached()),
                    next_line_issued: metrics.next_line_issued(),
                    next_line_suppressed: metrics.next_line_suppressed(),
                });
            }
        }
    }
    rows
}

/// Renders the throttling report.
pub fn report(runner: &Runner) -> String {
    let mut table = Table::new(
        "Feedback-directed throttling — fixed vs adaptive issue degree under queued DRAM \
         contention",
    );
    table.header([
        "Workload",
        "Config",
        "Cycles/transfer",
        "Speedup vs NoPrefetch",
        "PV queue cycles",
        "App queue cycles",
        "Prefetches",
        "Dropped",
        "Window accuracy",
        "Max level",
        "NL issued",
        "NL suppressed",
    ]);
    for row in rows(runner) {
        table.row([
            row.workload,
            row.config,
            row.cycles_per_transfer.to_string(),
            pct(row.speedup),
            row.pv_queue_cycles.to_string(),
            row.app_queue_cycles.to_string(),
            row.prefetches_issued.to_string(),
            row.dropped_prefetches.to_string(),
            if row.accuracy > 0.0 {
                pct(row.accuracy)
            } else {
                "-".to_owned()
            },
            row.max_level.to_string(),
            row.next_line_issued.to_string(),
            row.next_line_suppressed.to_string(),
        ]);
    }
    table.note(
        "The throttle controller maps the windowed prefetch accuracy pv-mem samples (used vs \
         evicted-unused prefetched lines per epoch) to an issue-degree cap with hysteresis. \
         Accurate streams (Qry1) sit in the dead band and keep their full speedup; wasteful \
         streams (Apache) are suppressed, which frees DRAM bandwidth exactly when it is scarce: \
         at the slowest bus the throttled variant strictly reduces the queueing delay predictor \
         traffic observes while matching or beating fixed-degree IPC. NL columns are the \
         baseline next-line instruction prefetcher every configuration runs.",
    );
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compared_configurations_are_fixed_and_throttled_variants_of_the_same_design() {
        let [fixed, throttled] = configurations();
        assert!(!fixed.is_throttled());
        assert!(throttled.is_throttled());
        assert_eq!(format!("{}-throttled", fixed.label()), throttled.label());
        assert_eq!(fixed.pv_bytes_per_core(), throttled.pv_bytes_per_core());
    }
}
