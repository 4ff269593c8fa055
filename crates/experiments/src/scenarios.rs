//! Non-stationary scenarios: how the adaptive machinery behaves when the
//! workload's statistics change mid-run.
//!
//! Every other experiment runs stationary streams, so the PR-5 throttle
//! controller and the cohabiting shared PV cache have only ever been
//! measured at their fixed points. This experiment drives them through the
//! `pv_trace::Scenario` compositions:
//!
//! * **Phase flip** (Qry1 ⇄ Apache): the throttled SMS-PV8 run under queued
//!   DRAM contention alternates between an accurate phase (Qry1 stays in
//!   the controller's dead band) and a wasteful one (Apache trips the
//!   suppression watermark). The report measures, per core, how many
//!   accuracy epochs the controller needs to *re-converge* — return to the
//!   unthrottled level after the stream flips back to accurate — which the
//!   probe-trickle relaxation path bounds.
//! * **Cohabitation under shifting demand**: the same flip under a shared
//!   SMS + Markov PV region, reporting per-table PVC$ hit rates when table
//!   demand moves mid-run instead of settling.
//! * **Flash crowd**, **diurnal**, and **antagonist** rows characterise
//!   coverage and IPC when load spikes, breathes, or a thrashing neighbour
//!   pollutes the shared L2.

use crate::report::{pct, Table};
use crate::runner::{HierarchyVariant, RunSpec, Runner, Scale};
use pv_mem::ContentionModel;
use pv_sim::throttle::LevelChange;
use pv_sim::PrefetcherKind;
use pv_trace::Scenario;
use pv_workloads::WorkloadId;

/// Records per phase of the flip scenarios at a given scale — long enough
/// for several accuracy epochs (256 prefetch outcomes each) per phase, and
/// short enough that the measurement window sees multiple flips.
pub fn flip_period(scale: Scale) -> u64 {
    match scale {
        Scale::Smoke => 10_000,
        Scale::Quick => 30_000,
        Scale::Paper => 100_000,
    }
}

/// The phase-flip scenario the throttle re-convergence measurement uses:
/// accurate (Qry1) → wasteful (Apache) → accurate again, every
/// [`flip_period`] records.
pub fn throttle_flip(scale: Scale) -> Scenario {
    Scenario::PhaseFlip {
        a: WorkloadId::Qry1,
        b: WorkloadId::Apache,
        period: flip_period(scale),
    }
}

/// The scarce-bandwidth hierarchy the throttle scenarios run under: the
/// slowest point of the bandwidth sweep (where suppression matters most)
/// with a shortened accuracy epoch so the feedback loop completes several
/// epochs per phase and its re-convergence is observable within the run.
pub fn throttle_hierarchy() -> HierarchyVariant {
    HierarchyVariant::QueuedDramEpoch {
        cycles_per_transfer: 64,
        accuracy_epoch: 8,
    }
}

/// The characterisation scenarios (beyond the throttle flip) at a scale.
pub fn characterisation_scenarios(scale: Scale) -> Vec<Scenario> {
    let period = flip_period(scale);
    vec![
        Scenario::FlashCrowd {
            workload: WorkloadId::Oracle,
            calm: period,
            spike: period / 2,
            intensity_pct: 250,
        },
        Scenario::Diurnal {
            workload: WorkloadId::Db2,
            period: 2 * period,
            steps: 8,
            amplitude_pct: 60,
        },
        Scenario::Antagonist {
            workload: WorkloadId::Qry1,
        },
    ]
}

/// Per-core re-convergence measurement extracted from a throttle level
/// trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reconvergence {
    /// Core index.
    pub core: usize,
    /// Deepest throttle level the core reached.
    pub peak_level: u8,
    /// Total level transitions the core's controller made.
    pub transitions: usize,
    /// Accuracy epochs between the core last *reaching* its peak level and
    /// its subsequent return to level 0 — `None` if it never ratcheted up,
    /// or never relaxed back within the run.
    pub epochs_to_reconverge: Option<u64>,
}

/// Computes per-core re-convergence from a run's throttle level trace.
///
/// The trace records every level transition as `(core, 1-based accuracy
/// sample, new level)`. For each core the measurement takes the *last*
/// transition onto the core's peak level (the deepest suppression the
/// wasteful phase caused) and counts the epochs until the level next
/// returns to 0 (fully relaxed on the accurate phase).
pub fn reconvergence_per_core(trace: &[LevelChange], cores: usize) -> Vec<Reconvergence> {
    (0..cores)
        .map(|core| {
            let changes: Vec<&LevelChange> = trace.iter().filter(|c| c.core == core).collect();
            let peak_level = changes.iter().map(|c| c.level).max().unwrap_or(0);
            let epochs_to_reconverge = if peak_level == 0 {
                None
            } else {
                changes.iter().rposition(|c| c.level == peak_level).and_then(|peak_idx| {
                    let peak_sample = changes[peak_idx].sample;
                    changes[peak_idx..]
                        .iter()
                        .find(|c| c.level == 0)
                        .map(|back| back.sample - peak_sample)
                })
            };
            Reconvergence {
                core,
                peak_level,
                transitions: changes.len(),
                epochs_to_reconverge,
            }
        })
        .collect()
}

/// One characterisation row of the scenarios report.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// Scenario name.
    pub scenario: String,
    /// Prefetcher label.
    pub config: String,
    /// Hierarchy label.
    pub hierarchy: String,
    /// Aggregate IPC.
    pub ipc: f64,
    /// Prefetch coverage.
    pub coverage: f64,
    /// Data prefetches issued.
    pub prefetches_issued: u64,
    /// Predictions dropped by the throttle (zero when unthrottled).
    pub dropped_prefetches: u64,
    /// Deepest throttle level any core reached (zero when unthrottled).
    pub max_level: u8,
    /// Per-table PVC$ hit rates (`label → ratio`), for cohabiting runs.
    pub table_hit_rates: Vec<(String, f64)>,
}

fn row_for(runner: &Runner, spec: &RunSpec) -> ScenarioRow {
    let metrics = runner.metrics(spec);
    ScenarioRow {
        scenario: spec.workload.label(),
        config: metrics.configuration.clone(),
        hierarchy: spec.hierarchy.label(),
        ipc: metrics.aggregate_ipc(),
        coverage: metrics.coverage.coverage(),
        prefetches_issued: metrics.prefetches_issued,
        dropped_prefetches: metrics.dropped_prefetches(),
        max_level: metrics.throttle.as_ref().map_or(0, |t| t.max_level_reached()),
        table_hit_rates: metrics
            .pv_tables
            .iter()
            .map(|t| (t.label.clone(), t.stats.pvcache_hit_ratio()))
            .collect(),
    }
}

/// The specs the experiment runs at a scale: the throttled and fixed-degree
/// flips under scarce bandwidth, the cohabiting flip, and the
/// characterisation scenarios with SMS-PV8 on the baseline hierarchy.
pub fn specs(scale: Scale) -> Vec<RunSpec> {
    let mut specs = vec![
        RunSpec {
            workload: throttle_flip(scale).into(),
            prefetcher: PrefetcherKind::sms_pv8_throttled(),
            hierarchy: throttle_hierarchy(),
        },
        RunSpec {
            workload: throttle_flip(scale).into(),
            prefetcher: PrefetcherKind::sms_pv8(),
            hierarchy: throttle_hierarchy(),
        },
        RunSpec {
            workload: throttle_flip(scale).into(),
            prefetcher: PrefetcherKind::composite_shared(8),
            hierarchy: HierarchyVariant::PvRegion {
                bytes_per_core: PrefetcherKind::composite_shared(8).pv_bytes_per_core(),
                contention: ContentionModel::Ideal,
            },
        },
    ];
    for scenario in characterisation_scenarios(scale) {
        specs.push(RunSpec::base(scenario, PrefetcherKind::sms_pv8()));
    }
    specs
}

/// Runs every scenario spec and returns the characterisation rows.
pub fn rows(runner: &Runner) -> Vec<ScenarioRow> {
    let specs = specs(runner.scale());
    runner.prefetch(&specs);
    specs.iter().map(|spec| row_for(runner, spec)).collect()
}

/// Renders the scenarios report: the characterisation table plus the
/// throttle re-convergence table for the flip run.
pub fn report(runner: &Runner) -> String {
    let mut table = Table::new(
        "Non-stationary scenarios — phase flips, flash crowds, diurnal load, antagonist core",
    );
    table.header([
        "Scenario",
        "Config",
        "Hierarchy",
        "IPC",
        "Coverage",
        "Prefetches",
        "Dropped",
        "Max level",
        "PVC$ hit rates",
    ]);
    for row in rows(runner) {
        let hit_rates = if row.table_hit_rates.is_empty() {
            "-".to_owned()
        } else {
            row.table_hit_rates
                .iter()
                .map(|(label, ratio)| format!("{label} {}", pct(*ratio)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        table.row([
            row.scenario,
            row.config,
            row.hierarchy,
            format!("{:.3}", row.ipc),
            pct(row.coverage),
            row.prefetches_issued.to_string(),
            row.dropped_prefetches.to_string(),
            row.max_level.to_string(),
            hit_rates,
        ]);
    }
    table.note(
        "Scenarios compose the synthetic generators into non-stationary streams (pv-trace). The \
         flip rows alternate an accurate phase (Qry1) with a wasteful one (Apache); under queued \
         DRAM the throttled variant suppresses the wasteful phases and relaxes again on the \
         accurate ones, while the cohabiting run shows per-table PVC$ hit rates under shifting \
         table demand.",
    );
    let mut out = table.render();

    let spec = RunSpec {
        workload: throttle_flip(runner.scale()).into(),
        prefetcher: PrefetcherKind::sms_pv8_throttled(),
        hierarchy: throttle_hierarchy(),
    };
    let metrics = runner.metrics(&spec);
    if let Some(throttle) = &metrics.throttle {
        let mut reconverge = Table::new(
            "Throttle re-convergence across the Qry1→Apache→Qry1 phase flip (accuracy epochs)",
        );
        reconverge.header(["Core", "Peak level", "Transitions", "Epochs to re-converge"]);
        for row in reconvergence_per_core(&throttle.level_trace, metrics.per_core_ipc.len()) {
            reconverge.row([
                row.core.to_string(),
                row.peak_level.to_string(),
                row.transitions.to_string(),
                row.epochs_to_reconverge.map_or("-".to_owned(), |e| e.to_string()),
            ]);
        }
        reconverge.note(
            "Epochs between a core last reaching its peak suppression level and returning to \
             level 0 once the stream flips back to the accurate phase. The probe trickle (one \
             prediction in 16 survives even at the drop level) keeps the accuracy signal alive, \
             which is what bounds this recovery.",
        );
        out.push('\n');
        out.push_str(&reconverge.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn change(core: usize, sample: u64, level: u8) -> LevelChange {
        LevelChange {
            core,
            sample,
            level,
        }
    }

    #[test]
    fn reconvergence_measures_peak_to_zero() {
        let trace = vec![
            change(0, 3, 1),
            change(0, 4, 2),
            change(0, 9, 1),
            change(0, 11, 0),
            change(1, 5, 1),
        ];
        let rows = reconvergence_per_core(&trace, 2);
        assert_eq!(rows[0].peak_level, 2);
        assert_eq!(rows[0].transitions, 4);
        assert_eq!(rows[0].epochs_to_reconverge, Some(7), "samples 4 → 11");
        assert_eq!(rows[1].peak_level, 1);
        assert_eq!(
            rows[1].epochs_to_reconverge, None,
            "core 1 never relaxed back"
        );
    }

    #[test]
    fn reconvergence_uses_the_last_visit_to_the_peak() {
        // Two excursions to level 2; the measurement starts from the second.
        let trace = vec![
            change(0, 2, 2),
            change(0, 6, 0),
            change(0, 10, 2),
            change(0, 13, 0),
        ];
        let rows = reconvergence_per_core(&trace, 1);
        assert_eq!(rows[0].epochs_to_reconverge, Some(3), "samples 10 → 13");
    }

    #[test]
    fn quiet_cores_report_no_excursion() {
        let rows = reconvergence_per_core(&[], 4);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.peak_level == 0));
        assert!(rows.iter().all(|r| r.epochs_to_reconverge.is_none()));
    }

    #[test]
    fn spec_list_covers_throttle_cohabit_and_characterisation() {
        let specs = specs(Scale::Smoke);
        assert_eq!(specs.len(), 6);
        assert!(specs[0].prefetcher.is_throttled());
        assert!(!specs[1].prefetcher.is_throttled());
        assert!(matches!(
            specs[2].hierarchy,
            HierarchyVariant::PvRegion { .. }
        ));
        let flip = throttle_flip(Scale::Smoke);
        assert_eq!(flip.name(), "flip:Qry1>Apache@10000");
    }

    #[test]
    fn periods_grow_with_scale() {
        assert!(flip_period(Scale::Smoke) < flip_period(Scale::Quick));
        assert!(flip_period(Scale::Quick) < flip_period(Scale::Paper));
    }
}
