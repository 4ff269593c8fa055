//! Dynamic PV-region repartitioning: does capacity-follows-demand beat a
//! frozen split when the workload moves?
//!
//! The cohabitation experiment sizes the PV region for both tables (128 KB
//! per core) and never moves the boundary. This experiment runs the pair
//! *scarce* — the paper-default 64 KB region, half of each table backed —
//! and compares two arms under the PR-6 non-stationary scenarios:
//!
//! * **static** (`SMS+Markov-shPV8-scarce`): the even block-aligned split,
//!   frozen for the whole run (`step_blocks == 0`);
//! * **dynamic** (`SMS+Markov-shPV8-dyn`): the same starting split, with
//!   the per-core [`pv_sim::RepartitionController`] moving blocks toward
//!   whichever table shows more PVC$ misses per backed block at each
//!   window edge.
//!
//! Both arms run **cold** — the usual warm-up records are folded into the
//! measurement window — because the whole point is the transient: starting
//! from the deliberately wrong even split, the capacity trace shows every
//! boundary move of the re-convergence, and "epochs to re-converge" is the
//! window of the last move against the total windows observed. (A warmed-up
//! run hides the transient: the controller converges during warm-up and the
//! measured trace is empty.)
//!
//! The report shows per-table PVC$ hit rates (unbacked lookups count as
//! misses, so the hit rate reflects the allocation), the number of boundary
//! moves, and how quickly the plan settles — a controller that converged
//! stops moving well before the run ends.

use crate::report::{pct, Table};
use crate::runner::{par_map, HierarchyVariant, RunSpec, Runner, Scale};
use crate::scenarios::flip_period;
use pv_mem::ContentionModel;
use pv_sim::{PrefetcherKind, RunMetrics};
use pv_trace::Scenario;
use pv_workloads::WorkloadId;

/// PV bytes reserved per core: deliberately half of what the two 64 KB
/// tables would need — scarcity is the point of repartitioning.
pub const PV_BYTES_PER_CORE: u64 = 64 * 1024;

/// The scarce hierarchy both arms run under.
pub fn scarce_hierarchy() -> HierarchyVariant {
    HierarchyVariant::PvRegion {
        bytes_per_core: PV_BYTES_PER_CORE,
        contention: ContentionModel::Ideal,
    }
}

/// The static control arm: the even split, frozen.
pub fn static_arm() -> PrefetcherKind {
    PrefetcherKind::composite_shared_scarce(8)
}

/// The dynamic arm: the same split plus the feedback controller.
pub fn dynamic_arm() -> PrefetcherKind {
    PrefetcherKind::composite_shared_dynamic(8)
}

/// The non-stationary scenarios the arms are compared on: the Qry2 ⇄ Db2
/// phase flip (the two stationary workloads whose converged splits sit the
/// furthest apart, so the equilibrium boundary moves when the phase does)
/// and the Oracle flash crowd (demand spikes, then relaxes).
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    let period = flip_period(scale);
    vec![
        Scenario::PhaseFlip {
            a: WorkloadId::Qry2,
            b: WorkloadId::Db2,
            period,
        },
        Scenario::FlashCrowd {
            workload: WorkloadId::Oracle,
            calm: period,
            spike: period / 2,
            intensity_pct: 250,
        },
    ]
}

/// The full spec grid — every scenario under both arms, in report order
/// (the report runs each one cold through [`run_arm`]).
pub fn specs(scale: Scale) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for scenario in scenarios(scale) {
        for prefetcher in [static_arm(), dynamic_arm()] {
            specs.push(RunSpec {
                workload: scenario.into(),
                prefetcher,
                hierarchy: scarce_hierarchy(),
            });
        }
    }
    specs
}

/// Runs one arm cold and returns its metrics: the scale's record budget
/// with the warm-up folded into measurement.
pub fn run_arm(scale: Scale, spec: &RunSpec) -> RunMetrics {
    let mut config = spec.config(scale);
    config.measure_records += config.warmup_records;
    config.warmup_records = 0;
    spec.run(&config)
}

/// One comparison row.
#[derive(Debug, Clone)]
pub struct RepartitionRow {
    /// Scenario name.
    pub scenario: String,
    /// Configuration label (`"…-scarce"` / `"…-dyn"`).
    pub config: String,
    /// Aggregate IPC.
    pub ipc: f64,
    /// Prefetch coverage.
    pub coverage: f64,
    /// Per-table PVC$ hit rates (`label → ratio`).
    pub table_hit_rates: Vec<(String, f64)>,
    /// Completed controller windows, summed over cores.
    pub windows: u64,
    /// Boundary moves, summed over cores.
    pub replans: u64,
    /// Window of the last boundary move any core made (0 = never moved) —
    /// the epochs-to-reconverge figure.
    pub settle_window: u64,
    /// Shared-cache entries invalidated by boundary moves.
    pub invalidated: u64,
    /// Mean backed blocks per table per core at the end of the run.
    pub backed_per_core: Vec<u64>,
}

/// Runs the grid cold and gathers one row per (scenario, arm).
pub fn rows(runner: &Runner) -> Vec<RepartitionRow> {
    let scale = runner.scale();
    let specs = specs(scale);
    let metrics = par_map(&specs, runner.threads(), |spec| run_arm(scale, spec));
    specs
        .iter()
        .zip(&metrics)
        .map(|(spec, metrics)| {
            let cores = metrics.per_core_ipc.len().max(1) as u64;
            let repartition = metrics.repartition.as_ref().expect("both arms carry a controller");
            RepartitionRow {
                scenario: spec.workload.label(),
                config: metrics.configuration.clone(),
                ipc: metrics.aggregate_ipc(),
                coverage: metrics.coverage.coverage(),
                table_hit_rates: metrics
                    .pv_tables
                    .iter()
                    .map(|t| (t.label.clone(), t.stats.pvcache_hit_ratio()))
                    .collect(),
                windows: repartition.windows,
                replans: repartition.replans,
                settle_window: repartition.last_replan_window(),
                invalidated: repartition.invalidated_entries,
                backed_per_core: repartition.final_backed.iter().map(|b| b / cores).collect(),
            }
        })
        .collect()
}

/// Renders the repartitioning report.
pub fn report(runner: &Runner) -> String {
    let mut table = Table::new(format!(
        "Dynamic PV-region repartitioning — static vs utility-driven boundaries on a scarce \
         {} KB/core region (cold start: the capacity transient is the experiment)",
        PV_BYTES_PER_CORE / 1024
    ));
    table.header([
        "Scenario",
        "Config",
        "IPC",
        "Coverage",
        "PVC$ hit rates",
        "Backed/core",
        "Windows",
        "Replans",
        "Last move (win)",
        "Invalidated",
    ]);
    for row in rows(runner) {
        let hit_rates = row
            .table_hit_rates
            .iter()
            .map(|(label, ratio)| format!("{label} {}", pct(*ratio)))
            .collect::<Vec<_>>()
            .join(", ");
        let backed =
            row.backed_per_core.iter().map(|b| b.to_string()).collect::<Vec<_>>().join("+");
        table.row([
            row.scenario,
            row.config,
            format!("{:.3}", row.ipc),
            pct(row.coverage),
            hit_rates,
            backed,
            row.windows.to_string(),
            row.replans.to_string(),
            row.settle_window.to_string(),
            row.invalidated.to_string(),
        ]);
    }
    table.note(
        "Both arms start cold from the same even block-aligned split of a region too small for \
         both tables (unbacked lookups count as PVC$ misses, so hit rates reflect the \
         allocation). The dynamic arm moves blocks toward the table with more misses per backed \
         block at window edges, gated by a hysteresis dead band, a two-window confirmation \
         streak, a per-table floor and an overshoot look-ahead; boundary moves only invalidate \
         the metadata cache entries whose backing block migrated — contents are write-through, \
         so no data is ever copied. 'Last move' against 'Windows' (per core: divide by the core \
         count) is the re-convergence figure: a controller that converged stops moving.",
    );
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit_rate(metrics: &RunMetrics, label: &str) -> f64 {
        metrics
            .pv_tables
            .iter()
            .find(|t| t.label == label)
            .expect("cohabiting runs report both tables")
            .stats
            .pvcache_hit_ratio()
    }

    /// The acceptance pin: starting from the wrong (even) split, the
    /// controller shifts capacity toward the hot table across the phase
    /// flip, beats the frozen split's hit rate there, and settles instead
    /// of thrashing.
    #[test]
    fn the_controller_shifts_capacity_toward_the_hot_table_across_the_flip() {
        // The flip under the static arm, then under the dynamic one.
        let runs = par_map(&specs(Scale::Smoke)[..2], 2, |spec| {
            run_arm(Scale::Smoke, spec)
        });
        let (frozen, dynamic) = (&runs[0], &runs[1]);

        let repartition = dynamic.repartition.as_ref().expect("controller metrics");
        assert!(
            repartition.replans > 0,
            "imbalanced table pressure must move the boundary"
        );
        // The hot table ended with more than its even share (512 blocks per
        // core); the controller must have given it capacity.
        let cores = dynamic.per_core_ipc.len() as u64;
        let even_share = cores * 512;
        let hot = if repartition.final_backed[0] >= repartition.final_backed[1] {
            0
        } else {
            1
        };
        assert!(
            repartition.final_backed[hot] > even_share,
            "the hot table must end above the even split ({:?})",
            repartition.final_backed
        );
        // …and beat the frozen split's PVC$ hit rate on that table.
        let label = &dynamic.pv_tables[hot].label;
        assert!(
            hit_rate(dynamic, label) > hit_rate(frozen, label),
            "dynamic must beat static on the newly-hot table {label}: {:.4} vs {:.4}",
            hit_rate(dynamic, label),
            hit_rate(frozen, label)
        );
        // Bounded re-convergence: every move happens in the first half of
        // the run — the split matches the demand long before the end.
        let windows_per_core = repartition.windows / cores;
        assert!(
            repartition.last_replan_window() <= windows_per_core / 2,
            "the controller must settle: last move at window {} of {}",
            repartition.last_replan_window(),
            windows_per_core
        );
        // The frozen arm ran under identical scarcity and never moved.
        let control = frozen.repartition.as_ref().expect("controller metrics");
        assert_eq!(control.replans, 0);
    }

    /// A stationary workload settles during warm-up: zero boundary moves in
    /// the measurement window.
    #[test]
    fn a_stable_workload_triggers_no_replans_after_warm_up() {
        let runner = Runner::new(Scale::Smoke, 2);
        let spec = RunSpec {
            workload: WorkloadId::Apache.into(),
            prefetcher: dynamic_arm(),
            hierarchy: scarce_hierarchy(),
        };
        let metrics = runner.metrics(&spec);
        let repartition = metrics.repartition.as_ref().expect("controller metrics");
        assert!(repartition.windows > 0);
        assert_eq!(
            repartition.replans, 0,
            "a stationary workload must not move the boundary after warm-up \
             (trace: {:?})",
            repartition.plan_trace
        );
    }

    /// Replanning is driven by access counts, never wall-clock: the dynamic
    /// arm produces bit-identical digests and controller metrics whether the
    /// runner fans out over one thread or eight.
    #[test]
    fn dynamic_runs_are_deterministic_across_runner_thread_counts() {
        let spec = RunSpec {
            workload: scenarios(Scale::Smoke)[0].into(),
            prefetcher: dynamic_arm(),
            hierarchy: scarce_hierarchy(),
        };
        let one = Runner::new(Scale::Smoke, 1);
        let eight = Runner::new(Scale::Smoke, 8);
        one.prefetch(std::slice::from_ref(&spec));
        eight.prefetch(std::slice::from_ref(&spec));
        let a = one.metrics(&spec);
        let b = eight.metrics(&spec);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.repartition, b.repartition);
    }

    #[test]
    fn the_grid_crosses_scenarios_with_both_arms() {
        let specs = specs(Scale::Smoke);
        assert_eq!(specs.len(), 4);
        assert!(specs.iter().all(|s| s.prefetcher.is_repartitioned()));
        assert_eq!(
            specs.iter().filter(|s| s.prefetcher == dynamic_arm()).count(),
            2
        );
    }
}
