//! Predictor cohabitation: do two predictors amortize one PVCache?
//!
//! The paper's economic argument (Section 1) is that virtualization lets
//! *many* predictors share one physical resource. This experiment runs SMS
//! and Markov **simultaneously** on every core — each table in its own
//! sub-region of one PV region — and compares the two ways of provisioning
//! the on-chip cache:
//!
//! * **dedicated** — two private PVCaches of C/2 sets each (`SMS+Markov-2xPV4`);
//! * **shared** — one table-tagged PVCache of C sets that both tables
//!   arbitrate for through a single proxy (`SMS+Markov-shPV8`).
//!
//! Total on-chip capacity is identical; only the partitioning differs. The
//! shared cache can shift capacity towards whichever table is hot, at the
//! price of cross-table conflict misses. Rows are reported under both the
//! `Ideal` and the `Queued` timing models — under `Queued` the two tables
//! also compete with demand traffic (and each other) for L2 ports, MSHRs
//! and DRAM bandwidth, and the per-table queueing delays show who paid.

use crate::report::{pct, Table};
use crate::runner::{HierarchyVariant, RunSpec, Runner};
use pv_mem::ContentionModel;
use pv_sim::{PrefetcherKind, PvTableStats};
use pv_workloads::WorkloadId;

/// Total PVCache sets per core given to the cohabiting pair (split 2 × C/2
/// in the dedicated arrangement, pooled in the shared one).
pub const TOTAL_PVCACHE_SETS: usize = 8;

/// PV bytes reserved per core: one 64 KB SMS table plus one 64 KB Markov
/// table.
pub const PV_BYTES_PER_CORE: u64 = 128 * 1024;

/// The workloads compared (a web, a scan and a balanced scan-join
/// workload).
pub fn workloads() -> [WorkloadId; 3] {
    [WorkloadId::Apache, WorkloadId::Qry1, WorkloadId::Qry17]
}

/// The two cohabiting configurations under comparison.
pub fn kinds() -> [PrefetcherKind; 2] {
    [
        PrefetcherKind::composite_dedicated(TOTAL_PVCACHE_SETS / 2),
        PrefetcherKind::composite_shared(TOTAL_PVCACHE_SETS),
    ]
}

/// The hierarchy variants the comparison runs under.
pub fn variants() -> [HierarchyVariant; 2] {
    [
        HierarchyVariant::PvRegion {
            bytes_per_core: PV_BYTES_PER_CORE,
            contention: ContentionModel::Ideal,
        },
        HierarchyVariant::PvRegion {
            bytes_per_core: PV_BYTES_PER_CORE,
            contention: ContentionModel::Queued,
        },
    ]
}

/// One cohabitation-comparison row.
#[derive(Debug, Clone)]
pub struct CohabitRow {
    /// Workload name.
    pub workload: String,
    /// Hierarchy variant label (`"pv128KB-ideal"` / `"pv128KB-queued"`).
    pub variant: String,
    /// Configuration label (`"SMS+Markov-2xPV4"` / `"SMS+Markov-shPV8"`).
    pub config: String,
    /// Speedup in aggregate IPC over the no-prefetch baseline on the same
    /// hierarchy variant.
    pub speedup: f64,
    /// Prefetch coverage achieved by the pair together.
    pub coverage: f64,
    /// Per-table proxy statistics (`"SMS"` then `"Markov"`).
    pub tables: Vec<PvTableStats>,
    /// Predictor-classified L2 requests observed by the hierarchy.
    pub l2_predictor_requests: u64,
}

impl CohabitRow {
    fn table(&self, label: &str) -> &PvTableStats {
        self.tables
            .iter()
            .find(|t| t.label == label)
            .expect("cohabiting runs report both tables")
    }
}

/// Runs the comparison grid and gathers one row per
/// (workload, variant, kind).
pub fn rows_for(runner: &Runner, workloads: &[WorkloadId]) -> Vec<CohabitRow> {
    let mut specs = Vec::new();
    for &workload in workloads {
        for variant in variants() {
            specs.push(RunSpec {
                workload: workload.into(),
                prefetcher: PrefetcherKind::None,
                hierarchy: variant,
            });
            for kind in kinds() {
                specs.push(RunSpec {
                    workload: workload.into(),
                    prefetcher: kind,
                    hierarchy: variant,
                });
            }
        }
    }
    runner.prefetch(&specs);

    let mut rows = Vec::new();
    for &workload in workloads {
        for variant in variants() {
            let baseline = runner.metrics(&RunSpec {
                workload: workload.into(),
                prefetcher: PrefetcherKind::None,
                hierarchy: variant,
            });
            for kind in kinds() {
                let metrics = runner.metrics(&RunSpec {
                    workload: workload.into(),
                    prefetcher: kind,
                    hierarchy: variant,
                });
                rows.push(CohabitRow {
                    workload: workload.name().to_owned(),
                    variant: variant.label(),
                    config: metrics.configuration.clone(),
                    speedup: metrics.speedup_over(&baseline),
                    coverage: metrics.coverage.coverage(),
                    tables: metrics.pv_tables.clone(),
                    l2_predictor_requests: metrics.hierarchy.l2_requests.predictor,
                });
            }
        }
    }
    rows
}

/// Renders the cohabitation report.
pub fn report(runner: &Runner) -> String {
    let mut table = Table::new(format!(
        "Predictor cohabitation — SMS + Markov on one PV region, dedicated 2x{} vs shared {} \
         PVCache sets per core",
        TOTAL_PVCACHE_SETS / 2,
        TOTAL_PVCACHE_SETS
    ));
    table.header([
        "Workload",
        "Hierarchy",
        "Config",
        "Speedup vs NoPf",
        "Coverage",
        "SMS PVC$ hit",
        "Markov PVC$ hit",
        "SMS queue cyc",
        "Markov queue cyc",
        "L2 PV requests",
    ]);
    for row in rows_for(runner, &workloads()) {
        let sms = row.table("SMS");
        let markov = row.table("Markov");
        table.row([
            row.workload.clone(),
            row.variant.clone(),
            row.config.clone(),
            pct(row.speedup),
            pct(row.coverage),
            pct(sms.stats.pvcache_hit_ratio()),
            pct(markov.stats.pvcache_hit_ratio()),
            sms.stats.queue_delay_cycles.to_string(),
            markov.stats.queue_delay_cycles.to_string(),
            row.l2_predictor_requests.to_string(),
        ]);
    }
    table.note(
        "Both configurations run the unchanged SMS and Markov engines simultaneously on every \
         core, each table in its own sub-region of one 128 KB/core PV region. Total PVCache \
         capacity is identical; only the partitioning differs. Queue cycles are the per-table \
         waits the proxies' memory requests observed at contended shared resources (zero under \
         the ideal hierarchy).",
    );
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;

    #[test]
    fn shared_cache_serves_both_tables_on_every_row() {
        let runner = Runner::new(Scale::Smoke, 4);
        let rows = rows_for(&runner, &[WorkloadId::Qry1]);
        assert_eq!(rows.len(), kinds().len() * variants().len());
        for row in &rows {
            assert_eq!(
                row.tables.len(),
                2,
                "{}: both tables must report",
                row.config
            );
            for table in &row.tables {
                assert!(
                    table.stats.lookups > 0,
                    "{}: table {} must serve lookups",
                    row.config,
                    table.label
                );
            }
            assert!(row.l2_predictor_requests > 0);
            let queued = row.variant.ends_with("queued");
            let total_queue: u64 = row.tables.iter().map(|t| t.stats.queue_delay_cycles).sum();
            if queued {
                assert!(
                    total_queue > 0,
                    "{} {}: queued runs must observe per-table queueing",
                    row.config,
                    row.variant
                );
            } else {
                assert_eq!(total_queue, 0, "ideal runs must not observe queueing");
            }
        }
    }
}
