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

use crate::comparison::{homogeneous, Comparison, Pair, Rows};
use crate::report::pct;
use crate::runner::HierarchyVariant;
use pv_mem::ContentionModel;
use pv_sim::{PrefetcherKind, PvTableStats};
use pv_workloads::WorkloadId;

/// Total PVCache sets per core given to the cohabiting pair (split 2 × C/2
/// in the dedicated arrangement, pooled in the shared one).
pub const TOTAL_PVCACHE_SETS: usize = 8;

/// PV bytes reserved per core: one 64 KB SMS table plus one 64 KB Markov
/// table.
pub const PV_BYTES_PER_CORE: u64 = 128 * 1024;

/// The dedicated and the shared arrangement against the no-prefetch
/// baseline, under the ideal and the queued hierarchy, on a web, a scan and
/// a balanced scan-join workload.
pub fn comparison() -> Comparison {
    Comparison {
        title: format!(
            "Predictor cohabitation — SMS + Markov on one PV region, dedicated 2x{} vs shared {} \
             PVCache sets per core",
            TOTAL_PVCACHE_SETS / 2,
            TOTAL_PVCACHE_SETS
        ),
        workloads: homogeneous(&[WorkloadId::Apache, WorkloadId::Qry1, WorkloadId::Qry17]),
        variants: [ContentionModel::Ideal, ContentionModel::Queued]
            .map(|contention| HierarchyVariant::PvRegion {
                bytes_per_core: PV_BYTES_PER_CORE,
                contention,
            })
            .to_vec(),
        baseline: Some(PrefetcherKind::None),
        kinds: vec![
            PrefetcherKind::composite_dedicated(TOTAL_PVCACHE_SETS / 2),
            PrefetcherKind::composite_shared(TOTAL_PVCACHE_SETS),
        ],
        rows: Rows::PerRun(vec![
            ("Workload", |p| p.workload()),
            ("Hierarchy", |p| p.spec.hierarchy.label()),
            ("Config", |p| p.run.configuration.clone()),
            ("Speedup vs NoPf", |p| pct(p.speedup())),
            ("Coverage", |p| pct(p.run.coverage.coverage())),
            ("SMS PVC$ hit", |p| {
                pct(table(p, "SMS").stats.pvcache_hit_ratio())
            }),
            ("Markov PVC$ hit", |p| {
                pct(table(p, "Markov").stats.pvcache_hit_ratio())
            }),
            ("SMS queue cyc", |p| {
                table(p, "SMS").stats.queue_delay_cycles.to_string()
            }),
            ("Markov queue cyc", |p| {
                table(p, "Markov").stats.queue_delay_cycles.to_string()
            }),
            ("L2 PV requests", |p| {
                p.run.hierarchy.l2_requests.predictor.to_string()
            }),
        ]),
        note: |_| {
            "Both configurations run the unchanged SMS and Markov engines simultaneously on every \
             core, each table in its own sub-region of one 128 KB/core PV region. Total PVCache \
             capacity is identical; only the partitioning differs. Queue cycles are the per-table \
             waits the proxies' memory requests observed at contended shared resources (zero under \
             the ideal hierarchy)."
                .to_owned()
        },
    }
}

/// The proxy statistics of the table labelled `label` (`"SMS"` or
/// `"Markov"`) in a cohabiting run.
pub fn table<'a>(pair: &'a Pair, label: &str) -> &'a PvTableStats {
    pair.run
        .pv_tables
        .iter()
        .find(|t| t.label == label)
        .expect("cohabiting runs report both tables")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Runner, Scale};

    #[test]
    fn shared_cache_serves_both_tables_on_every_row() {
        let runner = Runner::new(Scale::Smoke, 4);
        let comparison = comparison();
        let pairs = comparison.clone().on(&[WorkloadId::Qry1]).pairs(&runner);
        assert_eq!(
            pairs.len(),
            comparison.kinds.len() * comparison.variants.len()
        );
        for pair in &pairs {
            let (config, tables) = (&pair.run.configuration, &pair.run.pv_tables);
            assert_eq!(tables.len(), 2, "{config}: both tables must report");
            for table in tables {
                assert!(
                    table.stats.lookups > 0,
                    "{config}: table {} must serve lookups",
                    table.label
                );
            }
            assert!(pair.run.hierarchy.l2_requests.predictor > 0);
            let variant = pair.spec.hierarchy.label();
            let total_queue: u64 = tables.iter().map(|t| t.stats.queue_delay_cycles).sum();
            if variant.ends_with("queued") {
                assert!(
                    total_queue > 0,
                    "{config} {variant}: queued runs must observe per-table queueing"
                );
            } else {
                assert_eq!(total_queue, 0, "ideal runs must not observe queueing");
            }
        }
    }
}
