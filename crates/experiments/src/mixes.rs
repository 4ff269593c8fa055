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

use crate::report::{pct, Table};
use crate::runner::{RunSpec, Runner};
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

/// The canonical heterogeneous mix: web + OLTP + two DSS queries.
pub fn canonical_mix() -> [WorkloadId; 4] {
    [
        WorkloadId::Apache,
        WorkloadId::Db2,
        WorkloadId::Qry1,
        WorkloadId::Qry17,
    ]
}

/// One mix row: a prefetcher configuration over the canonical mix.
#[derive(Debug, Clone)]
pub struct MixRow {
    /// Prefetcher label.
    pub config: String,
    /// IPC of each core (core `i` runs `canonical_mix()[i]`).
    pub per_core_ipc: Vec<f64>,
    /// Aggregate IPC (committed instructions / elapsed cycles).
    pub aggregate_ipc: f64,
    /// Prefetch coverage across the whole mix.
    pub coverage: f64,
    /// Predictor-classified L2 requests (zero for non-virtualized rows).
    pub l2_predictor_requests: u64,
}

/// The prefetcher configurations compared over the mix.
fn configurations() -> [PrefetcherKind; 3] {
    [
        PrefetcherKind::None,
        PrefetcherKind::sms_1k_11a(),
        PrefetcherKind::sms_pv8(),
    ]
}

/// Runs the canonical mix under every configuration.
pub fn rows(runner: &Runner) -> Vec<MixRow> {
    let specs: Vec<RunSpec> = configurations()
        .into_iter()
        .map(|prefetcher| RunSpec::base(canonical_mix(), prefetcher))
        .collect();
    runner.prefetch(&specs);
    specs
        .iter()
        .map(|spec| {
            let metrics = runner.metrics(spec);
            MixRow {
                config: metrics.configuration.clone(),
                per_core_ipc: metrics.per_core_ipc.clone(),
                aggregate_ipc: metrics.aggregate_ipc(),
                coverage: metrics.coverage.coverage(),
                l2_predictor_requests: metrics.hierarchy.l2_requests.predictor,
            }
        })
        .collect()
}

/// Renders the heterogeneous-mix report.
pub fn report(runner: &Runner) -> String {
    let mix = canonical_mix();
    let mut table = Table::new(format!(
        "Heterogeneous mix — {} sharing one L2 and memory",
        mix.iter().map(|w| w.name()).collect::<Vec<_>>().join("+")
    ));
    table.header([
        "Config",
        "IPC Apache",
        "IPC DB2",
        "IPC Qry1",
        "IPC Qry17",
        "Aggregate IPC",
        "Coverage",
        "L2 PV requests",
    ]);
    for row in rows(runner) {
        table.row([
            row.config.clone(),
            format!("{:.3}", row.per_core_ipc[0]),
            format!("{:.3}", row.per_core_ipc[1]),
            format!("{:.3}", row.per_core_ipc[2]),
            format!("{:.3}", row.per_core_ipc[3]),
            format!("{:.3}", row.aggregate_ipc),
            pct(row.coverage),
            row.l2_predictor_requests.to_string(),
        ]);
    }
    table.note(
        "Core i runs the i-th workload of the mix (System::new_mixed); all cores share the L2 \
         and DRAM. Workloads differ per core, so per-core IPCs are asymmetric: the scan query \
         gains the most from prefetching while the web/OLTP cores are bounded by their irregular \
         access components.",
    );
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_mix_is_heterogeneous() {
        let mix = canonical_mix();
        let mut names: Vec<&str> = mix.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            4,
            "the canonical mix must not repeat workloads"
        );
    }
}
