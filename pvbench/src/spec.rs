//! The benchmark's workloads: each is a fixed list of simulations.

use pv_mem::{ContentionModel, HierarchyConfig};
use pv_sim::{PrefetcherKind, SimConfig};
use pv_workloads::WorkloadId;

/// Trace records per core consumed before statistics are reset.
pub const WARMUP_RECORDS: u64 = 30_000;
/// Trace records per core consumed in the measured window.
pub const MEASURE_RECORDS: u64 = 45_000;
/// DRAM data-bus cycles per block of the Queued simulations.
pub const QUEUED_CYCLES_PER_TRANSFER: u64 = 64;

/// Where a simulation's cores read their records from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A live `TraceGenerator` per core.
    Live,
    /// A per-core trace recorded during set-up, replayed by `ReplayStream`.
    Replay,
}

/// One simulation of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// The prefetcher every core runs.
    pub kind: PrefetcherKind,
    /// The program every core runs.
    pub program: WorkloadId,
    /// The shared-resource contention model.
    pub contention: ContentionModel,
    /// Where the records come from.
    pub source: Source,
}

impl Sim {
    /// A stable label for reports and failure messages.
    pub fn label(&self) -> String {
        let contention = match self.contention {
            ContentionModel::Ideal => "ideal",
            ContentionModel::Queued => "queued",
        };
        let source = match self.source {
            Source::Live => "live",
            Source::Replay => "replay",
        };
        format!(
            "{}/{}/{contention}/{source}",
            self.kind.label(),
            self.program.name()
        )
    }

    /// The simulation's configuration, generated from `seed`.
    pub fn config(&self, seed: u64) -> SimConfig {
        self.config_sized(seed, WARMUP_RECORDS, MEASURE_RECORDS)
    }

    /// [`Self::config`] with explicit window lengths (tests use tiny ones).
    pub fn config_sized(&self, seed: u64, warmup: u64, measure: u64) -> SimConfig {
        let mut config = SimConfig::quick(self.kind.clone());
        let mut hierarchy = HierarchyConfig::paper_baseline(config.cores);
        if self.contention == ContentionModel::Queued {
            hierarchy = hierarchy
                .with_contention(ContentionModel::Queued)
                .with_dram_cycles_per_transfer(QUEUED_CYCLES_PER_TRANSFER);
        }
        // Cohabiting kinds hold two tables per core: grow the PV region to
        // fit, as the fleet driver and perfbench do.
        let needed = self.kind.pv_bytes_per_core();
        if needed > hierarchy.pv_regions.bytes_per_core {
            hierarchy = hierarchy.with_pv_bytes_per_core(needed);
        }
        config.hierarchy = hierarchy;
        config.warmup_records = warmup;
        config.measure_records = measure;
        config.seed = seed;
        config
    }
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SMS-PV8 on four programs under Queued contention, live generators.
    PvSmsQueued,
    /// Virtualized Markov and the cohabiting shared-PV kinds, Ideal.
    PvMarkovCohabit,
    /// Dedicated tables and no prefetching, replaying recorded traces.
    DedicatedReplay,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PvSmsQueued,
        Workload::PvMarkovCohabit,
        Workload::DedicatedReplay,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PvSmsQueued => "pv-sms-queued",
            Workload::PvMarkovCohabit => "pv-markov-cohabit",
            Workload::DedicatedReplay => "dedicated-replay",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's simulations, in run order.
    pub fn sims(self) -> Vec<Sim> {
        let (kinds, programs, contention, source) = match self {
            // The paper's headline configuration, run the way the bandwidth,
            // throttle and fleet experiments run it: read-mostly PV traffic
            // through the dedicated PvProxy, with the Queued L2-port, MSHR
            // and DRAM bookkeeping doing real work.
            Workload::PvSmsQueued => (
                vec![PrefetcherKind::sms_pv8()],
                vec![
                    WorkloadId::Apache,
                    WorkloadId::Db2,
                    WorkloadId::Qry1,
                    WorkloadId::Qry17,
                ],
                ContentionModel::Queued,
                Source::Live,
            ),
            // Markov stores into its table on every data access, so the PV
            // layer is used write-heavy: stores, dirty PV write-backs, the
            // SharedPvProxy and the repartition controller.
            Workload::PvMarkovCohabit => (
                vec![
                    PrefetcherKind::markov_pv8(),
                    PrefetcherKind::composite_shared(8),
                    PrefetcherKind::composite_shared_dynamic(8),
                ],
                vec![WorkloadId::Apache, WorkloadId::Qry1],
                ContentionModel::Ideal,
                Source::Live,
            ),
            // No PV proxy at all: the demand path of the memory system and
            // the trace decoder carry most of the host time, and InfinitePht
            // runs only here.
            Workload::DedicatedReplay => (
                vec![
                    PrefetcherKind::None,
                    PrefetcherKind::sms_1k_11a(),
                    PrefetcherKind::sms_infinite(),
                    PrefetcherKind::markov_1k(),
                ],
                vec![WorkloadId::Apache, WorkloadId::Qry1],
                ContentionModel::Ideal,
                Source::Replay,
            ),
        };
        let mut sims = Vec::new();
        for kind in &kinds {
            for &program in &programs {
                sims.push(Sim {
                    kind: kind.clone(),
                    program,
                    contention,
                    source,
                });
            }
        }
        sims
    }
}
