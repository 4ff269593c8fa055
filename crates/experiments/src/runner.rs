//! Shared simulation runner with caching and parallel execution.

use parking_lot::Mutex;
use pv_mem::{ContentionModel, HierarchyConfig};
use pv_sim::{run_streams, run_workload, run_workload_mix, PrefetcherKind, RunMetrics, SimConfig};
use pv_trace::Scenario;
use pv_workloads::WorkloadId;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// How long each simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Short warm-up/measure windows: minutes for the whole reproduction.
    Quick,
    /// The full windows used for the numbers recorded in `EXPERIMENTS.md`
    /// (see that file at the repository root for how each scale is used).
    Paper,
    /// Very short windows for unit/integration tests, CI and perfbench.
    Smoke,
}

impl Scale {
    /// Parses a command-line value.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    /// The simulation configuration this scale runs (baseline hierarchy).
    pub fn config(self, prefetcher: PrefetcherKind) -> SimConfig {
        match self {
            Scale::Quick => SimConfig::quick(prefetcher),
            Scale::Paper => SimConfig::paper(prefetcher),
            Scale::Smoke => {
                let mut config = SimConfig::quick(prefetcher);
                config.warmup_records = 20_000;
                config.measure_records = 30_000;
                config
            }
        }
    }
}

/// The memory-hierarchy variant a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HierarchyVariant {
    /// The paper's Table 1 baseline (8 MB L2, 6/12-cycle latency).
    Base,
    /// A different total L2 capacity in bytes (Figure 10).
    L2Size(u64),
    /// The slower 8/16-cycle L2 of Figure 11.
    SlowL2,
    /// The baseline under `ContentionModel::Queued` with the given DRAM
    /// data-bus transfer cost in cycles per 64-byte block (the bandwidth
    /// sweep knob; larger is slower).
    QueuedDram {
        /// Cycles one block occupies a channel's data bus.
        cycles_per_transfer: u64,
    },
    /// A queued-DRAM bandwidth point with a shortened prefetch-accuracy
    /// epoch (outcomes per window). The non-stationary scenario studies
    /// use this so the throttle feedback loop completes several epochs per
    /// workload phase and its re-convergence is observable within a run.
    QueuedDramEpoch {
        /// Cycles one block occupies a channel's data bus.
        cycles_per_transfer: u64,
        /// Prefetch outcomes per accuracy epoch (default hierarchy: 256).
        accuracy_epoch: u64,
    },
    /// The baseline with `bytes_per_core` bytes of PV region reserved per
    /// core — room for several cohabiting tables — under the given
    /// contention model (paper-default DRAM bandwidth).
    PvRegion {
        /// Reserved PV bytes per core (e.g. 128 KB for SMS + Markov).
        bytes_per_core: u64,
        /// How shared resources are timed.
        contention: ContentionModel,
    },
}

impl HierarchyVariant {
    /// Builds the hierarchy configuration for `cores` cores.
    pub fn build(self, cores: usize) -> HierarchyConfig {
        let base = HierarchyConfig::paper_baseline(cores);
        match self {
            HierarchyVariant::Base => base,
            HierarchyVariant::L2Size(bytes) => base.with_l2_size(bytes),
            HierarchyVariant::SlowL2 => base.with_slow_l2(),
            HierarchyVariant::QueuedDram {
                cycles_per_transfer,
            } => base
                .with_contention(ContentionModel::Queued)
                .with_dram_cycles_per_transfer(cycles_per_transfer),
            HierarchyVariant::QueuedDramEpoch {
                cycles_per_transfer,
                accuracy_epoch,
            } => base
                .with_contention(ContentionModel::Queued)
                .with_dram_cycles_per_transfer(cycles_per_transfer)
                .with_accuracy_epoch(accuracy_epoch),
            HierarchyVariant::PvRegion {
                bytes_per_core,
                contention,
            } => base.with_pv_bytes_per_core(bytes_per_core).with_contention(contention),
        }
    }

    /// Human-readable label for reports.
    pub fn label(self) -> String {
        match self {
            HierarchyVariant::Base => "base".to_owned(),
            HierarchyVariant::L2Size(bytes) => format!("l2-{}MB", bytes / (1024 * 1024)),
            HierarchyVariant::SlowL2 => "l2-slow".to_owned(),
            HierarchyVariant::QueuedDram {
                cycles_per_transfer,
            } => {
                format!("queued-cpt{cycles_per_transfer}")
            }
            HierarchyVariant::QueuedDramEpoch {
                cycles_per_transfer,
                accuracy_epoch,
            } => {
                format!("queued-cpt{cycles_per_transfer}-ep{accuracy_epoch}")
            }
            HierarchyVariant::PvRegion {
                bytes_per_core,
                contention,
            } => {
                let timing = match contention {
                    ContentionModel::Ideal => "ideal",
                    ContentionModel::Queued => "queued",
                };
                format!("pv{}KB-{timing}", bytes_per_core / 1024)
            }
        }
    }
}

/// What the four cores run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Every core runs the same workload (the paper's methodology).
    Homogeneous(WorkloadId),
    /// Core `i` runs the `i`-th workload (heterogeneous multi-programming).
    Mix([WorkloadId; 4]),
    /// Every core runs its slice of a non-stationary scenario composition
    /// (see `pv_trace::Scenario`).
    Scenario(Scenario),
}

impl Workload {
    /// Machine-readable label, unique per workload selection (workload
    /// names, `mix:`-prefixed `+`-joined mixes, `Scenario::name` strings).
    pub fn label(&self) -> String {
        match self {
            Workload::Homogeneous(w) => w.name().to_owned(),
            Workload::Mix(ws) => {
                format!(
                    "mix:{}",
                    ws.iter().map(|w| w.name()).collect::<Vec<_>>().join("+")
                )
            }
            Workload::Scenario(s) => s.name(),
        }
    }
}

impl From<WorkloadId> for Workload {
    fn from(workload: WorkloadId) -> Self {
        Workload::Homogeneous(workload)
    }
}

impl From<[WorkloadId; 4]> for Workload {
    fn from(workloads: [WorkloadId; 4]) -> Self {
        Workload::Mix(workloads)
    }
}

impl From<Scenario> for Workload {
    fn from(scenario: Scenario) -> Self {
        Workload::Scenario(scenario)
    }
}

/// One simulation to run, and its cache key: deriving `Hash`/`Eq` over the
/// full configuration means no allocation per lookup and no risk of two
/// distinct configurations aliasing because their labels collide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunSpec {
    /// What the cores run.
    pub workload: Workload,
    /// Which prefetcher each core uses.
    pub prefetcher: PrefetcherKind,
    /// Which memory hierarchy variant is simulated.
    pub hierarchy: HierarchyVariant,
}

impl RunSpec {
    /// A run on the baseline hierarchy.
    pub fn base(workload: impl Into<Workload>, prefetcher: PrefetcherKind) -> Self {
        RunSpec {
            workload: workload.into(),
            prefetcher,
            hierarchy: HierarchyVariant::Base,
        }
    }

    /// The configuration this spec simulates at `scale`. Cohabiting kinds
    /// hold two tables per core, so the PV region grows to fit the kind
    /// when the hierarchy reserves less.
    pub fn config(&self, scale: Scale) -> SimConfig {
        let config = scale.config(self.prefetcher.clone());
        let mut hierarchy = self.hierarchy.build(config.cores);
        let needed = self.prefetcher.pv_bytes_per_core();
        if needed > hierarchy.pv_regions.bytes_per_core {
            hierarchy = hierarchy.with_pv_bytes_per_core(needed);
        }
        config.with_hierarchy(hierarchy)
    }

    /// Simulates this spec's workload under `config` (normally
    /// [`RunSpec::config`], possibly adjusted by the caller).
    pub fn run(&self, config: &SimConfig) -> RunMetrics {
        match self.workload {
            Workload::Homogeneous(workload) => run_workload(config, &workload.params()),
            Workload::Mix(workloads) => {
                let params: Vec<_> = workloads.iter().map(|w| w.params()).collect();
                run_workload_mix(config, &params)
            }
            Workload::Scenario(scenario) => {
                let streams = scenario.build_streams(config.cores, config.seed);
                run_streams(config, streams)
            }
        }
    }
}

/// Applies `job` to every item over up to `threads` worker threads and
/// returns the results in item order. Each worker claims the next
/// unclaimed index, so a slow item never leaves the other workers idle
/// behind a fixed partition.
pub(crate) fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    job: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    // `Relaxed` suffices: the counter only hands out indices, and results
    // come back through `join`.
    let next = AtomicUsize::new(0);
    let workers = threads.max(1).min(items.len());
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else {
                            break done;
                        };
                        done.push((index, job(item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (index, result) in done {
                results[index] = Some(result);
            }
        }
    });
    results.into_iter().map(|r| r.expect("every index is claimed once")).collect()
}

/// Runs simulations, caching results so experiments that share
/// configurations (most of them) never repeat work, and fanning independent
/// runs out over worker threads.
pub struct Runner {
    scale: Scale,
    threads: usize,
    cache: Mutex<HashMap<RunSpec, Arc<RunMetrics>>>,
    runs_executed: AtomicUsize,
}

impl Runner {
    /// Creates a runner at the given scale using up to `threads` worker
    /// threads for batched runs.
    pub fn new(scale: Scale, threads: usize) -> Self {
        Runner {
            scale,
            threads: threads.max(1),
            cache: Mutex::new(HashMap::new()),
            runs_executed: AtomicUsize::new(0),
        }
    }

    /// A runner using all available parallelism.
    pub fn with_default_threads(scale: Scale) -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Self::new(scale, threads)
    }

    /// The scale this runner executes at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The worker threads batched runs fan out over.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Number of simulations actually executed (cache misses).
    pub fn runs_executed(&self) -> usize {
        self.runs_executed.load(Ordering::Relaxed)
    }

    fn execute(&self, spec: &RunSpec) -> Arc<RunMetrics> {
        let metrics = spec.run(&spec.config(self.scale));
        self.runs_executed.fetch_add(1, Ordering::Relaxed);
        Arc::new(metrics)
    }

    /// Returns the metrics for `spec`, running the simulation if it has not
    /// been run yet.
    pub fn metrics(&self, spec: &RunSpec) -> Arc<RunMetrics> {
        if let Some(found) = self.cache.lock().get(spec) {
            return Arc::clone(found);
        }
        let metrics = self.execute(spec);
        self.cache.lock().insert(spec.clone(), Arc::clone(&metrics));
        metrics
    }

    /// Runs every spec in `specs` that is not cached yet, in parallel.
    pub fn prefetch(&self, specs: &[RunSpec]) {
        let pending: Vec<RunSpec> = {
            let cache = self.cache.lock();
            let mut seen = HashSet::new();
            specs
                .iter()
                .filter(|spec| !cache.contains_key(spec) && seen.insert(*spec))
                .cloned()
                .collect()
        };
        let results = par_map(&pending, self.threads, |spec| self.execute(spec));
        self.cache.lock().extend(pending.into_iter().zip(results));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::from_name("quick"), Some(Scale::Quick));
        assert_eq!(Scale::from_name("paper"), Some(Scale::Paper));
        assert_eq!(Scale::from_name("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::from_name("huge"), None);
    }

    #[test]
    fn hierarchy_variant_builds_expected_configs() {
        assert_eq!(
            HierarchyVariant::Base.build(4).l2.size_bytes,
            8 * 1024 * 1024
        );
        assert_eq!(
            HierarchyVariant::L2Size(2 * 1024 * 1024).build(4).l2.size_bytes,
            2 * 1024 * 1024
        );
        assert_eq!(HierarchyVariant::SlowL2.build(4).l2.tag_latency, 8);
        assert_eq!(HierarchyVariant::L2Size(4 * 1024 * 1024).label(), "l2-4MB");
    }

    #[test]
    fn run_specs_have_unique_keys_per_configuration() {
        let a = RunSpec::base(WorkloadId::Apache, PrefetcherKind::sms_pv8());
        let b = RunSpec::base(WorkloadId::Apache, PrefetcherKind::sms_1k_11a());
        let c = RunSpec {
            hierarchy: HierarchyVariant::SlowL2,
            ..a.clone()
        };
        let d = RunSpec {
            hierarchy: HierarchyVariant::QueuedDram {
                cycles_per_transfer: 64,
            },
            ..a.clone()
        };
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(c, d);
    }

    #[test]
    fn mixed_keys_do_not_alias_homogeneous_keys() {
        let homogeneous = RunSpec::base(WorkloadId::Apache, PrefetcherKind::None);
        let mix = RunSpec::base([WorkloadId::Apache; 4], PrefetcherKind::None);
        // Even a mix of four identical workloads keys separately from the
        // homogeneous run (same simulated behaviour, different spec space).
        assert_ne!(homogeneous, mix);
        assert_eq!(mix.workload.label(), "mix:Apache+Apache+Apache+Apache");
    }

    #[test]
    fn queued_variant_builds_contended_hierarchy() {
        use pv_mem::ContentionModel;
        let variant = HierarchyVariant::QueuedDram {
            cycles_per_transfer: 64,
        };
        let config = variant.build(4);
        assert_eq!(config.contention, ContentionModel::Queued);
        assert_eq!(config.dram.cycles_per_transfer, 64);
        assert_eq!(variant.label(), "queued-cpt64");
        assert_eq!(
            HierarchyVariant::Base.build(4).contention,
            ContentionModel::Ideal
        );
    }

    #[test]
    fn mixed_metrics_are_cached() {
        let runner = Runner::new(Scale::Smoke, 2);
        let spec = RunSpec::base(
            [
                WorkloadId::Qry1,
                WorkloadId::Qry1,
                WorkloadId::Qry17,
                WorkloadId::Qry17,
            ],
            PrefetcherKind::None,
        );
        let first = runner.metrics(&spec);
        let second = runner.metrics(&spec);
        assert_eq!(runner.runs_executed(), 1);
        assert_eq!(first.elapsed_cycles, second.elapsed_cycles);
        assert_eq!(first.workload, "Qry1+Qry1+Qry17+Qry17");
    }

    #[test]
    fn metrics_are_cached() {
        let runner = Runner::new(Scale::Smoke, 2);
        let spec = RunSpec::base(WorkloadId::Qry1, PrefetcherKind::None);
        let first = runner.metrics(&spec);
        let second = runner.metrics(&spec);
        assert_eq!(runner.runs_executed(), 1);
        assert_eq!(first.elapsed_cycles, second.elapsed_cycles);
    }

    #[test]
    fn prefetch_runs_each_spec_once() {
        let runner = Runner::new(Scale::Smoke, 4);
        let specs = vec![
            RunSpec::base(WorkloadId::Qry1, PrefetcherKind::None),
            RunSpec::base(WorkloadId::Qry1, PrefetcherKind::sms_8_11a()),
            RunSpec::base(WorkloadId::Qry1, PrefetcherKind::None),
        ];
        runner.prefetch(&specs);
        assert_eq!(runner.runs_executed(), 2);
        runner.prefetch(&specs);
        assert_eq!(runner.runs_executed(), 2);
    }

    #[test]
    fn par_map_calls_the_job_once_per_item_in_order() {
        for threads in [1, 2, 8] {
            for len in [0, 1, 5] {
                let items: Vec<usize> = (0..len).collect();
                let calls: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
                let results = par_map(&items, threads, |&item| {
                    calls[item].fetch_add(1, Ordering::Relaxed);
                    item * 10
                });
                assert_eq!(results, items.iter().map(|i| i * 10).collect::<Vec<_>>());
                assert!(
                    calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "{threads} threads x {len} items: every item exactly once"
                );
            }
        }
    }

    #[test]
    fn config_grows_the_pv_region_to_fit_cohabiting_kinds() {
        let kind = PrefetcherKind::composite_shared(8);
        let config = RunSpec::base(WorkloadId::Qry1, kind.clone()).config(Scale::Smoke);
        assert_eq!(
            config.hierarchy.pv_regions.bytes_per_core,
            kind.pv_bytes_per_core()
        );
        config.assert_valid();
        // A kind that fits keeps the hierarchy's own reservation.
        let single =
            RunSpec::base(WorkloadId::Qry1, PrefetcherKind::sms_pv8()).config(Scale::Smoke);
        assert_eq!(single.hierarchy, HierarchyVariant::Base.build(4));
    }
}
