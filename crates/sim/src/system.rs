//! The simulated CMP: cores, traces, prefetchers and the shared memory
//! hierarchy, plus the warm-up/measure run loop.

use crate::composite::CompositePrefetcher;
use crate::config::{PrefetcherKind, SimConfig};
use crate::core_model::CoreModel;
use crate::engine::{EngineSnapshot, PrefetchEngine};
use crate::metrics::{CoverageMetrics, RunMetrics};
use crate::throttle::ThrottledEngine;
use pv_core::PvRegionPlan;
use pv_markov::MarkovPrefetcher;
use pv_mem::{DataClass, EvictionBuffer, MemoryHierarchy, Requester};
use pv_sms::{build_storage, PrefetchAction, SmsPrefetcher, VirtualizedPht};
use pv_workloads::{AccessStream, MemOp, RunAhead, TraceGenerator, TraceRecord, WorkloadParams};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-core simulation state.
struct CoreState {
    id: usize,
    /// The core's record source — any [`AccessStream`]: a live synthetic
    /// generator (run ahead on a helper thread), a replayed trace, or a
    /// non-stationary scenario stream.
    stream: Box<dyn AccessStream>,
    model: CoreModel,
    /// The core's data-prefetch engine — any [`PrefetchEngine`]: SMS,
    /// Markov, a cohabiting composite, or a throttled wrapper. The
    /// simulator drives all of them through one feed/issue path.
    engine: Option<Box<dyn PrefetchEngine>>,
    covered: u64,
    prefetches_issued: u64,
    records_consumed: u64,
    /// Set when the stream returned `None`; replayed traces are finite and
    /// end the core's run cleanly.
    exhausted: bool,
}

/// The simulated four-core system.
pub struct System {
    config: SimConfig,
    workload_name: String,
    hierarchy: MemoryHierarchy,
    cores: Vec<CoreState>,
    /// Scratch buffer the engines append predictions into (reused across
    /// accesses so the hot path stays allocation-free).
    actions: Vec<PrefetchAction>,
    /// Ready-core heap of the run loop, keyed by `(now, idx)`. Kept across
    /// phases so restarts are allocation-free.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Per-core record targets for the current phase (reused across phases).
    targets: Vec<u64>,
}

/// Compile-time guard: a whole [`System`] — streams, engines (including the
/// composite with its owned `SharedPvProxy`) and the hierarchy — must be
/// `Send`, so fleet sweeps can hand complete simulations to worker threads.
/// Reintroducing an `Rc`/`RefCell` anywhere inside the simulator fails this
/// assertion at build time rather than in the fleet.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<System>();
    assert_send::<CompositePrefetcher>();
    assert_send::<Box<dyn PrefetchEngine>>();
    assert_send::<Box<dyn AccessStream>>();
};

impl System {
    /// Builds the system described by `config`, with every core running an
    /// independent instance of `workload`.
    ///
    /// # Panics
    ///
    /// Panics if `config` or `workload` fail validation.
    pub fn new(config: SimConfig, workload: &WorkloadParams) -> Self {
        let per_core: Vec<WorkloadParams> = (0..config.cores).map(|_| workload.clone()).collect();
        Self::new_mixed(config, &per_core)
    }

    /// Builds a heterogeneous multi-programmed system: core `i` runs
    /// `workloads[i]`. All cores share the L2 and memory, so dissimilar
    /// workloads compete for the same capacity and (under queued contention)
    /// the same bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation, if `workloads.len()` does not
    /// match the core count, or if any workload fails validation.
    pub fn new_mixed(config: SimConfig, workloads: &[WorkloadParams]) -> Self {
        config.assert_valid();
        assert_eq!(
            workloads.len(),
            config.cores,
            "need exactly one workload per core ({} workloads, {} cores)",
            workloads.len(),
            config.cores
        );
        for workload in workloads {
            workload.validate().expect("workload parameters must be valid");
        }
        let streams = workloads
            .iter()
            .enumerate()
            .map(|(core, workload)| {
                Box::new(TraceGenerator::new(workload, config.seed, core)) as Box<dyn AccessStream>
            })
            .collect();
        Self::from_streams(config, streams)
    }

    /// Builds a system whose cores consume the given streams: core `i`
    /// reads `streams[i]`. This is the general entry point — generators,
    /// replayed traces, and scenario compositions all arrive here. Finite
    /// streams end the owning core's run cleanly when they dry up.
    ///
    /// Each stream that is [worth running
    /// ahead](AccessStream::worth_running_ahead) is wrapped in a
    /// [`RunAhead`]: from its first record on, it is produced on a helper
    /// thread of its own, at most one per core, joined when the system is
    /// dropped. The records, and so every result, are the same either way.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation or if `streams.len()` does not
    /// match the core count.
    pub fn from_streams(config: SimConfig, streams: Vec<Box<dyn AccessStream>>) -> Self {
        config.assert_valid();
        assert_eq!(
            streams.len(),
            config.cores,
            "need exactly one stream per core ({} streams, {} cores)",
            streams.len(),
            config.cores
        );
        let labels: Vec<String> = streams.iter().map(|s| s.label().to_owned()).collect();
        let workload_name = if labels.windows(2).all(|pair| pair[0] == pair[1]) {
            labels[0].clone()
        } else {
            labels.join("+")
        };
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(core, stream)| {
                let engine = Self::build_prefetcher(&config, core);
                let stream = if stream.worth_running_ahead() {
                    Box::new(RunAhead::new(stream))
                } else {
                    stream
                };
                CoreState {
                    id: core,
                    stream,
                    model: CoreModel::new(config.core, config.hierarchy.l1d.data_latency),
                    engine,
                    covered: 0,
                    prefetches_issued: 0,
                    records_consumed: 0,
                    exhausted: false,
                }
            })
            .collect();
        // The engines (many small long-lived allocations) are built before
        // the hierarchy (a few large arrays), so the arrays end up above them
        // on the heap and go back to the OS when the system is dropped.
        let hierarchy = MemoryHierarchy::new(config.hierarchy);
        System {
            workload_name,
            config,
            hierarchy,
            cores,
            actions: Vec::new(),
            ready: BinaryHeap::new(),
            targets: Vec::new(),
        }
    }

    fn build_prefetcher(config: &SimConfig, core: usize) -> Option<Box<dyn PrefetchEngine>> {
        Self::build_engine(&config.prefetcher, config, core)
    }

    /// Builds the [`PrefetchEngine`] a `kind` configuration describes for
    /// one core. Recursion handles the wrapping variants (throttling).
    fn build_engine(
        kind: &PrefetcherKind,
        config: &SimConfig,
        core: usize,
    ) -> Option<Box<dyn PrefetchEngine>> {
        match kind {
            PrefetcherKind::None => None,
            PrefetcherKind::Sms(sms_config) => Some(Box::new(SmsPrefetcher::new(
                *sms_config,
                build_storage(sms_config),
            ))),
            PrefetcherKind::VirtualizedSms { sms, pv } => {
                let base = config.hierarchy.pv_regions.core_base(core);
                Some(Box::new(SmsPrefetcher::new(
                    *sms,
                    Box::new(VirtualizedPht::new(core, *pv, base)),
                )))
            }
            PrefetcherKind::Markov(markov) => Some(Box::new(MarkovPrefetcher::new(
                *markov,
                Box::new(pv_markov::DedicatedMarkov::new(*markov)),
            ))),
            PrefetcherKind::VirtualizedMarkov { markov, pv } => {
                let base = config.hierarchy.pv_regions.core_base(core);
                Some(Box::new(MarkovPrefetcher::new(
                    *markov,
                    Box::new(pv_markov::VirtualizedMarkov::new(core, *pv, base)),
                )))
            }
            PrefetcherKind::CompositeDedicated { sms, markov, pv } => {
                let plan = Self::cohabit_plan(config, pv);
                Some(Box::new(CompositePrefetcher::dedicated(
                    core, *sms, *markov, *pv, &plan,
                )))
            }
            PrefetcherKind::CompositeShared { sms, markov, pv } => {
                let plan = Self::cohabit_plan(config, pv);
                Some(Box::new(CompositePrefetcher::shared(
                    core, *sms, *markov, *pv, &plan,
                )))
            }
            PrefetcherKind::Throttled { inner, throttle } => {
                let engine = Self::build_engine(inner, config, core)
                    .expect("validation rejects throttled no-prefetch configurations");
                Some(Box::new(ThrottledEngine::new(core, engine, *throttle)))
            }
            PrefetcherKind::Repartitioned { inner, repartition } => {
                let PrefetcherKind::CompositeShared { sms, markov, pv } = &**inner else {
                    unreachable!("validation rejects repartitioning non-shared-composite kinds")
                };
                let plan = Self::scarce_plan(config, pv);
                Some(Box::new(CompositePrefetcher::shared_repartitioned(
                    core,
                    *sms,
                    *markov,
                    *pv,
                    plan,
                    *repartition,
                )))
            }
        }
    }

    /// The region plan of a cohabiting configuration: one SMS table and one
    /// Markov table per core, side by side in the core's PV region.
    fn cohabit_plan(config: &SimConfig, pv: &pv_core::PvConfig) -> PvRegionPlan {
        PvRegionPlan::new(
            config.hierarchy.pv_regions,
            vec![pv.table_bytes(), pv.table_bytes()],
        )
    }

    /// The starting plan of a repartitioned configuration: whatever the
    /// hierarchy actually reserves per core, split evenly into two
    /// block-aligned sub-regions (each capped at the table's own footprint —
    /// backing more blocks than a table has sets buys nothing). On the
    /// paper-default 64 KB region this backs half of each 64 KB table, the
    /// scarcity the controller then reallocates.
    fn scarce_plan(config: &SimConfig, pv: &pv_core::PvConfig) -> PvRegionPlan {
        let half = config.hierarchy.pv_regions.bytes_per_core / 2;
        let per_table = ((half / pv.block_bytes) * pv.block_bytes).min(pv.table_bytes());
        PvRegionPlan::new(config.hierarchy.pv_regions, vec![per_table, per_table])
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The shared memory hierarchy (for inspection in tests).
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// Records each core has consumed so far (warm-up plus measurement),
    /// in core order.
    pub fn records_consumed(&self) -> impl Iterator<Item = u64> + '_ {
        self.cores.iter().map(|c| c.records_consumed)
    }

    /// Whether each core's stream has ended, in core order. Always
    /// all-false for the infinite synthetic generators; replayed traces set
    /// their core's flag when the trace runs out.
    pub fn exhausted(&self) -> impl Iterator<Item = bool> + '_ {
        self.cores.iter().map(|c| c.exhausted)
    }

    /// Runs the warm-up and measurement windows and returns the metrics of
    /// the measurement window.
    pub fn run(&mut self) -> RunMetrics {
        self.run_phase(self.config.warmup_records);
        self.reset_measurement_state();
        self.run_phase(self.config.measure_records);
        self.collect_metrics()
    }

    /// Consumes up to `records_per_core` further trace records on every
    /// core (one scheduling phase), without touching warm-up state — the
    /// building block benchmarks and the allocation tests drive directly.
    pub fn run_records(&mut self, records_per_core: u64) {
        self.run_phase(records_per_core);
    }

    /// Consumes up to `records_per_core` further trace records on every
    /// core, always advancing the core whose local clock is furthest behind
    /// (ties to the lower core index) so the shared L2 sees a fair
    /// interleaving. A core whose stream ends early simply stops
    /// participating: the timing model is synchronous (no in-flight
    /// accesses to drain), so its statistics are coherent at whatever point
    /// the trace ran out.
    ///
    /// The loop is an event heap. The heap orders eligible cores by
    /// `(now, idx)`; `Reverse` turns the max-heap into a min-heap, so the
    /// pop is exactly the core a first-minimum `min_by_key` scan over every
    /// core would pick. The popped core then runs until overtaken: it keeps
    /// stepping while its key stays below the heap peek (strict comparison —
    /// keys never tie, the indices differ), which consumes long record runs
    /// on a lagging core with zero heap traffic. Cores that exhaust or reach
    /// their target leave the heap instead of being re-filtered on every
    /// step. The scan itself survives as the test-only oracle the unit
    /// tests compare step orders against.
    fn run_phase(&mut self, records_per_core: u64) {
        self.set_targets(records_per_core);
        debug_assert!(self.ready.is_empty(), "the previous phase drained the heap");
        self.ready.clear();
        for (idx, core) in self.cores.iter().enumerate() {
            if !core.exhausted && core.records_consumed < self.targets[idx] {
                self.ready.push(Reverse((core.model.now(), idx)));
            }
        }
        while let Some(Reverse((_, idx))) = self.ready.pop() {
            loop {
                self.step_core(idx);
                let core = &self.cores[idx];
                if core.exhausted || core.records_consumed >= self.targets[idx] {
                    break;
                }
                let key = (core.model.now(), idx);
                if let Some(&Reverse(peek)) = self.ready.peek() {
                    if key > peek {
                        self.ready.push(Reverse(key));
                        break;
                    }
                }
            }
        }
    }

    /// Sets each core's record target for a phase of `records_per_core`.
    fn set_targets(&mut self, records_per_core: u64) {
        self.targets.clear();
        self.targets
            .extend(self.cores.iter().map(|c| c.records_consumed + records_per_core));
    }

    fn reset_measurement_state(&mut self) {
        self.hierarchy.reset_stats();
        for core in &mut self.cores {
            core.model.reset();
            core.covered = 0;
            core.prefetches_issued = 0;
            if let Some(engine) = &mut core.engine {
                engine.reset_stats();
            }
        }
    }

    fn step_core(&mut self, idx: usize) {
        let Some(record) = self.cores[idx].stream.next_record() else {
            self.cores[idx].exhausted = true;
            return;
        };
        self.cores[idx].records_consumed += 1;
        match record.op {
            MemOp::InstructionFetch => self.step_fetch(idx, &record),
            MemOp::Load | MemOp::Store => self.step_data(idx, &record),
        }
    }

    fn step_fetch(&mut self, idx: usize, record: &TraceRecord) {
        let core = &mut self.cores[idx];
        let now = core.model.now();
        let response = self.hierarchy.access(
            Requester::instruction(core.id),
            record.address,
            CoreModel::access_kind(record.op),
            DataClass::Application,
            now,
        );
        core.model
            .retire_memory_contended(record.op, response.latency, response.queue_delay);
    }

    fn step_data(&mut self, idx: usize, record: &TraceRecord) {
        let core_id = self.cores[idx].id;
        self.cores[idx].model.retire_non_memory(record.non_mem_instructions);
        let now = self.cores[idx].model.now();
        // The eviction scratch lives on the stack: `EvictionBuffer` is a
        // two-slot inline array, so the whole record path stays heap-free.
        let mut evictions = EvictionBuffer::default();
        let response = self.hierarchy.access_data(
            core_id,
            record.address,
            CoreModel::access_kind(record.op),
            now,
            &mut evictions,
        );
        if record.op == MemOp::Load && response.first_use_of_prefetch {
            self.cores[idx].covered += 1;
        }
        self.cores[idx].model.retire_memory_contended(
            record.op,
            response.latency,
            response.queue_delay,
        );

        // The single engine-agnostic feed/issue path: blocks displaced by
        // the demand fill end residency-tracked state (e.g. SMS spatial
        // generations), the access is fed to the engine, and every
        // prediction it drained into the scratch buffer is issued — with
        // eviction feedback after each issue, since a prefetch fill can
        // itself displace blocks the engine is watching.
        let Some(mut engine) = self.cores[idx].engine.take() else {
            return;
        };
        if !evictions.is_empty() {
            engine.on_l1_evictions(evictions.as_slice(), &mut self.hierarchy, None, now);
        }
        self.actions.clear();
        engine.on_data_access(
            record.pc,
            record.address,
            &mut self.hierarchy,
            None,
            now,
            &mut self.actions,
        );
        for action_idx in 0..self.actions.len() {
            let action = self.actions[action_idx];
            let issue_at = action.issue_at.max(now);
            let outcome =
                self.hierarchy
                    .prefetch_into_l1d(core_id, action.block, issue_at, &mut evictions);
            if outcome.issued {
                self.cores[idx].prefetches_issued += 1;
            }
            if !evictions.is_empty() {
                engine.on_l1_evictions(evictions.as_slice(), &mut self.hierarchy, None, issue_at);
            }
        }
        self.cores[idx].engine = Some(engine);
    }

    fn collect_metrics(&self) -> RunMetrics {
        let elapsed_cycles = self.cores.iter().map(|c| c.model.now()).max().unwrap_or(0);
        let total_instructions = self.cores.iter().map(|c| c.model.instructions()).sum();
        let per_core_ipc = self.cores.iter().map(|c| c.model.ipc()).collect();
        let hierarchy = self.hierarchy.stats();

        let mut coverage = CoverageMetrics::default();
        let mut snapshot = EngineSnapshot::default();
        let mut prefetches_issued = 0;
        for (core_idx, core) in self.cores.iter().enumerate() {
            coverage.covered += core.covered;
            coverage.uncovered += hierarchy.l1d[core_idx].read_misses;
            coverage.overpredictions += hierarchy.l1d[core_idx].prefetched_evicted_unused;
            prefetches_issued += core.prefetches_issued;
            if let Some(engine) = &core.engine {
                snapshot.merge(engine.snapshot());
            }
        }
        // Per-table splits feed the aggregate too (single-table engines
        // already report through `snapshot.pv`, composites only per table).
        let mut pv_total = snapshot.pv;
        for table in &snapshot.pv_tables {
            pv_total.get_or_insert_with(pv_core::PvStats::default).merge(&table.stats);
        }

        RunMetrics {
            configuration: self.config.prefetcher.label(),
            workload: self.workload_name.clone(),
            elapsed_cycles,
            total_instructions,
            per_core_ipc,
            hierarchy,
            coverage,
            sms: snapshot.sms,
            markov: snapshot.markov,
            pv: pv_total,
            pv_tables: snapshot.pv_tables,
            prefetches_issued,
            throttle: snapshot.throttle,
            repartition: snapshot.repartition,
        }
    }
}

/// Builds a [`System`] from `config` and runs it on `workload`.
pub fn run_workload(config: &SimConfig, workload: &WorkloadParams) -> RunMetrics {
    System::new(config.clone(), workload).run()
}

/// Builds a heterogeneous [`System`] (core `i` runs `workloads[i]`) and
/// runs it.
pub fn run_workload_mix(config: &SimConfig, workloads: &[WorkloadParams]) -> RunMetrics {
    System::new_mixed(config.clone(), workloads).run()
}

/// Builds a [`System`] over arbitrary per-core streams (core `i` reads
/// `streams[i]`) and runs it.
pub fn run_streams(config: &SimConfig, streams: Vec<Box<dyn AccessStream>>) -> RunMetrics {
    System::from_streams(config.clone(), streams).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrefetcherKind, SimConfig};
    use pv_workloads::workloads;

    /// A very small configuration so the unit tests stay fast; the full
    /// windows are exercised by the integration tests and experiments.
    fn tiny(prefetcher: PrefetcherKind) -> SimConfig {
        let mut config = SimConfig::quick(prefetcher);
        config.warmup_records = 15_000;
        config.measure_records = 25_000;
        config
    }

    #[test]
    fn baseline_run_produces_consistent_metrics() {
        let metrics = run_workload(&tiny(PrefetcherKind::None), &workloads::qry1());
        assert!(metrics.elapsed_cycles > 0);
        assert!(metrics.total_instructions > 0);
        assert!(metrics.aggregate_ipc() > 0.0);
        assert_eq!(metrics.per_core_ipc.len(), 4);
        assert_eq!(metrics.coverage.covered, 0, "baseline issues no prefetches");
        assert_eq!(metrics.prefetches_issued, 0);
        assert!(metrics.pv.is_none());
        assert!(metrics.hierarchy.l1d_total().read_misses > 0);
    }

    #[test]
    fn sms_covers_misses_and_improves_ipc_on_scan_workload() {
        let workload = workloads::qry1();
        let baseline = run_workload(&tiny(PrefetcherKind::None), &workload);
        let sms = run_workload(&tiny(PrefetcherKind::sms_1k_11a()), &workload);
        assert!(sms.coverage.covered > 0, "SMS must cover some misses");
        assert!(
            sms.coverage.coverage() > 0.2,
            "scan workload should be well covered"
        );
        assert!(
            sms.speedup_over(&baseline) > 0.0,
            "prefetching must help the scan workload (speedup {:.3})",
            sms.speedup_over(&baseline)
        );
        assert!(sms.prefetches_issued > 0);
    }

    #[test]
    fn virtualized_prefetcher_reports_pv_stats_and_predictor_traffic() {
        let workload = workloads::qry1();
        let metrics = run_workload(&tiny(PrefetcherKind::sms_pv8()), &workload);
        let pv = metrics.pv.expect("virtualized run must expose PV stats");
        assert!(pv.lookups > 0);
        assert!(pv.memory_requests > 0);
        assert!(metrics.hierarchy.l2_requests.predictor > 0);
        assert!(
            metrics.coverage.covered > 0,
            "virtualized SMS must still cover misses"
        );
    }

    #[test]
    fn dedicated_runs_have_no_predictor_traffic() {
        let metrics = run_workload(&tiny(PrefetcherKind::sms_1k_11a()), &workloads::qry17());
        assert_eq!(metrics.hierarchy.l2_requests.predictor, 0);
        assert_eq!(metrics.hierarchy.l2_misses.predictor, 0);
        assert!(metrics.pv.is_none());
    }

    #[test]
    fn runs_are_deterministic() {
        let workload = workloads::qry17();
        let a = run_workload(&tiny(PrefetcherKind::sms_pv8()), &workload);
        let b = run_workload(&tiny(PrefetcherKind::sms_pv8()), &workload);
        assert_eq!(a.elapsed_cycles, b.elapsed_cycles);
        assert_eq!(a.total_instructions, b.total_instructions);
        assert_eq!(a.hierarchy.l2_requests, b.hierarchy.l2_requests);
        assert_eq!(a.coverage, b.coverage);
    }

    #[test]
    fn markov_backends_run_and_report_stats() {
        let workload = workloads::qry1();
        let dedicated = run_workload(&tiny(PrefetcherKind::markov_1k()), &workload);
        let stats = dedicated.markov.expect("markov runs must expose engine stats");
        assert!(stats.lookups > 0);
        assert!(
            dedicated.pv.is_none(),
            "the dedicated table issues no PV traffic"
        );
        assert_eq!(dedicated.hierarchy.l2_requests.predictor, 0);

        let virtualized = run_workload(&tiny(PrefetcherKind::markov_pv8()), &workload);
        let pv = virtualized.pv.expect("virtualized Markov must expose PV stats");
        assert!(pv.lookups > 0);
        assert!(pv.memory_requests > 0);
        assert!(virtualized.hierarchy.l2_requests.predictor > 0);
        assert_eq!(virtualized.configuration, "Markov-PV8");
    }

    #[test]
    fn composite_kinds_run_both_engines_and_split_pv_stats_per_table() {
        let workload = workloads::qry1();
        for kind in [
            PrefetcherKind::composite_dedicated(4),
            PrefetcherKind::composite_shared(8),
        ] {
            let mut config = tiny(kind.clone());
            config.hierarchy = config.hierarchy.with_pv_bytes_per_core(kind.pv_bytes_per_core());
            let metrics = run_workload(&config, &workload);
            let sms = metrics.sms.as_ref().expect("composite runs expose SMS stats");
            let markov = metrics.markov.as_ref().expect("composite runs expose Markov stats");
            assert!(sms.accesses_observed > 0);
            assert!(markov.accesses_observed > 0);
            assert!(metrics.hierarchy.l2_requests.predictor > 0);
            let pv = metrics.pv.as_ref().expect("composite runs expose PV stats");
            assert_eq!(metrics.pv_tables.len(), 2, "one entry per cohabiting table");
            assert_eq!(metrics.pv_tables[0].label, "SMS");
            assert_eq!(metrics.pv_tables[1].label, "Markov");
            let per_table_sum: u64 =
                metrics.pv_tables.iter().map(|t| t.stats.memory_requests).sum();
            assert_eq!(
                per_table_sum, pv.memory_requests,
                "per-table split must sum to total"
            );
            assert!(
                metrics.pv_tables.iter().all(|t| t.stats.lookups > 0),
                "both tables must serve their engine ({})",
                metrics.configuration
            );
        }
    }

    #[test]
    fn repartitioned_kind_runs_scarce_on_the_baseline_region() {
        // The plain shared composite needs 128 KB/core and panics on the
        // 64 KB baseline region (test below); the repartitioned kind runs
        // there by design — scarcity is the point.
        let workload = workloads::qry1();
        let metrics = run_workload(
            &tiny(PrefetcherKind::composite_shared_dynamic(8)),
            &workload,
        );
        assert_eq!(metrics.configuration, "SMS+Markov-shPV8-dyn");
        let repartition = metrics.repartition.as_ref().expect("controller metrics");
        assert!(
            repartition.windows > 0,
            "windows must advance with accesses"
        );
        // Four cores, 1024 backed blocks each (half of each 1024-set table).
        assert_eq!(repartition.final_backed.iter().sum::<u64>(), 4 * 1024);
        assert_eq!(repartition.final_backed.len(), 2);
        // Scarcity shows up in the per-table split: some lookups landed on
        // unbacked sets and were counted as misses without memory traffic.
        let unbacked: u64 = metrics.pv_tables.iter().map(|t| t.stats.unbacked_lookups).sum();
        assert!(unbacked > 0, "a half-backed plan must see unbacked lookups");

        // The frozen control arm runs under identical scarcity, zero moves.
        let frozen = run_workload(&tiny(PrefetcherKind::composite_shared_scarce(8)), &workload);
        assert_eq!(frozen.configuration, "SMS+Markov-shPV8-scarce");
        let control = frozen.repartition.as_ref().expect("controller metrics");
        assert_eq!(control.replans, 0);
        assert_eq!(control.final_backed, vec![4 * 512, 4 * 512]);
    }

    #[test]
    fn repartitioned_runs_are_deterministic() {
        let workload = workloads::qry17();
        let a = run_workload(
            &tiny(PrefetcherKind::composite_shared_dynamic(8)),
            &workload,
        );
        let b = run_workload(
            &tiny(PrefetcherKind::composite_shared_dynamic(8)),
            &workload,
        );
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.repartition, b.repartition, "the plan trace must replay");
    }

    #[test]
    #[should_panic(expected = "PV bytes per core")]
    fn composite_kinds_reject_undersized_pv_regions() {
        // The baseline region (64 KB/core) cannot hold two 64 KB tables.
        let _ = run_workload(
            &tiny(PrefetcherKind::composite_shared(8)),
            &workloads::qry1(),
        );
    }

    #[test]
    fn labels_flow_into_metrics() {
        let metrics = run_workload(&tiny(PrefetcherKind::sms_8_11a()), &workloads::qry17());
        assert_eq!(metrics.configuration, "SMS-8-11a");
        assert_eq!(metrics.workload, "Qry17");
    }

    #[test]
    fn mixed_workloads_run_per_core_and_label_the_mix() {
        let mix = [
            workloads::apache(),
            workloads::db2(),
            workloads::qry1(),
            workloads::qry17(),
        ];
        let metrics = run_workload_mix(&tiny(PrefetcherKind::None), &mix);
        assert_eq!(metrics.workload, "Apache+DB2+Qry1+Qry17");
        assert_eq!(metrics.per_core_ipc.len(), 4);
        assert!(metrics.per_core_ipc.iter().all(|&ipc| ipc > 0.0));
        // Every core makes progress against its own trace; the scan query
        // core must behave differently from the OLTP cores.
        let spread = metrics.per_core_ipc.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - metrics.per_core_ipc.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread > 0.0,
            "heterogeneous cores should not have identical IPC"
        );
    }

    #[test]
    fn mixed_with_identical_workloads_matches_homogeneous_run() {
        let config = tiny(PrefetcherKind::sms_pv8());
        let homogeneous = run_workload(&config, &workloads::qry1());
        let mixed = run_workload_mix(
            &config,
            &[
                workloads::qry1(),
                workloads::qry1(),
                workloads::qry1(),
                workloads::qry1(),
            ],
        );
        assert_eq!(homogeneous.elapsed_cycles, mixed.elapsed_cycles);
        assert_eq!(homogeneous.workload, mixed.workload);
        assert_eq!(
            homogeneous.hierarchy.l2_requests,
            mixed.hierarchy.l2_requests
        );
    }

    #[test]
    #[should_panic(expected = "one workload per core")]
    fn mixed_workload_count_must_match_cores() {
        let config = tiny(PrefetcherKind::None);
        let _ = System::new_mixed(config, &[workloads::qry1(), workloads::qry2()]);
    }

    #[test]
    fn stream_runs_match_generator_runs_exactly() {
        use pv_workloads::AccessStream;
        let config = tiny(PrefetcherKind::sms_pv8());
        let workload = workloads::qry1();
        let direct = run_workload(&config, &workload);
        let streams: Vec<Box<dyn AccessStream>> = (0..config.cores)
            .map(|core| {
                Box::new(TraceGenerator::new(&workload, config.seed, core)) as Box<dyn AccessStream>
            })
            .collect();
        let via_streams = run_streams(&config, streams);
        assert_eq!(direct.digest(), via_streams.digest());
        assert_eq!(direct.workload, via_streams.workload);
    }

    #[test]
    fn finite_streams_end_the_run_cleanly() {
        use pv_workloads::{AccessStream, TakeStream};
        let config = tiny(PrefetcherKind::sms_pv8());
        // Core 2's trace dries up mid-measurement; the others run in full.
        let full = config.warmup_records + config.measure_records;
        let short = config.warmup_records + config.measure_records / 2;
        let workload = workloads::qry1();
        let streams: Vec<Box<dyn AccessStream>> = (0..config.cores)
            .map(|core| {
                let generator = TraceGenerator::new(&workload, config.seed, core);
                let limit = if core == 2 { short } else { full };
                Box::new(TakeStream::new(generator, limit)) as Box<dyn AccessStream>
            })
            .collect();
        let mut system = System::from_streams(config.clone(), streams);
        let metrics = system.run();
        assert!(
            system.records_consumed().eq([full, full, short, full]),
            "the short core stops at its trace end, the rest finish"
        );
        assert!(system.exhausted().eq([false, false, true, false]));
        assert!(metrics.elapsed_cycles > 0);
        assert!(metrics.total_instructions > 0);
        assert!(
            metrics.per_core_ipc.iter().all(|&ipc| ipc > 0.0),
            "every core, including the exhausted one, reports coherent stats"
        );
    }

    #[test]
    fn all_streams_empty_yields_an_empty_but_coherent_run() {
        use pv_workloads::{AccessStream, TakeStream};
        let config = tiny(PrefetcherKind::None);
        let streams: Vec<Box<dyn AccessStream>> = (0..config.cores)
            .map(|core| {
                let generator = TraceGenerator::new(&workloads::qry1(), config.seed, core);
                Box::new(TakeStream::new(generator, 0)) as Box<dyn AccessStream>
            })
            .collect();
        let mut system = System::from_streams(config, streams);
        let metrics = system.run();
        assert!(system.records_consumed().eq([0, 0, 0, 0]));
        assert!(system.exhausted().eq([true, true, true, true]));
        assert_eq!(metrics.total_instructions, 0);
        assert_eq!(metrics.elapsed_cycles, 0);
    }

    #[test]
    fn queued_contention_slows_runs_and_reports_delay() {
        use pv_mem::ContentionModel;
        let workload = workloads::qry1();
        let ideal = tiny(PrefetcherKind::sms_pv8());
        let mut queued = ideal.clone();
        queued.hierarchy = queued.hierarchy.with_contention(ContentionModel::Queued);
        let ideal_metrics = run_workload(&ideal, &workload);
        let queued_metrics = run_workload(&queued, &workload);
        assert_eq!(
            ideal_metrics.hierarchy.total_queue_delay().total_cycles(),
            0,
            "ideal runs must not observe queueing"
        );
        let delay = queued_metrics.hierarchy.total_queue_delay();
        assert!(
            delay.application_cycles() > 0,
            "queued runs must observe application queueing"
        );
        assert!(
            delay.predictor_cycles() > 0,
            "PV traffic must compete too, not ride for free"
        );
        assert!(
            queued_metrics.elapsed_cycles > ideal_metrics.elapsed_cycles,
            "contention must cost cycles ({} vs {})",
            queued_metrics.elapsed_cycles,
            ideal_metrics.elapsed_cycles
        );
        assert!(queued_metrics.hierarchy.dram_busy_cycles > 0);
    }
}

/// Scheduler differential tests: the event-heap run loop must reproduce the
/// original per-record scan *exactly* — the same core stepped at every
/// single decision point (the step order) and therefore the same
/// interleaving at the shared L2 and bit-identical metrics digests.
#[cfg(test)]
mod scheduler_tests {
    use super::*;
    use pv_mem::{ContentionModel, HierarchyConfig};
    use pv_trace::Scenario;
    use pv_workloads::{workloads, TakeStream, WorkloadId};
    use std::sync::{Arc, Mutex};

    impl System {
        /// The original run loop, kept as the oracle: rescan every core per
        /// record and step the first one with the smallest clock.
        fn run_phase_scan(&mut self, records_per_core: u64) {
            self.set_targets(records_per_core);
            loop {
                let next = self
                    .cores
                    .iter()
                    .enumerate()
                    .filter(|(idx, core)| {
                        !core.exhausted && core.records_consumed < self.targets[*idx]
                    })
                    .min_by_key(|(_, core)| core.model.now())
                    .map(|(idx, _)| idx);
                let Some(idx) = next else { break };
                self.step_core(idx);
            }
        }

        /// [`System::run`] over the scan loop.
        fn run_scan(&mut self) -> RunMetrics {
            self.run_phase_scan(self.config.warmup_records);
            self.reset_measurement_state();
            self.run_phase_scan(self.config.measure_records);
            self.collect_metrics()
        }
    }

    /// The core ids of one system's steps, in order.
    type StepLog = Arc<Mutex<Vec<u32>>>;

    /// A stream that appends its core id to a shared log on every
    /// `next_record`. `step_core` pulls exactly one record per step (the
    /// pull that finds a stream exhausted included), so the log is the
    /// system's step order. It must keep the in-thread default of
    /// [`AccessStream::worth_running_ahead`]: run ahead, it would log the
    /// helper's chunk fills instead of the steps.
    struct Logged {
        core: u32,
        inner: Box<dyn AccessStream>,
        log: StepLog,
    }

    impl AccessStream for Logged {
        fn next_record(&mut self) -> Option<TraceRecord> {
            self.log.lock().expect("step log").push(self.core);
            self.inner.next_record()
        }

        fn label(&self) -> &str {
            self.inner.label()
        }
    }

    /// Builds a system over `streams`, each wrapped to log into one shared
    /// step log.
    fn logged_system(config: &SimConfig, streams: Vec<Box<dyn AccessStream>>) -> (System, StepLog) {
        let log = StepLog::default();
        let streams = streams
            .into_iter()
            .enumerate()
            .map(|(core, inner)| {
                Box::new(Logged {
                    core: core as u32,
                    inner,
                    log: Arc::clone(&log),
                }) as Box<dyn AccessStream>
            })
            .collect();
        (System::from_streams(config.clone(), streams), log)
    }

    /// A small config for `cores` cores so the differential sweeps stay fast.
    pub(super) fn config(cores: usize, prefetcher: PrefetcherKind, seed: u64) -> SimConfig {
        let mut config = SimConfig::quick(prefetcher);
        config.cores = cores;
        config.hierarchy = HierarchyConfig::paper_baseline(cores);
        config.warmup_records = 4_000;
        config.measure_records = 6_000;
        config.seed = seed;
        config
    }

    /// Runs `config` over the streams `build` yields under the heap and the
    /// scan and asserts the step orders and digests are identical.
    fn assert_schedulers_agree(
        config: &SimConfig,
        build: impl Fn(&SimConfig) -> Vec<Box<dyn AccessStream>>,
    ) {
        let (mut heap, heap_log) = logged_system(config, build(config));
        let (mut reference, reference_log) = logged_system(config, build(config));

        let heap_metrics = heap.run();
        let reference_metrics = reference.run_scan();

        let heap_trace = heap_log.lock().expect("step log");
        let reference_trace = reference_log.lock().expect("step log");
        assert_eq!(
            heap_trace.len(),
            reference_trace.len(),
            "schedulers took a different number of steps"
        );
        if let Some(step) = heap_trace.iter().zip(reference_trace.iter()).position(|(a, b)| a != b)
        {
            panic!(
                "step order diverged at step {step}: heap chose core {}, reference core {}",
                heap_trace[step], reference_trace[step]
            );
        }
        assert_eq!(
            heap_metrics.digest(),
            reference_metrics.digest(),
            "identical step order must yield identical digests"
        );
        assert!(heap.records_consumed().eq(reference.records_consumed()));
        assert!(heap.exhausted().eq(reference.exhausted()));
    }

    /// One generator stream per core, each core on its own workload.
    pub(super) fn generator_streams(config: &SimConfig) -> Vec<Box<dyn AccessStream>> {
        let rotation = [
            workloads::qry1(),
            workloads::apache(),
            workloads::db2(),
            workloads::qry17(),
            workloads::qry2(),
        ];
        (0..config.cores)
            .map(|core| {
                let workload: &WorkloadParams = &rotation[core % rotation.len()];
                Box::new(TraceGenerator::new(workload, config.seed, core)) as Box<dyn AccessStream>
            })
            .collect()
    }

    #[test]
    fn heap_matches_reference_on_mixed_generators_1_to_8_cores() {
        for cores in 1..=8 {
            let config = config(cores, PrefetcherKind::None, 7 + cores as u64);
            assert_schedulers_agree(&config, generator_streams);
        }
    }

    #[test]
    fn heap_matches_reference_with_prefetchers_and_contention() {
        for (seed, kind) in [
            (11, PrefetcherKind::sms_1k_11a()),
            (13, PrefetcherKind::sms_pv8()),
            (17, PrefetcherKind::markov_1k()),
        ] {
            let mut config = config(4, kind, seed);
            if seed == 13 {
                config.hierarchy = config.hierarchy.with_contention(ContentionModel::Queued);
            }
            assert_schedulers_agree(&config, generator_streams);
        }
    }

    #[test]
    fn heap_matches_reference_when_finite_streams_exhaust_mid_phase() {
        // Limits straddle every interesting boundary: mid-warmup, exactly at
        // the phase edge, mid-measurement, and beyond the run.
        let config = config(4, PrefetcherKind::sms_1k_11a(), 23);
        let full = config.warmup_records + config.measure_records;
        let limits = [
            config.warmup_records / 2,
            config.warmup_records,
            config.warmup_records + config.measure_records / 3,
            full + 1_000,
        ];
        assert_schedulers_agree(&config, move |config| {
            (0..config.cores)
                .map(|core| {
                    let generator = TraceGenerator::new(&workloads::qry1(), config.seed, core);
                    Box::new(TakeStream::new(generator, limits[core])) as Box<dyn AccessStream>
                })
                .collect()
        });
    }

    #[test]
    fn heap_matches_reference_on_scenario_streams() {
        let config = config(4, PrefetcherKind::sms_pv8(), 29);
        let scenario = Scenario::PhaseFlip {
            a: WorkloadId::Qry1,
            b: WorkloadId::Apache,
            period: 2_500,
        };
        assert_schedulers_agree(&config, move |config| {
            scenario.build_streams(config.cores, config.seed)
        });
    }

    /// Regression: a core that exhausts *inside* the run-until-overtaken
    /// burst (here: a single core, so the heap is empty and the burst never
    /// ends until the stream dries up) must retire cleanly, leave the heap,
    /// and report coherent statistics.
    #[test]
    fn core_exhausting_inside_burst_retires_cleanly() {
        let solo = config(1, PrefetcherKind::sms_1k_11a(), 31);
        let short = solo.warmup_records + solo.measure_records / 2;
        let mut system = System::from_streams(
            solo.clone(),
            vec![Box::new(TakeStream::new(
                TraceGenerator::new(&workloads::qry1(), solo.seed, 0),
                short,
            )) as Box<dyn AccessStream>],
        );
        let metrics = system.run();
        assert!(system.records_consumed().eq([short]));
        assert!(system.exhausted().eq([true]));
        assert!(metrics.total_instructions > 0);
        assert!(metrics.per_core_ipc.iter().all(|&ipc| ipc > 0.0));

        // And the multi-core variant: the lagging core bursts while the
        // others idle far ahead, then runs dry mid-burst — differentially
        // checked.
        let multi = config(3, PrefetcherKind::None, 37);
        let short = multi.warmup_records / 3;
        assert_schedulers_agree(&multi, move |config| {
            (0..config.cores)
                .map(|core| {
                    let generator = TraceGenerator::new(&workloads::qry17(), config.seed, core);
                    let stream: Box<dyn AccessStream> = if core == 1 {
                        Box::new(TakeStream::new(generator, short))
                    } else {
                        Box::new(generator)
                    };
                    stream
                })
                .collect()
        });
    }
}

/// Running live generators ahead on helper threads must not change a run:
/// the same generators, kept in-thread behind a stream that does not ask to
/// run ahead, give byte-identical results.
#[cfg(test)]
mod run_ahead_tests {
    use super::scheduler_tests::{config, generator_streams};
    use super::*;
    use pv_mem::ContentionModel;

    /// A stream with the in-thread default: `System` never runs it ahead.
    struct InThread(Box<dyn AccessStream>);

    impl AccessStream for InThread {
        fn next_record(&mut self) -> Option<TraceRecord> {
            self.0.next_record()
        }

        fn label(&self) -> &str {
            self.0.label()
        }
    }

    #[test]
    fn run_ahead_generators_match_in_thread_generators() {
        let kinds = [
            PrefetcherKind::None,
            PrefetcherKind::sms_1k_11a(),
            PrefetcherKind::sms_pv8(),
            PrefetcherKind::markov_pv8(),
            PrefetcherKind::composite_shared(8),
        ];
        for cores in 1..=8 {
            for (k, kind) in kinds.iter().enumerate() {
                for contention in [ContentionModel::Ideal, ContentionModel::Queued] {
                    let mut config = config(cores, kind.clone(), 41 + (cores * 10 + k) as u64);
                    // Short windows keep the 80 pairs fast; each core still
                    // reads about a dozen chunks.
                    config.warmup_records = 1_000;
                    config.measure_records = 2_000;
                    config.hierarchy = config.hierarchy.with_contention(contention);
                    if kind.pv_bytes_per_core() > 0 {
                        config.hierarchy =
                            config.hierarchy.with_pv_bytes_per_core(kind.pv_bytes_per_core());
                    }
                    let live = generator_streams(&config);
                    assert!(live.iter().all(|stream| stream.worth_running_ahead()));
                    let mut ahead = System::from_streams(config.clone(), live);
                    let in_thread = generator_streams(&config)
                        .into_iter()
                        .map(|stream| Box::new(InThread(stream)) as Box<dyn AccessStream>)
                        .collect();
                    let mut reference = System::from_streams(config, in_thread);
                    let label = format!("{} on {cores} cores, {contention:?}", kind.label());
                    assert_eq!(ahead.run().digest(), reference.run().digest(), "{label}");
                    assert!(
                        ahead.records_consumed().eq(reference.records_consumed()),
                        "{label}"
                    );
                    assert!(ahead.exhausted().eq(reference.exhausted()), "{label}");
                }
            }
        }
    }
}
