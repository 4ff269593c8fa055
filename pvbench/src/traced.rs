//! The traced run: the simulator's run loop rebuilt from the public layers,
//! with a span around every call into a layer.
//!
//! The loop mirrors `pv_sim::System::run` step for step — the event-heap
//! scheduler, the fetch and data paths, the engine feed/issue path, the
//! warm-up reset and the metric collection — so its `RunMetrics::digest`
//! must equal the untraced run's. Virtualized single-table kinds get their
//! PV storage wrapped in a timing shim; the composite kinds own their
//! storages and are traced at the engine boundary only.

use crate::tracer::{self, Layer};
use pv_core::{PvConfig, PvRegionPlan, SharedPvProxy};
use pv_markov::{
    DedicatedMarkov, MarkovIndex, MarkovPrefetcher, NextAddrLookup, NextAddrStorage,
    VirtualizedMarkov,
};
use pv_mem::{DataClass, EvictionBuffer, HitLevel, MemoryHierarchy, Requester};
use pv_sim::{
    CompositePrefetcher, CoreModel, CoverageMetrics, EngineSnapshot, PrefetchEngine,
    PrefetcherKind, RunMetrics, SimConfig,
};
use pv_sms::{
    build_storage, PatternLookup, PatternStorage, PhtIndex, PrefetchAction, SmsPrefetcher,
    SpatialPattern, VirtualizedPht,
};
use pv_workloads::{AccessStream, MemOp, TraceRecord};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One record in this many per core has its whole span tree sampled.
const SAMPLE_EVERY: u64 = 16_384;

/// Times every lookup and store of a virtualized SMS pattern table.
#[derive(Debug)]
struct TimedPht(VirtualizedPht);

impl PatternStorage for TimedPht {
    fn lookup(
        &mut self,
        index: PhtIndex,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) -> PatternLookup {
        tracer::span(Layer::PvLookup, || self.0.lookup(index, mem, shared, now))
    }

    fn store(
        &mut self,
        index: PhtIndex,
        pattern: SpatialPattern,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) {
        tracer::span(Layer::PvStore, || {
            self.0.store(index, pattern, mem, shared, now)
        });
    }

    fn label(&self) -> String {
        self.0.label()
    }

    fn dedicated_storage_bytes(&self) -> u64 {
        self.0.dedicated_storage_bytes()
    }

    fn resident_patterns(&self) -> usize {
        self.0.resident_patterns()
    }

    // The inner table, so the engine snapshot still finds its PV stats.
    fn as_any(&self) -> &dyn std::any::Any {
        self.0.as_any()
    }

    fn reset_stats(&mut self) {
        self.0.reset_stats();
    }
}

/// Times every lookup and store of a virtualized Markov next-address table.
#[derive(Debug)]
struct TimedMarkov(VirtualizedMarkov);

impl NextAddrStorage for TimedMarkov {
    fn lookup(
        &mut self,
        index: MarkovIndex,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) -> NextAddrLookup {
        tracer::span(Layer::PvLookup, || self.0.lookup(index, mem, shared, now))
    }

    fn store(
        &mut self,
        index: MarkovIndex,
        delta: i64,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) {
        tracer::span(Layer::PvStore, || {
            self.0.store(index, delta, mem, shared, now)
        });
    }

    fn label(&self) -> String {
        self.0.label()
    }

    fn dedicated_storage_bytes(&self) -> u64 {
        self.0.dedicated_storage_bytes()
    }

    fn resident_entries(&self) -> usize {
        self.0.resident_entries()
    }

    // The inner table, so the engine snapshot still finds its PV stats.
    fn as_any(&self) -> &dyn std::any::Any {
        self.0.as_any()
    }

    fn reset_stats(&mut self) {
        self.0.reset_stats();
    }
}

/// Builds one core's engine the way `System` does for `kind`, with the
/// single-table PV storages wrapped in timing shims.
///
/// # Panics
///
/// Panics on the throttled and dedicated-composite kinds, which no
/// benchmark workload runs.
fn build_engine(config: &SimConfig, core: usize) -> Option<Box<dyn PrefetchEngine>> {
    let base = config.hierarchy.pv_regions.core_base(core);
    match &config.prefetcher {
        PrefetcherKind::None => None,
        PrefetcherKind::Sms(sms) => Some(Box::new(SmsPrefetcher::new(*sms, build_storage(sms)))),
        PrefetcherKind::VirtualizedSms { sms, pv } => Some(Box::new(SmsPrefetcher::new(
            *sms,
            Box::new(TimedPht(VirtualizedPht::new(core, *pv, base))),
        ))),
        PrefetcherKind::Markov(markov) => Some(Box::new(MarkovPrefetcher::new(
            *markov,
            Box::new(DedicatedMarkov::new(*markov)),
        ))),
        PrefetcherKind::VirtualizedMarkov { markov, pv } => Some(Box::new(MarkovPrefetcher::new(
            *markov,
            Box::new(TimedMarkov(VirtualizedMarkov::new(core, *pv, base))),
        ))),
        PrefetcherKind::CompositeShared { sms, markov, pv } => {
            let plan = PvRegionPlan::new(
                config.hierarchy.pv_regions,
                vec![pv.table_bytes(), pv.table_bytes()],
            );
            Some(Box::new(CompositePrefetcher::shared(
                core, *sms, *markov, *pv, &plan,
            )))
        }
        PrefetcherKind::Repartitioned { inner, repartition } => {
            let PrefetcherKind::CompositeShared { sms, markov, pv } = &**inner else {
                panic!("repartitioning wraps only the shared composite");
            };
            Some(Box::new(CompositePrefetcher::shared_repartitioned(
                core,
                *sms,
                *markov,
                *pv,
                scarce_plan(config, pv),
                *repartition,
            )))
        }
        other => panic!("{} is not run by any benchmark workload", other.label()),
    }
}

/// The repartitioned kind's starting plan: the reserved region split evenly
/// into two block-aligned sub-regions, each capped at the table footprint.
fn scarce_plan(config: &SimConfig, pv: &PvConfig) -> PvRegionPlan {
    let half = config.hierarchy.pv_regions.bytes_per_core / 2;
    let per_table = ((half / pv.block_bytes) * pv.block_bytes).min(pv.table_bytes());
    PvRegionPlan::new(config.hierarchy.pv_regions, vec![per_table, per_table])
}

struct Core {
    stream: Box<dyn AccessStream>,
    next_layer: Layer,
    model: CoreModel,
    engine: Option<Box<dyn PrefetchEngine>>,
    covered: u64,
    prefetches_issued: u64,
    records_consumed: u64,
    exhausted: bool,
}

/// Host-side counts the traced loop collects besides spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopCounts {
    /// Records consumed over every core and both windows.
    pub records: u64,
    /// Prefetch actions the engines produced.
    pub actions: u64,
    /// Prefetch actions that the hierarchy issued.
    pub issued: u64,
}

/// A simulation driven through the traced loop.
pub struct TracedSystem {
    config: SimConfig,
    workload_name: String,
    hierarchy: MemoryHierarchy,
    cores: Vec<Core>,
    actions: Vec<PrefetchAction>,
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    targets: Vec<u64>,
    counts: LoopCounts,
    last_sampled: bool,
}

impl TracedSystem {
    /// Builds the simulation `config` describes over one stream per core;
    /// `replayed` names the streams' span (`trace` or `workloads` layer).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation or the stream count does not
    /// match the core count.
    pub fn new(config: SimConfig, streams: Vec<Box<dyn AccessStream>>, replayed: bool) -> Self {
        config.assert_valid();
        assert_eq!(streams.len(), config.cores, "one stream per core");
        let labels: Vec<String> = streams.iter().map(|s| s.label().to_owned()).collect();
        let workload_name = if labels.windows(2).all(|pair| pair[0] == pair[1]) {
            labels[0].clone()
        } else {
            labels.join("+")
        };
        let hierarchy = MemoryHierarchy::new(config.hierarchy);
        let next_layer = if replayed {
            Layer::ReplayNext
        } else {
            Layer::GeneratorNext
        };
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(core, stream)| Core {
                stream,
                next_layer,
                model: CoreModel::new(config.core, config.hierarchy.l1d.data_latency),
                engine: build_engine(&config, core),
                covered: 0,
                prefetches_issued: 0,
                records_consumed: 0,
                exhausted: false,
            })
            .collect();
        TracedSystem {
            workload_name,
            config,
            hierarchy,
            cores,
            actions: Vec::new(),
            ready: BinaryHeap::new(),
            targets: Vec::new(),
            counts: LoopCounts::default(),
            last_sampled: false,
        }
    }

    /// Runs the warm-up and measurement windows inside one `sim.run` span
    /// and returns the measurement window's metrics.
    pub fn run(&mut self) -> RunMetrics {
        tracer::enter(Layer::Run);
        self.run_phase(self.config.warmup_records);
        tracer::span(Layer::Collect, || self.reset_measurement_state());
        self.run_phase(self.config.measure_records);
        if self.last_sampled {
            tracer::set_sampling(false);
            self.last_sampled = false;
        }
        let metrics = tracer::span(Layer::Collect, || self.collect_metrics());
        tracer::exit(Layer::Run);
        metrics
    }

    /// Host-side counts of the run so far.
    pub fn counts(&self) -> LoopCounts {
        self.counts
    }

    fn run_phase(&mut self, records_per_core: u64) {
        self.targets.clear();
        self.targets
            .extend(self.cores.iter().map(|c| c.records_consumed + records_per_core));
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
        let sampled = self.cores[idx].records_consumed.is_multiple_of(SAMPLE_EVERY);
        if sampled != self.last_sampled {
            tracer::set_sampling(sampled);
            self.last_sampled = sampled;
        }
        let core = &mut self.cores[idx];
        let record = tracer::span(core.next_layer, || core.stream.next_record());
        let Some(record) = record else {
            core.exhausted = true;
            return;
        };
        core.records_consumed += 1;
        self.counts.records += 1;
        match record.op {
            MemOp::InstructionFetch => self.step_fetch(idx, &record),
            MemOp::Load | MemOp::Store => self.step_data(idx, &record),
        }
    }

    fn step_fetch(&mut self, idx: usize, record: &TraceRecord) {
        let core = &mut self.cores[idx];
        let now = core.model.now();
        tracer::enter(Layer::AccessL1);
        let response = self.hierarchy.access(
            Requester::instruction(idx),
            record.address,
            CoreModel::access_kind(record.op),
            DataClass::Application,
            now,
        );
        tracer::exit_as(Layer::AccessL1, access_layer(response.level));
        core.model
            .retire_memory_contended(record.op, response.latency, response.queue_delay);
    }

    fn step_data(&mut self, idx: usize, record: &TraceRecord) {
        self.cores[idx].model.retire_non_memory(record.non_mem_instructions);
        let now = self.cores[idx].model.now();
        let mut evictions = EvictionBuffer::default();
        tracer::enter(Layer::AccessL1);
        let response = self.hierarchy.access_data(
            idx,
            record.address,
            CoreModel::access_kind(record.op),
            now,
            &mut evictions,
        );
        tracer::exit_as(Layer::AccessL1, access_layer(response.level));
        if record.op == MemOp::Load && response.first_use_of_prefetch {
            self.cores[idx].covered += 1;
        }
        self.cores[idx].model.retire_memory_contended(
            record.op,
            response.latency,
            response.queue_delay,
        );

        let Some(mut engine) = self.cores[idx].engine.take() else {
            return;
        };
        let hierarchy = &mut self.hierarchy;
        if !evictions.is_empty() {
            tracer::span(Layer::EngineEvictions, || {
                engine.on_l1_evictions(evictions.as_slice(), hierarchy, None, now)
            });
        }
        self.actions.clear();
        let actions = &mut self.actions;
        tracer::span(Layer::EngineAccess, || {
            engine.on_data_access(record.pc, record.address, hierarchy, None, now, actions)
        });
        self.counts.actions += self.actions.len() as u64;
        for action_idx in 0..self.actions.len() {
            let action = self.actions[action_idx];
            let issue_at = action.issue_at.max(now);
            let outcome = tracer::span(Layer::Prefetch, || {
                hierarchy.prefetch_into_l1d(idx, action.block, issue_at, &mut evictions)
            });
            if outcome.issued {
                self.cores[idx].prefetches_issued += 1;
                self.counts.issued += 1;
            }
            if !evictions.is_empty() {
                tracer::span(Layer::EngineEvictions, || {
                    engine.on_l1_evictions(evictions.as_slice(), hierarchy, None, issue_at)
                });
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

fn access_layer(level: HitLevel) -> Layer {
    match level {
        HitLevel::L1 => Layer::AccessL1,
        HitLevel::L2 => Layer::AccessL2,
        HitLevel::Memory => Layer::AccessDram,
    }
}
