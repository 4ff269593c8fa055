//! Every metric the benchmark reports, with its unit, and the per-layer
//! metrics computed from one traced pass.

use crate::traced::LoopCounts;
use crate::tracer::{Layer, TraceSummary};
use pv_sim::RunMetrics;

/// A metric's name, unit and meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name in the result line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit in the result line and in `BENCHMARK.json`.
    pub unit: &'static str,
    /// One line on what it measures.
    pub meaning: &'static str,
}

const fn def(name: &'static str, unit: &'static str, meaning: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        meaning,
    }
}

/// The end-to-end metrics, reported with the tracer off.
pub const END_TO_END: [MetricDef; 3] = [
    def(
        "records_per_s",
        "records/s",
        "simulated trace records per host second over the workload's simulations, set-up excluded (each simulation's fastest round)",
    ),
    def(
        "setup_s",
        "s",
        "host seconds to build the workload's inputs and Systems, trace recording included (each part's fastest round)",
    ),
    def(
        "peak_rss_mb",
        "MB",
        "resident-memory high-water mark of the benchmark process",
    ),
];

/// The per-layer metrics, reported by the traced run. Host times are per
/// call and exclude the tracer's own cost; simulated counts are summed
/// over the workload's simulations (one round).
pub const PER_LAYER: [MetricDef; 52] = [
    def("workloads.next_record_ns", "ns", "host ns per generated record (TraceGenerator)"),
    def("trace.next_record_ns", "ns", "host ns per decoded record (ReplayStream)"),
    def("trace.encode_s", "s", "host seconds to record the traces of one round"),
    def("trace.bytes_per_record", "B/record", "recorded trace bytes per record"),
    def("sim.loop_self_ns", "ns", "host ns per record in the run loop itself: scheduler plus CoreModel"),
    def("engine.on_data_access_ns", "ns", "host ns per PrefetchEngine::on_data_access call, PV tables included"),
    def("engine.on_l1_evictions_ns", "ns", "host ns per PrefetchEngine::on_l1_evictions call"),
    def("engine.self_ns", "ns", "host ns per engine call outside the wrapped PV-table spans"),
    def("engine.calls", "count", "engine calls (data accesses plus eviction feeds) per round"),
    def("engine.actions_per_call", "ratio", "prefetch actions per on_data_access call"),
    def("sms.pht_hit_rate", "ratio", "SMS pattern-table hits per lookup (simulated)"),
    def("markov.hit_rate", "ratio", "Markov table hits per lookup (simulated)"),
    def("core.pv_lookup_ns", "ns", "host ns per virtualized-table lookup (PV proxy, PVC$, PV-block fetch)"),
    def("core.pv_store_ns", "ns", "host ns per virtualized-table store (PV proxy, PVC$, PV-block fetch)"),
    def("core.pvc_hit_rate", "ratio", "PVCache hits per PV lookup (simulated)"),
    def("core.pv_memory_requests", "count", "PV-block fetches issued to the L2 (simulated)"),
    def("core.pv_dirty_writebacks", "count", "dirty PVCache victims written back (simulated)"),
    def("core.pv_pending_hits", "count", "PVCache hits on in-flight fills (simulated)"),
    def("core.pv_unbacked_lookups", "count", "lookups of sets the region plan does not back (simulated)"),
    def("core.pv_queue_delay_cycles", "cycles", "cycles PV requests waited for shared resources (simulated)"),
    def("sim.repartition.replans", "count", "PV-region repartitions (simulated)"),
    def("sim.repartition.invalidated_entries", "count", "PVCache entries invalidated by repartitions (simulated)"),
    def("mem.access_ns.l1", "ns", "host ns per demand access serviced by the L1"),
    def("mem.access_ns.l2", "ns", "host ns per demand access serviced by the L2"),
    def("mem.access_ns.dram", "ns", "host ns per demand access serviced by DRAM"),
    def("mem.prefetch_ns", "ns", "host ns per MemoryHierarchy::prefetch_into_l1d call"),
    def("mem.prefetch_issued_ratio", "ratio", "prefetch actions the hierarchy issued per action produced"),
    def("mem.l1d_read_misses", "count", "L1D read misses (simulated)"),
    def("mem.l2_requests.app", "count", "application L2 requests (simulated)"),
    def("mem.l2_requests.pred", "count", "predictor (PV) L2 requests (simulated)"),
    def("mem.l2_misses.app", "count", "application L2 misses (simulated)"),
    def("mem.l2_misses.pred", "count", "predictor (PV) L2 misses (simulated)"),
    def("mem.l2_writebacks.app", "count", "application L2 write-backs (simulated)"),
    def("mem.l2_writebacks.pred", "count", "predictor (PV) L2 write-backs (simulated)"),
    def("mem.dram_reads", "count", "DRAM reads (simulated)"),
    def("mem.dram_writes", "count", "DRAM writes (simulated)"),
    def("mem.coverage", "ratio", "covered L1 read misses per baseline miss (simulated)"),
    def("mem.overprediction", "ratio", "unused prefetches per baseline miss (simulated)"),
    def("mem.l2_port_delay.app", "cycles", "application cycles waiting for L2 ports (simulated, Queued)"),
    def("mem.l2_port_delay.pred", "cycles", "predictor cycles waiting for L2 ports (simulated, Queued)"),
    def("mem.mshr_stall_delay.app", "cycles", "application cycles waiting for MSHRs (simulated, Queued)"),
    def("mem.mshr_stall_delay.pred", "cycles", "predictor cycles waiting for MSHRs (simulated, Queued)"),
    def("mem.dram_queue_delay.app", "cycles", "application cycles in DRAM queues (simulated, Queued)"),
    def("mem.dram_queue_delay.pred", "cycles", "predictor cycles in DRAM queues (simulated, Queued)"),
    def("mem.dram_utilization", "ratio", "DRAM bus-busy cycles per elapsed cycle (simulated, Queued)"),
    def("sim.cycles", "cycles", "elapsed cycles summed over simulations (simulated)"),
    def("sim.ipc", "ratio", "instructions per elapsed cycle over all simulations (simulated)"),
    def("bench.clock_read_ns", "ns", "host ns of one Instant::now"),
    def("bench.span_overhead_ns", "ns", "calibrated tracer cost of one span (two clock reads plus bookkeeping), removed from the layers"),
    def("bench.spans_per_record", "ratio", "spans closed per simulated record"),
    def("bench.tracing_overhead_frac", "ratio", "traced wall time over untraced wall time, minus 1"),
    def("bench.unattributed_frac", "ratio", "share of traced wall time that no layer's self time nor the tracer's own cost covers"),
];

/// The unit of a metric.
///
/// # Panics
///
/// Panics if `name` is not a metric.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a benchmark metric"))
        .unit
}

/// What one traced round produced, plus the host timings around it.
pub struct TracedResult<'a> {
    /// Span totals summed over every traced round.
    pub trace: &'a TraceSummary,
    /// Host ns of one `Instant::now`.
    pub clock_read_ns: f64,
    /// Loop counts summed over every traced round.
    pub counts: LoopCounts,
    /// Traced rounds.
    pub rounds: u64,
    /// One round's simulated metrics, one entry per simulation.
    pub runs: &'a [RunMetrics],
    /// Trace bytes recorded per round (replay workloads).
    pub trace_bytes: u64,
    /// Records recorded per round (replay workloads).
    pub trace_records: u64,
    /// Wall seconds of every traced round together.
    pub traced_wall_s: f64,
    /// Median wall seconds of an untraced round.
    pub untraced_round_s: f64,
    /// Median wall seconds of a traced round.
    pub traced_round_s: f64,
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The per-layer metrics, in [`PER_LAYER`] order.
pub fn per_layer(result: &TracedResult) -> Vec<(&'static str, f64)> {
    let trace = result.trace;
    let per_call = |layer: Layer| {
        let totals = trace.get(layer);
        ratio(totals.total_ns, totals.calls as f64)
    };
    let runs = result.runs;
    let sum = |f: &dyn Fn(&RunMetrics) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let rounds = result.rounds as f64;

    let engine_access = trace.get(Layer::EngineAccess);
    let engine_evictions = trace.get(Layer::EngineEvictions);
    let engine_calls = (engine_access.calls + engine_evictions.calls) as f64;
    let pv = |f: &dyn Fn(&pv_core::PvStats) -> u64| sum(&|m| m.pv.as_ref().map_or(0, f));
    let sms = |f: &dyn Fn(&pv_sms::SmsStats) -> u64| sum(&|m| m.sms.as_ref().map_or(0, f));
    let markov =
        |f: &dyn Fn(&pv_markov::MarkovStats) -> u64| sum(&|m| m.markov.as_ref().map_or(0, f));
    let repartition = |f: &dyn Fn(&pv_sim::RepartitionMetrics) -> u64| {
        sum(&|m| m.repartition.as_ref().map_or(0, f))
    };
    let covered = sum(&|m| m.coverage.covered);
    let baseline = sum(&|m| m.coverage.baseline_misses());
    let cycles = sum(&|m| m.elapsed_cycles);

    let values = vec![
        ("workloads.next_record_ns", per_call(Layer::GeneratorNext)),
        ("trace.next_record_ns", per_call(Layer::ReplayNext)),
        (
            "trace.encode_s",
            trace.get(Layer::TraceEncode).total_ns / rounds / 1e9,
        ),
        (
            "trace.bytes_per_record",
            ratio(result.trace_bytes as f64, result.trace_records as f64),
        ),
        (
            "sim.loop_self_ns",
            ratio(trace.get(Layer::Run).self_ns, result.counts.records as f64),
        ),
        ("engine.on_data_access_ns", per_call(Layer::EngineAccess)),
        (
            "engine.on_l1_evictions_ns",
            per_call(Layer::EngineEvictions),
        ),
        (
            "engine.self_ns",
            ratio(
                engine_access.self_ns + engine_evictions.self_ns,
                engine_calls,
            ),
        ),
        ("engine.calls", engine_calls / rounds),
        (
            "engine.actions_per_call",
            ratio(result.counts.actions as f64, engine_access.calls as f64),
        ),
        (
            "sms.pht_hit_rate",
            ratio(sms(&|s| s.pht_hits), sms(&|s| s.pht_lookups)),
        ),
        (
            "markov.hit_rate",
            ratio(markov(&|s| s.hits), markov(&|s| s.lookups)),
        ),
        ("core.pv_lookup_ns", per_call(Layer::PvLookup)),
        ("core.pv_store_ns", per_call(Layer::PvStore)),
        (
            "core.pvc_hit_rate",
            ratio(
                pv(&|p| p.pvcache_hits),
                pv(&|p| p.pvcache_hits + p.pvcache_misses),
            ),
        ),
        ("core.pv_memory_requests", pv(&|p| p.memory_requests)),
        ("core.pv_dirty_writebacks", pv(&|p| p.dirty_writebacks)),
        ("core.pv_pending_hits", pv(&|p| p.pending_hits)),
        ("core.pv_unbacked_lookups", pv(&|p| p.unbacked_lookups)),
        ("core.pv_queue_delay_cycles", pv(&|p| p.queue_delay_cycles)),
        ("sim.repartition.replans", repartition(&|r| r.replans)),
        (
            "sim.repartition.invalidated_entries",
            repartition(&|r| r.invalidated_entries),
        ),
        ("mem.access_ns.l1", per_call(Layer::AccessL1)),
        ("mem.access_ns.l2", per_call(Layer::AccessL2)),
        ("mem.access_ns.dram", per_call(Layer::AccessDram)),
        ("mem.prefetch_ns", per_call(Layer::Prefetch)),
        (
            "mem.prefetch_issued_ratio",
            ratio(result.counts.issued as f64, result.counts.actions as f64),
        ),
        (
            "mem.l1d_read_misses",
            sum(&|m| m.hierarchy.l1d_total().read_misses),
        ),
        (
            "mem.l2_requests.app",
            sum(&|m| m.hierarchy.l2_requests.application),
        ),
        (
            "mem.l2_requests.pred",
            sum(&|m| m.hierarchy.l2_requests.predictor),
        ),
        (
            "mem.l2_misses.app",
            sum(&|m| m.hierarchy.l2_misses.application),
        ),
        (
            "mem.l2_misses.pred",
            sum(&|m| m.hierarchy.l2_misses.predictor),
        ),
        (
            "mem.l2_writebacks.app",
            sum(&|m| m.hierarchy.l2_writebacks.application),
        ),
        (
            "mem.l2_writebacks.pred",
            sum(&|m| m.hierarchy.l2_writebacks.predictor),
        ),
        ("mem.dram_reads", sum(&|m| m.hierarchy.dram_reads)),
        ("mem.dram_writes", sum(&|m| m.hierarchy.dram_writes)),
        ("mem.coverage", ratio(covered, baseline)),
        (
            "mem.overprediction",
            ratio(sum(&|m| m.coverage.overpredictions), baseline),
        ),
        (
            "mem.l2_port_delay.app",
            sum(&|m| m.hierarchy.l2_port_delay.application_cycles()),
        ),
        (
            "mem.l2_port_delay.pred",
            sum(&|m| m.hierarchy.l2_port_delay.predictor_cycles()),
        ),
        (
            "mem.mshr_stall_delay.app",
            sum(&|m| m.hierarchy.mshr_stall_delay.application_cycles()),
        ),
        (
            "mem.mshr_stall_delay.pred",
            sum(&|m| m.hierarchy.mshr_stall_delay.predictor_cycles()),
        ),
        (
            "mem.dram_queue_delay.app",
            sum(&|m| m.hierarchy.dram_queue_delay.application_cycles()),
        ),
        (
            "mem.dram_queue_delay.pred",
            sum(&|m| m.hierarchy.dram_queue_delay.predictor_cycles()),
        ),
        (
            "mem.dram_utilization",
            ratio(sum(&|m| m.hierarchy.dram_busy_cycles), cycles),
        ),
        ("sim.cycles", cycles),
        ("sim.ipc", ratio(sum(&|m| m.total_instructions), cycles)),
        ("bench.clock_read_ns", result.clock_read_ns),
        ("bench.span_overhead_ns", trace.overhead.per_span_ns()),
        (
            "bench.spans_per_record",
            ratio(trace.spans as f64, result.counts.records as f64),
        ),
        (
            "bench.tracing_overhead_frac",
            ratio(result.traced_round_s, result.untraced_round_s) - 1.0,
        ),
        (
            "bench.unattributed_frac",
            ratio(
                result.traced_wall_s * 1e9 - trace.attributed_ns(),
                result.traced_wall_s * 1e9,
            ),
        ),
    ];
    debug_assert!(values.iter().zip(PER_LAYER.iter()).all(|((name, _), def)| *name == def.name));
    values
}
