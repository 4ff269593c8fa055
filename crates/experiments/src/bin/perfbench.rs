//! Performance harness: establishes and tracks the simulator's perf
//! trajectory.
//!
//! It measures, and writes as `BENCH_PR10.json` (schema `pv-perfbench/2`,
//! documented in the README's Performance section):
//!
//! * smoke-scale end-to-end runs for every [`PrefetcherKind`], including
//!   the cohabiting SMS+Markov pairs, the dynamically repartitioned
//!   scarce-region pair (`SMS+Markov-shPV8-dyn`) and the
//!   feedback-throttled variants;
//! * a replay-path row that times decode+simulate over pre-recorded binary
//!   traces, and a Queued-contention row whose ratio against its Ideal
//!   twin is reported in the summary;
//! * micro-benchmarks of the shipped hot paths, each timed on its own: the
//!   packing codec (`packing/round_trip`), the set-associative array
//!   (`set_assoc/get_insert`), the memory-hierarchy access path under both
//!   contention models, the DRAM service path and its in-flight ring
//!   (`memory/service_queued`, `memory/inflight_ring`) and the run loop
//!   (`system/schedule`);
//! * two micros that compare two live entry points: the L1-hit fast path
//!   against the general one (`hierarchy/access_hit_fastpath`) and the
//!   cached-bounds PV classification against the region lookup it replaced
//!   (`hierarchy/classify_hoisted`);
//! * fleet throughput: a small grid swept through the fleet driver on one
//!   thread and on all host threads (runs/sec each, and the scaling
//!   efficiency between them).
//!
//! Each end-to-end row also carries a digest of the run's `RunMetrics`
//! (cycles, misses, traffic, coverage): optimisation PRs must keep those
//! digests unchanged — speed may move, simulated outcomes may not.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pv-experiments --bin perfbench [out.json] \
//!     [--check-against BASELINE.json]
//! cargo run --release -p pv-experiments --bin perfbench -- --profile
//! ```
//!
//! With `--check-against`, the end-to-end rows are compared against the
//! matching rows of a previously-recorded JSON (e.g. the committed
//! `BENCH_PR4.json`): the process exits non-zero when the geometric-mean
//! records/sec ratio regresses by more than 25% — or when the
//! `hierarchy/access_queued` micro regresses by more than 50% against the
//! baseline's recording, so the contended path cannot silently regress
//! behind the end-to-end geomean — or when any row's `RunMetrics` digest
//! differs from the baseline's (a behaviour change must re-record the
//! baseline instead). Rows with no baseline counterpart — e.g. the
//! replay-path row against a baseline older than `BENCH_PR6.json` — are
//! skipped by the gate. A baseline that cannot be read, or that holds no
//! end-to-end rows, is rejected with exit status 2 before anything is
//! measured.
//!
//! With `--profile`, a lightweight counter mode runs instead: each hot
//! component of the Queued access path is timed in isolation behind
//! `std::hint::black_box` fences and printed as an attribution table (no
//! JSON is written), followed by the `perf`/flamegraph recipe for
//! instruction-level attribution.

use pv_core::{decode_set, encode_set, PvLayout, PvSet, RawEntry};
use pv_experiments::fleet::{run_fleet, FleetGrid};
use pv_experiments::{RunSpec, Scale, Workload};
use pv_mem::{
    AccessKind, BlockAddr, ContentionModel, DataClass, DelayBreakdown, DramConfig, EvictionBuffer,
    HierarchyConfig, InflightRing, MainMemory, MemoryHierarchy, MshrFile, PvRegionConfig,
    ReplacementKind, Requester, SetAssociative,
};
use pv_sim::{run_streams, run_workload, PrefetcherKind, SimConfig, System};
use pv_trace::{record_generator, ReplayStream};
use pv_workloads::{AccessStream, WorkloadId};
use std::time::Instant;

/// End-to-end records/sec measured at commit 3b12054 (the last commit before
/// the allocation-free refactor), same harness, same machine class, keyed by
/// `(prefetcher label, workload name)`. Kept so the JSON always reports the
/// improvement relative to the tracked pre-refactor baseline.
const PRE_REFACTOR_RECORDS_PER_SEC: &[(&str, &str, f64)] = &[
    ("NoPrefetch", "Apache", 1_782_229.0),
    ("NoPrefetch", "Qry1", 2_034_368.0),
    ("SMS-1K-16a", "Apache", 1_399_772.0),
    ("SMS-1K-16a", "Qry1", 1_566_724.0),
    ("SMS-1K-11a", "Apache", 1_405_604.0),
    ("SMS-1K-11a", "Qry1", 1_461_953.0),
    ("SMS-16-11a", "Apache", 1_394_440.0),
    ("SMS-16-11a", "Qry1", 1_489_745.0),
    ("SMS-8-11a", "Apache", 1_474_434.0),
    ("SMS-8-11a", "Qry1", 1_677_657.0),
    ("SMS-Infinite", "Apache", 1_515_066.0),
    ("SMS-Infinite", "Qry1", 1_592_162.0),
    ("SMS-PV8", "Apache", 1_348_113.0),
    ("SMS-PV8", "Qry1", 1_414_554.0),
    ("SMS-PV16", "Apache", 1_293_504.0),
    ("SMS-PV16", "Qry1", 1_554_254.0),
    ("Markov-1K", "Apache", 872_926.0),
    ("Markov-1K", "Qry1", 1_075_464.0),
    ("Markov-PV8", "Apache", 695_109.0),
    ("Markov-PV8", "Qry1", 892_809.0),
];

fn all_kinds() -> Vec<PrefetcherKind> {
    vec![
        PrefetcherKind::None,
        PrefetcherKind::sms_1k_16a(),
        PrefetcherKind::sms_1k_11a(),
        PrefetcherKind::sms_16_11a(),
        PrefetcherKind::sms_8_11a(),
        PrefetcherKind::sms_infinite(),
        PrefetcherKind::sms_pv8(),
        PrefetcherKind::sms_pv16(),
        PrefetcherKind::markov_1k(),
        PrefetcherKind::markov_pv8(),
        PrefetcherKind::composite_dedicated(4),
        PrefetcherKind::composite_shared(8),
        PrefetcherKind::composite_shared_dynamic(8),
        PrefetcherKind::sms_pv8_throttled(),
        PrefetcherKind::markov_pv8_throttled(),
    ]
}

struct EndToEnd {
    prefetcher: String,
    workload: String,
    records: u64,
    seconds: f64,
    records_per_sec: f64,
    pre_refactor_records_per_sec: Option<f64>,
    digest: String,
}

struct Micro {
    name: String,
    ns_per_op: f64,
    /// `ns_per_op` of the second live path this one is compared against,
    /// when the row has one.
    reference_ns_per_op: Option<f64>,
}

impl Micro {
    fn speedup(&self) -> Option<f64> {
        self.reference_ns_per_op.map(|reference| reference / self.ns_per_op)
    }
}

fn full_sms_set(layout: &PvLayout) -> PvSet<RawEntry> {
    let mut set = PvSet::new(layout.entries_per_block());
    for i in 0..layout.entries_per_block() as u64 {
        set.insert(RawEntry::new(i | 0x400, 0x8000_0001 | (i << 8)));
    }
    set
}

/// Round-trip (encode + decode) cost of the word-level codec.
fn bench_codec(iters: u64) -> f64 {
    let layout = PvLayout::new(11, 32, 64);
    let set = full_sms_set(&layout);
    let start = Instant::now();
    for _ in 0..iters {
        let block = encode_set(&set, &layout);
        let decoded: PvSet<RawEntry> = decode_set(&block, &layout);
        std::hint::black_box(decoded);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Deterministic get/insert mix over a PHT-shaped array (1024 sets x 11
/// ways, LRU).
fn bench_set_assoc(iters: u64) -> f64 {
    let mut arr: SetAssociative<u64> = SetAssociative::new(1024, 11, ReplacementKind::Lru);
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let start = Instant::now();
    for _ in 0..iters {
        let r = next();
        let set = (r % 1024) as usize;
        let tag = (r >> 10) % 64;
        if r & 1 == 0 {
            std::hint::black_box(arr.get(set, tag));
        } else {
            std::hint::black_box(arr.insert(set, tag, r));
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Full-hierarchy access path: a deterministic four-core read/write stream
/// over a footprint larger than the L2, timed end to end (L1 + L2 + MSHRs +
/// DRAM). Run once per contention model so the shared-resource bookkeeping
/// cost is tracked explicitly.
fn bench_hierarchy(contention: ContentionModel, iters: u64) -> f64 {
    let config = HierarchyConfig::paper_baseline(4).with_contention(contention);
    let mut hierarchy = MemoryHierarchy::new(config);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut now = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        let r = next();
        let core = (r % 4) as usize;
        // 16M blocks = 1 GB footprint: far beyond the 8 MB L2.
        let addr = ((r >> 2) % (16 * 1024 * 1024)) * 64;
        let kind = if r & 16 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let response = hierarchy.access(
            Requester::data(core),
            addr,
            kind,
            DataClass::Application,
            now,
        );
        std::hint::black_box(response.latency);
        now += 3;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn bench_hierarchy_ideal(iters: u64) -> f64 {
    bench_hierarchy(ContentionModel::Ideal, iters)
}

fn bench_hierarchy_queued(iters: u64) -> f64 {
    bench_hierarchy(ContentionModel::Queued, iters)
}

/// The DRAM service path in isolation, under queued contention: a
/// deterministic read stream paced just below the data-bus drain rate, so
/// the per-channel in-flight queues stay populated and every call walks the
/// completed-request drain (the path the `VecDeque` front-pop replaced a
/// full `retain` scan on).
fn bench_memory_service(iters: u64) -> f64 {
    let mut memory = MainMemory::new(
        DramConfig::paper(),
        PvRegionConfig::paper_default(4),
        ContentionModel::Queued,
    );
    let mut state = 0x0123_4567_89ab_cdefu64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut now = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        let r = next();
        let addr = pv_mem::Address::new(((r >> 2) % (16 * 1024 * 1024)) * 64);
        std::hint::black_box(memory.read(addr, now).latency);
        now += 3;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The per-request PV-region classification: the hoisted form (a single
/// bound-compare against bounds cached in the hierarchy at construction)
/// vs the un-hoisted region lookup through the DRAM model's config that
/// the L2 path used to repeat up to three times per miss. The address mix
/// interleaves application and PV-region blocks so neither branch
/// direction is statically predictable away.
fn bench_classify(hoisted: bool, iters: u64) -> f64 {
    let hierarchy = MemoryHierarchy::new(HierarchyConfig::paper_baseline(4));
    let pv_base = hierarchy.dram().pv_regions().core_base(0).raw();
    let mut state = 0x6a09_e667_f3bc_c908u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let start = Instant::now();
    for _ in 0..iters {
        let r = next();
        let addr = if r & 3 == 0 {
            pv_base + (r >> 8) % (64 * 1024)
        } else {
            (r >> 8) % (1024 * 1024 * 1024)
        };
        let block = pv_mem::Address::new(addr).block();
        if hoisted {
            std::hint::black_box(hierarchy.classify(block).is_predictor());
        } else {
            std::hint::black_box(hierarchy.dram().is_predictor_address(block.base_address()));
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn bench_classify_hoisted(iters: u64) -> f64 {
    bench_classify(true, iters)
}

fn bench_classify_reference(iters: u64) -> f64 {
    bench_classify(false, iters)
}

/// The per-channel DRAM in-flight ring in isolation: a drain/admit/push
/// sequence paced (arrivals every 3 cycles against a 16-cycle transfer) so
/// the queue stays at `queue_depth` and every call exercises the
/// full-queue admission path.
fn bench_inflight_ring(iters: u64) -> f64 {
    let config = DramConfig::paper();
    let mut ring = InflightRing::new(config.queue_depth);
    let mut bus_busy_until = 0u64;
    let mut now = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        ring.drain(now);
        let admitted = ring.admit(now);
        let done = (admitted + config.latency).max(bus_busy_until + config.cycles_per_transfer);
        bus_busy_until = done;
        ring.push(done);
        std::hint::black_box(admitted);
        now += 3;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// `DelayBreakdown::record` in isolation: the branchless class-indexed
/// array update that replaced the branchy per-field one, fed an
/// unpredictable class/cycles mix.
fn bench_stats_record(iters: u64) -> f64 {
    let mut delay = DelayBreakdown::default();
    let mut state = 0xbb67_ae85_84ca_a73bu64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let start = Instant::now();
    for _ in 0..iters {
        let r = next();
        delay.record(r & 1 == 0, r >> 58);
    }
    let elapsed = start.elapsed();
    std::hint::black_box(delay.total_cycles());
    elapsed.as_nanos() as f64 / iters as f64
}

/// The L2-MSHR per-miss sequence (retire + lookup + register) with the
/// cached-earliest early exit: on the common nothing-has-completed path
/// each retire is a single compare instead of a scan of the file.
fn bench_mshr_cycle(iters: u64) -> f64 {
    let mut mshr = MshrFile::new(64);
    let mut state = 0x3c6e_f372_fe94_f82bu64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut now = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        let r = next();
        let block = BlockAddr::new(r % 4096);
        mshr.retire(now);
        if mshr.lookup(block).is_none() {
            std::hint::black_box(mshr.register(block, now, now + 400));
        }
        now += 3;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The run-loop scheduling cost end to end: a sixteen-core no-prefetcher
/// system consuming records, timed per record. Sixteen cores (vs the
/// paper's four) is where per-record scheduling cost is visible.
fn bench_schedule(iters: u64) -> f64 {
    let mut config = SimConfig::quick(PrefetcherKind::None);
    config.cores = 16;
    config.hierarchy = HierarchyConfig::paper_baseline(16);
    // Windows are irrelevant: the bench drives phases directly.
    config.warmup_records = 0;
    config.measure_records = 1;
    let cores = config.cores as u64;
    let mut system = System::new(config, &WorkloadId::Qry1.params());
    let start = Instant::now();
    system.run_records(iters / cores);
    start.elapsed().as_nanos() as f64 / ((iters / cores) * cores) as f64
}

/// The L1-hit fast path ([`MemoryHierarchy::access_data`]) against the
/// general requester-classified entry point, on a pure-hit stream: the
/// ratio isolates the classification-skipping and scratch-buffer work.
fn bench_hit_path(general: bool, iters: u64) -> f64 {
    let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::paper_baseline(1));
    let mut evictions = EvictionBuffer::default();
    let blocks: Vec<u64> = (0..64u64).map(|i| i * 64).collect();
    for &addr in &blocks {
        hierarchy.access_data(0, addr, AccessKind::Read, 0, &mut evictions);
    }
    let start = Instant::now();
    for now in 0..iters {
        let addr = blocks[(now % 64) as usize];
        let latency = if general {
            hierarchy
                .access(
                    Requester::data(0),
                    addr,
                    AccessKind::Read,
                    DataClass::Application,
                    now,
                )
                .latency
        } else {
            hierarchy.access_data(0, addr, AccessKind::Read, now, &mut evictions).latency
        };
        std::hint::black_box(latency);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn bench_hit_fastpath(iters: u64) -> f64 {
    bench_hit_path(false, iters)
}

fn bench_hit_general(iters: u64) -> f64 {
    bench_hit_path(true, iters)
}

/// One fleet-throughput measurement: the small grid swept through the
/// fleet driver at smoke scale.
struct FleetBench {
    points: usize,
    threads: usize,
    runs_per_sec: f64,
}

fn bench_fleet(threads: usize) -> FleetBench {
    let grid = FleetGrid {
        kinds: vec![PrefetcherKind::None, PrefetcherKind::sms_pv8()],
        workloads: vec![
            Workload::Homogeneous(WorkloadId::Qry1),
            Workload::Homogeneous(WorkloadId::Apache),
        ],
        cycles_per_transfer: vec![0, 64],
        throttle: false,
    };
    let mut sink = Vec::new();
    let summary = run_fleet(grid.points(), Scale::Smoke, threads, &mut sink)
        .expect("an in-memory sink accepts every write");
    FleetBench {
        points: summary.points,
        threads: summary.threads,
        runs_per_sec: summary.runs_per_sec,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One `(prefetcher, workload, records_per_sec, digest)` row parsed out of
/// a previously-recorded benchmark JSON.
struct BaselineRow {
    prefetcher: String,
    workload: String,
    records_per_sec: f64,
    digest: Option<String>,
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_owned())
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the `end_to_end` rows of a benchmark JSON. The emitter writes one
/// row per line, so a line-oriented scan is sufficient and keeps the binary
/// free of a JSON dependency (the build environment has no crates.io).
fn parse_baseline(text: &str) -> Vec<BaselineRow> {
    text.lines()
        .filter_map(|line| {
            Some(BaselineRow {
                prefetcher: extract_str(line, "\"prefetcher\": \"")?,
                workload: extract_str(line, "\"workload\": \"")?,
                records_per_sec: extract_num(line, "\"records_per_sec\": ")?,
                digest: extract_str(line, "\"digest\": \""),
            })
        })
        .collect()
}

/// Finds the `ns_per_op` of the named `micro` row in a benchmark JSON, via
/// the same line-oriented scan as [`parse_baseline`].
fn parse_baseline_micro(text: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    text.lines()
        .find(|line| line.contains(&needle))
        .and_then(|line| extract_num(line, "\"ns_per_op\": "))
}

/// What the regression gate reads from a recorded benchmark JSON.
struct Baseline {
    rows: Vec<BaselineRow>,
    /// The recorded `hierarchy/access_queued` ns/op, if the file has one.
    access_queued_ns: Option<f64>,
}

/// Reads and parses the baseline at `path`. A file that cannot be read or
/// holds no `end_to_end` rows is an error.
fn load_baseline(path: &str) -> Result<Baseline, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let rows = parse_baseline(&text);
    if rows.is_empty() {
        return Err(format!("baseline {path} holds no end_to_end rows"));
    }
    Ok(Baseline {
        access_queued_ns: parse_baseline_micro(&text, "hierarchy/access_queued"),
        rows,
    })
}

/// Geometric mean of `values`; 1.0 for an empty slice. A non-positive or
/// non-finite input (e.g. a corrupt baseline row) poisons the result to NaN
/// through `ln()`, which callers must treat as failure, never success.
fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The baseline row recorded for the same `(prefetcher, workload)` as `run`.
fn baseline_row<'a>(run: &EndToEnd, baseline: &'a [BaselineRow]) -> Option<&'a BaselineRow> {
    baseline
        .iter()
        .find(|b| b.prefetcher == run.prefetcher && b.workload == run.workload)
}

/// Compares the fresh end-to-end rows against a recorded baseline. Returns
/// the geometric-mean records/sec ratio over matching rows, or `None` when
/// nothing matches.
fn check_against(runs: &[EndToEnd], baseline: &[BaselineRow]) -> Option<f64> {
    let ratios: Vec<f64> = runs
        .iter()
        .filter_map(|run| {
            baseline_row(run, baseline).map(|base| run.records_per_sec / base.records_per_sec)
        })
        .collect();
    (!ratios.is_empty()).then(|| geomean(&ratios))
}

/// Prints every end-to-end row whose `RunMetrics` digest differs from the
/// baseline's recording of the same row, and returns how many did. Rows
/// without a baseline counterpart or a recorded digest are not compared.
fn report_moved_digests(runs: &[EndToEnd], baseline: &[BaselineRow]) -> usize {
    let mut moved = 0;
    for run in runs {
        let Some(expected) = baseline_row(run, baseline).and_then(|base| base.digest.as_ref())
        else {
            continue;
        };
        if *expected != run.digest {
            eprintln!(
                "digest moved for {} {}: baseline {} vs current {}",
                run.prefetcher, run.workload, expected, run.digest
            );
            moved += 1;
        }
    }
    moved
}

/// `--profile`: a lightweight counter mode that attributes the Queued
/// access path's cost across its hot components. Each component is timed
/// in isolation on a representative stream behind `std::hint::black_box`
/// fences — the rows are attribution hints for deciding where to cut, not
/// a strict partition of the end-to-end figure (components overlap and
/// isolation removes cache pressure the full path has). For
/// instruction-level truth the printed `perf`/flamegraph recipe applies.
fn run_profile() {
    const E2E_ITERS: u64 = 1_000_000;
    const COMPONENT_ITERS: u64 = 4_000_000;
    eprintln!("profiling the Queued access path (black_box-fenced sub-timers, best of 3)...");
    let best =
        |f: fn(u64) -> f64, iters: u64| (0..3).map(|_| f(iters)).fold(f64::INFINITY, f64::min);
    let total_queued = best(bench_hierarchy_queued, E2E_ITERS);
    let total_ideal = best(bench_hierarchy_ideal, E2E_ITERS);
    let rows: &[(&str, f64, &str)] = &[
        (
            "hierarchy/access_queued",
            total_queued,
            "end to end: 4-core contended read/write stream, 1 GB footprint",
        ),
        (
            "hierarchy/access_ideal",
            total_ideal,
            "the same stream with contention off (the floor)",
        ),
        (
            "memory/service_queued",
            best(bench_memory_service, E2E_ITERS * 2),
            "DRAM channel service incl. in-flight ring drain/admit",
        ),
        (
            "memory/inflight_ring",
            best(bench_inflight_ring, COMPONENT_ITERS),
            "the in-flight ring alone (drain + admit + push, queue at depth)",
        ),
        (
            "hierarchy/classify",
            best(bench_classify_hoisted, COMPONENT_ITERS),
            "PV-region classification (cached-bounds compare)",
        ),
        (
            "stats/delay_record",
            best(bench_stats_record, COMPONENT_ITERS),
            "DelayBreakdown::record (branchless class-indexed update)",
        ),
        (
            "mshr/retire_register",
            best(bench_mshr_cycle, COMPONENT_ITERS),
            "per-miss MSHR retire + lookup + register (cached earliest)",
        ),
    ];
    eprintln!();
    eprintln!("{:<26} {:>10}  note", "component", "ns/op");
    for (name, ns, note) in rows {
        eprintln!("{name:<26} {ns:>10.2}  {note}");
    }
    eprintln!();
    eprintln!(
        "queued/ideal overhead: {:.3}x ({:.1} vs {:.1} ns/op)",
        total_queued / total_ideal,
        total_queued,
        total_ideal
    );
    eprintln!();
    eprintln!("for instruction-level attribution, use hardware counters:");
    eprintln!("  cargo build --release -p pv-experiments --bin perfbench");
    eprintln!("  perf stat -e cycles,instructions,branches,branch-misses \\");
    eprintln!("      target/release/perfbench /tmp/bench.json");
    eprintln!("  perf record -g --call-graph dwarf target/release/perfbench /tmp/bench.json");
    eprintln!("  perf report --no-children");
    eprintln!("flamegraph (cargo-flamegraph, if installed):");
    eprintln!("  cargo flamegraph --release -p pv-experiments --bin perfbench -- /tmp/bench.json");
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile" => {
                run_profile();
                return;
            }
            "--check-against" => match args.next() {
                Some(path) => baseline_path = Some(path),
                None => {
                    eprintln!("--check-against requires a path");
                    std::process::exit(2);
                }
            },
            // A mistyped flag must not silently become the output path:
            // that would both disable the regression gate and overwrite
            // whatever file the typo names.
            flag if flag.starts_with('-') => {
                eprintln!(
                    "unknown flag '{flag}' (expected [out.json] [--check-against FILE] \
                     [--profile])"
                );
                std::process::exit(2);
            }
            path if out_path.is_none() => out_path = Some(path.to_owned()),
            path => {
                eprintln!("unexpected extra argument '{path}'");
                std::process::exit(2);
            }
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_PR10.json".to_owned());
    // The baseline is read before anything is measured, so a bad path fails
    // at once instead of after the whole run.
    let baseline = match baseline_path.as_deref().map(load_baseline).transpose() {
        Ok(baseline) => baseline,
        Err(error) => {
            eprintln!("{error}");
            std::process::exit(2);
        }
    };

    let mut runs = Vec::new();
    for kind in all_kinds() {
        for workload in [WorkloadId::Apache, WorkloadId::Qry1] {
            let config = RunSpec::base(workload, kind.clone()).config(Scale::Smoke);
            let records = (config.warmup_records + config.measure_records) * config.cores as u64;
            // Best of five repetitions: wall-clock noise (CI runners share
            // cores) must not read as a regression in the tracked trend.
            let mut seconds = f64::INFINITY;
            let mut metrics = None;
            for _ in 0..5 {
                let start = Instant::now();
                let run = run_workload(&config, &workload.params());
                seconds = seconds.min(start.elapsed().as_secs_f64());
                metrics = Some(run);
            }
            let metrics = metrics.expect("at least one repetition ran");
            let row = EndToEnd {
                prefetcher: kind.label(),
                workload: workload.name().to_owned(),
                records,
                seconds,
                records_per_sec: records as f64 / seconds,
                pre_refactor_records_per_sec: PRE_REFACTOR_RECORDS_PER_SEC
                    .iter()
                    .find(|(p, w, _)| *p == kind.label() && *w == workload.name())
                    .map(|(_, _, v)| *v),
                digest: metrics.digest(),
            };
            eprintln!(
                "end_to_end {:<14} {:<8} {:>10.0} records/sec ({})",
                row.prefetcher, row.workload, row.records_per_sec, row.digest
            );
            runs.push(row);
        }
    }

    // Replay path: decode pre-recorded binary traces and simulate from
    // them. The row times the full pipeline (header parse + per-record
    // bit unpacking + simulation); the digest matches the live run's by
    // construction, so the row also guards record/replay fidelity.
    {
        let kind = PrefetcherKind::sms_pv8();
        let workload = WorkloadId::Qry1;
        let config = RunSpec::base(workload, kind.clone()).config(Scale::Smoke);
        let per_core = config.warmup_records + config.measure_records;
        let traces: Vec<Vec<u8>> = (0..config.cores)
            .map(|core| {
                record_generator(&workload.params(), config.seed, core as u32, per_core)
                    .expect("generated records fit the default trace layout")
            })
            .collect();
        let records = per_core * config.cores as u64;
        let mut seconds = f64::INFINITY;
        let mut metrics = None;
        for _ in 0..5 {
            let start = Instant::now();
            let streams: Vec<Box<dyn AccessStream>> = traces
                .iter()
                .map(|bytes| {
                    Box::new(ReplayStream::new(bytes.clone()).expect("valid trace"))
                        as Box<dyn AccessStream>
                })
                .collect();
            let run = run_streams(&config, streams);
            seconds = seconds.min(start.elapsed().as_secs_f64());
            metrics = Some(run);
        }
        let metrics = metrics.expect("at least one repetition ran");
        let row = EndToEnd {
            prefetcher: kind.label(),
            workload: format!("{}-replay", workload.name()),
            records,
            seconds,
            records_per_sec: records as f64 / seconds,
            pre_refactor_records_per_sec: None,
            digest: metrics.digest(),
        };
        eprintln!(
            "end_to_end {:<14} {:<8} {:>10.0} records/sec ({})",
            row.prefetcher, row.workload, row.records_per_sec, row.digest
        );
        runs.push(row);
    }

    // Queued-contention end-to-end: the (SMS-PV8, Qry1) smoke run under
    // `ContentionModel::Queued` — the mode every bandwidth/throttle/fleet
    // experiment actually runs. Its ratio against the Ideal twin above is
    // the summary's `end_to_end_queued_over_ideal`, tracking what the
    // contended path costs where it is actually paid.
    {
        let kind = PrefetcherKind::sms_pv8();
        let workload = WorkloadId::Qry1;
        let mut config = RunSpec::base(workload, kind.clone()).config(Scale::Smoke);
        config.hierarchy = config.hierarchy.with_contention(ContentionModel::Queued);
        let records = (config.warmup_records + config.measure_records) * config.cores as u64;
        let mut seconds = f64::INFINITY;
        let mut metrics = None;
        for _ in 0..5 {
            let start = Instant::now();
            let run = run_workload(&config, &workload.params());
            seconds = seconds.min(start.elapsed().as_secs_f64());
            metrics = Some(run);
        }
        let metrics = metrics.expect("at least one repetition ran");
        let row = EndToEnd {
            prefetcher: kind.label(),
            workload: format!("{}-queued", workload.name()),
            records,
            seconds,
            records_per_sec: records as f64 / seconds,
            pre_refactor_records_per_sec: None,
            digest: metrics.digest(),
        };
        eprintln!(
            "end_to_end {:<14} {:<8} {:>10.0} records/sec ({})",
            row.prefetcher, row.workload, row.records_per_sec, row.digest
        );
        runs.push(row);
    }

    // Best of five: wall-clock noise must not read as a regression.
    let best = |bench: fn(u64) -> f64, iters: u64| {
        (0..5).map(|_| bench(iters)).fold(f64::INFINITY, f64::min)
    };
    // Interleave the two compared paths in adjacent windows and keep the
    // best of each: a burst of background load then penalises both sides
    // instead of skewing the ratio.
    let interleaved = |first: fn(u64) -> f64, second: fn(u64) -> f64, iters: u64| {
        let (mut best_first, mut best_second) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            best_first = best_first.min(first(iters));
            best_second = best_second.min(second(iters));
        }
        (best_first, best_second)
    };
    let codec = best(bench_codec, 200_000);
    let sa = best(bench_set_assoc, 1_000_000);
    let (hier_ideal, hier_queued) =
        interleaved(bench_hierarchy_ideal, bench_hierarchy_queued, 2_000_000);
    let memory_service = best(bench_memory_service, 2_000_000);
    let schedule = best(bench_schedule, 400_000);
    let (hit_fast, hit_general) = interleaved(bench_hit_fastpath, bench_hit_general, 4_000_000);
    let (classify, classify_ref) =
        interleaved(bench_classify_hoisted, bench_classify_reference, 8_000_000);
    let inflight = best(bench_inflight_ring, 8_000_000);
    let micros = vec![
        Micro {
            name: "packing/round_trip".to_owned(),
            ns_per_op: codec,
            reference_ns_per_op: None,
        },
        Micro {
            name: "set_assoc/get_insert".to_owned(),
            ns_per_op: sa,
            reference_ns_per_op: None,
        },
        Micro {
            name: "hierarchy/access_ideal".to_owned(),
            ns_per_op: hier_ideal,
            reference_ns_per_op: None,
        },
        Micro {
            name: "hierarchy/access_queued".to_owned(),
            ns_per_op: hier_queued,
            reference_ns_per_op: None,
        },
        Micro {
            name: "memory/service_queued".to_owned(),
            ns_per_op: memory_service,
            reference_ns_per_op: None,
        },
        Micro {
            name: "system/schedule".to_owned(),
            ns_per_op: schedule,
            reference_ns_per_op: None,
        },
        Micro {
            name: "hierarchy/access_hit_fastpath".to_owned(),
            ns_per_op: hit_fast,
            reference_ns_per_op: Some(hit_general),
        },
        Micro {
            name: "hierarchy/classify_hoisted".to_owned(),
            ns_per_op: classify,
            reference_ns_per_op: Some(classify_ref),
        },
        Micro {
            name: "memory/inflight_ring".to_owned(),
            ns_per_op: inflight,
            reference_ns_per_op: None,
        },
    ];
    for micro in &micros {
        match micro.reference_ns_per_op {
            Some(reference) => eprintln!(
                "micro {:<24} {:>8.1} ns/op vs {:>8.1} ns/op ({:.2}x)",
                micro.name,
                micro.ns_per_op,
                reference,
                micro.speedup().expect("reference present")
            ),
            None => eprintln!("micro {:<24} {:>8.1} ns/op", micro.name, micro.ns_per_op),
        }
    }

    // Fleet throughput: the same small grid on one thread and on all host
    // threads. Serial first so its cache-warming effects (none — runs are
    // independent) cannot flatter the parallel figure.
    let serial_fleet = bench_fleet(1);
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let parallel_fleet = bench_fleet(host_threads);
    let scaling_efficiency =
        (parallel_fleet.runs_per_sec / serial_fleet.runs_per_sec) / parallel_fleet.threads as f64;
    eprintln!(
        "fleet {} points: {:.2} runs/sec on 1 thread, {:.2} runs/sec on {} threads \
         ({:.0}% scaling efficiency)",
        serial_fleet.points,
        serial_fleet.runs_per_sec,
        parallel_fleet.runs_per_sec,
        parallel_fleet.threads,
        scaling_efficiency * 100.0
    );

    let end_to_end_speedups: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.pre_refactor_records_per_sec.map(|b| r.records_per_sec / b))
        .collect();
    let speedup_geomean = geomean(&end_to_end_speedups);
    let micro_by_name =
        |name: &str| micros.iter().find(|m| m.name == name).expect("known micro name");
    let queued_overhead = micro_by_name("hierarchy/access_queued").ns_per_op
        / micro_by_name("hierarchy/access_ideal").ns_per_op;
    // The end-to-end twin of `queued_overhead`: the full simulator on the
    // same (prefetcher, workload) point, Ideal records/sec over Queued.
    let run_rps = |workload: &str| {
        runs.iter()
            .find(|r| r.prefetcher == "SMS-PV8" && r.workload == workload)
            .expect("known end-to-end row")
            .records_per_sec
    };
    let end_to_end_queued_over_ideal = run_rps("Qry1") / run_rps("Qry1-queued");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"pv-perfbench/2\",\n");
    json.push_str("  \"scale\": \"smoke\",\n");
    json.push_str("  \"baseline_commit\": \"3b12054 (pre allocation-free refactor)\",\n");
    json.push_str(
        "  \"baseline_note\": \"pre_refactor_records_per_sec and the derived speedups were \
         recorded on the machine that produced the committed BENCH_PR2.json; on other hosts \
         (e.g. CI runners) only records_per_sec trends, micro speedups (both sides measured \
         live), and digests are comparable\",\n",
    );
    json.push_str("  \"end_to_end\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"prefetcher\": \"{}\", \"workload\": \"{}\", \"records\": {}, \
             \"seconds\": {:.4}, \"records_per_sec\": {:.0}, {}\"digest\": \"{}\"}}{}\n",
            json_escape(&r.prefetcher),
            json_escape(&r.workload),
            r.records,
            r.seconds,
            r.records_per_sec,
            match r.pre_refactor_records_per_sec {
                Some(b) => format!(
                    "\"pre_refactor_records_per_sec\": {:.0}, \"speedup\": {:.3}, ",
                    b,
                    r.records_per_sec / b
                ),
                None => String::new(),
            },
            json_escape(&r.digest),
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"micro\": [\n");
    for (i, m) in micros.iter().enumerate() {
        let reference = match (m.reference_ns_per_op, m.speedup()) {
            (Some(reference), Some(speedup)) => {
                format!(", \"reference_ns_per_op\": {reference:.1}, \"speedup\": {speedup:.3}")
            }
            _ => String::new(),
        };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_op\": {:.1}{}}}{}\n",
            json_escape(&m.name),
            m.ns_per_op,
            reference,
            if i + 1 < micros.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"fleet\": {{\"points\": {}, \"runs_per_sec_1t\": {:.2}, \"threads\": {}, \
         \"runs_per_sec_nt\": {:.2}, \"scaling_efficiency\": {:.3}}},\n",
        serial_fleet.points,
        serial_fleet.runs_per_sec,
        parallel_fleet.threads,
        parallel_fleet.runs_per_sec,
        scaling_efficiency,
    ));
    json.push_str(&format!(
        "  \"summary\": {{\"end_to_end_speedup_geomean\": {:.3}, \
         \"hierarchy_queued_overhead\": {:.3}, \"end_to_end_queued_over_ideal\": {:.3}, \
         \"classify_hoisted_speedup\": {:.3}}}\n",
        speedup_geomean,
        queued_overhead,
        end_to_end_queued_over_ideal,
        micro_by_name("hierarchy/classify_hoisted").speedup().expect("has reference"),
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("failed to write benchmark JSON");
    eprintln!(
        "wrote {out_path}: end-to-end geomean {:.2}x vs pre-refactor, queued-contention \
         hierarchy overhead {:.2}x (end-to-end queued/ideal {:.2}x)",
        speedup_geomean, queued_overhead, end_to_end_queued_over_ideal,
    );

    // Regression gate: compare against a committed baseline JSON.
    if let (
        Some(path),
        Some(Baseline {
            rows: baseline,
            access_queued_ns,
        }),
    ) = (baseline_path, baseline)
    {
        // Digests are the behavioural contract: a moved one fails the gate
        // outright. A behaviour-changing PR re-records the baseline in the
        // same change, so the move shows up as a reviewed diff.
        let moved = report_moved_digests(&runs, &baseline);
        if moved > 0 {
            eprintln!("FAIL: {moved} end-to-end digest(s) moved vs {path}");
            std::process::exit(1);
        }
        match check_against(&runs, &baseline) {
            Some(ratio) => {
                eprintln!(
                    "check-against {path}: end-to-end records/sec geomean ratio {ratio:.3} \
                     (fail threshold 0.75)"
                );
                // A NaN ratio (corrupt baseline) must fail the gate,
                // not slip through a `<` comparison.
                if ratio.is_nan() || ratio < 0.75 {
                    eprintln!("FAIL: end-to-end throughput regressed more than 25% vs {path}");
                    std::process::exit(1);
                }
            }
            None => {
                eprintln!("FAIL: no matching end_to_end rows found in {path}");
                std::process::exit(1);
            }
        }
        // Dedicated contended-path gate: the `hierarchy/access_queued` micro
        // must not regress behind the end-to-end geomean (the Ideal rows
        // dominate it, so a Queued-only slowdown could otherwise hide). Both
        // sides are wall-clock ns on the same host, so the threshold is
        // looser than the ratio gate above.
        if let Some(base_queued) = access_queued_ns {
            let current = micro_by_name("hierarchy/access_queued").ns_per_op;
            let ratio = current / base_queued;
            eprintln!(
                "check-against {path}: hierarchy/access_queued {current:.1} ns/op vs \
                 baseline {base_queued:.1} ns/op (ratio {ratio:.3}, fail threshold 1.50)"
            );
            // As above, a NaN ratio (corrupt baseline row) must fail.
            if ratio.is_nan() || ratio > 1.5 {
                eprintln!("FAIL: the Queued contended micro regressed more than 50% vs {path}");
                std::process::exit(1);
            }
        }
    }
}
