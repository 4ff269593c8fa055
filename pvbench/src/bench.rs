//! The untraced and traced runs of one workload.

use crate::json::{Metric, Summary};
use crate::metrics::{self, TracedResult, END_TO_END};
use crate::spec::{Sim, Source, Workload};
use crate::traced::{LoopCounts, TracedSystem};
use crate::tracer::{self, Layer, Overhead, TraceSummary};
use pv_sim::{RunMetrics, System};
use pv_trace::{record_generator, ReplayStream};
use pv_workloads::{AccessStream, TraceGenerator, WorkloadId};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Whole spans kept for the trace file.
const SAMPLE_CAPACITY: usize = 20_000;

/// What one run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The seed every generator of every simulation starts from.
    pub seed: u64,
    /// Host seconds of measured rounds (the last round runs to its end).
    pub seconds: f64,
}

/// The per-core traces a replay workload records during set-up.
#[derive(Default)]
struct Recorded {
    traces: Vec<(WorkloadId, Vec<Vec<u8>>)>,
    bytes: u64,
    records: u64,
}

fn record(workload: Workload, seed: u64, traced: bool) -> Recorded {
    let mut recorded = Recorded::default();
    for sim in workload.sims() {
        if sim.source != Source::Replay || recorded.traces.iter().any(|(p, _)| *p == sim.program) {
            continue;
        }
        let config = sim.config(seed);
        let per_core = config.warmup_records + config.measure_records;
        let params = sim.program.params();
        let traces: Vec<Vec<u8>> = (0..config.cores as u32)
            .map(|core| {
                if traced {
                    tracer::enter(Layer::TraceEncode);
                }
                let bytes = record_generator(&params, seed, core, per_core)
                    .expect("generated records fit the default trace layout");
                if traced {
                    tracer::exit(Layer::TraceEncode);
                }
                bytes
            })
            .collect();
        recorded.bytes += traces.iter().map(|t| t.len() as u64).sum::<u64>();
        recorded.records += per_core * config.cores as u64;
        recorded.traces.push((sim.program, traces));
    }
    recorded
}

fn streams(sim: &Sim, seed: u64, cores: usize, recorded: &Recorded) -> Vec<Box<dyn AccessStream>> {
    match sim.source {
        Source::Live => {
            let params = sim.program.params();
            (0..cores)
                .map(|core| {
                    Box::new(TraceGenerator::new(&params, seed, core)) as Box<dyn AccessStream>
                })
                .collect()
        }
        Source::Replay => {
            let (_, traces) = recorded
                .traces
                .iter()
                .find(|(program, _)| *program == sim.program)
                .expect("set-up recorded every replayed program");
            traces
                .iter()
                .map(|bytes| {
                    Box::new(ReplayStream::new(bytes.clone()).expect("recorded traces are valid"))
                        as Box<dyn AccessStream>
                })
                .collect()
        }
    }
}

/// One untraced simulation: `System::from_streams` plus `System::run`.
struct Untraced {
    setup_s: f64,
    run_s: f64,
    records: u64,
    metrics: RunMetrics,
}

fn run_untraced(sim: &Sim, seed: u64, recorded: &Recorded) -> Untraced {
    let start = Instant::now();
    let config = sim.config(seed);
    let streams = streams(sim, seed, config.cores, recorded);
    let mut system = System::from_streams(config, streams);
    let built = Instant::now();
    let metrics = system.run();
    let run_s = built.elapsed().as_secs_f64();
    Untraced {
        setup_s: built.duration_since(start).as_secs_f64(),
        run_s,
        records: system.records_consumed().sum(),
        metrics,
    }
}

fn run_traced(sim: &Sim, seed: u64, recorded: &Recorded) -> (RunMetrics, LoopCounts) {
    tracer::enter(Layer::Setup);
    let config = sim.config(seed);
    let streams = streams(sim, seed, config.cores, recorded);
    let mut system = TracedSystem::new(config, streams, sim.source == Source::Replay);
    tracer::exit(Layer::Setup);
    let metrics = system.run();
    let counts = system.counts();
    tracer::span(Layer::Collect, || drop(system));
    (metrics, counts)
}

/// Digests every check compares against: the traced loop's, plus, for
/// replayed simulations, the live generators' under `System::run`.
struct Expected {
    traced: Vec<String>,
    live: Vec<Option<String>>,
}

fn live_digests(workload: Workload, seed: u64) -> Vec<Option<String>> {
    workload
        .sims()
        .iter()
        .map(|sim| {
            (sim.source == Source::Replay).then(|| {
                let live = Sim {
                    source: Source::Live,
                    ..sim.clone()
                };
                run_untraced(&live, seed, &Recorded::default()).metrics.digest()
            })
        })
        .collect()
}

fn expected(workload: Workload, seed: u64) -> Expected {
    tracer::reset(Overhead::default(), 0);
    let recorded = record(workload, seed, false);
    let traced = workload
        .sims()
        .iter()
        .map(|sim| run_traced(sim, seed, &recorded).0.digest())
        .collect();
    tracer::finish();
    Expected {
        traced,
        live: live_digests(workload, seed),
    }
}

/// Counts operations and failures, reporting each failure on stderr.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// One simulation: its untraced digest must equal the traced one and,
    /// when replayed, the live one.
    fn operation(&mut self, sim: &Sim, untraced: &str, traced: &str, live: Option<&str>) {
        self.attempted += 1;
        if untraced != traced || live.is_some_and(|live| live != untraced) {
            self.failed += 1;
            eprintln!(
                "FAILED {}: digests differ\n  untraced {untraced}\n  traced   {traced}\n  live     {}",
                sim.label(),
                live.unwrap_or("-")
            );
        }
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident set size of this process, in MiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn peak_rss_mb() -> f64 {
    /// Linux's `struct rusage` on 64-bit targets: two `timeval`s, then 14
    /// `long`s of which `ru_maxrss` (in KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of the
    // kernel's `struct rusage` on this target, and `getrusage` writes only
    // that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss_kib as f64 / 1024.0
}

fn summary(checks: &Checks, metrics: Vec<(&'static str, f64)>) -> Summary {
    Summary {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: metrics
            .into_iter()
            .map(|(name, value)| {
                (
                    name.to_owned(),
                    Metric {
                        value,
                        unit: metrics::unit(name).to_owned(),
                    },
                )
            })
            .collect(),
    }
}

/// Keeps, per part of a round, the fastest time seen over the rounds.
///
/// Other tenants of the host only ever slow a part down, so the minimum
/// over rounds is the steadiest estimate of its own cost: in six
/// back-to-back runs on a shared 2-vCPU host the per-round median moved by
/// a third while the per-simulation minimum moved by under 7 %.
struct BestOf(Vec<f64>);

impl BestOf {
    fn new(parts: usize) -> Self {
        BestOf(vec![f64::INFINITY; parts])
    }

    fn add(&mut self, part: usize, seconds: f64) {
        self.0[part] = self.0[part].min(seconds);
    }

    fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// The untraced run: rounds of set-up plus `System::run` over every
/// simulation of the workload until `seconds` have passed, every digest
/// checked against the traced loop's. Times are the sums over the parts of
/// a round (trace recording, each simulation's set-up and run) of each
/// part's fastest round.
pub fn run_end_to_end(options: Options) -> Summary {
    let Options {
        workload,
        seed,
        seconds,
    } = options;
    let sims = workload.sims();
    let expected = expected(workload, seed);
    let mut checks = Checks::default();
    let mut runs = BestOf::new(sims.len());
    // The last part is the round's trace recording.
    let mut setups = BestOf::new(sims.len() + 1);
    let mut records = 0;
    let mut rounds = 0;
    let start = Instant::now();
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        let encode = Instant::now();
        let recorded = record(workload, seed, false);
        setups.add(sims.len(), encode.elapsed().as_secs_f64());
        records = 0;
        for (i, sim) in sims.iter().enumerate() {
            let run = run_untraced(sim, seed, &recorded);
            setups.add(i, run.setup_s);
            runs.add(i, run.run_s);
            records += run.records;
            checks.operation(
                sim,
                &run.metrics.digest(),
                &expected.traced[i],
                expected.live[i].as_deref(),
            );
        }
        rounds += 1;
    }
    eprintln!(
        "{}: {rounds} rounds in {:.1} s",
        workload.name(),
        start.elapsed().as_secs_f64()
    );
    let values = vec![
        ("records_per_s", records as f64 / runs.total()),
        ("setup_s", setups.total()),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    debug_assert!(values.iter().zip(&END_TO_END).all(|((n, _), d)| *n == d.name));
    summary(&checks, values)
}

/// The traced run: alternating untraced and traced rounds until `seconds`
/// have passed. Writes the per-layer totals and the span sample of the
/// first traced round to `spans_path`.
///
/// # Errors
///
/// Returns the I/O error if the span file cannot be written.
pub fn run_traced_layers(options: Options, spans_path: &Path) -> std::io::Result<Summary> {
    let Options {
        workload,
        seed,
        seconds,
    } = options;
    let sims = workload.sims();
    let live = live_digests(workload, seed);
    let clock_read_ns = tracer::measure_clock_read_ns();
    let overhead = tracer::calibrate();
    let mut checks = Checks::default();
    let mut untraced_rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut total: Option<TraceSummary> = None;
    let mut counts = LoopCounts::default();
    let mut first_runs = Vec::new();
    let mut trace_size = (0, 0);
    let start = Instant::now();
    while traced_rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let round = Instant::now();
        let recorded = record(workload, seed, false);
        let untraced: Vec<String> = sims
            .iter()
            .map(|sim| run_untraced(sim, seed, &recorded).metrics.digest())
            .collect();
        untraced_rounds.push(round.elapsed().as_secs_f64());
        drop(recorded);

        let capacity = if total.is_none() { SAMPLE_CAPACITY } else { 0 };
        tracer::reset(overhead, capacity);
        let round = Instant::now();
        let recorded = record(workload, seed, true);
        let mut runs = Vec::new();
        for (i, sim) in sims.iter().enumerate() {
            let (metrics, sim_counts) = run_traced(sim, seed, &recorded);
            checks.operation(sim, &untraced[i], &metrics.digest(), live[i].as_deref());
            counts.records += sim_counts.records;
            counts.actions += sim_counts.actions;
            counts.issued += sim_counts.issued;
            runs.push(metrics);
        }
        traced_rounds.push(round.elapsed().as_secs_f64());
        let pass = tracer::finish();
        match &mut total {
            Some(total) => total.merge(&pass),
            None => {
                total = Some(pass);
                first_runs = runs;
                trace_size = (recorded.bytes, recorded.records);
            }
        }
    }
    let trace = total.expect("at least one traced round ran");
    write_spans(spans_path, &trace)?;
    eprintln!(
        "{}: {} traced rounds in {:.1} s; spans in {}",
        workload.name(),
        traced_rounds.len(),
        start.elapsed().as_secs_f64(),
        spans_path.display()
    );
    let result = TracedResult {
        trace: &trace,
        clock_read_ns,
        counts,
        rounds: traced_rounds.len() as u64,
        runs: &first_runs,
        trace_bytes: trace_size.0,
        trace_records: trace_size.1,
        traced_wall_s: traced_rounds.iter().sum(),
        untraced_round_s: median(&mut untraced_rounds),
        traced_round_s: median(&mut traced_rounds),
    };
    Ok(summary(&checks, metrics::per_layer(&result)))
}

fn write_spans(path: &Path, trace: &TraceSummary) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for layer in Layer::ALL {
        let totals = trace.get(layer);
        writeln!(
            out,
            "{{\"type\": \"layer\", \"name\": \"{}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            layer.name(),
            totals.calls,
            totals.total_ns,
            totals.self_ns
        )?;
    }
    for span in &trace.samples {
        writeln!(
            out,
            "{{\"type\": \"span\", \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            span.id,
            span.parent,
            span.layer.name(),
            span.start_ns,
            span.end_ns
        )?;
    }
    out.flush()
}
