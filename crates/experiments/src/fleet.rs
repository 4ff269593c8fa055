//! Fleet sweeps: expand configuration grids into independent simulations
//! and drain them over worker threads.
//!
//! The reproduction harness ([`Runner`](crate::Runner)) answers "what are
//! the paper's numbers?" — a fixed set of specs per figure. Fleet sweeps
//! answer the open-ended question "how does the whole design space behave?":
//! the cartesian product of prefetcher kinds × workloads (homogeneous,
//! mixed, or non-stationary scenarios) × DRAM bandwidth points × throttling,
//! expanded up front and executed by however many host threads are
//! available. A whole simulation is `Send`, so points run on any worker.
//!
//! Points differ widely in cost (a Markov run is several times slower than
//! the no-prefetch baseline; `Queued` contention costs more than `Ideal`),
//! so points are not pre-partitioned: `par_map` hands each idle worker
//! the next unclaimed point.
//!
//! Output is JSON Lines: one `{"type": "run", ...}` object per completed
//! point — streamed in completion order, carrying the configuration key,
//! the run's [`RunMetrics::digest`] and headline metrics but deliberately
//! **no timing**, so the sorted row set diffs byte-identically across
//! thread counts and hosts — and one final `{"type": "summary", ...}`
//! object where all the wall-clock throughput lives.

use crate::runner::{par_map, HierarchyVariant, RunSpec, Scale, Workload};
use parking_lot::Mutex;
use pv_sim::{PrefetcherKind, RunMetrics, ThrottleConfig};
use pv_workloads::WorkloadId;
use std::io::{self, Write};
use std::time::Instant;

/// One point of a fleet sweep: a complete, independent simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPoint {
    /// The prefetcher every core uses (throttled kinds carry the policy).
    pub kind: PrefetcherKind,
    /// What the cores run.
    pub workload: Workload,
    /// DRAM data-bus cycles per 64-byte block. `0` selects the paper's
    /// `Ideal` fixed-latency model; any other value runs `Queued`
    /// contention at that bandwidth.
    pub cycles_per_transfer: u64,
}

impl FleetPoint {
    /// Stable configuration key: the row identity in JSONL output and the
    /// join column when diffing sweeps across thread counts.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|cpt{}",
            self.kind.label(),
            self.workload.label(),
            self.cycles_per_transfer
        )
    }

    /// The run this point simulates.
    pub fn spec(&self) -> RunSpec {
        let hierarchy = match self.cycles_per_transfer {
            0 => HierarchyVariant::Base,
            cycles_per_transfer => HierarchyVariant::QueuedDram {
                cycles_per_transfer,
            },
        };
        RunSpec {
            workload: self.workload,
            prefetcher: self.kind.clone(),
            hierarchy,
        }
    }
}

/// The axes of a sweep, expanded to their cartesian product by
/// [`FleetGrid::points`].
#[derive(Debug, Clone)]
pub struct FleetGrid {
    /// Prefetcher kinds to sweep.
    pub kinds: Vec<PrefetcherKind>,
    /// Workload selections to sweep.
    pub workloads: Vec<Workload>,
    /// DRAM bandwidth points (`0` = `Ideal`, else `Queued` at that
    /// cycles-per-transfer).
    pub cycles_per_transfer: Vec<u64>,
    /// When set, every throttleable kind (anything but the no-prefetch
    /// baseline and already-throttled kinds) is *additionally* swept with
    /// the default feedback policy wrapped around it.
    pub throttle: bool,
}

impl FleetGrid {
    /// The default 64-point sweep: four representative kinds (baseline,
    /// virtualized SMS, virtualized Markov, and the shared-proxy composite)
    /// × four workloads × four bandwidth points, no throttle axis.
    pub fn default_grid() -> Self {
        FleetGrid {
            kinds: vec![
                PrefetcherKind::None,
                PrefetcherKind::sms_pv8(),
                PrefetcherKind::markov_pv8(),
                PrefetcherKind::composite_shared(8),
            ],
            workloads: vec![
                Workload::Homogeneous(WorkloadId::Apache),
                Workload::Homogeneous(WorkloadId::Db2),
                Workload::Homogeneous(WorkloadId::Qry1),
                Workload::Homogeneous(WorkloadId::Qry17),
            ],
            cycles_per_transfer: vec![0, 32, 64, 128],
            throttle: false,
        }
    }

    /// Expands the grid into its points, in a deterministic order
    /// (kind-major, then workload, then bandwidth; throttled variants
    /// follow their base kind).
    pub fn points(&self) -> Vec<FleetPoint> {
        let mut kinds = Vec::new();
        for kind in &self.kinds {
            kinds.push(kind.clone());
            if self.throttle && !matches!(kind, PrefetcherKind::None) && !kind.is_throttled() {
                kinds.push(kind.clone().throttled(ThrottleConfig::feedback_default()));
            }
        }
        let mut points = Vec::new();
        for kind in &kinds {
            for workload in &self.workloads {
                for &cycles_per_transfer in &self.cycles_per_transfer {
                    points.push(FleetPoint {
                        kind: kind.clone(),
                        workload: *workload,
                        cycles_per_transfer,
                    });
                }
            }
        }
        points
    }
}

/// Wall-clock account of one sweep (everything the rows deliberately omit).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Points executed.
    pub points: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole sweep.
    pub seconds: f64,
    /// Completed runs per wall-clock second.
    pub runs_per_sec: f64,
}

/// One JSONL row: the point's key and headline results, no timing. Two
/// sweeps of the same grid must produce identical row sets regardless of
/// thread count — only the *order* of completion may differ.
fn run_row(point: &FleetPoint, metrics: &RunMetrics) -> String {
    format!(
        "{{\"type\": \"run\", \"key\": \"{}\", \"kind\": \"{}\", \"workload\": \"{}\", \
         \"cpt\": {}, \"throttled\": {}, \"digest\": \"{}\", \"ipc\": {:.6}, \
         \"l2_misses\": {}, \"offchip_blocks\": {}, \"prefetches_issued\": {}, \
         \"dropped_prefetches\": {}}}",
        point.key(),
        point.kind.label(),
        point.workload.label(),
        point.cycles_per_transfer,
        point.kind.is_throttled(),
        metrics.digest(),
        metrics.aggregate_ipc(),
        metrics.hierarchy.l2_misses.total(),
        metrics.offchip_blocks(),
        metrics.prefetches_issued,
        metrics.dropped_prefetches(),
    )
}

/// Runs every point at `scale` over `threads` workers, streaming one JSONL
/// row per completed run into `sink` (completion order) followed by a
/// `{"type": "summary", ...}` footer with the wall-clock throughput, then
/// flushes `sink`.
///
/// # Errors
///
/// Returns the first write or flush error of `sink`. Points not started by
/// then are skipped.
pub fn run_fleet(
    points: Vec<FleetPoint>,
    scale: Scale,
    threads: usize,
    sink: &mut (impl Write + Send),
) -> io::Result<FleetSummary> {
    let threads = threads.max(1).min(points.len().max(1));
    let start = Instant::now();

    // Workers write their own rows as they complete, so rows stream out
    // during the sweep, not after it.
    let output = Mutex::new((sink, 0usize, Ok(())));
    par_map(&points, threads, |point| {
        if output.lock().2.is_err() {
            return;
        }
        let spec = point.spec();
        let row = run_row(point, &spec.run(&spec.config(scale)));
        let (sink, executed, status) = &mut *output.lock();
        if status.is_ok() {
            match writeln!(sink, "{row}") {
                Ok(()) => *executed += 1,
                Err(error) => *status = Err(error),
            }
        }
    });
    let (sink, executed, status) = output.into_inner();
    status?;

    let seconds = start.elapsed().as_secs_f64();
    let summary = FleetSummary {
        points: executed,
        threads,
        seconds,
        runs_per_sec: if seconds > 0.0 {
            executed as f64 / seconds
        } else {
            0.0
        },
    };
    writeln!(
        sink,
        "{{\"type\": \"summary\", \"points\": {}, \"threads\": {}, \"seconds\": {:.3}, \
         \"runs_per_sec\": {:.2}}}",
        summary.points, summary.threads, summary.seconds, summary.runs_per_sec
    )?;
    sink.flush()?;
    Ok(summary)
}

/// Parses a prefetcher-kind name as the fleet CLI accepts it.
pub fn parse_kind(name: &str) -> Option<PrefetcherKind> {
    let (base, throttled) = match name.strip_suffix("-throttled") {
        Some(base) => (base, true),
        None => (name, false),
    };
    let kind = match base {
        "none" => PrefetcherKind::None,
        "sms-1k-16a" => PrefetcherKind::sms_1k_16a(),
        "sms-1k-11a" => PrefetcherKind::sms_1k_11a(),
        "sms-16-11a" => PrefetcherKind::sms_16_11a(),
        "sms-8-11a" => PrefetcherKind::sms_8_11a(),
        "sms-infinite" => PrefetcherKind::sms_infinite(),
        "sms-pv8" => PrefetcherKind::sms_pv8(),
        "sms-pv16" => PrefetcherKind::sms_pv16(),
        "markov-1k" => PrefetcherKind::markov_1k(),
        "markov-pv8" => PrefetcherKind::markov_pv8(),
        "composite-dedicated4" => PrefetcherKind::composite_dedicated(4),
        "composite-shared8" => PrefetcherKind::composite_shared(8),
        "composite-shared8-dyn" => PrefetcherKind::composite_shared_dynamic(8),
        "composite-shared8-scarce" => PrefetcherKind::composite_shared_scarce(8),
        _ => return None,
    };
    if throttled {
        if matches!(kind, PrefetcherKind::None) {
            return None;
        }
        Some(kind.throttled(ThrottleConfig::feedback_default()))
    } else {
        Some(kind)
    }
}

/// The kind names [`parse_kind`] accepts (base forms; every one but `none`
/// also accepts a `-throttled` suffix).
pub fn kind_names() -> &'static [&'static str] {
    &[
        "none",
        "sms-1k-16a",
        "sms-1k-11a",
        "sms-16-11a",
        "sms-8-11a",
        "sms-infinite",
        "sms-pv8",
        "sms-pv16",
        "markov-1k",
        "markov-pv8",
        "composite-dedicated4",
        "composite-shared8",
        "composite-shared8-dyn",
        "composite-shared8-scarce",
    ]
}

/// Parses a workload name (case-insensitive) as the fleet CLI accepts it.
pub fn parse_workload(name: &str) -> Option<WorkloadId> {
    WorkloadId::all().into_iter().find(|w| w.name().eq_ignore_ascii_case(name))
}

/// The default scenario points the `--scenarios` flag adds: the throttle
/// re-convergence flip plus the characterisation set, scaled to the sweep's
/// scale so each phase spans several accuracy epochs.
pub fn default_scenarios(scale: Scale) -> Vec<Workload> {
    let mut scenarios = vec![crate::scenarios::throttle_flip(scale)];
    scenarios.extend(crate::scenarios::characterisation_scenarios(scale));
    scenarios.into_iter().map(Workload::Scenario).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_mem::ContentionModel;

    #[test]
    fn default_grid_expands_to_64_points() {
        let points = FleetGrid::default_grid().points();
        assert_eq!(points.len(), 64);
        // Every key is unique — the join column must never alias.
        let keys: std::collections::HashSet<String> = points.iter().map(|p| p.key()).collect();
        assert_eq!(keys.len(), 64);
    }

    #[test]
    fn throttle_axis_adds_points_for_throttleable_kinds_only() {
        let mut grid = FleetGrid::default_grid();
        grid.throttle = true;
        // None is not throttleable; the other three kinds double up.
        assert_eq!(grid.points().len(), (4 + 3) * 4 * 4);
        assert!(grid.points().iter().any(|p| p.kind.is_throttled()));
    }

    #[test]
    fn kind_names_round_trip_through_the_parser() {
        for name in kind_names() {
            assert!(parse_kind(name).is_some(), "{name} must parse");
        }
        assert_eq!(parse_kind("sms-pv8").unwrap().label(), "SMS-PV8");
        assert!(parse_kind("sms-pv8-throttled").unwrap().is_throttled());
        assert!(parse_kind("none-throttled").is_none());
        assert!(parse_kind("warp-drive").is_none());
        let dynamic = parse_kind("composite-shared8-dyn").unwrap();
        assert_eq!(dynamic.label(), "SMS+Markov-shPV8-dyn");
        assert!(dynamic.is_repartitioned());
        assert_eq!(
            parse_kind("composite-shared8-scarce").unwrap().label(),
            "SMS+Markov-shPV8-scarce"
        );
        let both = parse_kind("composite-shared8-dyn-throttled").unwrap();
        assert!(both.is_throttled() && both.is_repartitioned());
    }

    /// Satellite determinism pin: the sorted row set of a sweep that
    /// includes the dynamic repartitioning kind is byte-identical across
    /// thread counts — replanning happens at deterministic window edges,
    /// never on wall-clock state.
    #[test]
    fn dynamic_kind_rows_are_identical_across_thread_counts() {
        let points = vec![
            FleetPoint {
                kind: parse_kind("composite-shared8-dyn").unwrap(),
                workload: Workload::Homogeneous(WorkloadId::Qry1),
                cycles_per_transfer: 0,
            },
            FleetPoint {
                kind: parse_kind("composite-shared8-scarce").unwrap(),
                workload: Workload::Homogeneous(WorkloadId::Qry1),
                cycles_per_transfer: 0,
            },
            FleetPoint {
                kind: parse_kind("composite-shared8-dyn").unwrap(),
                workload: Workload::Homogeneous(WorkloadId::Apache),
                cycles_per_transfer: 64,
            },
            FleetPoint {
                kind: PrefetcherKind::None,
                workload: Workload::Homogeneous(WorkloadId::Apache),
                cycles_per_transfer: 64,
            },
        ];
        let sorted_rows = |threads: usize| {
            let mut out = Vec::new();
            run_fleet(points.clone(), Scale::Smoke, threads, &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            let mut rows: Vec<String> = text
                .lines()
                .filter(|l| l.starts_with("{\"type\": \"run\""))
                .map(str::to_owned)
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(sorted_rows(1), sorted_rows(4));
    }

    #[test]
    fn workload_names_parse_case_insensitively() {
        assert_eq!(parse_workload("apache"), Some(WorkloadId::Apache));
        assert_eq!(parse_workload("Qry17"), Some(WorkloadId::Qry17));
        assert_eq!(parse_workload("fortran"), None);
    }

    #[test]
    fn cpt_zero_is_ideal_and_nonzero_is_queued() {
        let ideal = FleetPoint {
            kind: PrefetcherKind::None,
            workload: Workload::Homogeneous(WorkloadId::Qry1),
            cycles_per_transfer: 0,
        };
        let queued = FleetPoint {
            cycles_per_transfer: 64,
            ..ideal.clone()
        };
        assert_eq!(
            ideal.spec().config(Scale::Smoke).hierarchy.contention,
            ContentionModel::Ideal
        );
        let queued_config = queued.spec().config(Scale::Smoke);
        assert_eq!(queued_config.hierarchy.contention, ContentionModel::Queued);
        assert_eq!(queued_config.hierarchy.dram.cycles_per_transfer, 64);
        assert_eq!(queued.key(), "NoPrefetch|Qry1|cpt64");
    }

    #[test]
    fn fleet_streams_one_row_per_point_plus_a_summary() {
        let points = vec![
            FleetPoint {
                kind: PrefetcherKind::None,
                workload: Workload::Homogeneous(WorkloadId::Qry1),
                cycles_per_transfer: 0,
            },
            FleetPoint {
                kind: PrefetcherKind::sms_8_11a(),
                workload: Workload::Homogeneous(WorkloadId::Qry1),
                cycles_per_transfer: 0,
            },
        ];
        let mut out = Vec::new();
        let summary = run_fleet(points, Scale::Smoke, 2, &mut out).unwrap();
        assert_eq!(summary.points, 2);
        let text = String::from_utf8(out).unwrap();
        let runs: Vec<&str> =
            text.lines().filter(|l| l.starts_with("{\"type\": \"run\"")).collect();
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|l| l.contains("\"digest\": \"cycles=")));
        assert!(
            text.lines().last().unwrap().starts_with("{\"type\": \"summary\""),
            "summary must be the footer"
        );
    }

    #[test]
    fn mixes_and_scenarios_have_distinct_labels() {
        let mix = Workload::Mix([
            WorkloadId::Apache,
            WorkloadId::Db2,
            WorkloadId::Qry1,
            WorkloadId::Qry17,
        ]);
        assert_eq!(mix.label(), "mix:Apache+DB2+Qry1+Qry17");
        for scenario in default_scenarios(Scale::Smoke) {
            assert!(!scenario.label().is_empty());
        }
    }

    /// A sink that accepts `capacity` bytes and then fails every write, and
    /// optionally fails every flush.
    struct FailingSink {
        capacity: usize,
        flush_fails: bool,
    }

    impl Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.capacity == 0 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "sink closed"));
            }
            let n = buf.len().min(self.capacity);
            self.capacity -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            if self.flush_fails {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "flush failed"));
            }
            Ok(())
        }
    }

    #[test]
    fn a_failing_sink_is_an_error_not_a_panic() {
        let points = vec![
            FleetPoint {
                kind: PrefetcherKind::None,
                workload: Workload::Homogeneous(WorkloadId::Qry1),
                cycles_per_transfer: 0,
            };
            3
        ];
        // A write fails before the first row, a write fails mid-row, or
        // every write lands and only the final flush fails.
        for (capacity, flush_fails) in [(0, false), (100, false), (usize::MAX, true)] {
            let mut sink = FailingSink {
                capacity,
                flush_fails,
            };
            let error = run_fleet(points.clone(), Scale::Smoke, 2, &mut sink)
                .expect_err("a dead sink must surface as an error");
            assert_eq!(error.kind(), io::ErrorKind::BrokenPipe);
        }
    }

    /// The runner and the fleet share one run path: a fleet point and the
    /// runner spec it maps onto simulate the same configuration.
    #[test]
    fn runner_and_fleet_agree_on_a_cohabiting_point() {
        let point = FleetPoint {
            kind: PrefetcherKind::composite_shared(8),
            workload: Workload::Homogeneous(WorkloadId::Qry1),
            cycles_per_transfer: 0,
        };
        let runner = crate::Runner::new(Scale::Smoke, 1);
        let metrics = runner.metrics(&RunSpec::base(WorkloadId::Qry1, point.kind.clone()));
        assert_eq!(
            point.spec(),
            RunSpec::base(WorkloadId::Qry1, point.kind.clone())
        );
        let mut out = Vec::new();
        run_fleet(vec![point], Scale::Smoke, 1, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains(&format!("\"digest\": \"{}\"", metrics.digest())),
            "fleet row must carry the runner's digest: {text}"
        );
    }
}
