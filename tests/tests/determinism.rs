//! Determinism guards for the contention-aware timing refactor.
//!
//! The contention model added hidden shared state (L2 port busy-cycles, DRAM
//! channel queues, MSHR drain waits). None of it may introduce
//! nondeterminism: the same seed and configuration must produce a
//! bit-identical `RunMetrics` digest whether the experiment runner uses one
//! worker thread or many, and across back-to-back runs — the seeded-replay
//! discipline that keeps every recorded number reproducible.

use pv_experiments::fleet::{run_fleet, FleetGrid};
use pv_experiments::{cohabit, HierarchyVariant, RunSpec, Runner, Scale, Workload};
use pv_mem::ContentionModel;
use pv_sim::{run_streams, PrefetcherKind};
use pv_trace::{record_generator, ReplayStream, Scenario};
use pv_workloads::{workloads, AccessStream, WorkloadId};

/// The specs exercised: ideal and queued hierarchies; dedicated,
/// virtualized and cohabiting prefetchers.
fn specs() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for prefetcher in [PrefetcherKind::None, PrefetcherKind::sms_pv8()] {
        specs.push(RunSpec::base(WorkloadId::Qry1, prefetcher.clone()));
        specs.push(RunSpec {
            workload: WorkloadId::Qry1.into(),
            prefetcher,
            hierarchy: HierarchyVariant::QueuedDram {
                cycles_per_transfer: 64,
            },
        });
    }
    // Cohabiting kinds: two engines per core sharing one region (and, for
    // the shared kind, one PVCache through the composite-owned proxy) must
    // replay bit-identically too, under both timing models.
    for prefetcher in [
        PrefetcherKind::composite_dedicated(4),
        PrefetcherKind::composite_shared(8),
    ] {
        for contention in [ContentionModel::Ideal, ContentionModel::Queued] {
            specs.push(RunSpec {
                workload: WorkloadId::Qry1.into(),
                prefetcher: prefetcher.clone(),
                hierarchy: HierarchyVariant::PvRegion {
                    bytes_per_core: cohabit::PV_BYTES_PER_CORE,
                    contention,
                },
            });
        }
    }
    specs
}

fn digests(runner: &Runner) -> Vec<String> {
    specs().iter().map(|spec| runner.metrics(spec).digest()).collect()
}

#[test]
fn single_and_multi_threaded_runners_agree_bit_for_bit() {
    let serial = Runner::new(Scale::Smoke, 1);
    let parallel = Runner::new(Scale::Smoke, 8);
    parallel.prefetch(&specs()); // fan the runs out over worker threads
    assert_eq!(
        digests(&serial),
        digests(&parallel),
        "thread count must not change any simulated outcome"
    );
}

#[test]
fn consecutive_runs_agree_bit_for_bit() {
    let first = Runner::new(Scale::Smoke, 2);
    let second = Runner::new(Scale::Smoke, 2);
    assert_eq!(
        digests(&first),
        digests(&second),
        "two runs of the same seed and configuration must be identical"
    );
    // Within one runner the cache must have deduplicated the work.
    assert_eq!(first.runs_executed(), specs().len());
}

#[test]
fn queued_contention_digests_are_reproducible_for_mixes() {
    let mix = [
        WorkloadId::Apache,
        WorkloadId::Db2,
        WorkloadId::Qry1,
        WorkloadId::Qry17,
    ];
    let spec = RunSpec {
        workload: mix.into(),
        prefetcher: PrefetcherKind::sms_pv8(),
        hierarchy: HierarchyVariant::QueuedDram {
            cycles_per_transfer: 32,
        },
    };
    let a = Runner::new(Scale::Smoke, 1).metrics(&spec).digest();
    let b = Runner::new(Scale::Smoke, 4).metrics(&spec).digest();
    assert_eq!(a, b, "mixed queued runs must replay identically");
}

/// The scenario specs exercised by the thread-count guard: every scenario
/// shape (flip, flash crowd, diurnal, antagonist) plus the throttled flip
/// under queued bandwidth — scenario streams rebuild generators mid-run,
/// which must not depend on which worker thread executes the run.
fn scenario_specs() -> Vec<RunSpec> {
    let flip = Scenario::PhaseFlip {
        a: WorkloadId::Qry1,
        b: WorkloadId::Apache,
        period: 10_000,
    };
    vec![
        RunSpec::base(flip, PrefetcherKind::sms_pv8()),
        RunSpec {
            workload: flip.into(),
            prefetcher: PrefetcherKind::sms_pv8_throttled(),
            hierarchy: HierarchyVariant::QueuedDramEpoch {
                cycles_per_transfer: 64,
                accuracy_epoch: 8,
            },
        },
        RunSpec::base(
            Scenario::FlashCrowd {
                workload: WorkloadId::Oracle,
                calm: 10_000,
                spike: 5_000,
                intensity_pct: 250,
            },
            PrefetcherKind::sms_pv8(),
        ),
        RunSpec::base(
            Scenario::Diurnal {
                workload: WorkloadId::Db2,
                period: 20_000,
                steps: 8,
                amplitude_pct: 60,
            },
            PrefetcherKind::sms_pv8(),
        ),
        RunSpec::base(
            Scenario::Antagonist {
                workload: WorkloadId::Qry1,
            },
            PrefetcherKind::sms_pv8(),
        ),
    ]
}

fn scenario_digests(runner: &Runner) -> Vec<String> {
    scenario_specs().iter().map(|spec| runner.metrics(spec).digest()).collect()
}

#[test]
fn scenario_runs_agree_across_thread_counts() {
    let serial = Runner::new(Scale::Smoke, 1);
    let parallel = Runner::new(Scale::Smoke, 8);
    parallel.prefetch(&scenario_specs());
    assert_eq!(
        scenario_digests(&serial),
        scenario_digests(&parallel),
        "thread count must not change any scenario outcome"
    );
}

/// A small but representative fleet grid: ideal and queued bandwidth
/// points, a virtualized and a cohabiting kind, the throttle axis, a
/// heterogeneous mix and a non-stationary scenario.
fn fleet_points() -> Vec<pv_experiments::FleetPoint> {
    let grid = FleetGrid {
        kinds: vec![
            PrefetcherKind::sms_pv8(),
            PrefetcherKind::composite_shared(8),
        ],
        workloads: vec![
            Workload::Homogeneous(WorkloadId::Qry1),
            Workload::Mix([
                WorkloadId::Apache,
                WorkloadId::Db2,
                WorkloadId::Qry1,
                WorkloadId::Qry17,
            ]),
            Workload::Scenario(Scenario::PhaseFlip {
                a: WorkloadId::Qry1,
                b: WorkloadId::Apache,
                period: 10_000,
            }),
        ],
        cycles_per_transfer: vec![0, 64],
        throttle: true,
    };
    grid.points()
}

/// Sorted `"run"` rows of one sweep (row *order* is completion order and
/// may legitimately differ across thread counts; row *content* may not).
fn fleet_rows(threads: usize) -> Vec<String> {
    let mut out = Vec::new();
    let summary = run_fleet(fleet_points(), Scale::Smoke, threads, &mut out)
        .expect("an in-memory sink accepts every write");
    assert_eq!(summary.points, fleet_points().len());
    let text = String::from_utf8(out).expect("fleet output is UTF-8");
    let mut rows: Vec<String> = text
        .lines()
        .filter(|line| line.starts_with("{\"type\": \"run\""))
        .map(str::to_owned)
        .collect();
    rows.sort();
    rows
}

#[test]
fn fleet_sweeps_agree_bit_for_bit_across_thread_counts() {
    let serial = fleet_rows(1);
    let parallel = fleet_rows(4);
    assert_eq!(serial.len(), fleet_points().len());
    assert_eq!(
        serial, parallel,
        "thread count must not change any simulated outcome, only completion order"
    );
    // The grid really covers the risky shapes: throttled points and the
    // scenario/mix workloads all made it into the row set.
    assert!(serial.iter().any(|row| row.contains("\"throttled\": true")));
    assert!(serial.iter().any(|row| row.contains("\"workload\": \"mix:")));
    assert!(serial.iter().any(|row| row.contains("\"workload\": \"flip:")));
}

#[test]
fn replay_runs_are_reproducible() {
    // Two independent replays of the same recorded bytes must agree with
    // each other and with the live generator run they were recorded from.
    let config = Scale::Smoke.config(PrefetcherKind::sms_pv8());
    let workload = workloads::qry1();
    let per_core = config.warmup_records + config.measure_records;
    let traces: Vec<Vec<u8>> = (0..config.cores)
        .map(|core| {
            record_generator(&workload, config.seed, core as u32, per_core)
                .expect("records fit the default layout")
        })
        .collect();
    let replay_once = || {
        let streams: Vec<Box<dyn AccessStream>> = traces
            .iter()
            .map(|bytes| {
                Box::new(ReplayStream::new(bytes.clone()).expect("valid trace"))
                    as Box<dyn AccessStream>
            })
            .collect();
        run_streams(&config, streams).digest()
    };
    let live = pv_sim::run_workload(&config, &workload).digest();
    let first = replay_once();
    let second = replay_once();
    assert_eq!(first, second, "replaying the same bytes twice must agree");
    assert_eq!(
        first, live,
        "replay must agree with the live run it recorded"
    );
}

#[test]
fn ideal_and_queued_runs_differ_but_only_in_timing_dependent_fields() {
    let runner = Runner::new(Scale::Smoke, 2);
    let ideal = runner.metrics(&RunSpec::base(WorkloadId::Qry1, PrefetcherKind::sms_pv8()));
    let queued = runner.metrics(&RunSpec {
        workload: WorkloadId::Qry1.into(),
        prefetcher: PrefetcherKind::sms_pv8(),
        hierarchy: HierarchyVariant::QueuedDram {
            cycles_per_transfer: 64,
        },
    });
    assert_ne!(
        ideal.digest(),
        queued.digest(),
        "contention must actually change the simulated outcome"
    );
    // The instruction stream is identical either way: the measurement window
    // consumes a fixed number of trace records per core.
    assert_eq!(ideal.total_instructions, queued.total_instructions);
    assert!(queued.elapsed_cycles > ideal.elapsed_cycles);
}
