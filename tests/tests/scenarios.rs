//! Non-stationary scenario guards: finite streams end runs cleanly, the
//! feedback throttle re-converges after a phase flip (level trace pinned),
//! and cohabiting predictors keep serving their tables as demand shifts.

use pv_experiments::scenarios::{reconvergence_per_core, throttle_hierarchy};
use pv_experiments::{HierarchyVariant, RunSpec, Runner, Scale};
use pv_mem::ContentionModel;
use pv_sim::{run_streams, PrefetcherKind, SimConfig, System};
use pv_trace::{record_generator, record_stream, Provenance, ReplayStream, Scenario};
use pv_workloads::{workloads, AccessStream, WorkloadId};

/// The controlled flip configuration used by the pinned tests: smoke-scale
/// windows, scarce queued bandwidth, and a short accuracy epoch so the
/// throttle completes several feedback epochs per workload phase.
fn flip_config(kind: PrefetcherKind) -> SimConfig {
    let mut config = SimConfig::quick(kind);
    config.warmup_records = 20_000;
    config.measure_records = 30_000;
    config.hierarchy = throttle_hierarchy().build(config.cores);
    config
}

/// Qry1 (accurate) → Apache (wasteful) flips, one phase per 10k records:
/// the warmup window covers the first Qry1→Apache cycle, the measurement
/// window covers Qry1 → Apache → Qry1 — an observable ratchet-up on the
/// middle Apache phase bracketed by accurate phases to relax into.
fn flip_scenario() -> Scenario {
    Scenario::PhaseFlip {
        a: WorkloadId::Qry1,
        b: WorkloadId::Apache,
        period: 10_000,
    }
}

#[test]
fn finite_streams_terminate_a_scenario_run_cleanly() {
    // Record 3.5 of the 5 phases the run demands per core, then replay:
    // every core must run dry mid-measurement without hanging or panicking,
    // and the run must report exactly the recorded records as consumed.
    let config = flip_config(PrefetcherKind::sms_pv8_throttled());
    let recorded = 35_000u64;
    let streams: Vec<Box<dyn AccessStream>> = (0..config.cores)
        .map(|core| {
            let mut stream = flip_scenario().stream_for_core(core, config.cores, config.seed);
            let provenance = Provenance {
                core: core as u32,
                seed: config.seed,
            };
            let bytes = record_stream(&mut stream, recorded, provenance)
                .expect("scenario records fit the trace format");
            Box::new(ReplayStream::new(bytes).expect("valid trace")) as Box<dyn AccessStream>
        })
        .collect();
    let mut system = System::from_streams(config.clone(), streams);
    let metrics = system.run();
    assert!(system.records_consumed().eq(vec![recorded; config.cores]));
    assert!(system.exhausted().eq(vec![true; config.cores]));
    assert!(metrics.total_instructions > 0);
    assert!(metrics.elapsed_cycles > 0);
}

/// The pinned throttle level trace for the flip run (measurement window
/// only; statistics reset at the warmup boundary). Each entry is
/// `c<core>s<sample>l<level>`: at accuracy sample `sample` (1-based,
/// per-core), `core`'s controller moved to `level`. The trace encodes the
/// whole story — ratchet-up when Apache's wasteful prefetches trip the
/// accuracy watermark, relaxation back toward level 0 when Qry1 returns.
const PINNED_LEVEL_TRACE: &str = "c0s1l3 c0s5l4 c0s8l3 c0s9l4 c0s13l3 c0s15l2 c0s17l1 c0s18l0 \
     c0s37l1 c0s39l2 c0s40l3 c1s1l3 c1s3l2 c1s4l1 c1s5l0 c1s36l1 c1s37l0 c1s71l1 c1s72l0 \
     c1s73l1 c1s74l0 c1s75l1 c1s76l2 c1s77l3 c1s78l4 c1s91l3 c1s92l4 c2s6l3 c2s7l4 c2s13l3 \
     c2s14l2 c2s16l1 c2s17l0 c2s67l1 c2s68l0 c2s75l1 c2s76l2 c2s78l1 c2s79l0 c2s81l1 c2s82l2 \
     c3s1l3 c3s3l2 c3s4l1 c3s5l0 c3s55l1 c3s56l0 c3s61l1 c3s62l0 c3s68l1 c3s69l2 c3s70l3 c3s71l4";

/// Every re-converging core must return to level 0 within this many
/// accuracy epochs of leaving its peak level (the re-convergence bound the
/// scenarios experiment measures).
const RECONVERGENCE_EPOCH_BOUND: u64 = 16;

#[test]
fn throttle_reconverges_after_a_phase_flip() {
    let config = flip_config(PrefetcherKind::sms_pv8_throttled());
    let streams = flip_scenario().build_streams(config.cores, config.seed);
    let metrics = run_streams(&config, streams);
    let throttle = metrics.throttle.expect("throttled prefetcher records throttle metrics");

    let rendered: Vec<String> = throttle
        .level_trace
        .iter()
        .map(|c| format!("c{}s{}l{}", c.core, c.sample, c.level))
        .collect();
    assert_eq!(
        rendered.join(" "),
        PINNED_LEVEL_TRACE,
        "the throttle's response to the phase flip changed"
    );

    let recon = reconvergence_per_core(&throttle.level_trace, config.cores);
    assert!(
        recon.iter().any(|r| r.peak_level > 0),
        "the Apache phases must drive at least one core into throttling"
    );
    let mut reconverged = 0;
    for r in &recon {
        if let Some(epochs) = r.epochs_to_reconverge {
            assert!(
                epochs <= RECONVERGENCE_EPOCH_BOUND,
                "core {} took {} epochs to re-converge (bound {})",
                r.core,
                epochs,
                RECONVERGENCE_EPOCH_BOUND
            );
            reconverged += 1;
        }
    }
    assert!(
        reconverged >= 1,
        "at least one core must re-converge to level 0 within the run"
    );
}

#[test]
fn cohabiting_tables_keep_serving_under_a_phase_flip() {
    // The shared composite (SMS + Markov in one PV region) run under the
    // flip: both tables must stay live — lookups flowing and the Markov
    // table retaining a materially higher PVC$ hit rate (its working set is
    // smaller), exactly the contrast the cohabitation experiment reports.
    let runner = Runner::new(Scale::Smoke, 2);
    let kind = PrefetcherKind::composite_shared(8);
    let spec = RunSpec {
        workload: Scenario::PhaseFlip {
            a: WorkloadId::Qry1,
            b: WorkloadId::Apache,
            period: 10_000,
        }
        .into(),
        prefetcher: kind.clone(),
        hierarchy: HierarchyVariant::PvRegion {
            bytes_per_core: kind.pv_bytes_per_core(),
            contention: ContentionModel::Ideal,
        },
    };
    let metrics = runner.metrics(&spec);
    assert_eq!(metrics.pv_tables.len(), 2, "SMS and Markov must cohabit");
    for table in &metrics.pv_tables {
        let ratio = table.stats.pvcache_hit_ratio();
        assert!(
            (0.0..=1.0).contains(&ratio),
            "{}: PVC$ hit ratio {ratio} out of range",
            table.label
        );
    }
    let markov = metrics
        .pv_tables
        .iter()
        .find(|t| t.label.to_ascii_lowercase().contains("markov"))
        .expect("markov table present");
    let sms = metrics
        .pv_tables
        .iter()
        .find(|t| !t.label.to_ascii_lowercase().contains("markov"))
        .expect("sms table present");
    assert!(
        markov.stats.pvcache_hit_ratio() > sms.stats.pvcache_hit_ratio(),
        "the smaller Markov working set should out-hit SMS in the PVC$ \
         (markov {:.3} vs sms {:.3})",
        markov.stats.pvcache_hit_ratio(),
        sms.stats.pvcache_hit_ratio()
    );
}

#[test]
fn scenario_streams_are_reproducible_and_phase_varied() {
    // Same (core, seed) → identical stream; repeated instances of the same
    // workload phase must NOT replay identical records (each instance is
    // reseeded), otherwise predictors would see an artificial loop.
    let scenario = flip_scenario();
    let mut s1 = scenario.build_streams(4, 7).remove(0);
    let mut s2 = scenario.build_streams(4, 7).remove(0);
    let first: Vec<_> = (0..25_000).map_while(|_| s1.next_record()).collect();
    let second: Vec<_> = (0..25_000).map_while(|_| s2.next_record()).collect();
    assert_eq!(first, second, "scenario streams must be deterministic");
    // Phase 0 (Qry1, records 0..10k) and phase 2 (Qry1 again, 20k..25k
    // sampled) must differ: the second Qry1 instance is reseeded.
    assert_ne!(
        &first[..5_000],
        &first[20_000..25_000],
        "repeated phases must not replay identical records"
    );
}

#[test]
fn recorded_scenario_replays_identically() {
    // A scenario trace recorded to bytes and replayed must drive the
    // simulator to the same digest as the live scenario streams.
    let config = flip_config(PrefetcherKind::sms_pv8_throttled());
    let per_core = config.warmup_records + config.measure_records;
    let live = run_streams(
        &config,
        flip_scenario().build_streams(config.cores, config.seed),
    );
    let replayed_streams: Vec<Box<dyn AccessStream>> = (0..config.cores)
        .map(|core| {
            let mut stream = flip_scenario().stream_for_core(core, config.cores, config.seed);
            let provenance = Provenance {
                core: core as u32,
                seed: config.seed,
            };
            let bytes =
                record_stream(&mut stream, per_core, provenance).expect("scenario records fit");
            Box::new(ReplayStream::new(bytes).expect("valid trace")) as Box<dyn AccessStream>
        })
        .collect();
    let replayed = run_streams(&config, replayed_streams);
    assert_eq!(
        live.digest(),
        replayed.digest(),
        "recorded scenario must replay bit-identically"
    );
}

#[test]
fn antagonist_occupies_only_the_last_core() {
    let scenario = Scenario::Antagonist {
        workload: WorkloadId::Qry1,
    };
    let mut streams = scenario.build_streams(4, 11);
    let labels: Vec<String> = streams.iter().map(|s| s.label().to_owned()).collect();
    assert_eq!(
        labels[3], "Antagonist",
        "last core runs the antagonist: {labels:?}"
    );
    for label in &labels[..3] {
        assert_eq!(
            label, "Qry1",
            "victim cores run the base workload: {labels:?}"
        );
    }
    // All four streams produce records.
    for stream in streams.iter_mut() {
        assert!(stream.next_record().is_some());
    }
}

#[test]
fn a_recorded_workload_replays_through_the_runner_config() {
    // Sanity link between the trace layer and the experiment layer: a
    // recorded homogeneous workload replayed under the runner's smoke
    // config matches the runner's own live run digest.
    let runner = Runner::new(Scale::Smoke, 1);
    let live = runner.metrics(&RunSpec::base(WorkloadId::Qry16, PrefetcherKind::None));
    let config = Scale::Smoke.config(PrefetcherKind::None);
    let per_core = config.warmup_records + config.measure_records;
    let streams: Vec<Box<dyn AccessStream>> = (0..config.cores)
        .map(|core| {
            let bytes = record_generator(&workloads::qry16(), config.seed, core as u32, per_core)
                .expect("records fit");
            Box::new(ReplayStream::new(bytes).expect("valid trace")) as Box<dyn AccessStream>
        })
        .collect();
    let replayed = run_streams(&config, streams);
    assert_eq!(live.digest(), replayed.digest());
}
