//! Guards for the PR-4 dirty-traffic timing fixes.
//!
//! Two holes are closed: write-backs now compete for the L2 tag-pipeline
//! bank ports under `ContentionModel::Queued` (they used to cost zero
//! contended cycles), and the L2 MSHR merge path consults the registration
//! outcome instead of discarding it. These tests pin three things:
//!
//! 1. the new contention is observable (a dirty-write-back storm produces
//!    nonzero `l2_port_delay` and delays subsequent same-bank reads);
//! 2. `Ideal` mode is bit-identical to the BENCH_PR3-era results for every
//!    pre-existing `PrefetcherKind` (digest-pinned against the committed
//!    `BENCH_PR3.json`);
//! 3. the `Queued`-mode digest moved exactly once, to a pinned value — the
//!    expected behaviour change from making write-backs contended.

use pv_experiments::{HierarchyVariant, RunSpec, Runner, Scale};
use pv_mem::{AccessKind, ContentionModel, DataClass, HierarchyConfig, MemoryHierarchy, Requester};
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

fn queued_hierarchy() -> MemoryHierarchy {
    MemoryHierarchy::new(
        HierarchyConfig::paper_baseline(2).with_contention(ContentionModel::Queued),
    )
}

/// Satellite-fix acceptance: a storm of dirty write-backs into the same L2
/// bank at the same cycle must serialize on the bank port and surface as
/// `l2_port_delay` — before the fix they cost zero contended cycles.
#[test]
fn queued_writeback_storm_produces_nonzero_l2_port_delay() {
    let mut h = queued_hierarchy();
    let banks = h.config().l2.banks as u64;
    // 32 write-backs, all mapping to bank 0, all issued at cycle 0.
    for i in 0..32u64 {
        h.writeback(Requester::pv_proxy(0), i * banks * 64, 0);
    }
    let stats = h.stats();
    assert!(
        stats.l2_port_delay.total_cycles() > 0,
        "same-bank write-backs must wait for the port"
    );
    assert!(stats.l2_port_delay.application_events() > 0);
}

#[test]
fn queued_writebacks_delay_subsequent_same_bank_reads() {
    let mut h = queued_hierarchy();
    let banks = h.config().l2.banks as u64;
    let occupancy = h.config().l2.port_occupancy;
    // One write-back occupies bank 0's port at cycle 0...
    h.writeback(Requester::pv_proxy(0), 0, 0);
    // ...so a same-cycle read of another bank-0 block starts late.
    let r = h.access(
        Requester::pv_proxy(0),
        banks * 64,
        AccessKind::Read,
        DataClass::Application,
        0,
    );
    assert!(
        r.queue_delay >= occupancy,
        "a read behind a write-back must wait out the port occupancy \
         (delay {}, occupancy {occupancy})",
        r.queue_delay
    );
}

#[test]
fn ideal_writebacks_remain_free_and_unobserved() {
    let mut h = MemoryHierarchy::new(HierarchyConfig::paper_baseline(2));
    for i in 0..32u64 {
        h.writeback(Requester::pv_proxy(0), i * 64, 0);
    }
    assert_eq!(h.stats().l2_port_delay.total_cycles(), 0);
    assert_eq!(h.stats().l2_mshr_merge_failures, 0);
}

/// The L2 MSHR merge path now checks its registration outcome; the
/// merge-failure counter it reports must stay zero through a merge-heavy
/// queued storm (the invariant it guards: a looked-up in-flight entry
/// cannot vanish before registration).
#[test]
fn queued_merge_storm_registers_every_merge() {
    let mut h = queued_hierarchy();
    for wave in 0..8u64 {
        for i in 0..16u64 {
            // Both cores miss on the same block in the same cycle: the
            // second access merges into the first's in-flight fill.
            let addr = 0x100_0000 + (wave * 16 + i) * 64;
            h.access(
                Requester::data(0),
                addr,
                AccessKind::Read,
                DataClass::Application,
                wave * 50,
            );
            h.access(
                Requester::data(1),
                addr,
                AccessKind::Read,
                DataClass::Application,
                wave * 50,
            );
        }
    }
    let stats = h.stats();
    assert_eq!(
        stats.l2_mshr_merge_failures, 0,
        "no merge registration may be dropped"
    );
    assert!(stats.dram_reads > 0);
}

/// Reads one `(prefetcher, workload) -> digest` mapping out of the
/// committed BENCH_PR3.json (one end-to-end row per line).
fn bench_pr3_digests() -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_PR3.json");
    let text = std::fs::read_to_string(path).expect("BENCH_PR3.json is committed at the repo root");
    let field = |line: &str, key: &str| -> Option<String> {
        let start = line.find(key)? + key.len();
        let rest = &line[start..];
        Some(rest[..rest.find('"')?].to_owned())
    };
    text.lines()
        .filter_map(|line| {
            Some((
                field(line, "\"prefetcher\": \"")?,
                field(line, "\"workload\": \"")?,
                field(line, "\"digest\": \"")?,
            ))
        })
        .collect()
}

fn kind_by_label(label: &str) -> Option<PrefetcherKind> {
    [
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
    ]
    .into_iter()
    .find(|kind| kind.label() == label)
}

fn workload_by_name(name: &str) -> WorkloadId {
    WorkloadId::all()
        .into_iter()
        .find(|w| w.name() == name)
        .expect("known workload name")
}

/// Every pre-existing `PrefetcherKind` must still produce, under `Ideal`
/// contention, the exact digests recorded in BENCH_PR3.json (same smoke
/// scale, same seeds): the write-back fix, the MSHR restructure and the
/// whole cohabitation subsystem are gated on never disturbing them.
#[test]
fn ideal_digests_are_bit_identical_to_bench_pr3() {
    let pinned = bench_pr3_digests();
    assert_eq!(
        pinned.len(),
        20,
        "BENCH_PR3.json records 10 kinds x 2 workloads"
    );
    let runner = Runner::with_default_threads(Scale::Smoke);
    let specs: Vec<RunSpec> = pinned
        .iter()
        .map(|(label, workload, _)| {
            RunSpec::base(
                workload_by_name(workload),
                kind_by_label(label).unwrap_or_else(|| panic!("unknown kind label {label}")),
            )
        })
        .collect();
    runner.prefetch(&specs);
    for (spec, (label, workload, digest)) in specs.iter().zip(&pinned) {
        assert_eq!(
            &runner.metrics(spec).digest(),
            digest,
            "{label} on {workload}: Ideal-mode digest moved vs BENCH_PR3"
        );
    }
}

/// The write-back fix is *supposed* to move Queued-mode outcomes (dirty
/// victims now occupy L2 bank ports). This pin records the post-fix digest
/// of one queued configuration so any further unintended drift is caught.
#[test]
fn queued_digest_change_from_the_writeback_fix_is_pinned() {
    let runner = Runner::new(Scale::Smoke, 2);
    let metrics = runner.metrics(&RunSpec {
        workload: WorkloadId::Qry1.into(),
        prefetcher: PrefetcherKind::sms_pv8(),
        hierarchy: HierarchyVariant::QueuedDram {
            cycles_per_transfer: 64,
        },
    });
    assert_eq!(
        metrics.digest(),
        "cycles=2600740|instr=381112|l2req=52918+10981|l2miss=38767+1101|l2wb=35+0|\
         dram=39868r35w|cov=21579c15712u4268o|pf=27087",
        "Queued-mode digest drifted from the value recorded when write-backs \
         became contended (PR 4)"
    );
}
