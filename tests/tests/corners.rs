//! Queued-mode corner litmus tests.
//!
//! Compound corners of the contention model that no single-mechanism test
//! exercises: a demand read arriving behind a dirty victim *while* the
//! L2 MSHR file is full (both backpressure mechanisms stack on one
//! request), a secondary miss whose L2 line was evicted while its fill
//! was still in flight, merging into the draining MSHR entry instead of
//! issuing duplicate DRAM traffic, and a DRAM channel filled to its
//! `queue_depth` through the L2 boundary, where the overflow requests'
//! slot waits must surface cycle-exactly in the queueing-delay statistics.
//! Each litmus pins the relevant [`DelayBreakdown`] counters
//! cycle-for-cycle and an end-to-end Queued digest so drift in either
//! corner is loud.

use pv_experiments::{HierarchyVariant, RunSpec, Runner, Scale};
use pv_mem::{
    AccessKind, Address, ContentionModel, DataClass, HierarchyConfig, MemoryHierarchy, Requester,
};
use pv_sim::PrefetcherKind;
use pv_workloads::WorkloadId;

fn queued_hierarchy() -> MemoryHierarchy {
    MemoryHierarchy::new(
        HierarchyConfig::paper_baseline(2).with_contention(ContentionModel::Queued),
    )
}

/// Corner 1: a read that arrives behind a dirty victim's write-back to its
/// own L2 bank *while the L2 MSHR file is full* pays both waits on one
/// request — the bank-port occupancy behind the write-back, then the full
/// MSHR drain. Neither mechanism may mask the other.
#[test]
fn mshr_full_behind_a_dirty_victim_in_the_same_bank_stacks_both_waits() {
    let mut h = queued_hierarchy();
    let cap = h.config().l2.mshr_entries;
    let banks = h.config().l2.banks as u64;
    let occupancy = h.config().l2.port_occupancy;

    // Fill every MSHR slot: `cap` distinct-block misses at cycle 0, striped
    // round-robin across the banks. Every fill is in flight for at least
    // the 400-cycle unloaded DRAM latency.
    for i in 0..cap as u64 {
        h.access(
            Requester::pv_proxy(0),
            0x200_0000 + i * 64,
            AccessKind::Read,
            DataClass::Application,
            0,
        );
    }
    let before = h.stats();
    assert_eq!(before.dram_reads, cap as u64);
    assert_eq!(
        before.mshr_stall_delay.total_cycles(),
        0,
        "filling the file to capacity must not itself stall"
    );

    // A dirty victim is written back into bank 0 at cycle 20 (after the
    // fill storm's port waves have drained), then a demand read to a
    // different bank-0 block lands on the same cycle.
    h.writeback(Requester::pv_proxy(0), 0x300_0000, 20);
    let r = h.access(
        Requester::pv_proxy(0),
        0x300_0000 + banks * 64,
        AccessKind::Read,
        DataClass::Application,
        20,
    );

    let after = h.stats();
    // The port wait behind the write-back is visible...
    assert!(
        after.l2_port_delay.total_cycles() > before.l2_port_delay.total_cycles(),
        "the read must wait out the write-back's port occupancy"
    );
    // ...and exactly one request then stalled on the full MSHR file, for
    // most of an outstanding fill's remaining flight time.
    assert_eq!(after.mshr_stall_delay.application_events(), 1);
    assert_eq!(after.mshr_stall_delay.predictor_events(), 0);
    let stall = after.mshr_stall_delay.application_cycles();
    assert!(
        stall > 300,
        "draining a slot takes most of the 400-cycle DRAM flight (got {stall})"
    );
    // Both waits stack on the one response: port occupancy + MSHR drain.
    assert!(
        r.queue_delay >= occupancy + stall,
        "queue_delay {} must include the port wait (>= {occupancy}) and the \
         MSHR stall ({stall})",
        r.queue_delay
    );
    assert_eq!(after.dram_reads, cap as u64 + 1);
    assert_eq!(after.l2_mshr_merge_failures, 0);
}

/// Corner 2: a block whose L2 line is evicted while its fill is still in
/// flight leaves its MSHR entry behind; a secondary miss during the file's
/// drain must merge into that entry — riding the in-flight fill instead of
/// issuing a duplicate DRAM read.
#[test]
fn a_secondary_miss_during_the_mshr_drain_merges_into_the_inflight_fill() {
    let mut h = queued_hierarchy();
    let sets = 8 * 1024 * 1024 / (64 * 16) as u64; // L2: 8 MB, 16-way, 64 B
    let same_set_stride = sets * 64;
    let unloaded = h.config().dram.latency;

    // An early unrelated miss whose fill retires first — its drain is what
    // the secondary miss later arrives "during".
    h.access(
        Requester::pv_proxy(0),
        0x600_0000,
        AccessKind::Read,
        DataClass::Application,
        0,
    );
    // The victim block X misses at cycle 40 (fill in flight until at least
    // cycle 40 + 400)...
    let x = 0x400_0000u64;
    h.access(
        Requester::pv_proxy(0),
        x,
        AccessKind::Read,
        DataClass::Application,
        40,
    );
    assert!(h.l2_contains(Address::new(x).block()));
    // ...and 16 conflicting fills to the same set evict X's line while its
    // fill is still outstanding.
    for way in 1..=16u64 {
        h.access(
            Requester::pv_proxy(0),
            x + way * same_set_stride,
            AccessKind::Read,
            DataClass::Application,
            40,
        );
    }
    assert!(
        !h.l2_contains(Address::new(x).block()),
        "16 same-set fills must evict X's in-flight line"
    );
    let before = h.stats();
    assert_eq!(before.dram_reads, 18);

    // Cycle 420: the early fill (ready ~406) has drained, X's fill (ready
    // >= 446) is still in flight. The re-miss on X must merge.
    let r = h.access(
        Requester::pv_proxy(1),
        x,
        AccessKind::Read,
        DataClass::Application,
        420,
    );
    let after = h.stats();
    assert_eq!(
        after.dram_reads, before.dram_reads,
        "the merged secondary miss must not issue a duplicate DRAM read"
    );
    assert_eq!(after.l2_mshr_merge_failures, 0, "the merge must register");
    assert!(
        r.latency < unloaded,
        "riding the in-flight fill must beat a fresh {unloaded}-cycle DRAM \
         round trip (got {})",
        r.latency
    );
    assert_eq!(
        after.mshr_stall_delay.total_cycles(),
        0,
        "a merge never waits for a free MSHR slot"
    );
}

/// Corner 3 (ROADMAP item 5's litmus): DRAM queue-depth backpressure at
/// the L2 boundary. One channel is filled to exactly `queue_depth` with
/// simultaneous L2 misses, then two more arrive: each overflow request
/// must wait precisely one unloaded DRAM latency for the oldest in-flight
/// request's slot — no more, no less — and the waits must land in the
/// queueing-delay breakdown cycle-for-cycle.
///
/// The geometry removes every other wait so the slot wait is the *only*
/// contribution: one channel with a bank per request (no bank
/// serialization), an ideal data bus (`cycles_per_transfer = 0`, no
/// transfer queueing), distinct L2 banks (no port waits) and a roomy MSHR
/// file (no MSHR stalls). With all requests issued at cycle 0, the first
/// `queue_depth` fills all complete at the same cycle, so each overflow
/// request's admission cycle is exactly that completion cycle.
#[test]
fn filling_one_channel_to_queue_depth_charges_exact_slot_waits() {
    let depth = 4usize;
    let mut config = HierarchyConfig::paper_baseline(2).with_contention(ContentionModel::Queued);
    config.dram.channels = 1;
    config.dram.banks_per_channel = 32;
    config.dram.queue_depth = depth;
    config.dram.cycles_per_transfer = 0;
    let unloaded = config.dram.latency;
    let mut h = MemoryHierarchy::new(config);

    // `depth` distinct blocks: distinct L2 banks (8 banks, block % 8) and
    // distinct DRAM banks (block % 32), all missing at cycle 0.
    for i in 0..depth as u64 {
        let r = h.access(
            Requester::pv_proxy(0),
            i * 64,
            AccessKind::Read,
            DataClass::Application,
            0,
        );
        assert_eq!(
            r.queue_delay, 0,
            "request {i} fits in the queue and must not wait"
        );
    }
    let filled = h.stats();
    assert_eq!(filled.dram_queue_delay.total_cycles(), 0);

    // Two overflow requests: each must wait out exactly one unloaded DRAM
    // flight for a slot (every in-flight fill completes at the same cycle,
    // and the ideal bus adds nothing on top).
    for i in depth as u64..depth as u64 + 2 {
        let r = h.access(
            Requester::pv_proxy(0),
            i * 64,
            AccessKind::Read,
            DataClass::Application,
            0,
        );
        assert_eq!(
            r.queue_delay, unloaded,
            "overflow request {i} must wait exactly one slot drain"
        );
    }
    let after = h.stats();
    assert_eq!(after.dram_queue_delay.application_cycles(), 2 * unloaded);
    assert_eq!(after.dram_queue_delay.application_events(), 2);
    assert_eq!(after.dram_queue_delay.predictor_cycles(), 0);
    assert_eq!(after.l2_port_delay.total_cycles(), 0, "distinct L2 banks");
    assert_eq!(after.mshr_stall_delay.total_cycles(), 0, "roomy MSHR file");
    assert_eq!(after.dram_reads, depth as u64 + 2);
}

/// End-to-end pin for corner 3's configuration class: a virtualized SMS
/// run under queued contention with a narrow data bus, where PV-region and
/// demand fills keep the channel queues at depth and slot waits are
/// routine.
#[test]
fn queued_sms_pv8_narrow_bus_digest_is_pinned() {
    let runner = Runner::new(Scale::Smoke, 2);
    let metrics = runner.metrics(&RunSpec {
        workload: WorkloadId::Qry1.into(),
        prefetcher: PrefetcherKind::sms_pv8(),
        hierarchy: HierarchyVariant::QueuedDram {
            cycles_per_transfer: 128,
        },
    });
    assert_eq!(
        metrics.digest(),
        "cycles=5005348|instr=381112|l2req=52918+10981|l2miss=38769+1101|l2wb=36+0|\
         dram=39870r36w|cov=21579c15712u4268o|pf=27087",
        "Queued sms-pv8 narrow-bus digest drifted"
    );
}

/// End-to-end pin for corner 1's configuration class: a virtualized Markov
/// run under queued contention (dirty Markov-table victims write back into
/// contended banks while demand fills hold MSHR slots).
#[test]
fn queued_markov_pv8_digest_is_pinned() {
    let runner = Runner::new(Scale::Smoke, 2);
    let metrics = runner.metrics(&RunSpec {
        workload: WorkloadId::Db2.into(),
        prefetcher: PrefetcherKind::markov_pv8(),
        hierarchy: HierarchyVariant::QueuedDram {
            cycles_per_transfer: 64,
        },
    });
    assert_eq!(
        metrics.digest(),
        "cycles=7043456|instr=415337|l2req=150223+151852|l2miss=95769+275|l2wb=4814+71|\
         dram=96044r4885w|cov=2628c35368u65508o|pf=68781",
        "Queued markov-pv8 digest drifted"
    );
}

/// End-to-end pin for corner 2's configuration class: the scarce cohabiting
/// SMS+Markov pair under queued contention (two predictors' PV traffic
/// shares one region, one PVC$ and the L2 MSHR file, so merges during
/// drains are routine).
#[test]
fn queued_cohabitation_digest_is_pinned() {
    let runner = Runner::new(Scale::Smoke, 2);
    let metrics = runner.metrics(&RunSpec {
        workload: WorkloadId::Apache.into(),
        prefetcher: PrefetcherKind::composite_shared_scarce(8),
        hierarchy: HierarchyVariant::QueuedDram {
            cycles_per_transfer: 64,
        },
    });
    assert_eq!(
        metrics.digest(),
        "cycles=4510483|instr=452300|l2req=101316+70979|l2miss=65965+320|l2wb=1002+4|\
         dram=66285r1006w|cov=2634c31789u32190o|pf=35264",
        "Queued cohabitation digest drifted"
    );
}
