//! Allocation-freedom guards for the per-record hot path.
//!
//! This binary swaps in a counting global allocator and asserts that the
//! L1-hit access path performs **zero** heap allocations per record, and
//! that a warmed-up simulation phase stays allocation-free end to end.
//! Everything allocation-sensitive lives in the single test below: the
//! libtest harness runs tests in this binary concurrently, and a second
//! test's setup allocations would contaminate the counter.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use pv_mem::{AccessKind, ContentionModel, EvictionBuffer, HierarchyConfig, MemoryHierarchy};
use pv_sim::{PrefetcherKind, SimConfig, System};
use pv_trace::{record_generator, ReplayStream};
use pv_workloads::{paper_workloads, workloads, AccessStream, TraceGenerator};

/// Counts every allocation and reallocation; frees are not interesting.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn hot_paths_do_not_allocate() {
    // --- L1-hit fast path: strictly zero allocations per access. ---
    let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::paper_baseline(1));
    let mut evictions = EvictionBuffer::default();
    let blocks: Vec<u64> = (0..32u64).map(|i| i * 64).collect();
    // Warm the set: the misses below may touch MSHRs/DRAM bookkeeping.
    for &addr in &blocks {
        hierarchy.access_data(0, addr, AccessKind::Read, 0, &mut evictions);
    }
    let before = allocations();
    let mut latency_sum = 0u64;
    for round in 1..=1_000u64 {
        for &addr in &blocks {
            let response =
                hierarchy.access_data(0, addr, AccessKind::Read, round * 100, &mut evictions);
            latency_sum += response.latency;
        }
    }
    assert!(latency_sum > 0);
    assert_eq!(
        allocations() - before,
        0,
        "the L1-hit access path must not heap-allocate"
    );

    // --- Live generators: every buffer is sized at construction, so a
    // fresh generator allocates nothing from its first record on.
    for (_, params) in paper_workloads() {
        let mut generator = TraceGenerator::new(&params, 7, 1);
        let before = allocations();
        let mut addresses = 0u64;
        for record in (&mut generator).take(100_000) {
            addresses = addresses.wrapping_add(record.address);
        }
        assert!(addresses > 0);
        let grew = allocations() - before;
        assert_eq!(
            grew, 0,
            "the {} generator allocated {grew} times",
            params.name
        );
    }

    // --- Whole-system steady state: with replayed traces (decode from a
    // borrowed byte slice) and with live generators (run ahead on helper
    // threads, whose allocations this allocator counts too) a warmed-up
    // scheduling phase must reuse every buffer — event heap, targets,
    // action scratch, AGT update, eviction scratch, chunk buffers — and
    // allocate nothing.
    // Queued contention exercises extra hot-path machinery the Ideal runs
    // never touch — L2 port scalars, MSHR backpressure waits, and the
    // per-channel DRAM in-flight rings (fixed-capacity since PR 10, so the
    // contended drain/admit path must also stay at zero). The PV kinds add
    // the proxy path: PVCache fills and write-backs move residency metadata
    // only, so they must not allocate either.
    let phase = 10_000u64;
    let kinds = [
        PrefetcherKind::None,
        PrefetcherKind::sms_1k_11a(),
        PrefetcherKind::sms_pv8(),
        PrefetcherKind::markov_pv8(),
    ];
    for contention in [ContentionModel::Ideal, ContentionModel::Queued] {
        for (kind, live) in kinds.iter().flat_map(|kind| [(kind, false), (kind, true)]) {
            // Window sizes are irrelevant here — `run_records` drives phases
            // directly — but validation requires a non-empty measurement
            // window.
            let mut config = SimConfig::quick(kind.clone());
            config.warmup_records = 0;
            config.measure_records = 1;
            config.hierarchy = config.hierarchy.with_contention(contention);
            let params = workloads::qry1();
            let streams: Vec<Box<dyn AccessStream>> = (0..config.cores)
                .map(|core| -> Box<dyn AccessStream> {
                    if live {
                        return Box::new(TraceGenerator::new(&params, config.seed, core));
                    }
                    let bytes = record_generator(&params, config.seed, core as u32, 3 * phase)
                        .expect("records fit the default layout");
                    Box::new(ReplayStream::new(bytes).expect("valid trace"))
                })
                .collect();
            let mut system = System::from_streams(config, streams);
            // The first phases grow scratch capacities to their high-water
            // marks (heap, targets, actions, AGT update, accuracy backlogs)
            // and start the helpers. The simulation thread waits in each
            // core's channel for that core's first chunk, so the one-time
            // allocation of a thread's first wait in a std channel falls
            // here too.
            system.run_records(phase);
            system.run_records(phase);
            let before = allocations();
            system.run_records(phase);
            let grew = allocations() - before;
            let source = if live { "live" } else { "replayed" };
            assert_eq!(
                grew, 0,
                "a warmed-up {contention:?} phase over {source} streams must be \
                 allocation-free ({kind:?}: {grew} allocations)"
            );
        }
    }
}
