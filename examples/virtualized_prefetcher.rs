//! Virtualized-prefetcher anatomy: drives a generic PV table front
//! directly, showing the mechanics the paper describes in Sections 2 and
//! 3.2 — the PVStart-based address computation, PVCache hits and misses,
//! predictor data migrating into the L2, dirty write-backs, and the Section
//! 4.6 storage budget. The front is instantiated at the SMS entry type
//! (`PvFront<SmsEntry>`) on a PVProxy of its own, the same instantiation
//! `pv_sms::VirtualizedPht` wraps for the engine.
//!
//! ```text
//! cargo run --release -p pv-examples --bin virtualized_prefetcher
//! ```

use pv_core::{PvConfig, PvFront, PvStats, SharedPvProxy};
use pv_mem::{HierarchyConfig, MemoryHierarchy};
use pv_sms::{SmsEntry, SpatialPattern, TriggerKey};

/// The front's own one-table proxy.
fn proxy(front: &PvFront<SmsEntry>) -> &SharedPvProxy {
    front.proxy().expect("a dedicated front owns its proxy")
}

fn stats(front: &PvFront<SmsEntry>) -> PvStats {
    *front.stats().expect("a dedicated front owns its proxy")
}

fn main() {
    let hierarchy_config = HierarchyConfig::paper_baseline(4);
    let mut memory = MemoryHierarchy::new(hierarchy_config);
    let pv_start = hierarchy_config.pv_regions.core_base(0);
    let mut front: PvFront<SmsEntry> = PvFront::dedicated(0, PvConfig::pv8(), pv_start, "SMS");

    println!(
        "PVTable for core 0 reserved at {pv_start} ({} KB of physical memory)",
        front.config().table_sets as u64 * front.config().block_bytes / 1024
    );
    let layout = *front.layout();
    println!(
        "Packed layout derived from SmsEntry: {} entries x {} bits per 64B block, {} trailer bits",
        layout.entries_per_block(),
        layout.entry_bits(),
        layout.unused_trailing_bits()
    );
    println!("PVProxy on-chip budget:");
    for (component, bytes) in front.storage_budget().rows() {
        println!("  {component:<15} {bytes:>4} B");
    }
    println!(
        "  {:<15} {:>4} B\n",
        "total",
        front.storage_budget().total_bytes()
    );

    // A trigger the SMS engine would produce: PC 0x4a10, block offset 3.
    let trigger = TriggerKey::new(0x4a10, 3);
    let index = u64::from(trigger.index().raw());
    let (set, tag) = front.split_index(index);
    println!(
        "Trigger PC {:#x}, offset {} -> PHT index {:#07x}, PVTable set {}, memory address {}",
        trigger.pc,
        trigger.offset,
        index,
        set,
        proxy(&front).set_address(front.table_id(), set)
    );

    // 1. Cold lookup: the set has never been touched; it is fetched from DRAM.
    let lookup = front.lookup(index, &mut memory, None, 0);
    println!(
        "\n[cycle 0]      cold lookup  -> entry {:?}, ready at cycle {}",
        lookup.entry, lookup.ready_at
    );

    // 2. The prefetcher learns a pattern and stores it; the PVCache copy
    //    becomes dirty.
    let pattern = SpatialPattern::from_offsets([3, 4, 7, 12]);
    front.store(
        index,
        SmsEntry::new(tag as u16, pattern),
        &mut memory,
        None,
        1_000,
    );
    println!(
        "[cycle 1000]   store        -> pattern {pattern} cached, dirty entries: {}",
        proxy(&front).cache().dirty_count()
    );

    // 3. A later lookup for the same trigger hits in the PVCache.
    let lookup = front.lookup(index, &mut memory, None, 2_000);
    println!(
        "[cycle 2000]   warm lookup  -> pattern {:?}, ready at cycle {} (PVCache hit)",
        lookup.entry.map(|e| e.pattern.to_string()),
        lookup.ready_at
    );

    // 4. Touch more PVTable sets than the PVCache holds: the dirty set is
    //    written back towards the L2 and naturally stays cached there.
    for i in 1..=8u64 {
        let other = u64::from(TriggerKey::new(0x4a10 + i * 4, 3).index().raw());
        front.lookup(other, &mut memory, None, 2_000 + i * 100);
    }
    println!(
        "[cycle ~3000]  capacity     -> dirty write-backs so far: {}",
        stats(&front).dirty_writebacks
    );

    // 5. Re-fetch the original set: it now comes from the L2, not DRAM.
    let before = memory.stats().dram_reads;
    let lookup = front.lookup(index, &mut memory, None, 10_000);
    let after = memory.stats().dram_reads;
    println!(
        "[cycle 10000]  refetch      -> pattern {:?}, latency {} cycles, extra DRAM reads {}",
        lookup.entry.map(|e| e.pattern.to_string()),
        lookup.ready_at - 10_000,
        after - before
    );

    let stats = stats(&front);
    println!(
        "\nPVProxy statistics: {} lookups, {} PVCache hits, {} memory requests, {} dirty write-backs",
        stats.lookups, stats.pvcache_hits, stats.memory_requests, stats.dirty_writebacks
    );
    let mem_stats = memory.stats();
    println!(
        "Memory-system view: {} L2 requests for predictor data, {} of them missed to DRAM",
        mem_stats.l2_requests.predictor, mem_stats.l2_misses.predictor
    );
}
