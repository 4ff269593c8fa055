//! The virtualized PHT: SMS plugged into the `pv-core` substrate.
//!
//! This module is the dependency inversion the substrate demands: `pv-core`
//! knows nothing about SMS; instead SMS describes its PHT entry to the
//! substrate by implementing [`PvEntry`] for [`SmsEntry`] (an 11-bit tag
//! plus a 32-bit spatial pattern — the 43-bit packed entry of the paper's
//! Figure 3a), and [`VirtualizedPht`] adapts the generic `PvFront<SmsEntry>`
//! to the engine-facing [`PatternStorage`] trait so the unmodified SMS
//! engine runs on top of it — exactly the property the paper relies on
//! ("the optimization engine remains unchanged").
//!
//! The table runs on a PVProxy of its own ([`VirtualizedPht::new`]) or
//! cohabits one with other predictors ([`VirtualizedPht::cohabiting`]). A
//! cohabited proxy lives with whoever composes the engines (the composite
//! prefetcher) and arrives by `&mut` through the `shared` parameter of
//! every [`PatternStorage`] call, which keeps the adapter — and the whole
//! simulator above it — `Send`.

use crate::index::{PhtIndex, INDEX_BITS};
use crate::pattern::SpatialPattern;
use crate::pht::{PatternLookup, PatternStorage};
use pv_core::{PvConfig, PvEntry, PvFront, PvStorageBudget, SharedPvProxy};
use pv_mem::{Address, MemoryHierarchy};

/// One packed PHT entry as the virtualized table stores it: the tag bits of
/// the 21-bit PHT index above the 10 set bits, and the spatial pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmsEntry {
    /// Tag bits of the PHT index (11 bits for the 1K-set table).
    pub tag: u16,
    /// The stored spatial pattern.
    pub pattern: SpatialPattern,
}

impl SmsEntry {
    /// Creates an entry.
    pub fn new(tag: u16, pattern: SpatialPattern) -> Self {
        SmsEntry { tag, pattern }
    }
}

impl PvEntry for SmsEntry {
    // 21-bit index minus 10 set bits for the 1K-set virtualized table.
    const TAG_BITS: u32 = INDEX_BITS - 10;
    // One bit per block of a 32-block spatial region.
    const PAYLOAD_BITS: u32 = 32;

    fn tag(&self) -> u64 {
        u64::from(self.tag)
    }

    fn payload(&self) -> u64 {
        // An empty pattern is never stored by the prefetcher, so the
        // pattern bits double as the substrate's invalid marker.
        u64::from(self.pattern.bits())
    }
}

/// The virtualized PHT backend for one core's SMS prefetcher: a thin
/// [`PatternStorage`] adapter over the generic [`PvFront`].
#[derive(Debug)]
pub struct VirtualizedPht {
    front: PvFront<SmsEntry>,
}

impl VirtualizedPht {
    /// Creates the virtualized PHT for `core` on a PVProxy of its own, with
    /// its PVTable based at `pv_start` (normally
    /// `HierarchyConfig::pv_regions.core_base(core)`).
    ///
    /// # Panics
    ///
    /// Panics if the configured number of table sets leaves more index tag
    /// bits than the packed entry stores.
    pub fn new(core: usize, config: PvConfig, pv_start: Address) -> Self {
        assert_tag_fits(&config);
        VirtualizedPht {
            front: PvFront::dedicated(core, config, pv_start, "SMS"),
        }
    }

    /// Registers the PHT, based at `pv_start` (normally a `PvRegionPlan`
    /// sub-region base), with a proxy that cohabiting predictors share; the
    /// caller keeps `shared` and lends it to every call. The PVCache
    /// capacity is the shared proxy's, not `config.pvcache_sets`.
    ///
    /// # Panics
    ///
    /// Same as [`Self::new`].
    pub fn cohabiting(shared: &mut SharedPvProxy, config: PvConfig, pv_start: Address) -> Self {
        assert_tag_fits(&config);
        VirtualizedPht {
            front: PvFront::cohabiting(shared, config, pv_start, "SMS"),
        }
    }

    /// The generic front underneath (PVTable, geometry, and — on a proxy of
    /// its own — that proxy and its statistics).
    pub fn front(&self) -> &PvFront<SmsEntry> {
        &self.front
    }

    /// The Section 4.6 storage budget of an SMS proxy with `config`.
    pub fn storage_budget(config: &PvConfig) -> PvStorageBudget {
        PvStorageBudget::for_entry::<SmsEntry>(config)
    }
}

fn assert_tag_fits(config: &PvConfig) {
    assert!(
        PhtIndex::tag_bits(config.table_sets) <= SmsEntry::TAG_BITS,
        "a {}-set PVTable needs {} tag bits but SmsEntry stores {}",
        config.table_sets,
        PhtIndex::tag_bits(config.table_sets),
        SmsEntry::TAG_BITS
    );
}

impl PatternStorage for VirtualizedPht {
    fn lookup(
        &mut self,
        index: PhtIndex,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) -> PatternLookup {
        let lookup = self.front.lookup(u64::from(index.raw()), mem, shared, now);
        PatternLookup {
            pattern: lookup.entry.map(|e| e.pattern),
            ready_at: lookup.ready_at,
        }
    }

    fn store(
        &mut self,
        index: PhtIndex,
        pattern: SpatialPattern,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) {
        let raw = u64::from(index.raw());
        let entry = SmsEntry::new(self.front.tag_of(raw) as u16, pattern);
        self.front.store(raw, entry, mem, shared, now);
    }

    fn label(&self) -> String {
        self.front.label()
    }

    fn dedicated_storage_bytes(&self) -> u64 {
        self.front.storage_budget().total_bytes()
    }

    fn resident_patterns(&self) -> usize {
        self.front.resident_entries()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn reset_stats(&mut self) {
        self.front.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::TriggerKey;
    use pv_core::PvStats;
    use pv_mem::{HierarchyConfig, PvRegionConfig};

    fn setup() -> (MemoryHierarchy, VirtualizedPht) {
        let config = HierarchyConfig::paper_baseline(4);
        let mem = MemoryHierarchy::new(config);
        let pht = VirtualizedPht::new(0, PvConfig::pv8(), config.pv_regions.core_base(0));
        (mem, pht)
    }

    /// A PHT cohabiting a shared proxy in a 128 KB/core region.
    fn shared_setup() -> (MemoryHierarchy, SharedPvProxy, VirtualizedPht) {
        let mut config = HierarchyConfig::paper_baseline(4);
        config.pv_regions = PvRegionConfig::with_bytes_per_core(4, 128 * 1024);
        let mem = MemoryHierarchy::new(config);
        let mut shared = SharedPvProxy::new(0, PvConfig::pv8());
        let pht = VirtualizedPht::cohabiting(
            &mut shared,
            PvConfig::pv8(),
            config.pv_regions.core_base(0),
        );
        (mem, shared, pht)
    }

    fn index_for(pc: u64, offset: u32) -> PhtIndex {
        TriggerKey::new(pc, offset).index()
    }

    fn stats(pht: &VirtualizedPht) -> PvStats {
        *pht.front().stats().expect("a dedicated PHT owns its proxy")
    }

    #[test]
    fn entry_widths_reproduce_the_papers_figure_3a_layout() {
        let (_, pht) = setup();
        let layout = *pht.front().layout();
        assert_eq!(SmsEntry::TAG_BITS, 11);
        assert_eq!(SmsEntry::entry_bits(), 43);
        assert_eq!(
            layout.entries_per_block(),
            11,
            "11 x 43-bit entries per 64-byte block"
        );
        assert_eq!(layout.unused_trailing_bits(), 39);
    }

    #[test]
    fn storage_budget_matches_paper_total() {
        let (_, pht) = setup();
        assert_eq!(pht.dedicated_storage_bytes(), 889);
        assert_eq!(
            VirtualizedPht::storage_budget(&PvConfig::pv8()).total_bytes(),
            889
        );
        assert_eq!(PatternStorage::label(&pht), "PV-8");
    }

    #[test]
    fn cold_lookup_misses_and_costs_memory_latency() {
        let (mut mem, mut pht) = setup();
        let lookup = pht.lookup(index_for(0x4000, 3), &mut mem, None, 0);
        assert!(lookup.pattern.is_none());
        assert!(
            lookup.ready_at >= 400,
            "cold PVTable set must come from DRAM"
        );
        assert_eq!(stats(&pht).pvcache_misses, 1);
        assert_eq!(stats(&pht).memory_requests, 1);
    }

    #[test]
    fn store_then_lookup_round_trips_the_pattern() {
        let (mut mem, mut pht) = setup();
        let index = index_for(0x4000, 3);
        let pattern = SpatialPattern::from_offsets([3, 4, 9]);
        pht.store(index, pattern, &mut mem, None, 0);
        let lookup = pht.lookup(index, &mut mem, None, 1_000);
        assert_eq!(lookup.pattern, Some(pattern));
        assert_eq!(stats(&pht).pvcache_hits, 1);
    }

    #[test]
    fn evicted_dirty_sets_survive_in_memory() {
        let (mut mem, mut pht) = setup();
        let pattern = SpatialPattern::from_offsets([1, 2]);
        // Store patterns into more distinct sets than the PVCache holds so
        // the first one is evicted (dirty) and written back.
        let capacity = pht.front().config().pvcache_sets;
        for i in 0..(capacity + 4) as u64 {
            // Consecutive instruction words map to different PVTable sets
            // (the set index is the low bits of PC-bits concatenated with
            // the offset, so a PC step of 4 moves the set by 32).
            let index = index_for(0x4000 + i * 4, 1);
            pht.store(index, pattern, &mut mem, None, i * 1000);
        }
        assert!(stats(&pht).dirty_writebacks >= 1);
        // The first index's pattern must still be retrievable: its set comes
        // back from the memory hierarchy.
        let lookup = pht.lookup(index_for(0x4000, 1), &mut mem, None, 1_000_000);
        assert_eq!(
            lookup.pattern,
            Some(pattern),
            "dirty write-back must preserve the pattern"
        );
    }

    #[test]
    fn merged_lookups_wait_for_the_inflight_fill() {
        let (mut mem, mut pht) = setup();
        let index = index_for(0x4000, 1);
        let first = pht.lookup(index, &mut mem, None, 0);
        // Same set requested again one cycle later: the fetch is merged (no
        // second memory request) and the early hit reports the in-flight
        // fill's completion time rather than pretending the data arrived.
        let second = pht.lookup(index, &mut mem, None, 1);
        assert_eq!(stats(&pht).memory_requests, 1);
        assert_eq!(second.ready_at, first.ready_at);
        assert_eq!(stats(&pht).pending_hits, 1);
    }

    #[test]
    #[should_panic(expected = "tag bits")]
    fn too_few_entry_tag_bits_panic() {
        let config = HierarchyConfig::paper_baseline(1);
        let mut pv = PvConfig::pv8();
        pv.table_sets = 256; // 13 tag bits needed, SmsEntry stores 11.
        VirtualizedPht::new(0, pv, config.pv_regions.core_base(0));
    }

    #[test]
    fn store_then_lookup_round_trips_through_the_shared_proxy() {
        let (mut mem, mut shared, mut pht) = shared_setup();
        let index = index_for(0x4000, 3);
        let pattern = SpatialPattern::from_offsets([3, 4, 9]);
        pht.store(index, pattern, &mut mem, Some(&mut shared), 0);
        let lookup = pht.lookup(index, &mut mem, Some(&mut shared), 1_000);
        assert_eq!(lookup.pattern, Some(pattern));
        assert_eq!(shared.table_stats(0).stores, 1);
        assert_eq!(shared.table_stats(0).pvcache_hits, 1);
    }

    #[test]
    fn cold_lookup_pays_memory_latency_and_issues_predictor_traffic() {
        let (mut mem, mut shared, mut pht) = shared_setup();
        let lookup = pht.lookup(index_for(0x4000, 3), &mut mem, Some(&mut shared), 0);
        assert!(lookup.pattern.is_none());
        assert!(lookup.ready_at >= 400, "cold set must come from DRAM");
        assert_eq!(mem.stats().l2_requests.predictor, 1);
    }

    #[test]
    fn evicted_dirty_sets_survive_via_write_through() {
        let (mut mem, mut shared, mut pht) = shared_setup();
        let pattern = SpatialPattern::from_offsets([1, 2]);
        let capacity = shared.cache().capacity();
        for i in 0..(capacity + 4) as u64 {
            pht.store(
                index_for(0x4000 + i * 4, 1),
                pattern,
                &mut mem,
                Some(&mut shared),
                i * 1000,
            );
        }
        assert!(shared.table_stats(0).dirty_writebacks >= 1);
        let lookup = pht.lookup(index_for(0x4000, 1), &mut mem, Some(&mut shared), 1_000_000);
        assert_eq!(lookup.pattern, Some(pattern));
    }

    #[test]
    fn labels_and_budget_name_the_shared_cache() {
        let (_, _, pht) = shared_setup();
        assert_eq!(PatternStorage::label(&pht), "shPV-8");
        // Same pooled budget as a PV-8 proxy of its own at SMS widths.
        assert_eq!(pht.dedicated_storage_bytes(), 889);
        // The proxy's owner keeps the statistics.
        assert!(pht.front().stats().is_none());
    }

    #[test]
    fn the_adapter_is_send() {
        fn assert_send<T: Send>(_: &T) {}
        let (_, _, shared_pht) = shared_setup();
        let (_, pht) = setup();
        assert_send(&shared_pht);
        assert_send(&pht);
    }
}
