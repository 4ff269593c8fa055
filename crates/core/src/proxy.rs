//! The typed front of the PVProxy: the retrieve/store interface an
//! optimization engine sees (paper Sections 2.2 and 3.2.2).
//!
//! A [`PvFront`] is one virtualized table as its predictor sees it: the
//! table's contents (one [`PvSet`] of `E` entries per table set), its id
//! within a [`SharedPvProxy`], and the geometry that splits a raw predictor
//! index into a set and a tag. Where a set lives in memory is the proxy's
//! business ([`SharedPvProxy::set_address`]). The proxy decides residency,
//! replacement, fills and dirty write-backs; the front then reads or
//! updates its own table write-through (the [`crate::shared`] module docs
//! give the contract).
//!
//! A front is arranged one of two ways:
//!
//! * **dedicated** ([`PvFront::dedicated`]) — it owns a one-table proxy,
//!   the paper's per-predictor PVProxy;
//! * **cohabiting** ([`PvFront::cohabiting`]) — it registers with a proxy
//!   owned elsewhere (by a composite of several predictors), which arrives
//!   by `&mut` through the `shared` parameter of every call.
//!
//! Every call picks its proxy as `own.or(shared)`: an owned proxy wins,
//! the same precedence the composite prefetcher applies.

use crate::config::PvConfig;
use crate::entry::{PvEntry, PvLayout};
use crate::shared::{SharedPvProxy, SharedStoreOutcome};
use crate::stats::PvStats;
use crate::storage::PvStorageBudget;
use crate::table::PvSet;
use pv_mem::{Address, MemoryHierarchy};

/// Result of a [`PvFront::lookup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PvLookup<E> {
    /// The stored entry, or `None` on a predictor miss.
    pub entry: Option<E>,
    /// Cycle at which the result is available to the engine (a virtualized
    /// lookup may have to fetch its table set from the L2 or from memory).
    pub ready_at: u64,
}

/// One virtualized predictor table of entries `E`, as its engine sees it.
#[derive(Debug)]
pub struct PvFront<E> {
    /// The table's id within its proxy.
    table_id: usize,
    /// The one-table proxy of a dedicated front; `None` when the front
    /// cohabits a proxy owned elsewhere.
    own: Option<SharedPvProxy>,
    /// PVCache sets of the proxy the table is registered with (fixed for
    /// the proxy's lifetime), so labels and budgets need no proxy access.
    pvcache_sets: usize,
    config: PvConfig,
    layout: PvLayout,
    /// The table's authoritative contents, one set per table set.
    sets: Vec<PvSet<E>>,
}

impl<E: PvEntry> PvFront<E> {
    /// A table on a one-table proxy of its own for `core`, based at
    /// `pv_start` (normally `HierarchyConfig::pv_regions.core_base(core)`).
    /// `label` names the table in the proxy's per-table statistics.
    pub fn dedicated(
        core: usize,
        config: PvConfig,
        pv_start: Address,
        label: &'static str,
    ) -> Self {
        let mut proxy = SharedPvProxy::new(core, config);
        let mut front = Self::cohabiting(&mut proxy, config, pv_start, label);
        front.own = Some(proxy);
        front
    }

    /// Registers a table based at `pv_start` (normally a `PvRegionPlan`
    /// sub-region base) with `proxy`, which the caller keeps and lends to
    /// every [`Self::lookup`] and [`Self::store`]. `config` describes this
    /// table's geometry; the PVCache capacity is the proxy's.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`PvConfig::assert_valid`].
    pub fn cohabiting(
        proxy: &mut SharedPvProxy,
        config: PvConfig,
        pv_start: Address,
        label: &'static str,
    ) -> Self {
        config.assert_valid();
        let table_id = proxy.add_table(pv_start, config.table_sets, config.block_bytes, label);
        let layout = PvLayout::of::<E>(config.block_bytes);
        PvFront {
            table_id,
            own: None,
            pvcache_sets: proxy.cache().capacity(),
            layout,
            sets: (0..config.table_sets).map(|_| PvSet::new(layout.entries_per_block())).collect(),
            config,
        }
    }

    /// This table's id within its proxy.
    pub fn table_id(&self) -> usize {
        self.table_id
    }

    /// The table's geometry and proxy resources.
    pub fn config(&self) -> &PvConfig {
        &self.config
    }

    /// The packed layout derived from `E`'s bit-widths.
    pub fn layout(&self) -> &PvLayout {
        &self.layout
    }

    /// The front's own proxy (dedicated arrangement only).
    pub fn proxy(&self) -> Option<&SharedPvProxy> {
        self.own.as_ref()
    }

    /// Statistics of the front's own proxy (dedicated arrangement only: a
    /// cohabiting table's statistics live with the proxy's owner).
    pub fn stats(&self) -> Option<&PvStats> {
        self.own.as_ref().map(|proxy| proxy.table_stats(self.table_id))
    }

    /// Resets the own proxy's statistics; learned state is preserved. A
    /// cohabiting front has nothing to reset — the proxy's owner resets
    /// its statistics once for all tables.
    pub fn reset_stats(&mut self) {
        if let Some(proxy) = &mut self.own {
            proxy.reset_stats();
        }
    }

    /// Splits a raw table index into (set index, tag): the low bits select
    /// the set, the remaining bits are the tag stored in the entry.
    pub fn split_index(&self, index: u64) -> (usize, u64) {
        (
            (index as usize) & (self.config.table_sets - 1),
            index >> self.config.table_sets.trailing_zeros(),
        )
    }

    /// The tag bits of `index` for this table's geometry.
    pub fn tag_of(&self, index: u64) -> u64 {
        self.split_index(index).1
    }

    /// Report label: `PV-<sets>` on a proxy of its own, `shPV-<sets>` when
    /// cohabiting one.
    pub fn label(&self) -> String {
        let prefix = if self.own.is_some() { "" } else { "sh" };
        format!("{prefix}PV-{}", self.pvcache_sets)
    }

    /// The Section 4.6 storage budget of the proxy at this table's entry
    /// widths. A cohabiting front reports the whole pooled proxy, not a
    /// per-table split.
    pub fn storage_budget(&self) -> PvStorageBudget {
        let sized = PvConfig {
            pvcache_sets: self.pvcache_sets,
            ..self.config
        };
        PvStorageBudget::new(&sized, &self.layout)
    }

    /// Number of entries the table holds (diagnostic).
    pub fn resident_entries(&self) -> usize {
        self.sets.iter().map(PvSet::len).sum()
    }

    /// Looks up the entry stored for `index`. `shared` is the proxy a
    /// cohabiting front registered with; a dedicated front ignores it.
    ///
    /// # Panics
    ///
    /// Panics if a cohabiting front is called without a proxy.
    pub fn lookup(
        &mut self,
        index: u64,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) -> PvLookup<E> {
        let (set_index, tag) = self.split_index(index);
        let access = pick(&mut self.own, shared).lookup_set(self.table_id, set_index, mem, now);
        // A dropped (pattern buffer full) or unbacked lookup loses the
        // prediction even if the entry exists: the set never came on chip.
        let entry = if access.resident {
            self.sets[set_index].lookup(tag).cloned()
        } else {
            None
        };
        PvLookup {
            entry,
            ready_at: access.ready_at,
        }
    }

    /// Stores `entry` for `index`, replacing any previous entry with its
    /// tag. `shared` is as for [`Self::lookup`].
    ///
    /// # Panics
    ///
    /// Panics if `entry.tag()` differs from the tag bits of `index`, if the
    /// entry does not fit the packed layout, if its payload is the invalid
    /// marker `0`, or if a cohabiting front is called without a proxy.
    pub fn store(
        &mut self,
        index: u64,
        entry: E,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) {
        let (set_index, tag) = self.split_index(index);
        // Geometry guards: an entry that disagrees with the index's tag bits,
        // that cannot pack into the derived layout or that uses the invalid
        // marker would leave the table modelling hardware that cannot exist
        // (the `PvEntry` width and invalid-marker rules).
        assert_eq!(
            entry.tag(),
            tag,
            "stored entry's tag must match the index's tag bits"
        );
        assert!(
            entry.tag() <= self.layout.max_tag(),
            "tag {:#x} exceeds the layout's {} tag bits",
            entry.tag(),
            self.layout.tag_bits
        );
        assert!(
            entry.payload() != 0,
            "payload 0 is the invalid marker and cannot be stored"
        );
        assert!(
            entry.payload() <= self.layout.max_payload(),
            "payload {:#x} exceeds the layout's {} payload bits",
            entry.payload(),
            self.layout.payload_bits
        );
        // Write-through only when the proxy accepted the store: an unbacked
        // set has no memory behind it, so the entry must not survive in the
        // table either.
        if pick(&mut self.own, shared).store_set(self.table_id, set_index, mem, now)
            == SharedStoreOutcome::Accepted
        {
            self.sets[set_index].insert(entry);
        }
    }
}

/// The proxy a call goes through: the front's own, else the one the caller
/// lends.
fn pick<'a>(
    own: &'a mut Option<SharedPvProxy>,
    shared: Option<&'a mut SharedPvProxy>,
) -> &'a mut SharedPvProxy {
    own.as_mut()
        .or(shared)
        .expect("a cohabiting PV table needs the proxy it registered with")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{NarrowEntry, RawEntry};
    use pv_mem::{AccessKind, DataClass, HierarchyConfig, HitLevel, Requester};

    /// An SMS-shaped index: low 10 bits select the set of a 1K-set table,
    /// the remaining bits are the tag.
    fn index_for(set: u64, tag: u64) -> u64 {
        (tag << 10) | (set & 0x3FF)
    }

    fn entry_for(front: &PvFront<RawEntry>, index: u64, payload: u64) -> RawEntry {
        RawEntry::new(front.tag_of(index), payload)
    }

    fn setup() -> (MemoryHierarchy, PvFront<RawEntry>) {
        let config = HierarchyConfig::paper_baseline(4);
        let mem = MemoryHierarchy::new(config);
        let front = PvFront::dedicated(0, PvConfig::pv8(), config.pv_regions.core_base(0), "raw");
        (mem, front)
    }

    fn stats(front: &PvFront<RawEntry>) -> PvStats {
        *front.stats().expect("a dedicated front owns its proxy")
    }

    /// Looks up one new set per PVCache line after `set`, pushing `set`
    /// out of the PVCache; returns the cycle after the last lookup.
    fn flush(front: &mut PvFront<RawEntry>, mem: &mut MemoryHierarchy, set: u64, now: u64) -> u64 {
        let lines = front.config().pvcache_sets as u64;
        for other in 1..=lines {
            front.lookup(index_for(set + other, 9), mem, None, now + other * 1_000);
        }
        now + (lines + 1) * 1_000
    }

    #[test]
    fn cold_lookup_misses_and_costs_memory_latency() {
        let (mut mem, mut front) = setup();
        let lookup = front.lookup(index_for(3, 0x20), &mut mem, None, 0);
        assert!(lookup.entry.is_none());
        assert!(
            lookup.ready_at >= 400,
            "cold PVTable set must come from DRAM"
        );
        assert_eq!(stats(&front).pvcache_misses, 1);
        assert_eq!(stats(&front).memory_requests, 1);
    }

    #[test]
    fn store_then_lookup_hits_in_pvcache() {
        let (mut mem, mut front) = setup();
        let index = index_for(3, 0x20);
        let entry = entry_for(&front, index, 0x1234);
        front.store(index, entry, &mut mem, None, 0);
        let lookup = front.lookup(index, &mut mem, None, 1_000);
        assert_eq!(lookup.entry, Some(entry));
        assert_eq!(lookup.ready_at, 1_000 + front.config().pvcache_latency);
        assert_eq!(stats(&front).pvcache_hits, 1);
    }

    #[test]
    fn pvcache_misses_generate_predictor_classified_l2_requests() {
        let (mut mem, mut front) = setup();
        front.lookup(index_for(3, 0x20), &mut mem, None, 0);
        let stats = mem.stats();
        assert_eq!(stats.l2_requests.predictor, 1);
        assert_eq!(stats.l2_requests.application, 0);
    }

    #[test]
    fn evicted_dirty_sets_survive_in_memory() {
        let (mut mem, mut front) = setup();
        // Store entries into more distinct sets than the PVCache holds so
        // the first one is evicted (dirty) and written back.
        let capacity = front.config().pvcache_sets;
        for i in 0..(capacity + 4) as u64 {
            let index = index_for(i, 5);
            let entry = entry_for(&front, index, 0xBEEF);
            front.store(index, entry, &mut mem, None, i * 1000);
        }
        assert!(stats(&front).dirty_writebacks >= 1);
        // The first index's entry must still be retrievable: its set comes
        // back from the memory hierarchy.
        let index = index_for(0, 5);
        let lookup = front.lookup(index, &mut mem, None, 1_000_000);
        assert_eq!(
            lookup.entry,
            Some(entry_for(&front, index, 0xBEEF)),
            "dirty write-back must preserve the entry"
        );
    }

    #[test]
    fn hot_sets_are_served_from_l2_after_first_touch() {
        let (mut mem, mut front) = setup();
        let index = index_for(100, 7);
        // First touch goes to DRAM; then the set is pushed out of the
        // PVCache by touching as many other sets.
        front.lookup(index, &mut mem, None, 0);
        flush(&mut front, &mut mem, 100, 1_000);
        // The set is gone from the PVCache but still resident in the L2, so
        // re-fetching it is cheap (no DRAM access).
        let dram_before = mem.stats().dram_reads;
        let lookup = front.lookup(index, &mut mem, None, 1_000_000);
        assert!(
            lookup.ready_at - 1_000_000 < 100,
            "refetch should be an L2 hit"
        );
        assert_eq!(mem.stats().dram_reads, dram_before);
        assert_eq!(
            stats(&front).memory_requests,
            2 + front.config().pvcache_sets as u64
        );
    }

    #[test]
    fn merged_requests_share_the_fill_and_its_completion_time() {
        let (mut mem, mut front) = setup();
        let index = index_for(3, 0x11);
        let first = front.lookup(index, &mut mem, None, 0);
        assert!(first.ready_at >= 400, "cold fetch comes from DRAM");
        // Same set requested again before the first fetch completes: the
        // PVCache already has the set installed, so no second memory request
        // is issued — but the data is not available before the in-flight
        // fill completes, so the early hit reports the fill's ready time.
        let second = front.lookup(index, &mut mem, None, 1);
        assert_eq!(stats(&front).memory_requests, 1);
        assert_eq!(
            second.ready_at, first.ready_at,
            "an early hit must wait for the in-flight fill"
        );
        assert_eq!(stats(&front).pending_hits, 1);
        // Once the fill has completed, hits are PVCache-fast again.
        let later = front.lookup(index, &mut mem, None, first.ready_at + 10);
        assert_eq!(
            later.ready_at,
            first.ready_at + 10 + front.config().pvcache_latency
        );
    }

    #[test]
    fn lookup_after_l2_residency_is_l2_hit_level() {
        let (mut mem, mut front) = setup();
        let index = index_for(700, 0x15);
        let entry = entry_for(&front, index, 0x77);
        front.store(index, entry, &mut mem, None, 0);
        front
            .own
            .as_mut()
            .expect("a dedicated front owns its proxy")
            .drain(&mut mem, 10);
        // After draining, the set's block lives in the L2.
        let (set_index, _) = front.split_index(index);
        let address = front.proxy().unwrap().set_address(front.table_id(), set_index);
        assert!(mem.l2_contains(address.block()));
        let response = mem.access(
            Requester::pv_proxy(0),
            address.raw(),
            AccessKind::Read,
            DataClass::Predictor,
            100,
        );
        assert_eq!(response.level, HitLevel::L2);
    }

    #[test]
    fn label_names_the_pvcache_size() {
        let (_, front) = setup();
        assert_eq!(front.label(), "PV-8");
        // RawEntry is wide (128 bits), so the budget differs from the SMS
        // instance's 889 bytes; the exact SMS figure is pinned in pv-sms.
        assert!(front.storage_budget().total_bytes() > 0);
    }

    #[test]
    fn per_core_tables_use_disjoint_address_ranges() {
        let config = HierarchyConfig::paper_baseline(4);
        let front0: PvFront<RawEntry> =
            PvFront::dedicated(0, PvConfig::pv8(), config.pv_regions.core_base(0), "raw");
        let front1: PvFront<RawEntry> =
            PvFront::dedicated(1, PvConfig::pv8(), config.pv_regions.core_base(1), "raw");
        let last0 = front0.proxy().unwrap().set_address(0, 1023).raw() + 63;
        let first1 = front1.proxy().unwrap().set_address(0, 0).raw();
        assert!(last0 < first1);
    }

    /// The PVCache is metadata-only, so an in-set recency promotion made by
    /// a lookup lands in the table itself and survives the set's clean
    /// eviction (a proxy caching a copy of the set would drop it).
    #[test]
    fn promotions_survive_a_clean_eviction() {
        let (mut mem, mut front) = setup();
        let set = 42;
        // Fill the set's four ways (tag 1 ends up least recently used) and
        // flush it out dirty, so its contents are in memory.
        for tag in 1..=4 {
            let index = index_for(set, tag);
            front.store(
                index,
                entry_for(&front, index, tag),
                &mut mem,
                None,
                tag * 1_000,
            );
        }
        let now = flush(&mut front, &mut mem, set, 10_000);
        assert_eq!(stats(&front).dirty_writebacks, 1);
        // Fetch the set again, clean, and promote tag 1 with a lookup...
        assert!(front.lookup(index_for(set, 1), &mut mem, None, now).entry.is_some());
        // ...then evict it clean: no write-back carries the promotion.
        let now = flush(&mut front, &mut mem, set, now + 1_000);
        assert_eq!(
            stats(&front).dirty_writebacks,
            1,
            "the second eviction is clean"
        );
        // A fifth tag evicts the set's least recently used entry: tag 2,
        // because tag 1's promotion is still there.
        let index = index_for(set, 5);
        front.store(index, entry_for(&front, index, 5), &mut mem, None, now);
        assert!(front.lookup(index_for(set, 1), &mut mem, None, now + 1_000).entry.is_some());
        assert!(front.lookup(index_for(set, 2), &mut mem, None, now + 2_000).entry.is_none());
    }

    #[test]
    fn cohabiting_fronts_go_through_the_lent_proxy() {
        let config = HierarchyConfig::paper_baseline(4).with_pv_bytes_per_core(128 * 1024);
        let mut mem = MemoryHierarchy::new(config);
        let mut proxy = SharedPvProxy::new(0, PvConfig::pv8());
        let base = config.pv_regions.core_base(0);
        let mut a: PvFront<RawEntry> = PvFront::cohabiting(&mut proxy, PvConfig::pv8(), base, "A");
        let b_base = Address::new(base.raw() + 64 * 1024);
        let mut b: PvFront<RawEntry> =
            PvFront::cohabiting(&mut proxy, PvConfig::pv8(), b_base, "B");
        assert_eq!((a.table_id(), b.table_id()), (0, 1));
        let index = index_for(3, 1);
        let entry = entry_for(&a, index, 7);
        a.store(index, entry, &mut mem, Some(&mut proxy), 0);
        assert!(
            b.lookup(index, &mut mem, Some(&mut proxy), 1_000).entry.is_none(),
            "the tables do not alias"
        );
        assert_eq!(
            a.lookup(index, &mut mem, Some(&mut proxy), 2_000).entry,
            Some(entry)
        );
        assert_eq!(proxy.table_stats(0).stores, 1);
        assert_eq!(proxy.table_stats(1).lookups, 1);
        assert!(a.stats().is_none() && a.proxy().is_none());
        assert_eq!(a.label(), "shPV-8");
    }

    /// Stores `entry` at `index` in a dedicated PV-8 front of narrow
    /// entries.
    fn store_narrow(index: u64, entry: NarrowEntry) {
        let config = HierarchyConfig::paper_baseline(4);
        let mut mem = MemoryHierarchy::new(config);
        let mut front: PvFront<NarrowEntry> =
            PvFront::dedicated(0, PvConfig::pv8(), config.pv_regions.core_base(0), "narrow");
        front.store(index, entry, &mut mem, None, 0);
    }

    #[test]
    fn an_entry_that_fits_is_stored() {
        let entry = NarrowEntry {
            tag: 0x7FF,
            payload: u64::from(u32::MAX),
        };
        store_narrow(index_for(3, 0x7FF), entry);
    }

    #[test]
    #[should_panic(expected = "must match the index's tag bits")]
    fn a_tag_other_than_the_index_tag_is_rejected() {
        store_narrow(index_for(3, 5), NarrowEntry { tag: 6, payload: 1 });
    }

    #[test]
    #[should_panic(expected = "exceeds the layout's 11 tag bits")]
    fn a_tag_wider_than_the_tag_bits_is_rejected() {
        // Tag 0x800 is the index's tag but needs 12 bits.
        store_narrow(
            index_for(3, 0x800),
            NarrowEntry {
                tag: 0x800,
                payload: 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "payload 0 is the invalid marker")]
    fn a_zero_payload_is_rejected() {
        store_narrow(index_for(3, 5), NarrowEntry { tag: 5, payload: 0 });
    }

    #[test]
    #[should_panic(expected = "exceeds the layout's 32 payload bits")]
    fn a_payload_wider_than_the_payload_bits_is_rejected() {
        store_narrow(
            index_for(3, 5),
            NarrowEntry {
                tag: 5,
                payload: 1 << 32,
            },
        );
    }

    #[test]
    #[should_panic(expected = "needs the proxy it registered with")]
    fn a_cohabiting_front_needs_its_proxy() {
        let config = HierarchyConfig::paper_baseline(4);
        let mut mem = MemoryHierarchy::new(config);
        let mut proxy = SharedPvProxy::new(0, PvConfig::pv8());
        let mut front: PvFront<RawEntry> = PvFront::cohabiting(
            &mut proxy,
            PvConfig::pv8(),
            config.pv_regions.core_base(0),
            "raw",
        );
        front.lookup(0, &mut mem, None, 0);
    }
}
