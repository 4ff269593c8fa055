//! Next-address-table storage backends: dedicated on-chip and virtualized.
//!
//! Mirrors the structure of `pv_sms::pht`: the engine talks to its table
//! through [`NextAddrStorage`], so the same engine runs unmodified over a
//! conventional on-chip table or over the `pv-core` substrate.

use crate::entry::{MarkovConfig, MarkovEntry, MarkovIndex};
use pv_core::{PvConfig, PvEntry, PvFront, PvStorageBudget, SharedPvProxy};
use pv_mem::{Address, MemoryHierarchy, SetAssociative};

/// Result of a next-address lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextAddrLookup {
    /// The predicted block delta, or `None` on a predictor miss.
    pub delta: Option<i64>,
    /// Cycle at which the prediction is available to the prefetch engine.
    pub ready_at: u64,
}

/// Storage backend for the next-address table.
///
/// As with `pv_sms::PatternStorage`, backends registered with a per-core
/// [`SharedPvProxy`] receive the proxy by `&mut` reference (`shared`) on
/// every call; self-contained backends ignore it. `Send` is a supertrait so
/// a boxed storage can cross threads with the `System` that owns it.
pub trait NextAddrStorage: std::fmt::Debug + Send {
    /// Looks up the delta stored for `index`.
    fn lookup(
        &mut self,
        index: MarkovIndex,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) -> NextAddrLookup;

    /// Stores `delta` for `index`, replacing any previous delta. Deltas that
    /// cannot be encoded (zero or out of range) are ignored.
    fn store(
        &mut self,
        index: MarkovIndex,
        delta: i64,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    );

    /// Human-readable label used in experiment reports.
    fn label(&self) -> String;

    /// Dedicated on-chip storage in bytes required by this backend.
    fn dedicated_storage_bytes(&self) -> u64;

    /// Number of deltas currently retained (diagnostic).
    fn resident_entries(&self) -> usize;

    /// Access to the concrete backend type for backend-specific statistics.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Resets backend statistics (learned state is preserved).
    fn reset_stats(&mut self) {}
}

/// A conventional dedicated on-chip next-address table: set-associative,
/// LRU.
#[derive(Debug)]
pub struct DedicatedMarkov {
    config: MarkovConfig,
    table: SetAssociative<i64>,
}

impl DedicatedMarkov {
    /// Creates a dedicated table.
    pub fn new(config: MarkovConfig) -> Self {
        config.assert_valid();
        DedicatedMarkov {
            table: SetAssociative::new(config.table_sets, config.dedicated_ways),
            config,
        }
    }
}

impl NextAddrStorage for DedicatedMarkov {
    fn lookup(
        &mut self,
        index: MarkovIndex,
        _mem: &mut MemoryHierarchy,
        _shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) -> NextAddrLookup {
        let set = index.set_index(self.config.table_sets);
        let tag = u64::from(index.tag(self.config.table_sets));
        NextAddrLookup {
            delta: self.table.get(set, tag).copied(),
            ready_at: now + self.config.dedicated_lookup_latency,
        }
    }

    fn store(
        &mut self,
        index: MarkovIndex,
        delta: i64,
        _mem: &mut MemoryHierarchy,
        _shared: Option<&mut SharedPvProxy>,
        _now: u64,
    ) {
        if delta == 0 || delta.abs() > MarkovEntry::max_delta() {
            return;
        }
        let set = index.set_index(self.config.table_sets);
        let tag = u64::from(index.tag(self.config.table_sets));
        let _ = self.table.insert(set, tag, delta);
    }

    fn label(&self) -> String {
        format!("Markov-{}K", self.config.table_sets / 1024)
    }

    fn dedicated_storage_bytes(&self) -> u64 {
        self.config.dedicated_storage_bytes()
    }

    fn resident_entries(&self) -> usize {
        self.table.len()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The virtualized next-address table: the same generic [`PvFront`] the
/// SMS backend uses, instantiated at `MarkovEntry`'s 40-bit geometry, on a
/// PVProxy of its own ([`Self::new`]) or cohabiting one with other
/// predictors ([`Self::cohabiting`]).
#[derive(Debug)]
pub struct VirtualizedMarkov {
    front: PvFront<MarkovEntry>,
}

impl VirtualizedMarkov {
    /// Creates the virtualized table for `core` on a PVProxy of its own,
    /// with its PVTable based at `pv_start`.
    ///
    /// # Panics
    ///
    /// Panics if the configured number of table sets leaves more index tag
    /// bits than the packed entry stores (mirrors `VirtualizedPht::new`).
    pub fn new(core: usize, config: PvConfig, pv_start: Address) -> Self {
        assert_tag_fits(&config);
        VirtualizedMarkov {
            front: PvFront::dedicated(core, config, pv_start, "Markov"),
        }
    }

    /// Registers the table, based at `pv_start` (normally a `PvRegionPlan`
    /// sub-region base), with a proxy that cohabiting predictors share; the
    /// caller keeps `shared` and lends it to every call.
    ///
    /// # Panics
    ///
    /// Same as [`Self::new`].
    pub fn cohabiting(shared: &mut SharedPvProxy, config: PvConfig, pv_start: Address) -> Self {
        assert_tag_fits(&config);
        VirtualizedMarkov {
            front: PvFront::cohabiting(shared, config, pv_start, "Markov"),
        }
    }

    /// The generic front underneath (PVTable, geometry, and — on a proxy of
    /// its own — that proxy and its statistics).
    pub fn front(&self) -> &PvFront<MarkovEntry> {
        &self.front
    }

    /// The Section 4.6-style storage budget of a Markov proxy with
    /// `config`.
    pub fn storage_budget(config: &PvConfig) -> PvStorageBudget {
        PvStorageBudget::for_entry::<MarkovEntry>(config)
    }
}

fn assert_tag_fits(config: &PvConfig) {
    let index_tag_bits = crate::entry::INDEX_BITS - config.table_sets.trailing_zeros();
    assert!(
        index_tag_bits <= MarkovEntry::TAG_BITS,
        "a {}-set PVTable needs {} tag bits but MarkovEntry stores {}",
        config.table_sets,
        index_tag_bits,
        MarkovEntry::TAG_BITS
    );
}

impl NextAddrStorage for VirtualizedMarkov {
    fn lookup(
        &mut self,
        index: MarkovIndex,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) -> NextAddrLookup {
        let lookup = self.front.lookup(u64::from(index.raw()), mem, shared, now);
        NextAddrLookup {
            delta: lookup.entry.map(|e| e.delta()),
            ready_at: lookup.ready_at,
        }
    }

    fn store(
        &mut self,
        index: MarkovIndex,
        delta: i64,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) {
        let raw = u64::from(index.raw());
        let Some(entry) = MarkovEntry::new(self.front.tag_of(raw) as u16, delta) else {
            return;
        };
        self.front.store(raw, entry, mem, shared, now);
    }

    fn label(&self) -> String {
        format!("Markov-{}", self.front.label())
    }

    fn dedicated_storage_bytes(&self) -> u64 {
        self.front.storage_budget().total_bytes()
    }

    fn resident_entries(&self) -> usize {
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
    use pv_mem::{HierarchyConfig, PvRegionConfig};

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::paper_baseline(4))
    }

    #[test]
    fn dedicated_table_stores_and_retrieves_deltas() {
        let mut table = DedicatedMarkov::new(MarkovConfig::paper_1k());
        let mut mem = mem();
        let index = MarkovIndex::from_pc(0x4000);
        assert!(table.lookup(index, &mut mem, None, 0).delta.is_none());
        table.store(index, -7, &mut mem, None, 0);
        assert_eq!(table.lookup(index, &mut mem, None, 10).delta, Some(-7));
        assert_eq!(table.resident_entries(), 1);
        assert_eq!(table.label(), "Markov-1K");
    }

    #[test]
    fn virtualized_table_round_trips_through_the_proxy() {
        let config = HierarchyConfig::paper_baseline(4);
        let mut mem = MemoryHierarchy::new(config);
        let mut table = VirtualizedMarkov::new(0, PvConfig::pv8(), config.pv_regions.core_base(0));
        let index = MarkovIndex::from_pc(0x4000);
        table.store(index, 3, &mut mem, None, 0);
        assert_eq!(table.lookup(index, &mut mem, None, 100).delta, Some(3));
        assert_eq!(
            table.front().stats().expect("a dedicated table owns its proxy").stores,
            1
        );
        assert!(
            mem.stats().l2_requests.predictor > 0,
            "table traffic flows through the L2"
        );
        assert_eq!(table.label(), "Markov-PV-8");
    }

    #[test]
    fn markov_budget_differs_from_sms_because_widths_differ() {
        let budget = VirtualizedMarkov::storage_budget(&PvConfig::pv8());
        // 8 sets x 12 entries x 40 bits = 480 bytes of PVCache data
        // (vs the SMS instance's 473), same fixed proxy overheads.
        assert_eq!(budget.pvcache_data_bytes, 480);
        assert_eq!(budget.total_bytes(), 896);
    }

    #[test]
    fn unencodable_deltas_are_dropped_not_stored() {
        let config = HierarchyConfig::paper_baseline(4);
        let mut mem = MemoryHierarchy::new(config);
        let mut table = VirtualizedMarkov::new(0, PvConfig::pv8(), config.pv_regions.core_base(0));
        let index = MarkovIndex::from_pc(0x4000);
        table.store(index, 0, &mut mem, None, 0);
        table.store(index, MarkovEntry::max_delta() + 1, &mut mem, None, 0);
        assert_eq!(
            table.front().stats().expect("a dedicated table owns its proxy").stores,
            0
        );
        assert!(table.lookup(index, &mut mem, None, 10).delta.is_none());
    }

    /// A 128 KB/core region with room for two cohabiting tables.
    fn shared_setup() -> (MemoryHierarchy, SharedPvProxy, Address) {
        let mut config = HierarchyConfig::paper_baseline(4);
        config.pv_regions = PvRegionConfig::with_bytes_per_core(4, 128 * 1024);
        (
            MemoryHierarchy::new(config),
            SharedPvProxy::new(0, PvConfig::pv8()),
            config.pv_regions.core_base(0),
        )
    }

    #[test]
    fn markov_round_trips_through_a_shared_proxy() {
        let (mut mem, mut shared, base) = shared_setup();
        let mut table = VirtualizedMarkov::cohabiting(&mut shared, PvConfig::pv8(), base);
        let index = MarkovIndex::from_pc(0x4000);
        table.store(index, -7, &mut mem, Some(&mut shared), 0);
        assert_eq!(
            table.lookup(index, &mut mem, Some(&mut shared), 1_000).delta,
            Some(-7)
        );
        assert_eq!(shared.table_stats(0).stores, 1);
        assert!(
            table.front().stats().is_none(),
            "the proxy's owner keeps the statistics"
        );
        assert!(mem.stats().l2_requests.predictor > 0);
        assert_eq!(NextAddrStorage::label(&table), "Markov-shPV-8");
    }

    #[test]
    fn two_tables_cohabit_one_proxy_with_separate_stats() {
        // Two Markov tables in one region (the SMS+Markov pairing lives in
        // the cross-crate integration tests): per-table ids and stats must
        // stay separate while the cache is shared.
        let (mut mem, mut shared, base) = shared_setup();
        let mut first = VirtualizedMarkov::cohabiting(&mut shared, PvConfig::pv8(), base);
        let second_base = Address::new(base.raw() + 64 * 1024);
        let mut second = VirtualizedMarkov::cohabiting(&mut shared, PvConfig::pv8(), second_base);
        assert_eq!(first.front().table_id(), 0);
        assert_eq!(second.front().table_id(), 1);

        let (a, b) = (MarkovIndex::from_pc(0x4000), MarkovIndex::from_pc(0x8000));
        first.store(a, -2, &mut mem, Some(&mut shared), 0);
        second.store(b, 3, &mut mem, Some(&mut shared), 10);

        assert_eq!(shared.tables(), 2);
        assert_eq!(shared.table_stats(0).stores, 1);
        assert_eq!(shared.table_stats(1).stores, 1);
        // Both tables occupy the one shared cache.
        assert_eq!(shared.cache().occupancy_of(0), 1);
        assert_eq!(shared.cache().occupancy_of(1), 1);

        // Both entries remain retrievable through their own adapters.
        assert_eq!(
            first.lookup(a, &mut mem, Some(&mut shared), 2_000).delta,
            Some(-2)
        );
        assert_eq!(
            second.lookup(b, &mut mem, Some(&mut shared), 2_000).delta,
            Some(3)
        );
    }

    #[test]
    fn the_adapter_is_send() {
        fn assert_send<T: Send>(_: &T) {}
        let (_, mut shared, base) = shared_setup();
        let table = VirtualizedMarkov::cohabiting(&mut shared, PvConfig::pv8(), base);
        assert_send(&table);
        assert_send(&shared);
    }
}
