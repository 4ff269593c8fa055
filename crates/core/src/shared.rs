//! The PVProxy: one core's on-chip agent between its virtualized tables and
//! the memory hierarchy (paper Section 2.2).
//!
//! [`SharedPvProxy`] is the only proxy. It owns one PVCache
//! ([`SharedPvCache`], whose entries are tagged with a **table id** as well
//! as a set index), one MSHR and one pattern buffer, and funnels every
//! registered table's fills and write-backs through a single
//! `Requester::pv_proxy(core)` stream, keeping statistics per table. Dirty
//! write-backs go straight to the L2: the evict buffer that would stage
//! them is counted in the storage budget but not modelled. The one proxy
//! serves both configurations:
//!
//! * a **dedicated** virtualized table is a proxy with one table registered
//!   (the paper's per-predictor PVProxy);
//! * **cohabiting** predictors (SMS, Markov, any future [`crate::PvEntry`]
//!   backend) register several tables with one proxy, so their sets
//!   arbitrate for the same PVCache lines under one LRU order and their
//!   traffic competes for the same L2 ports, MSHR slots and DRAM bandwidth.
//!
//! # Contents are write-through
//!
//! The PVCache tracks *residency and timing only* (which (table, set) is
//! cached, dirty bit, fill completion time). The authoritative entry values
//! live in each table's typed front ([`crate::PvFront`]), which updates
//! them write-through. Because each table has
//! exactly one owner, this behaves like fetching a copy of the set on a miss
//! and writing the copy back when it is evicted dirty — except that in-set
//! recency promotions made by lookups survive a *clean* eviction: they were
//! made in the table itself, so there is no copy to discard. That is the
//! rule for every table, dedicated or cohabiting. Keeping the table current
//! makes the cache metadata-only: a fill copies nothing, and tables of
//! different entry types share one cache without type erasure.

//! # Partial backing and re-planning
//!
//! Under a scarce [`crate::PvRegionPlan`] (sub-regions smaller than the full
//! table), a table binding backs only the first `backed_blocks` *backing
//! blocks* of its sub-region. Sets map to backing blocks bit-reversed
//! ([`SharedPvProxy::bind_plan`]), so workloads whose hot sets cluster in a
//! narrow index range still spread across the backed/unbacked split.
//! Lookups to unbacked sets miss without traffic; stores to unbacked sets
//! are dropped and the owner must skip its write-through update
//! ([`SharedStoreOutcome`]). [`SharedPvProxy::apply_plan`] moves the
//! boundaries at an epoch edge: because contents are write-through, the
//! move only invalidates cache entries whose backing block address changed
//! (writing dirty ones back at their *old* address) — data is never copied.

use crate::buffers::PatternBuffer;
use crate::config::PvConfig;
use crate::plan::PvRegionPlan;
use crate::pvcache::{SharedPvCache, SharedPvCacheEntry};
use crate::stats::PvStats;
use pv_mem::{AccessKind, Address, DataClass, MemoryHierarchy, MshrFile, Requester};

/// One table bound to a [`SharedPvProxy`]: where its sub-region lives and
/// how big it is.
#[derive(Debug, Clone)]
struct TableBinding {
    /// The table's `PVStart`: base address of its sub-region.
    base: Address,
    /// Number of PVTable sets.
    table_sets: usize,
    /// Backing blocks the sub-region provides (≤ `table_sets`); sets whose
    /// backing block falls past this bound are unbacked. Equal to
    /// `table_sets` unless a scarce plan is bound.
    backed_blocks: usize,
    /// Block size each set packs into.
    block_bytes: u64,
    /// Report label (e.g. `"SMS"`, `"Markov"`).
    label: &'static str,
}

/// Outcome of one shared-proxy store.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedStoreOutcome {
    /// The store was applied; the caller updates its own table
    /// write-through.
    Accepted,
    /// The target set is not backed by the current plan: the store was
    /// dropped, and the caller must *not* update its table — an entry that
    /// survived in the owner's table without backing capacity would resurface
    /// for free once the set becomes backed again.
    Unbacked,
}

/// What applying a new region plan did to the shared cache
/// ([`SharedPvProxy::apply_plan`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplanOutcome {
    /// Cache entries removed because their backing block migrated (address
    /// changed) or lost its backing.
    pub invalidated: u64,
    /// Invalidated dirty entries written back at their old address.
    pub writebacks: u64,
}

/// Timing outcome of one shared-cache set access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedSetAccess {
    /// Whether the set is (or will be) resident. `false` when the lookup
    /// was dropped because the pattern buffer was full, or when the set is
    /// not backed by the current region plan — the caller must then report
    /// a predictor miss without touching its table.
    pub resident: bool,
    /// Cycle at which the set's data is available.
    pub ready_at: u64,
}

/// The PVProxy of one core: every table registered with it goes through
/// one PVCache and one memory-request stream.
///
/// Typed fronts ([`crate::PvFront`]) register their tables with
/// [`Self::add_table`] and then
/// drive [`Self::lookup_set`] / [`Self::store_set`]; the proxy handles
/// residency, replacement across tables, fill merging, dirty write-backs
/// and per-table statistics. It is deliberately untyped: because contents
/// are write-through in the owners' tables (module docs), the proxy only
/// ever needs a set's *address*, which it computes from the binding's base.
#[derive(Debug)]
pub struct SharedPvProxy {
    core: usize,
    config: PvConfig,
    cache: SharedPvCache,
    mshr: MshrFile,
    pattern_buffer: PatternBuffer,
    tables: Vec<TableBinding>,
    stats: Vec<PvStats>,
    /// Whether sets map to backing blocks bit-reversed (scarce-plan mode,
    /// set by [`Self::bind_plan`]); the identity mapping otherwise.
    interleaved: bool,
}

impl SharedPvProxy {
    /// Creates the proxy for `core`. `config.pvcache_sets` is the PVCache
    /// capacity all registered tables share; each table brings its own
    /// geometry to [`Self::add_table`].
    pub fn new(core: usize, config: PvConfig) -> Self {
        config.assert_valid();
        SharedPvProxy {
            core,
            cache: SharedPvCache::new(config.pvcache_sets),
            mshr: MshrFile::new(config.mshr_entries),
            pattern_buffer: PatternBuffer::new(config.pattern_buffer_entries),
            tables: Vec::new(),
            stats: Vec::new(),
            interleaved: false,
            config,
        }
    }

    /// Registers a table based at `base` with `table_sets` sets of one
    /// `block_bytes` block each, returning its table id.
    pub fn add_table(
        &mut self,
        base: Address,
        table_sets: usize,
        block_bytes: u64,
        label: &'static str,
    ) -> usize {
        assert!(
            table_sets > 0 && table_sets.is_power_of_two(),
            "table_sets must be a power of two"
        );
        self.tables.push(TableBinding {
            base,
            table_sets,
            backed_blocks: table_sets,
            block_bytes,
            label,
        });
        self.stats.push(PvStats::default());
        self.tables.len() - 1
    }

    /// The proxy's configuration.
    pub fn config(&self) -> &PvConfig {
        &self.config
    }

    /// Which core this proxy serves.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Number of registered tables.
    pub fn tables(&self) -> usize {
        self.tables.len()
    }

    /// Report label of `table`.
    pub fn table_label(&self, table: usize) -> &'static str {
        self.tables[table].label
    }

    /// The table-tagged PVCache.
    pub fn cache(&self) -> &SharedPvCache {
        &self.cache
    }

    /// Statistics of one table.
    pub fn table_stats(&self, table: usize) -> &PvStats {
        &self.stats[table]
    }

    /// Statistics summed over every table.
    pub fn stats_merged(&self) -> PvStats {
        let mut total = PvStats::default();
        for stats in &self.stats {
            total.merge(stats);
        }
        total
    }

    /// Resets every table's statistics (residency state is preserved).
    pub fn reset_stats(&mut self) {
        for stats in &mut self.stats {
            *stats = PvStats::default();
        }
    }

    /// The backing-block index of `(table, set_index)`: the identity map by
    /// default, or the set index bit-reversed (within the table's index
    /// width) once a scarce plan is bound. Bit reversal makes "the first
    /// `backed_blocks` blocks" an even sampling of the set space, so
    /// workloads whose hot sets cluster in a narrow range (e.g. low Markov
    /// set indices under few contexts) still feel capacity proportionally.
    fn block_of(&self, table: usize, set_index: usize) -> usize {
        let binding = &self.tables[table];
        assert!(
            set_index < binding.table_sets,
            "set index {set_index} out of range for table {table} ({} sets)",
            binding.table_sets
        );
        if !self.interleaved || binding.table_sets <= 1 {
            set_index
        } else {
            let bits = binding.table_sets.trailing_zeros();
            set_index.reverse_bits() >> (usize::BITS - bits)
        }
    }

    /// Whether the current plan backs `(table, set_index)` with memory.
    pub fn set_backed(&self, table: usize, set_index: usize) -> bool {
        self.block_of(table, set_index) < self.tables[table].backed_blocks
    }

    /// Backing blocks the current plan gives `table` (equals the table's
    /// set count unless a scarce plan is bound).
    pub fn backed_blocks(&self, table: usize) -> usize {
        self.tables[table].backed_blocks
    }

    /// Total sets of `table` (the registration-time geometry).
    pub fn table_sets(&self, table: usize) -> usize {
        self.tables[table].table_sets
    }

    /// The memory address of `(table, set_index)`'s backing block — the
    /// shared-proxy analogue of Figure 3b's `PVStart + set * block`
    /// computation (identical to it under the identity mapping).
    ///
    /// # Panics
    ///
    /// Panics if `table` or `set_index` is out of range, or if the set is
    /// not backed by the current plan (unbacked sets have no address).
    pub fn set_address(&self, table: usize, set_index: usize) -> Address {
        let block = self.block_of(table, set_index);
        let binding = &self.tables[table];
        assert!(
            block < binding.backed_blocks,
            "set {set_index} of table {table} is not backed by the current plan \
             ({} of {} blocks backed)",
            binding.backed_blocks,
            binding.table_sets
        );
        Address::new(binding.base.raw() + block as u64 * binding.block_bytes)
    }

    /// Validates `plan` against this proxy's bindings and returns the
    /// per-table `(base, backed_blocks)` geometry it implies.
    fn plan_geometry(&self, plan: &PvRegionPlan) -> Vec<(Address, usize)> {
        assert_eq!(
            plan.tables(),
            self.tables.len(),
            "the plan must cover exactly the registered tables"
        );
        self.tables
            .iter()
            .enumerate()
            .map(|(table, binding)| {
                let bytes = plan.table_bytes(table);
                assert_eq!(
                    bytes % binding.block_bytes,
                    0,
                    "table {table}'s sub-region must be block-aligned"
                );
                let backed = (bytes / binding.block_bytes) as usize;
                assert!(
                    backed <= binding.table_sets,
                    "table {table} cannot back more blocks than it has sets"
                );
                (plan.base(self.core, table), backed)
            })
            .collect()
    }

    /// Binds a (possibly scarce) region plan to the registered tables and
    /// switches set→block mapping to bit-reversed interleaving. Must be
    /// called before any traffic; re-planning a live proxy goes through
    /// [`Self::apply_plan`] instead.
    ///
    /// # Panics
    ///
    /// Panics if traffic already ran, if the plan's table count differs
    /// from the registered tables, or if any sub-region is misaligned or
    /// larger than its table.
    pub fn bind_plan(&mut self, plan: &PvRegionPlan) {
        assert!(
            self.cache.is_empty(),
            "bind_plan must run before any traffic reaches the proxy"
        );
        let geometry = self.plan_geometry(plan);
        self.interleaved = true;
        for (binding, (base, backed)) in self.tables.iter_mut().zip(geometry) {
            binding.base = base;
            binding.backed_blocks = backed;
        }
    }

    /// Applies a new region plan to a live proxy: the epoch-boundary move
    /// of dynamic repartitioning. Contents are write-through in the owning
    /// tables, so no data moves — the only work is invalidating cache
    /// entries whose backing block migrated (its address changed, or it
    /// lost backing entirely). Migrated dirty entries are written back at
    /// their *old* address first, as predictor-class traffic.
    ///
    /// # Panics
    ///
    /// Same validation as [`Self::bind_plan`] (minus the no-traffic
    /// requirement).
    pub fn apply_plan(
        &mut self,
        plan: &PvRegionPlan,
        mem: &mut MemoryHierarchy,
        now: u64,
    ) -> ReplanOutcome {
        let geometry = self.plan_geometry(plan);
        let mut outcome = ReplanOutcome::default();
        let entries = std::mem::take(self.cache.entries_mut());
        let mut kept = Vec::with_capacity(entries.len());
        for entry in entries {
            let block = self.block_of(entry.table, entry.set_index);
            let binding = &self.tables[entry.table];
            let old_address = binding.base.raw() + block as u64 * binding.block_bytes;
            let block_bytes = binding.block_bytes;
            let (new_base, new_backed) = geometry[entry.table];
            let survives =
                block < new_backed && new_base.raw() + block as u64 * block_bytes == old_address;
            if survives {
                kept.push(entry);
                continue;
            }
            outcome.invalidated += 1;
            if entry.dirty {
                outcome.writebacks += 1;
                self.stats[entry.table].dirty_writebacks += 1;
                mem.writeback(Requester::pv_proxy(self.core), old_address, now);
            }
        }
        *self.cache.entries_mut() = kept;
        for (binding, (base, backed)) in self.tables.iter_mut().zip(geometry) {
            binding.base = base;
            binding.backed_blocks = backed;
        }
        outcome
    }

    /// Fetches `(table, set_index)` through the memory hierarchy and installs
    /// it in the PVCache, evicting (and writing back if dirty) whatever set —
    /// of any table — is LRU. The entry is installed at request time so
    /// later requests merge, and it remembers the fill's completion time for
    /// early hits.
    fn fetch_set(
        &mut self,
        table: usize,
        set_index: usize,
        mem: &mut MemoryHierarchy,
        now: u64,
    ) -> u64 {
        let address = self.set_address(table, set_index);
        self.mshr.retire(now);
        let ready_at = if let Some(entry) = self.mshr.lookup(address.block()) {
            self.stats[table].mshr_merges += 1;
            let ready = entry.ready_at;
            let _ = self.mshr.register(address.block(), now, ready);
            ready
        } else {
            self.stats[table].memory_requests += 1;
            let response = mem.access(
                Requester::pv_proxy(self.core),
                address.raw(),
                AccessKind::Read,
                DataClass::Predictor,
                now,
            );
            self.stats[table].queue_delay_cycles += response.queue_delay;
            let ready = now + response.latency;
            let _ = self.mshr.allocate(address.block(), now, ready);
            ready
        };
        if let Some(evicted) = self.cache.insert(table, set_index, false, ready_at) {
            self.handle_eviction(evicted, mem, now);
        }
        ready_at
    }

    fn handle_eviction(
        &mut self,
        evicted: SharedPvCacheEntry,
        mem: &mut MemoryHierarchy,
        now: u64,
    ) {
        if !evicted.dirty {
            // Non-modified entries are discarded (paper Section 2.2); the
            // owning table already holds the authoritative contents.
            return;
        }
        self.stats[evicted.table].dirty_writebacks += 1;
        let address = self.set_address(evicted.table, evicted.set_index);
        mem.writeback(Requester::pv_proxy(self.core), address.raw(), now);
    }

    /// A predictor lookup touching `(table, set_index)`. On a shared-cache
    /// hit the data is available after the PVCache latency (or the
    /// in-flight fill); on a miss the set is fetched — unless the pattern
    /// buffer is full, in which case the lookup is dropped
    /// (`resident == false`).
    pub fn lookup_set(
        &mut self,
        table: usize,
        set_index: usize,
        mem: &mut MemoryHierarchy,
        now: u64,
    ) -> SharedSetAccess {
        self.stats[table].lookups += 1;
        if !self.set_backed(table, set_index) {
            // No backing capacity: the set behaves like a permanent miss
            // (counted as one, so hit rates reflect allocation) with no
            // memory traffic.
            self.stats[table].pvcache_misses += 1;
            self.stats[table].unbacked_lookups += 1;
            return SharedSetAccess {
                resident: false,
                ready_at: now,
            };
        }
        let pvcache_latency = self.config.pvcache_latency;
        if let Some(entry) = self.cache.lookup(table, set_index) {
            let ready_at = (now + pvcache_latency).max(entry.ready_at);
            let pending = entry.ready_at > now;
            self.stats[table].pvcache_hits += 1;
            if pending {
                self.stats[table].pending_hits += 1;
            }
            return SharedSetAccess {
                resident: true,
                ready_at,
            };
        }
        self.stats[table].pvcache_misses += 1;
        // The pattern buffer is a shared structural resource too: a full
        // buffer drops the prediction regardless of which table wanted it.
        let provisional_done = now + mem.config().l2.tag_latency + mem.config().l2.data_latency;
        if !self.pattern_buffer.try_reserve(now, provisional_done) {
            self.stats[table].dropped_lookups += 1;
            return SharedSetAccess {
                resident: false,
                ready_at: now,
            };
        }
        let ready_at = self.fetch_set(table, set_index, mem, now);
        SharedSetAccess {
            resident: true,
            ready_at,
        }
    }

    /// A predictor store touching `(table, set_index)`: write-allocate (the
    /// set is fetched on a miss, so its other entries are preserved) and
    /// mark the resident set dirty. On [`SharedStoreOutcome::Accepted`] the
    /// caller updates its own table write-through *after* this returns; on
    /// [`SharedStoreOutcome::Unbacked`] it must skip that update.
    pub fn store_set(
        &mut self,
        table: usize,
        set_index: usize,
        mem: &mut MemoryHierarchy,
        now: u64,
    ) -> SharedStoreOutcome {
        self.stats[table].stores += 1;
        if !self.set_backed(table, set_index) {
            self.stats[table].unbacked_stores += 1;
            return SharedStoreOutcome::Unbacked;
        }
        if !self.cache.contains(table, set_index) {
            self.stats[table].store_misses += 1;
            let _ = self.fetch_set(table, set_index, mem, now);
        }
        let cached = self
            .cache
            .lookup(table, set_index)
            .expect("the set was just installed in the shared PVCache");
        cached.dirty = true;
        SharedStoreOutcome::Accepted
    }

    /// Writes every dirty resident set back to the memory hierarchy (used at
    /// the end of a simulation window so no learned state is stranded).
    pub fn drain(&mut self, mem: &mut MemoryHierarchy, now: u64) {
        for evicted in self.cache.drain_dirty() {
            self.handle_eviction(evicted, mem, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_mem::{HierarchyConfig, MemoryHierarchy, PvRegionConfig};

    fn setup() -> (MemoryHierarchy, SharedPvProxy) {
        let mut config = HierarchyConfig::paper_baseline(4);
        config.pv_regions = PvRegionConfig::with_bytes_per_core(4, 128 * 1024);
        let mem = MemoryHierarchy::new(config);
        let mut proxy = SharedPvProxy::new(0, PvConfig::pv8());
        let base = config.pv_regions.core_base(0);
        let a = proxy.add_table(base, 1024, 64, "A");
        let b = proxy.add_table(Address::new(base.raw() + 64 * 1024), 1024, 64, "B");
        assert_eq!((a, b), (0, 1));
        (mem, proxy)
    }

    #[test]
    fn tables_have_disjoint_addresses_inside_one_region() {
        let (mem, proxy) = setup();
        // Figure 3b: each set is one block past the previous, from the
        // table's base.
        let base = proxy.set_address(0, 0).raw();
        assert_eq!(proxy.set_address(0, 2).raw(), base + 2 * 64);
        let last_a = proxy.set_address(0, 1023).raw() + 63;
        let first_b = proxy.set_address(1, 0).raw();
        assert!(last_a < first_b);
        // Both tables classify as predictor data.
        let regions = mem.config().pv_regions;
        assert!(regions.contains(proxy.set_address(0, 0)));
        assert!(regions.contains(proxy.set_address(1, 1023)));
    }

    #[test]
    fn cold_lookup_fetches_and_later_hits_are_fast() {
        let (mut mem, mut proxy) = setup();
        let cold = proxy.lookup_set(0, 3, &mut mem, 0);
        assert!(cold.resident);
        assert!(cold.ready_at >= 400, "cold set must come from DRAM");
        assert_eq!(proxy.table_stats(0).memory_requests, 1);
        let warm = proxy.lookup_set(0, 3, &mut mem, cold.ready_at + 10);
        assert_eq!(
            warm.ready_at,
            cold.ready_at + 10 + proxy.config().pvcache_latency
        );
        assert_eq!(proxy.table_stats(0).pvcache_hits, 1);
    }

    #[test]
    fn early_rereference_merges_and_waits_for_the_fill() {
        let (mut mem, mut proxy) = setup();
        let first = proxy.lookup_set(0, 3, &mut mem, 0);
        let second = proxy.lookup_set(0, 3, &mut mem, 1);
        assert_eq!(proxy.table_stats(0).memory_requests, 1);
        assert_eq!(second.ready_at, first.ready_at);
        assert_eq!(proxy.table_stats(0).pending_hits, 1);
    }

    #[test]
    fn both_tables_share_the_capacity_and_evict_each_other() {
        let (mut mem, mut proxy) = setup();
        let capacity = proxy.cache().capacity();
        // Fill the whole cache with table 0's sets...
        for set in 0..capacity {
            proxy.lookup_set(0, set, &mut mem, (set as u64) * 1_000);
        }
        assert_eq!(proxy.cache().occupancy_of(0), capacity);
        // ...then stream table 1 through: its fills must displace table 0.
        for set in 0..capacity / 2 {
            proxy.lookup_set(1, set, &mut mem, 1_000_000 + (set as u64) * 1_000);
        }
        assert_eq!(proxy.cache().occupancy_of(1), capacity / 2);
        assert_eq!(proxy.cache().occupancy_of(0), capacity - capacity / 2);
        assert_eq!(proxy.cache().len(), capacity);
    }

    #[test]
    fn dirty_cross_table_eviction_writes_back_to_the_owners_address() {
        let (mut mem, mut proxy) = setup();
        // Dirty one set of table 1, then flood with table 0 until it is
        // evicted: the write-back must be attributed to table 1.
        assert_eq!(
            proxy.store_set(1, 7, &mut mem, 0),
            SharedStoreOutcome::Accepted
        );
        let capacity = proxy.cache().capacity();
        for set in 0..capacity {
            proxy.lookup_set(0, set, &mut mem, 1_000 + (set as u64) * 1_000);
        }
        assert_eq!(proxy.table_stats(1).dirty_writebacks, 1);
        assert_eq!(proxy.table_stats(0).dirty_writebacks, 0);
        // The written-back block is table 1's address, resident in the L2.
        assert!(mem.l2_contains(proxy.set_address(1, 7).block()));
    }

    #[test]
    fn full_pattern_buffer_drops_lookups_per_proxy_not_per_table() {
        let (mut mem, mut proxy) = setup();
        let slots = proxy.config().pattern_buffer_entries;
        // Reserve every slot with distinct sets of table 0 at cycle 0 (all
        // fills still in flight)...
        for set in 0..slots {
            let access = proxy.lookup_set(0, set, &mut mem, 0);
            assert!(access.resident);
        }
        // ...now table 1 misses too: the shared buffer is exhausted.
        let dropped = proxy.lookup_set(1, 0, &mut mem, 0);
        assert!(!dropped.resident);
        assert_eq!(proxy.table_stats(1).dropped_lookups, 1);
    }

    #[test]
    fn drain_writes_back_only_dirty_sets() {
        let (mut mem, mut proxy) = setup();
        proxy.lookup_set(0, 1, &mut mem, 0);
        let _ = proxy.store_set(1, 2, &mut mem, 10);
        let writes_before = mem.stats().l2_requests.predictor;
        proxy.drain(&mut mem, 1_000);
        assert_eq!(proxy.table_stats(1).dirty_writebacks, 1);
        assert_eq!(proxy.table_stats(0).dirty_writebacks, 0);
        assert!(mem.stats().l2_requests.predictor > writes_before);
        assert!(proxy.cache().is_empty());
    }

    #[test]
    fn merged_stats_sum_over_tables() {
        let (mut mem, mut proxy) = setup();
        proxy.lookup_set(0, 1, &mut mem, 0);
        proxy.lookup_set(1, 2, &mut mem, 0);
        let merged = proxy.stats_merged();
        assert_eq!(merged.lookups, 2);
        assert_eq!(merged.memory_requests, 2);
        proxy.reset_stats();
        assert_eq!(proxy.stats_merged().lookups, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        let (_, proxy) = setup();
        proxy.set_address(0, 4096);
    }

    /// Two 1024-set tables bound to a scarce half-capacity plan (512 backing
    /// blocks each) inside the paper-default 64 KB region.
    fn scarce_setup() -> (MemoryHierarchy, SharedPvProxy, PvRegionPlan) {
        let config = HierarchyConfig::paper_baseline(4);
        let mem = MemoryHierarchy::new(config);
        let mut proxy = SharedPvProxy::new(0, PvConfig::pv8());
        let plan = PvRegionPlan::new(config.pv_regions, vec![512 * 64, 512 * 64]);
        let a = proxy.add_table(plan.base(0, 0), 1024, 64, "A");
        let b = proxy.add_table(plan.base(0, 1), 1024, 64, "B");
        assert_eq!((a, b), (0, 1));
        proxy.bind_plan(&plan);
        (mem, proxy, plan)
    }

    #[test]
    fn scarce_plans_back_an_even_sample_of_the_set_space() {
        let (_, proxy, _) = scarce_setup();
        assert_eq!(proxy.backed_blocks(0), 512);
        assert_eq!(proxy.table_sets(0), 1024);
        // Bit-reversed mapping: half capacity backs every *other* set, so a
        // workload clustered in a narrow index range (like Markov sets under
        // few contexts) still sees exactly its proportional share.
        let backed_in_cluster = (0..400).filter(|&s| proxy.set_backed(0, s)).count();
        assert_eq!(backed_in_cluster, 200);
        // Backed sets of both tables stay inside their own sub-regions.
        let boundary = proxy.set_address(1, 0).raw();
        for set in (0..1024).filter(|&s| proxy.set_backed(0, s)) {
            assert!(proxy.set_address(0, set).raw() < boundary);
        }
    }

    #[test]
    fn unbacked_accesses_miss_without_memory_traffic() {
        let (mut mem, mut proxy, _) = scarce_setup();
        // With 512 of 1024 blocks backed, odd sets are unbacked
        // (rev10(odd) >= 512).
        assert!(!proxy.set_backed(0, 1));
        let access = proxy.lookup_set(0, 1, &mut mem, 0);
        assert!(!access.resident);
        assert_eq!(
            proxy.store_set(0, 1, &mut mem, 0),
            SharedStoreOutcome::Unbacked
        );
        let stats = proxy.table_stats(0);
        assert_eq!(stats.lookups, 1);
        assert_eq!(stats.pvcache_misses, 1, "unbacked lookups count as misses");
        assert_eq!(stats.unbacked_lookups, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.unbacked_stores, 1);
        assert_eq!(stats.store_misses, 0);
        assert_eq!(stats.memory_requests, 0, "no traffic for unbacked sets");
    }

    #[test]
    fn apply_plan_invalidates_only_migrated_blocks() {
        let (mut mem, mut proxy, plan) = scarce_setup();
        // Table 0: sets 0, 2, 4 map to blocks 0, 256, 128. Table 1: set 0
        // maps to block 0 and is dirtied.
        for set in [0, 2, 4] {
            assert!(proxy.lookup_set(0, set, &mut mem, 0).resident);
        }
        assert_eq!(
            proxy.store_set(1, 0, &mut mem, 0),
            SharedStoreOutcome::Accepted
        );
        let old_table1_addr = proxy.set_address(1, 0);
        // Shrink table 0 to 256 blocks, grow table 1 to 768.
        let moved = plan.replan(&[256 * 64, 768 * 64]);
        let outcome = proxy.apply_plan(&moved, &mut mem, 1_000);
        // Table 0 keeps its base: blocks 0 and 128 survive, block 256 lost
        // its backing. Table 1's base moved: its entry migrates (dirty, so
        // it is written back at the old address first).
        assert_eq!(outcome.invalidated, 2);
        assert_eq!(outcome.writebacks, 1);
        assert!(proxy.cache().contains(0, 0));
        assert!(proxy.cache().contains(0, 4));
        assert!(!proxy.cache().contains(0, 2), "no stale entry survives");
        assert!(!proxy.cache().contains(1, 0));
        assert!(mem.l2_contains(old_table1_addr.block()));
        assert_eq!(proxy.table_stats(1).dirty_writebacks, 1);
        // The new geometry is live: table 0 halved, table 1 re-based.
        assert_eq!(proxy.backed_blocks(0), 256);
        assert!(!proxy.set_backed(0, 2));
        assert_eq!(proxy.backed_blocks(1), 768);
        assert!(proxy.set_address(1, 0).raw() < old_table1_addr.raw());
    }

    #[test]
    fn apply_plan_keeps_every_entry_of_a_table_whose_blocks_did_not_move() {
        let (mut mem, mut proxy, plan) = scarce_setup();
        for set in [0, 4, 8, 12] {
            assert!(proxy.lookup_set(0, set, &mut mem, 0).resident);
        }
        // Growing table 0 keeps its base and every backed block address.
        let moved = plan.replan(&[768 * 64, 256 * 64]);
        let outcome = proxy.apply_plan(&moved, &mut mem, 1_000);
        assert_eq!(outcome.invalidated, 0);
        assert_eq!(outcome.writebacks, 0);
        for set in [0, 4, 8, 12] {
            assert!(proxy.cache().contains(0, set));
        }
    }

    #[test]
    #[should_panic(expected = "is not backed")]
    fn unbacked_sets_have_no_address() {
        let (_, proxy, _) = scarce_setup();
        proxy.set_address(0, 1);
    }

    #[test]
    #[should_panic(expected = "before any traffic")]
    fn bind_plan_rejects_a_live_proxy() {
        let (mut mem, mut proxy, plan) = scarce_setup();
        proxy.lookup_set(0, 0, &mut mem, 0);
        proxy.bind_plan(&plan);
    }
}
