//! Pattern-history-table storage backends.
//!
//! The SMS engine talks to its PHT through the [`PatternStorage`] trait so
//! that the same engine runs unmodified over:
//!
//! * a [`DedicatedPht`] — the conventional on-chip set-associative table,
//! * an [`InfinitePht`] — the unbounded table used for the "Infinite" bars
//!   of Figure 4/5, and
//! * the virtualized PHT provided by the `pv-core` crate, which stores the
//!   table in the memory hierarchy behind a tiny PVCache.
//!
//! Lookups return both the pattern (if any) and the cycle at which the
//! prediction becomes available, because a virtualized lookup may have to
//! fetch its PHT set from the L2 or from memory.

use crate::config::{PhtGeometry, SmsConfig};
use crate::index::PhtIndex;
use crate::pattern::SpatialPattern;
use pv_core::SharedPvProxy;
use pv_mem::{MemoryHierarchy, SetAssociative};
use std::collections::HashMap;

/// Result of a PHT lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternLookup {
    /// The stored pattern, or `None` on a predictor miss.
    pub pattern: Option<SpatialPattern>,
    /// Cycle at which the prediction is available to the prefetch engine.
    pub ready_at: u64,
}

/// Storage backend for the pattern history table.
///
/// Implementations may use the memory hierarchy (`mem`) to model the cost of
/// retrieving or spilling predictor state; the dedicated on-chip tables
/// ignore it. Backends registered with a per-core [`SharedPvProxy`] receive
/// the proxy by `&mut` reference (`shared`) on every call — the proxy is
/// owned further up the engine stack (by the composite prefetcher), which
/// keeps the whole simulator `Send`. Self-contained backends ignore it.
///
/// `Send` is a supertrait so a boxed storage can cross threads together with
/// the `System` that owns it (the fleet driver depends on this).
pub trait PatternStorage: std::fmt::Debug + Send {
    /// Looks up the pattern stored for `index`.
    fn lookup(
        &mut self,
        index: PhtIndex,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) -> PatternLookup;

    /// Stores `pattern` for `index`, replacing any previous pattern.
    fn store(
        &mut self,
        index: PhtIndex,
        pattern: SpatialPattern,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    );

    /// Human-readable label used in experiment reports (e.g. `"1K-11a"`).
    fn label(&self) -> String;

    /// Dedicated on-chip storage in bytes required by this backend.
    fn dedicated_storage_bytes(&self) -> u64;

    /// Number of patterns currently retained (diagnostic).
    fn resident_patterns(&self) -> usize;

    /// Access to the concrete backend type, so callers holding a boxed
    /// storage (e.g. the simulator) can retrieve backend-specific statistics
    /// such as the PVProxy's PVCache hit rate.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Resets backend statistics at the end of a warm-up window (learned
    /// state is preserved). The default is a no-op for backends that keep no
    /// statistics of their own.
    fn reset_stats(&mut self) {}
}

/// A conventional dedicated on-chip PHT: set-associative, LRU.
#[derive(Debug)]
pub struct DedicatedPht {
    geometry: PhtGeometry,
    sets: usize,
    table: SetAssociative<SpatialPattern>,
    lookup_latency: u64,
}

impl DedicatedPht {
    /// Creates a dedicated table with the given finite geometry.
    ///
    /// # Panics
    ///
    /// Panics if `geometry` is [`PhtGeometry::Infinite`]; use
    /// [`InfinitePht`] for that case (or [`build_storage`]).
    pub fn new(geometry: PhtGeometry, config: &SmsConfig) -> Self {
        match geometry {
            PhtGeometry::Finite { sets, ways } => DedicatedPht {
                geometry,
                sets,
                table: SetAssociative::new(sets, ways),
                lookup_latency: config.dedicated_lookup_latency,
            },
            PhtGeometry::Infinite => {
                panic!("DedicatedPht requires a finite geometry; use InfinitePht instead")
            }
        }
    }

    /// The geometry of this table.
    pub fn geometry(&self) -> PhtGeometry {
        self.geometry
    }
}

impl PatternStorage for DedicatedPht {
    fn lookup(
        &mut self,
        index: PhtIndex,
        _mem: &mut MemoryHierarchy,
        _shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) -> PatternLookup {
        let set = index.set_index(self.sets);
        let tag = u64::from(index.tag(self.sets));
        PatternLookup {
            pattern: self.table.get(set, tag).copied(),
            ready_at: now + self.lookup_latency,
        }
    }

    fn store(
        &mut self,
        index: PhtIndex,
        pattern: SpatialPattern,
        _mem: &mut MemoryHierarchy,
        _shared: Option<&mut SharedPvProxy>,
        _now: u64,
    ) {
        let set = index.set_index(self.sets);
        let tag = u64::from(index.tag(self.sets));
        let _ = self.table.insert(set, tag, pattern);
    }

    fn label(&self) -> String {
        self.geometry.label()
    }

    fn dedicated_storage_bytes(&self) -> u64 {
        self.geometry.total_bytes().expect("finite geometry has a size")
    }

    fn resident_patterns(&self) -> usize {
        self.table.len()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// An unbounded PHT that never forgets a pattern: the "Infinite" reference
/// point of the paper's potential study.
#[derive(Debug, Default)]
pub struct InfinitePht {
    table: HashMap<u32, SpatialPattern>,
    lookup_latency: u64,
}

impl InfinitePht {
    /// Creates an unbounded table.
    pub fn new(config: &SmsConfig) -> Self {
        InfinitePht {
            table: HashMap::new(),
            lookup_latency: config.dedicated_lookup_latency,
        }
    }
}

impl PatternStorage for InfinitePht {
    fn lookup(
        &mut self,
        index: PhtIndex,
        _mem: &mut MemoryHierarchy,
        _shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) -> PatternLookup {
        PatternLookup {
            pattern: self.table.get(&index.raw()).copied(),
            ready_at: now + self.lookup_latency,
        }
    }

    fn store(
        &mut self,
        index: PhtIndex,
        pattern: SpatialPattern,
        _mem: &mut MemoryHierarchy,
        _shared: Option<&mut SharedPvProxy>,
        _now: u64,
    ) {
        self.table.insert(index.raw(), pattern);
    }

    fn label(&self) -> String {
        "Infinite".to_owned()
    }

    fn dedicated_storage_bytes(&self) -> u64 {
        // An infinite table has no physical realisation; report the storage
        // it would need for the patterns currently held so ablation reports
        // stay meaningful.
        (self.table.len() * 8) as u64
    }

    fn resident_patterns(&self) -> usize {
        self.table.len()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Builds the dedicated (non-virtualized) storage backend described by
/// `config`: an [`InfinitePht`] for the infinite geometry, a
/// [`DedicatedPht`] otherwise.
pub fn build_storage(config: &SmsConfig) -> Box<dyn PatternStorage> {
    match config.pht {
        PhtGeometry::Infinite => Box::new(InfinitePht::new(config)),
        geometry => Box::new(DedicatedPht::new(geometry, config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::TriggerKey;
    use pv_mem::HierarchyConfig;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::paper_baseline(1))
    }

    #[test]
    fn dedicated_pht_stores_and_retrieves_patterns() {
        let config = SmsConfig::paper_1k_11a();
        let mut pht = DedicatedPht::new(config.pht, &config);
        let mut mem = mem();
        let index = TriggerKey::new(0x4000, 5).index();
        assert!(pht.lookup(index, &mut mem, None, 0).pattern.is_none());
        let pattern = SpatialPattern::from_offsets([5, 6, 9]);
        pht.store(index, pattern, &mut mem, None, 0);
        let lookup = pht.lookup(index, &mut mem, None, 10);
        assert_eq!(lookup.pattern, Some(pattern));
        assert_eq!(lookup.ready_at, 10 + config.dedicated_lookup_latency);
        assert_eq!(pht.resident_patterns(), 1);
    }

    #[test]
    fn dedicated_pht_evicts_under_conflict() {
        // An 8-set, 1-way table: two indices mapping to the same set evict
        // each other.
        let config = SmsConfig::with_pht(PhtGeometry::finite(8, 1));
        let mut pht = DedicatedPht::new(config.pht, &config);
        let mut mem = mem();
        let a = PhtIndex::from_raw(0x08); // set 0, tag 1
        let b = PhtIndex::from_raw(0x10); // set 0, tag 2
        pht.store(a, SpatialPattern::single(1), &mut mem, None, 0);
        pht.store(b, SpatialPattern::single(2), &mut mem, None, 0);
        assert!(
            pht.lookup(a, &mut mem, None, 0).pattern.is_none(),
            "a must have been evicted"
        );
        assert!(pht.lookup(b, &mut mem, None, 0).pattern.is_some());
    }

    #[test]
    fn infinite_pht_never_evicts() {
        let config = SmsConfig::infinite();
        let mut pht = InfinitePht::new(&config);
        let mut mem = mem();
        for i in 0..10_000u32 {
            pht.store(
                PhtIndex::from_raw(i),
                SpatialPattern::single(i % 32),
                &mut mem,
                None,
                0,
            );
        }
        assert_eq!(pht.resident_patterns(), 10_000);
        for i in (0..10_000u32).step_by(997) {
            assert!(pht.lookup(PhtIndex::from_raw(i), &mut mem, None, 0).pattern.is_some());
        }
    }

    #[test]
    fn build_storage_dispatches_on_geometry() {
        assert_eq!(build_storage(&SmsConfig::infinite()).label(), "Infinite");
        assert_eq!(build_storage(&SmsConfig::paper_1k_11a()).label(), "1K-11a");
        assert_eq!(build_storage(&SmsConfig::small_8_11a()).label(), "8-11a");
    }

    #[test]
    fn dedicated_storage_bytes_match_table3() {
        let storage = build_storage(&SmsConfig::paper_1k_11a());
        assert_eq!(storage.dedicated_storage_bytes(), 60_544);
    }

    #[test]
    #[should_panic(expected = "finite geometry")]
    fn dedicated_pht_rejects_infinite_geometry() {
        let config = SmsConfig::infinite();
        DedicatedPht::new(PhtGeometry::Infinite, &config);
    }
}
