//! The next-address prefetch engine: learns per-PC block deltas and turns
//! them into prefetches.
//!
//! Like the SMS engine, this engine is storage-agnostic: it sees its table
//! only through [`NextAddrStorage`], so it runs unchanged over the dedicated
//! on-chip table or the virtualized one.

use crate::entry::{MarkovConfig, MarkovIndex};
use crate::storage::NextAddrStorage;
use pv_core::SharedPvProxy;
use pv_mem::{Address, BlockAddr, MemoryHierarchy};

/// Counters maintained by one Markov engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarkovStats {
    /// Data accesses observed.
    pub accesses_observed: u64,
    /// Table lookups performed.
    pub lookups: u64,
    /// Lookups that found a delta.
    pub hits: u64,
    /// Deltas stored (transitions learned).
    pub stores: u64,
    /// Prefetches produced.
    pub predictions: u64,
}

impl MarkovStats {
    /// Adds `other`'s counters into `self` (aggregation across cores).
    pub fn merge(&mut self, other: &MarkovStats) {
        let MarkovStats {
            accesses_observed,
            lookups,
            hits,
            stores,
            predictions,
        } = *other;
        self.accesses_observed += accesses_observed;
        self.lookups += lookups;
        self.hits += hits;
        self.stores += stores;
        self.predictions += predictions;
    }
}

/// One prefetch the engine wants performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkovResponse {
    /// Block to bring into the L1 data cache, if a delta was predicted.
    pub prefetch: Option<BlockAddr>,
    /// Cycle at which the prediction became available (the prefetch cannot
    /// be issued earlier; a virtualized lookup may add latency here).
    pub issue_at: u64,
}

/// The PC-indexed next-address prefetch engine for one core.
#[derive(Debug)]
pub struct MarkovPrefetcher {
    config: MarkovConfig,
    storage: Box<dyn NextAddrStorage>,
    /// The previous data access: its table index and block (the transition
    /// source the next access completes).
    last: Option<(MarkovIndex, BlockAddr)>,
    stats: MarkovStats,
}

impl MarkovPrefetcher {
    /// Creates an engine with the given configuration and table backend.
    pub fn new(config: MarkovConfig, storage: Box<dyn NextAddrStorage>) -> Self {
        config.assert_valid();
        MarkovPrefetcher {
            config,
            storage,
            last: None,
            stats: MarkovStats::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MarkovConfig {
        &self.config
    }

    /// The table storage backend.
    pub fn storage(&self) -> &dyn NextAddrStorage {
        self.storage.as_ref()
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &MarkovStats {
        &self.stats
    }

    /// Resets the statistics (the learned state is preserved), including any
    /// statistics the storage backend keeps.
    pub fn reset_stats(&mut self) {
        self.stats = MarkovStats::default();
        self.storage.reset_stats();
    }

    /// Observes one L1 data access by the core and returns the predicted
    /// prefetch, if any.
    pub fn on_data_access(
        &mut self,
        pc: u64,
        address: u64,
        mem: &mut MemoryHierarchy,
        mut shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) -> MarkovResponse {
        self.stats.accesses_observed += 1;
        let block = Address::new(address).block();
        // 1. Learn: the previous access's PC led to this block.
        if let Some((last_index, last_block)) = self.last {
            let delta = block.raw() as i64 - last_block.raw() as i64;
            if delta != 0 {
                self.stats.stores += 1;
                self.storage.store(last_index, delta, mem, shared.as_deref_mut(), now);
            }
        }
        // 2. Predict: what followed this PC's access last time?
        let index = MarkovIndex::from_pc(pc);
        self.stats.lookups += 1;
        let lookup = self.storage.lookup(index, mem, shared, now);
        self.last = Some((index, block));
        match lookup.delta {
            Some(delta) => {
                self.stats.hits += 1;
                let target = block.raw() as i64 + delta;
                if target < 0 {
                    return MarkovResponse {
                        prefetch: None,
                        issue_at: lookup.ready_at,
                    };
                }
                self.stats.predictions += 1;
                MarkovResponse {
                    prefetch: Some(BlockAddr::new(target as u64)),
                    issue_at: lookup.ready_at,
                }
            }
            None => MarkovResponse {
                prefetch: None,
                issue_at: lookup.ready_at,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{DedicatedMarkov, VirtualizedMarkov};
    use pv_core::PvConfig;
    use pv_mem::HierarchyConfig;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::paper_baseline(4))
    }

    fn dedicated_engine() -> MarkovPrefetcher {
        let config = MarkovConfig::paper_1k();
        MarkovPrefetcher::new(config, Box::new(DedicatedMarkov::new(config)))
    }

    /// Trains the transition `pc: block b -> next access at b + 2 blocks`
    /// and re-executes `pc` to check the prediction.
    fn train_and_retrigger(
        engine: &mut MarkovPrefetcher,
        mem: &mut MemoryHierarchy,
    ) -> MarkovResponse {
        // pc 0x4000 touches block 100; the following access (pc 0x4004)
        // lands on block 102, so pc 0x4000's entry learns delta +2.
        engine.on_data_access(0x4000, 100 * 64, mem, None, 0);
        engine.on_data_access(0x4004, 102 * 64, mem, None, 10);
        // Re-run pc 0x4000 at a different block: it predicts +2 blocks.
        engine.on_data_access(0x4008, 500 * 64, mem, None, 20);
        engine.on_data_access(0x4000, 200 * 64, mem, None, 30)
    }

    #[test]
    fn cold_engine_produces_no_prefetches() {
        let mut engine = dedicated_engine();
        let mut mem = mem();
        let response = engine.on_data_access(0x4000, 0x10_0000, &mut mem, None, 0);
        assert!(response.prefetch.is_none());
        assert_eq!(engine.stats().hits, 0);
    }

    #[test]
    fn learned_delta_predicts_relative_to_the_new_block() {
        let mut engine = dedicated_engine();
        let mut mem = mem();
        let response = train_and_retrigger(&mut engine, &mut mem);
        assert_eq!(
            response.prefetch,
            Some(BlockAddr::new(202)),
            "delta +2 from block 200"
        );
        assert!(engine.stats().hits >= 1);
        assert!(engine.stats().predictions >= 1);
    }

    #[test]
    fn virtualized_engine_behaves_like_dedicated_but_uses_memory() {
        let hierarchy_config = HierarchyConfig::paper_baseline(4);
        let mut mem = MemoryHierarchy::new(hierarchy_config);
        let config = MarkovConfig::paper_1k();
        let storage =
            VirtualizedMarkov::new(0, PvConfig::pv8(), hierarchy_config.pv_regions.core_base(0));
        let mut engine = MarkovPrefetcher::new(config, Box::new(storage));
        let response = train_and_retrigger(&mut engine, &mut mem);
        assert_eq!(response.prefetch, Some(BlockAddr::new(202)));
        assert!(
            mem.stats().l2_requests.predictor > 0,
            "virtualized table traffic hits the L2"
        );
        let proxy_stats = engine
            .storage()
            .as_any()
            .downcast_ref::<VirtualizedMarkov>()
            .unwrap()
            .front()
            .stats()
            .expect("a dedicated table owns its proxy");
        assert!(proxy_stats.memory_requests > 0);
    }

    #[test]
    fn stats_reset_keeps_learned_state() {
        let mut engine = dedicated_engine();
        let mut mem = mem();
        // Learn delta +2 for pc 0x4000 (stored by the following access).
        engine.on_data_access(0x4000, 100 * 64, &mut mem, None, 0);
        engine.on_data_access(0x4004, 102 * 64, &mut mem, None, 10);
        engine.reset_stats();
        assert_eq!(engine.stats().hits, 0);
        // The next 0x4000 access stores a delta for 0x4004 (the previous
        // access), not for 0x4000 itself, so 0x4000's entry is intact.
        let response = engine.on_data_access(0x4000, 300 * 64, &mut mem, None, 100);
        assert_eq!(
            response.prefetch,
            Some(BlockAddr::new(302)),
            "reset must not clear the table"
        );
    }
}
