//! Configuration types for the simulated memory system.
//!
//! [`HierarchyConfig::paper_baseline`] reproduces Table 1 of the paper:
//! 64 KB 4-way L1 I/D caches with 64 B blocks and 2-cycle latency, an 8 MB
//! 16-way shared L2 with 6/12-cycle tag/data latency, and 400-cycle main
//! memory, for a four-core CMP.

use crate::address::{Address, BLOCK_BYTES};

/// How shared memory-system resources are timed.
///
/// * `Ideal` reproduces the pre-contention semantics: every access observes
///   the configured latencies regardless of load. L2 ports, MSHR capacity
///   and DRAM bandwidth are all free; an `Ideal` run is bit-identical to the
///   fixed-latency model the original figure/table reproductions were
///   recorded with.
/// * `Queued` makes predictor and application traffic actually compete:
///   L2 tag-pipeline banks have a per-bank occupancy, a full MSHR file
///   stalls the requester until an entry drains (instead of being a free
///   counter), and DRAM is a channel/bank model with finite request queues
///   and a per-block data-bus transfer cost, so latency grows under load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ContentionModel {
    /// Fixed latencies; shared resources are uncontended.
    #[default]
    Ideal,
    /// Shared-resource model with port/queue occupancy and backpressure.
    Queued,
}

/// Geometry and timing of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Block size in bytes (64 throughout the paper).
    pub block_bytes: u64,
    /// Tag-array access latency in cycles.
    pub tag_latency: u64,
    /// Data-array access latency in cycles (paid on a hit).
    pub data_latency: u64,
    /// Number of outstanding-miss registers.
    pub mshr_entries: usize,
    /// Number of independently-ported tag-pipeline banks. Only the shared L2
    /// is contended (and only under [`ContentionModel::Queued`]); requests to
    /// the same bank serialize behind each other.
    pub banks: usize,
    /// Cycles one request occupies its bank's tag pipeline before the next
    /// request to that bank may start (ignored under
    /// [`ContentionModel::Ideal`]).
    pub port_occupancy: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry, always a power of two so a
    /// block's set index is its low address bits (every geometry the paper
    /// uses qualifies: 256 L1 sets, 2048/4096/8192 sets for the 2/4/8 MB
    /// L2s of Figure 10).
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or the set count is
    /// not a power of two.
    pub fn sets(&self) -> usize {
        let blocks = self.size_bytes / self.block_bytes;
        assert!(
            blocks.is_multiple_of(self.ways as u64),
            "cache of {} blocks cannot be {}-way set-associative",
            blocks,
            self.ways
        );
        let sets = blocks / self.ways as u64;
        assert!(
            sets.is_power_of_two(),
            "cache of {} blocks, {}-way, has {} sets: the set count must be a power of two",
            blocks,
            self.ways,
            sets
        );
        sets as usize
    }

    /// Paper Table 1 L1 data/instruction cache: 64 KB, 4-way, 64 B blocks,
    /// LRU, 2-cycle latency.
    pub fn l1_paper() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 4,
            block_bytes: BLOCK_BYTES,
            tag_latency: 1,
            data_latency: 2,
            mshr_entries: 16,
            banks: 1,
            port_occupancy: 1,
        }
    }

    /// Paper Table 1 unified L2: 8 MB, 16-way, 64 B blocks, LRU,
    /// 6-cycle tag / 12-cycle data latency.
    pub fn l2_paper() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024 * 1024,
            ways: 16,
            block_bytes: BLOCK_BYTES,
            tag_latency: 6,
            data_latency: 12,
            mshr_entries: 64,
            banks: 8,
            port_occupancy: 2,
        }
    }

    /// L2 with a different total capacity (used by the Figure 10 sweep).
    pub fn l2_with_size(size_bytes: u64) -> Self {
        CacheConfig {
            size_bytes,
            ..Self::l2_paper()
        }
    }

    /// L2 with the slower 8/16-cycle tag/data latency of Figure 11.
    pub fn l2_slow() -> Self {
        CacheConfig {
            tag_latency: 8,
            data_latency: 16,
            ..Self::l2_paper()
        }
    }
}

/// Main-memory timing.
///
/// Under [`ContentionModel::Ideal`] only `latency` matters; the channel,
/// bank, queue and bandwidth parameters describe the shared-resource model
/// used under [`ContentionModel::Queued`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Unloaded access latency in cycles (400 in Table 1).
    pub latency: u64,
    /// Modelled capacity in bytes (3 GB in Table 1); only used for
    /// PV-region reservation checks.
    pub capacity_bytes: u64,
    /// Number of independent memory channels.
    pub channels: usize,
    /// Banks per channel; a bank is busy for [`Self::bank_occupancy`] cycles
    /// per request it services.
    pub banks_per_channel: usize,
    /// Cycles a bank stays busy servicing one request (row activate +
    /// column access + precharge), limiting per-bank request throughput.
    pub bank_occupancy: u64,
    /// Cycles one 64-byte block occupies a channel's data bus. This is the
    /// bandwidth knob: at a 4-byte-per-cycle bus a block costs 16 cycles;
    /// larger values model narrower/slower memory.
    pub cycles_per_transfer: u64,
    /// Per-channel request-queue depth. When a channel already has this many
    /// requests in flight, a new request waits at the L2 until a slot
    /// drains — finite buffering, not an infinite free queue.
    pub queue_depth: usize,
}

impl DramConfig {
    /// Paper Table 1 main memory: 3 GB, 400 cycles unloaded. The contention
    /// parameters model a two-channel memory system with eight banks per
    /// channel, 16-deep per-channel queues and a 16-cycle block transfer
    /// (4 bytes per cycle), roughly DDR2-class bandwidth for the paper's
    /// 4-core CMP.
    pub fn paper() -> Self {
        DramConfig {
            latency: 400,
            capacity_bytes: 3 * 1024 * 1024 * 1024,
            channels: 2,
            banks_per_channel: 8,
            bank_occupancy: 40,
            cycles_per_transfer: 16,
            queue_depth: 16,
        }
    }

    /// The same memory with a different data-bus transfer cost (bandwidth
    /// sweep knob; larger is slower).
    pub fn with_cycles_per_transfer(mut self, cycles: u64) -> Self {
        self.cycles_per_transfer = cycles;
        self
    }
}

/// Reserved physical-address regions used to back per-core PVTables.
///
/// The paper reserves a chunk of the physical address space per core, fixed
/// at boot and invisible to the OS; the base is exposed to the PVProxy
/// through the `PVStart` register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PvRegionConfig {
    /// Base physical address of core 0's PVTable region.
    pub base: Address,
    /// Bytes reserved per core.
    pub bytes_per_core: u64,
    /// Number of per-core regions.
    pub cores: usize,
}

impl PvRegionConfig {
    /// Default layout: regions placed just below the top of the modelled
    /// 3 GB physical memory, 64 KB per core (1K sets of 64 B, as in §4.2).
    pub fn paper_default(cores: usize) -> Self {
        let bytes_per_core = 64 * 1024;
        let total = bytes_per_core * cores as u64;
        PvRegionConfig {
            base: Address::new(3 * 1024 * 1024 * 1024 - total),
            bytes_per_core,
            cores,
        }
    }

    /// A layout reserving `bytes_per_core` bytes per core, placed just below
    /// the top of the modelled 3 GB physical memory like
    /// [`Self::paper_default`]. Used when several virtualized tables cohabit
    /// one core's region (e.g. SMS + Markov need 2 × 64 KB per core).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_core` is zero or not block-aligned.
    pub fn with_bytes_per_core(cores: usize, bytes_per_core: u64) -> Self {
        assert!(bytes_per_core > 0, "PV regions need at least one byte");
        assert!(
            bytes_per_core.is_multiple_of(BLOCK_BYTES),
            "PV regions must be block-aligned ({bytes_per_core} bytes)"
        );
        let total = bytes_per_core * cores as u64;
        PvRegionConfig {
            base: Address::new(3 * 1024 * 1024 * 1024 - total),
            bytes_per_core,
            cores,
        }
    }

    /// Base address of `core`'s region.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_base(&self, core: usize) -> Address {
        assert!(
            core < self.cores,
            "core {core} out of range ({} cores)",
            self.cores
        );
        Address::new(self.base.raw() + core as u64 * self.bytes_per_core)
    }

    /// Whether `addr` lies inside any reserved PV region.
    pub fn contains(&self, addr: Address) -> bool {
        let start = self.base.raw();
        let end = start + self.bytes_per_core * self.cores as u64;
        addr.raw() >= start && addr.raw() < end
    }

    /// Total reserved bytes across all cores.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_per_core * self.cores as u64
    }
}

/// Full memory-system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of cores (private L1s each).
    pub cores: usize,
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Per-core L1 instruction cache.
    pub l1i: CacheConfig,
    /// Shared L2.
    pub l2: CacheConfig,
    /// Main memory.
    pub dram: DramConfig,
    /// Reserved PV regions (present even when PV is unused; harmless).
    pub pv_regions: PvRegionConfig,
    /// Whether each core runs the next-line instruction prefetcher of the
    /// baseline configuration.
    pub next_line_iprefetch: bool,
    /// How shared resources (L2 ports, MSHRs, DRAM queues) are timed.
    pub contention: ContentionModel,
    /// Prefetch-outcome events (first uses + unused evictions) per
    /// prefetch-accuracy sampling epoch (see [`crate::AccuracyWindow`]).
    /// Sampling is pure bookkeeping and never perturbs timing; consumers
    /// that ignore the windows behave identically at any epoch.
    pub accuracy_epoch: u64,
}

impl HierarchyConfig {
    /// The paper's Table 1 baseline for `cores` cores.
    pub fn paper_baseline(cores: usize) -> Self {
        HierarchyConfig {
            cores,
            l1d: CacheConfig::l1_paper(),
            l1i: CacheConfig::l1_paper(),
            l2: CacheConfig::l2_paper(),
            dram: DramConfig::paper(),
            pv_regions: PvRegionConfig::paper_default(cores),
            next_line_iprefetch: true,
            contention: ContentionModel::Ideal,
            accuracy_epoch: 256,
        }
    }

    /// Baseline with a different shared-L2 capacity (Figure 10).
    pub fn with_l2_size(mut self, size_bytes: u64) -> Self {
        self.l2 = CacheConfig::l2_with_size(size_bytes);
        self
    }

    /// Baseline with the slower L2 of Figure 11.
    pub fn with_slow_l2(mut self) -> Self {
        self.l2 = CacheConfig::l2_slow();
        self
    }

    /// Baseline with a different contention model.
    pub fn with_contention(mut self, contention: ContentionModel) -> Self {
        self.contention = contention;
        self
    }

    /// Baseline with `bytes_per_core` bytes of reserved PV region per core
    /// (cohabiting predictors need room for one sub-region per table).
    pub fn with_pv_bytes_per_core(mut self, bytes_per_core: u64) -> Self {
        self.pv_regions = PvRegionConfig::with_bytes_per_core(self.cores, bytes_per_core);
        self
    }

    /// Baseline with a different DRAM data-bus transfer cost (bandwidth
    /// sweep knob).
    pub fn with_dram_cycles_per_transfer(mut self, cycles: u64) -> Self {
        self.dram = self.dram.with_cycles_per_transfer(cycles);
        self
    }

    /// Baseline with a different prefetch-accuracy sampling epoch
    /// (events per window; must be non-zero).
    pub fn with_accuracy_epoch(mut self, epoch: u64) -> Self {
        self.accuracy_epoch = epoch;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1_geometry_matches_table1() {
        let l1 = CacheConfig::l1_paper();
        assert_eq!(l1.size_bytes, 64 * 1024);
        assert_eq!(l1.ways, 4);
        assert_eq!(l1.sets(), 256);
        assert_eq!(l1.data_latency, 2);
    }

    #[test]
    fn paper_l2_geometry_matches_table1() {
        let l2 = CacheConfig::l2_paper();
        assert_eq!(l2.size_bytes, 8 * 1024 * 1024);
        assert_eq!(l2.ways, 16);
        assert_eq!(l2.sets(), 8192);
        assert_eq!(l2.tag_latency, 6);
        assert_eq!(l2.data_latency, 12);
    }

    #[test]
    fn slow_l2_matches_fig11_latencies() {
        let l2 = CacheConfig::l2_slow();
        assert_eq!(l2.tag_latency, 8);
        assert_eq!(l2.data_latency, 16);
        assert_eq!(l2.size_bytes, CacheConfig::l2_paper().size_bytes);
    }

    #[test]
    fn dram_matches_table1() {
        assert_eq!(DramConfig::paper().latency, 400);
    }

    #[test]
    fn contention_defaults_to_ideal() {
        assert_eq!(ContentionModel::default(), ContentionModel::Ideal);
        let base = HierarchyConfig::paper_baseline(4);
        assert_eq!(base.contention, ContentionModel::Ideal);
        let queued = base.with_contention(ContentionModel::Queued);
        assert_eq!(queued.contention, ContentionModel::Queued);
        // The contention switch must not disturb the rest of the baseline.
        assert_eq!(queued.l2, base.l2);
        assert_eq!(queued.dram, base.dram);
    }

    #[test]
    fn dram_bandwidth_knob_only_moves_transfer_cost() {
        let base = DramConfig::paper();
        let slow = base.with_cycles_per_transfer(128);
        assert_eq!(slow.cycles_per_transfer, 128);
        assert_eq!(slow.latency, base.latency);
        assert_eq!(slow.queue_depth, base.queue_depth);
        let hier = HierarchyConfig::paper_baseline(4).with_dram_cycles_per_transfer(64);
        assert_eq!(hier.dram.cycles_per_transfer, 64);
    }

    #[test]
    fn l2_is_banked_and_l1_is_not() {
        assert_eq!(CacheConfig::l2_paper().banks, 8);
        assert!(CacheConfig::l2_paper().port_occupancy >= 1);
        assert_eq!(CacheConfig::l1_paper().banks, 1);
    }

    #[test]
    fn pv_regions_are_disjoint_per_core() {
        let pv = PvRegionConfig::paper_default(4);
        for core in 0..4 {
            let base = pv.core_base(core);
            assert!(pv.contains(base));
            assert!(pv.contains(Address::new(base.raw() + pv.bytes_per_core - 1)));
            if core > 0 {
                assert_eq!(base.raw(), pv.core_base(core - 1).raw() + pv.bytes_per_core);
            }
        }
        assert_eq!(pv.total_bytes(), 4 * 64 * 1024);
    }

    #[test]
    fn pv_region_excludes_low_memory() {
        let pv = PvRegionConfig::paper_default(4);
        assert!(!pv.contains(Address::new(0)));
        assert!(!pv.contains(Address::new(1 << 20)));
    }

    #[test]
    fn baseline_builder_overrides_apply() {
        let base = HierarchyConfig::paper_baseline(4);
        assert_eq!(base.cores, 4);
        let small = base.with_l2_size(2 * 1024 * 1024);
        assert_eq!(small.l2.size_bytes, 2 * 1024 * 1024);
        let slow = base.with_slow_l2();
        assert_eq!(slow.l2.tag_latency, 8);
    }

    #[test]
    #[should_panic(expected = "cannot be")]
    fn bad_geometry_panics() {
        let cfg = CacheConfig {
            size_bytes: 64 * 1024 + 64,
            ..CacheConfig::l1_paper()
        };
        cfg.sets();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_set_count_panics() {
        // 192 KB, 4-way: 3072 blocks divide evenly into 768 sets.
        let cfg = CacheConfig {
            size_bytes: 192 * 1024,
            ..CacheConfig::l1_paper()
        };
        cfg.sets();
    }
}
