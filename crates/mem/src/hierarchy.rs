//! The multi-core memory hierarchy: private L1 I/D caches per core, a shared
//! L2, and main memory, plus the hook the PVProxy uses to inject requests at
//! the backside of the L1.
//!
//! The hierarchy is the single point through which all memory traffic flows,
//! so it owns the traffic accounting the paper's evaluation reports:
//! L2 requests, L2 misses, L2 write-backs and off-chip traffic, each split
//! into application and predictor data.
//!
//! Under [`ContentionModel::Queued`] the shared resources are also *timed*:
//! L2 tag-pipeline banks have a per-bank occupancy (requests to the same
//! bank serialize), a full MSHR file stalls the requester until an entry
//! drains instead of being a free counter, and the DRAM model queues
//! requests behind finite channel buffers, banks and the data bus. Every
//! wait is reported in the response's `queue_delay` and accumulated into
//! per-class delay statistics, so predictor traffic visibly competes with
//! demand traffic. Under [`ContentionModel::Ideal`] all of this is off and
//! the hierarchy reproduces the original fixed-latency timing bit for bit.
//!
//! Each decision is made in one place. A core's private state (an L1 data
//! side and an L1 instruction side, each a cache plus its MSHR file, the
//! next-line instruction prefetcher and the prefetch-accuracy windows) is
//! one struct, and the shared levels behind it are another, so an L1 miss
//! selects its side once and walks the L2 and memory while holding it. One
//! demand path serves both L1 sides; one L2 install writes a dirty victim
//! to DRAM; and one classifier decides which blocks lie in the reserved PV
//! region — main memory counts each access under the class it is given.

use crate::accuracy::AccuracyWindow;
use crate::address::{Address, BlockAddr};
use crate::cache::{AccessKind, AccessOutcome, Cache, FillOrigin, HitLevel};
use crate::config::{CacheConfig, ContentionModel, HierarchyConfig};
use crate::memory::MainMemory;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::prefetch::NextLinePrefetcher;
use crate::stats::HierarchyStats;

/// What kind of agent issued a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequesterKind {
    /// A core's load/store stream through its L1 data cache.
    Data,
    /// A core's instruction-fetch stream through its L1 instruction cache.
    Instruction,
    /// The per-core PVProxy, injecting requests directly at the L2.
    PvProxy,
}

/// A request source: which core and which agent on that core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Requester {
    /// Core index.
    pub core: usize,
    /// Agent kind.
    pub kind: RequesterKind,
}

impl Requester {
    /// A core's data-access stream.
    pub fn data(core: usize) -> Self {
        Requester {
            core,
            kind: RequesterKind::Data,
        }
    }

    /// A core's instruction-fetch stream.
    pub fn instruction(core: usize) -> Self {
        Requester {
            core,
            kind: RequesterKind::Instruction,
        }
    }

    /// A core's PVProxy.
    pub fn pv_proxy(core: usize) -> Self {
        Requester {
            core,
            kind: RequesterKind::PvProxy,
        }
    }
}

/// Classification of the data moved by a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataClass {
    /// Ordinary application data.
    Application,
    /// Virtualized predictor metadata (PVTable contents).
    Predictor,
}

impl DataClass {
    /// Whether this is predictor data.
    pub fn is_predictor(self) -> bool {
        matches!(self, DataClass::Predictor)
    }

    /// Dense index (`Application = 0`, `Predictor = 1`), used to key
    /// per-class state such as the prefetch-accuracy windows.
    pub fn index(self) -> usize {
        match self {
            DataClass::Application => 0,
            DataClass::Predictor => 1,
        }
    }
}

/// Caller-owned scratch buffer for L1-eviction reports.
///
/// The hot path used to heap-allocate a `Vec<BlockAddr>` inside every
/// [`AccessResponse`] / [`PrefetchResponse`]; the buffer replaces that with
/// a fixed-capacity inline array the caller threads through
/// [`MemoryHierarchy::access_data`] and
/// [`MemoryHierarchy::prefetch_into_l1d`] — the same reuse discipline as
/// the simulator's prefetch-action scratch. The hierarchy clears it on
/// entry and pushes at most one victim per access (a single L1 fill evicts
/// at most one line), so the whole response path is allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionBuffer {
    len: u8,
    blocks: [BlockAddr; Self::CAPACITY],
}

impl Default for EvictionBuffer {
    fn default() -> Self {
        EvictionBuffer {
            len: 0,
            blocks: [BlockAddr::new(0); Self::CAPACITY],
        }
    }
}

impl EvictionBuffer {
    /// Inline capacity. A demand access or prefetch fills at most one L1
    /// line and therefore evicts at most one; the spare slot keeps the
    /// invariant an assert instead of silent truncation if the fill path
    /// ever grows a second victim source.
    pub const CAPACITY: usize = 2;

    /// Empties the buffer (also done by the hierarchy on entry).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The evicted blocks reported by the last call, in eviction order.
    pub fn as_slice(&self) -> &[BlockAddr] {
        &self.blocks[..self.len as usize]
    }

    /// Whether the last call evicted nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of evictions reported by the last call.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub(crate) fn push(&mut self, block: BlockAddr) {
        let slot = self.len as usize;
        assert!(
            slot < Self::CAPACITY,
            "one access cannot evict more than {} L1 lines",
            Self::CAPACITY
        );
        self.blocks[slot] = block;
        self.len += 1;
    }
}

/// Result of a demand access through the hierarchy.
///
/// The response is plain `Copy` data; evicted blocks are reported through
/// the caller-owned [`EvictionBuffer`] instead of an embedded `Vec`, so
/// returning a response never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResponse {
    /// End-to-end latency in cycles.
    pub latency: u64,
    /// Which level serviced the request.
    pub level: HitLevel,
    /// The access was the first demand use of a prefetched L1 line.
    pub first_use_of_prefetch: bool,
    /// The access hit a prefetched line whose fill was still in flight.
    pub late_prefetch: bool,
    /// Cycles of `latency` spent waiting for contended shared resources
    /// (L2 ports, MSHR slots, DRAM queues). Always zero under
    /// [`ContentionModel::Ideal`].
    pub queue_delay: u64,
}

/// Result of a prefetch request into an L1 data cache. Like
/// [`AccessResponse`], evictions are reported through the caller-owned
/// [`EvictionBuffer`], keeping the response `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchResponse {
    /// False when the block was already resident (prefetch dropped).
    pub issued: bool,
    /// Cycle at which the prefetched data becomes usable.
    pub ready_at: u64,
}

/// Result of one shared-L2 path traversal (internal).
#[derive(Debug, Clone, Copy)]
struct L2Path {
    latency: u64,
    level: HitLevel,
    queue_delay: u64,
}

/// One private L1 cache with its MSHR file.
#[derive(Debug)]
struct L1Side {
    cache: Cache,
    mshr: MshrFile,
}

impl L1Side {
    fn new(name: String, config: CacheConfig) -> Self {
        L1Side {
            cache: Cache::new(name, config),
            mshr: MshrFile::new(config.mshr_entries),
        }
    }
}

/// Everything private to one core: its L1 data and instruction sides, the
/// next-line instruction prefetcher, and the windows over L1D prefetch
/// outcomes (indexed by [`DataClass::index`]).
#[derive(Debug)]
struct PrivateL1 {
    data: L1Side,
    instruction: L1Side,
    iprefetch: NextLinePrefetcher,
    accuracy: [AccuracyWindow; 2],
}

impl PrivateL1 {
    fn side(&mut self, instruction: bool) -> &mut L1Side {
        if instruction {
            &mut self.instruction
        } else {
            &mut self.data
        }
    }

    fn record_prefetch_outcome(&mut self, predictor: bool, used: bool) {
        // `predictor as usize` is exactly `DataClass::index()`.
        let window = &mut self.accuracy[predictor as usize];
        if used {
            window.record_used();
        } else {
            window.record_useless();
        }
    }
}

/// Everything behind the private L1s: the shared L2 with its MSHR file and
/// tag-pipeline ports, main memory, the configuration and the statistics.
/// It is a struct of its own so that an L1 miss can hold its core's
/// [`L1Side`] while it walks the shared levels.
#[derive(Debug)]
struct SharedLevels {
    config: HierarchyConfig,
    l2: Cache,
    l2_mshr: MshrFile,
    /// Cycle each L2 tag-pipeline bank becomes free (Queued mode only).
    l2_ports: Vec<u64>,
    dram: MainMemory,
    /// Bounds of the reserved PV address range, `[pv_start, pv_end)`.
    pv_start: u64,
    pv_end: u64,
    stats: HierarchyStats,
}

/// The simulated memory system.
#[derive(Debug)]
pub struct MemoryHierarchy {
    cores: Vec<PrivateL1>,
    shared: SharedLevels,
}

impl MemoryHierarchy {
    /// Builds the hierarchy described by `config`.
    pub fn new(config: HierarchyConfig) -> Self {
        let cores = (0..config.cores)
            .map(|c| PrivateL1 {
                data: L1Side::new(format!("L1D.{c}"), config.l1d),
                instruction: L1Side::new(format!("L1I.{c}"), config.l1i),
                iprefetch: NextLinePrefetcher::new(),
                accuracy: [
                    AccuracyWindow::new(config.accuracy_epoch),
                    AccuracyWindow::new(config.accuracy_epoch),
                ],
            })
            .collect();
        let pv_start = config.pv_regions.base.raw();
        MemoryHierarchy {
            cores,
            shared: SharedLevels {
                config,
                l2: Cache::new("L2", config.l2),
                l2_mshr: MshrFile::new(config.l2.mshr_entries),
                l2_ports: vec![0; config.l2.banks.max(1)],
                dram: MainMemory::new(config.dram, config.contention),
                pv_start,
                pv_end: pv_start + config.pv_regions.total_bytes(),
                stats: HierarchyStats::new(config.cores),
            },
        }
    }

    /// The configuration this hierarchy was built from.
    pub fn config(&self) -> &HierarchyConfig {
        &self.shared.config
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Invariant: `core < self.cores()`. Every public entry point is keyed
    /// by a core index that the simulator derived from this same
    /// configuration, and any violation panics immediately afterwards on
    /// the first indexed access (`self.cores[core]`), so a release-mode
    /// bounds check here would only duplicate work on the hottest path —
    /// debug builds keep the descriptive message.
    #[inline]
    fn assert_core(&self, core: usize) {
        debug_assert!(
            core < self.cores.len(),
            "core {core} out of range ({} cores)",
            self.cores.len()
        );
    }

    /// Whether `block` is resident in `core`'s L1 data cache.
    pub fn l1d_contains(&self, core: usize, block: BlockAddr) -> bool {
        self.assert_core(core);
        self.cores[core].data.cache.contains(block)
    }

    /// Whether `block` is resident in the shared L2.
    pub fn l2_contains(&self, block: BlockAddr) -> bool {
        self.shared.l2.contains(block)
    }

    /// Performs a demand access on behalf of `requester`.
    ///
    /// * `Data` / `Instruction` requesters go through the core's L1 and, on a
    ///   miss, through the shared L2 and memory; the filled line is installed
    ///   in the L1 (write-allocate).
    /// * `PvProxy` requesters bypass the L1 and are injected at the L2, as in
    ///   the paper's design ("normal memory requests, injected on the
    ///   backside of the L1").
    ///
    /// Debug builds panic if `requester.core` is out of range (release
    /// builds panic on the first indexed access instead).
    ///
    /// Blocks displaced from an L1 are not reported: callers that need them
    /// (the simulator's engine feed) use [`Self::access_data`].
    pub fn access(
        &mut self,
        requester: Requester,
        addr: u64,
        kind: AccessKind,
        class: DataClass,
        now: u64,
    ) -> AccessResponse {
        self.assert_core(requester.core);
        let block = Address::new(addr).block();
        let instruction = match requester.kind {
            RequesterKind::Data => false,
            RequesterKind::Instruction => true,
            RequesterKind::PvProxy => {
                let below = self.shared.l2_path(block, kind, class, now);
                return AccessResponse {
                    latency: below.latency,
                    level: below.level,
                    first_use_of_prefetch: false,
                    late_prefetch: false,
                    queue_delay: below.queue_delay,
                };
            }
        };
        let mut evictions = EvictionBuffer::default();
        self.l1_access(
            requester.core,
            block,
            kind,
            class,
            now,
            instruction,
            &mut evictions,
        )
    }

    /// The core data-access path: equivalent to `access(Requester::data(core),
    /// addr, kind, DataClass::Application, now)`, plus L1 eviction
    /// reporting: `evictions` is cleared and receives the block displaced
    /// from `core`'s L1 data cache (used by SMS to close spatial
    /// generations). The buffer is caller-owned scratch so the response path
    /// never allocates. The simulator's per-record hot path calls this.
    #[inline]
    pub fn access_data(
        &mut self,
        core: usize,
        addr: u64,
        kind: AccessKind,
        now: u64,
        evictions: &mut EvictionBuffer,
    ) -> AccessResponse {
        evictions.clear();
        self.assert_core(core);
        let block = Address::new(addr).block();
        self.l1_access(
            core,
            block,
            kind,
            DataClass::Application,
            now,
            false,
            evictions,
        )
    }

    /// The demand path through one side of `core`'s L1. The common L1 hit
    /// is one tag probe and an early return; a miss goes on to
    /// [`Self::miss_path`].
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn l1_access(
        &mut self,
        core: usize,
        block: BlockAddr,
        kind: AccessKind,
        class: DataClass,
        now: u64,
        instruction: bool,
        evictions: &mut EvictionBuffer,
    ) -> AccessResponse {
        let l1 = &mut self.cores[core];
        let outcome = l1.side(instruction).cache.access(block, kind, now);
        if outcome.hit {
            if !instruction && outcome.first_use_of_prefetch {
                l1.record_prefetch_outcome(self.shared.in_pv_region(block), true);
            }
            return AccessResponse {
                latency: outcome.latency,
                level: HitLevel::L1,
                first_use_of_prefetch: outcome.first_use_of_prefetch,
                late_prefetch: outcome.late_prefetch,
                queue_delay: 0,
            };
        }
        self.miss_path(
            core,
            block,
            kind,
            class,
            now,
            instruction,
            outcome,
            evictions,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn miss_path(
        &mut self,
        core: usize,
        block: BlockAddr,
        kind: AccessKind,
        class: DataClass,
        now: u64,
        instruction: bool,
        outcome: AccessOutcome,
        evictions: &mut EvictionBuffer,
    ) -> AccessResponse {
        let shared = &mut self.shared;
        let l1 = &mut self.cores[core];
        let side = l1.side(instruction);
        // L1 miss: merge into an outstanding fill when possible, otherwise go
        // to the L2 (and possibly memory).
        let below_start = now + outcome.latency;
        side.mshr.retire(now);
        let outstanding_ready = side.mshr.lookup(block).map(|entry| entry.ready_at);
        let (below_latency, level, queue_delay) = if let Some(ready) = outstanding_ready {
            let _ = side.mshr.register(block, now, ready);
            (ready.saturating_sub(below_start), HitLevel::L2, 0)
        } else {
            // Under queued contention a full L1 MSHR file exerts real
            // backpressure: the miss waits (it is never dropped) until the
            // earliest outstanding fill drains a slot, then issues below.
            let mshr_stall = if shared.config.contention == ContentionModel::Queued {
                side.mshr.wait_for_slot(below_start)
            } else {
                0
            };
            let issue_at = below_start + mshr_stall;
            shared.stats.mshr_stall_delay.record(class.is_predictor(), mshr_stall);
            let below = shared.l2_path(block, AccessKind::Read, class, issue_at);
            // Under Ideal a full file is not timed: with the paper's
            // 16-entry MSHRs this is rare and the access simply pays the
            // computed latency.
            let _ = side.mshr.allocate(block, now, issue_at + below.latency);
            (
                mshr_stall + below.latency,
                below.level,
                mshr_stall + below.queue_delay,
            )
        };
        let total_latency = outcome.latency + below_latency;
        let dirty = kind == AccessKind::Write;
        let evicted = side.cache.fill(block, dirty, now + total_latency, FillOrigin::Demand);
        if let Some(ev) = evicted {
            if ev.dirty {
                shared.writeback_to_l2(ev.block, now);
            }
            if !instruction {
                if ev.prefetched_unused {
                    l1.record_prefetch_outcome(shared.in_pv_region(ev.block), false);
                }
                evictions.push(ev.block);
            }
        }
        // Baseline next-line instruction prefetcher.
        if instruction && shared.config.next_line_iprefetch {
            if let Some(target) = l1.iprefetch.on_instruction_miss(block) {
                self.prefetch_into_l1i(core, target, now);
            }
        }
        AccessResponse {
            latency: total_latency,
            level,
            first_use_of_prefetch: false,
            late_prefetch: false,
            queue_delay,
        }
    }

    /// Write-back entry point for the PVProxy: a dirty PVCache victim is sent
    /// to the L2 exactly like an L1 write-back would be.
    pub fn writeback(&mut self, requester: Requester, addr: u64, now: u64) {
        self.assert_core(requester.core);
        self.shared.writeback_to_l2(Address::new(addr).block(), now);
    }

    /// Prefetches `block` into `core`'s L1 data cache (SMS stream target).
    ///
    /// The prefetch travels through the L2 like a demand fill would, but the
    /// core does not wait for it; the returned `ready_at` is when the data
    /// becomes usable. `evictions` is cleared and receives the displaced
    /// block, if any (caller-owned scratch, exactly as in
    /// [`Self::access_data`]).
    pub fn prefetch_into_l1d(
        &mut self,
        core: usize,
        block: BlockAddr,
        now: u64,
        evictions: &mut EvictionBuffer,
    ) -> PrefetchResponse {
        evictions.clear();
        self.assert_core(core);
        let shared = &mut self.shared;
        let l1 = &mut self.cores[core];
        if l1.data.cache.contains(block) {
            return PrefetchResponse {
                issued: false,
                ready_at: now,
            };
        }
        l1.data.mshr.retire(now);
        if l1.data.mshr.lookup(block).is_some() {
            // A demand miss or earlier prefetch is already fetching it.
            return PrefetchResponse {
                issued: false,
                ready_at: now,
            };
        }
        let below = shared.l2_path(block, AccessKind::Read, DataClass::Application, now);
        let ready_at = now + below.latency;
        let _ = l1.data.mshr.allocate(block, now, ready_at);
        shared.stats.l1d_prefetches[core] += 1;
        let evicted = l1.data.cache.fill(block, false, ready_at, FillOrigin::Prefetch);
        if let Some(ev) = evicted {
            if ev.dirty {
                shared.writeback_to_l2(ev.block, now);
            }
            if ev.prefetched_unused {
                l1.record_prefetch_outcome(shared.in_pv_region(ev.block), false);
            }
            evictions.push(ev.block);
        }
        PrefetchResponse {
            issued: true,
            ready_at,
        }
    }

    /// Next-line instruction prefetch into `core`'s L1I. Unlike
    /// [`Self::prefetch_into_l1d`] it takes no MSHR entry.
    fn prefetch_into_l1i(&mut self, core: usize, block: BlockAddr, now: u64) {
        let shared = &mut self.shared;
        let l1i = &mut self.cores[core].instruction.cache;
        if l1i.contains(block) {
            return;
        }
        let below = shared.l2_path(block, AccessKind::Read, DataClass::Application, now);
        shared.stats.l1i_prefetches[core] += 1;
        let evicted = l1i.fill(block, false, now + below.latency, FillOrigin::Prefetch);
        if let Some(ev) = evicted {
            if ev.dirty {
                shared.writeback_to_l2(ev.block, now);
            }
        }
    }

    /// The prefetch-accuracy window of `(core, class)` — windowed used vs.
    /// evicted-unused outcomes of prefetches into `core`'s L1D — for
    /// feedback consumers to drain completed epochs
    /// ([`AccuracyWindow::pop_completed`]).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range (debug builds fail the descriptive
    /// assertion first; release builds fail the indexed access).
    pub fn prefetch_accuracy_mut(&mut self, core: usize, class: DataClass) -> &mut AccuracyWindow {
        self.assert_core(core);
        &mut self.cores[core].accuracy[class.index()]
    }

    /// Snapshot of the current statistics.
    pub fn stats(&self) -> HierarchyStats {
        let shared = &self.shared;
        let mut stats = shared.stats.clone();
        stats.l1d = self.cores.iter().map(|l1| *l1.data.cache.stats()).collect();
        stats.l1i = self.cores.iter().map(|l1| *l1.instruction.cache.stats()).collect();
        stats.next_line = self
            .cores
            .iter()
            .map(|l1| crate::stats::NextLineStats {
                issued: l1.iprefetch.issued(),
                suppressed: l1.iprefetch.suppressed(),
            })
            .collect();
        stats.l2 = *shared.l2.stats();
        stats.dram_queue_delay = shared.dram.queue_delay();
        stats.dram_read_traffic = shared.dram.reads();
        stats.dram_busy_cycles = shared.dram.busy_cycles();
        stats
    }

    /// Resets all statistics (contents are preserved), e.g. at the end of the
    /// warm-up window.
    ///
    /// A stats reset marks a measurement-window boundary, where requester
    /// clocks restart from zero (`CoreModel::reset`). The queued-contention
    /// timing state (L2 port `busy_until`s, DRAM channel queues, MSHR
    /// files) is clocked by those requester timestamps, so it is rebased to
    /// zero too — otherwise the new window's first accesses would wait out
    /// absolute warm-up-era busy times as enormous phantom queue delays.
    /// Under `Ideal` contention none of this state is consulted and the
    /// MSHR files are left untouched, preserving the original semantics
    /// bit for bit. Resident lines keep their absolute `ready_at` in both
    /// modes, a known defect (`tests::reset_stats_rebases_line_fill_times`).
    pub fn reset_stats(&mut self) {
        let shared = &mut self.shared;
        let queued = shared.config.contention == ContentionModel::Queued;
        for l1 in &mut self.cores {
            l1.data.cache.reset_stats();
            l1.instruction.cache.reset_stats();
            l1.iprefetch.reset_stats();
            for window in &mut l1.accuracy {
                window.reset();
            }
            if queued {
                l1.data.mshr.clear();
                l1.instruction.mshr.clear();
            }
        }
        shared.l2.reset_stats();
        shared.dram.reset_stats();
        if queued {
            shared.l2_ports.iter_mut().for_each(|port| *port = 0);
            shared.dram.reset_timing();
            shared.l2_mshr.clear();
        }
        shared.stats = HierarchyStats::new(shared.config.cores);
    }
}

impl SharedLevels {
    /// Whether `block` lies inside the reserved PV address range. This is
    /// the hierarchy's one PV-region classifier: every L2 request,
    /// write-back, DRAM access and prefetch-accuracy sample is classified
    /// here, and [`MainMemory`] takes the result as an argument.
    #[inline]
    fn in_pv_region(&self, block: BlockAddr) -> bool {
        let addr = block.base_address().raw();
        addr >= self.pv_start && addr < self.pv_end
    }

    /// L2 tag-pipeline port arbitration: requests to the same bank serialize
    /// behind earlier ones (Queued mode only). Returns the cycle the request
    /// may start, having occupied the bank and recorded the wait in
    /// `l2_port_delay`. Under `Ideal` the port is free and `now` is returned
    /// unchanged.
    fn acquire_l2_port(&mut self, block: BlockAddr, predictor: bool, now: u64) -> u64 {
        if self.config.contention != ContentionModel::Queued {
            return now;
        }
        let bank = (block.raw() % self.l2_ports.len() as u64) as usize;
        let port_free = self.l2_ports[bank].max(now);
        self.l2_ports[bank] = port_free + self.config.l2.port_occupancy;
        self.stats.l2_port_delay.record(predictor, port_free - now);
        port_free
    }

    /// Shared-L2 access path (used by L1 misses, prefetches and the PVProxy).
    fn l2_path(
        &mut self,
        block: BlockAddr,
        kind: AccessKind,
        class: DataClass,
        now: u64,
    ) -> L2Path {
        // `region` feeds the DRAM traffic classification below (which splits
        // strictly by address), while the stats rows also honour the
        // requester's claimed class.
        let region = self.in_pv_region(block);
        let predictor = class.is_predictor() || region;
        self.stats.l2_requests.record(predictor);
        let mut queue_delay = 0u64;
        let start = self.acquire_l2_port(block, predictor, now);
        queue_delay += start - now;
        let outcome = self.l2.access(block, kind, start);
        if outcome.hit {
            return L2Path {
                latency: (start - now) + self.config.l2.tag_latency + outcome.latency,
                level: HitLevel::L2,
                queue_delay,
            };
        }
        // L2 miss.
        self.stats.l2_misses.record(predictor);
        self.l2_mshr.retire(start);
        let below_start = start + outcome.latency;
        let dram_latency = if let Some(entry) = self.l2_mshr.lookup(block) {
            let in_flight_ready = entry.ready_at;
            // The registration outcome is authoritative: a secondary miss
            // must actually join the in-flight entry, or occupancy (and with
            // it Queued-mode backpressure) is silently under-counted.
            let ready = match self.l2_mshr.register(block, start, in_flight_ready) {
                MshrOutcome::Merged { ready_at } => ready_at,
                MshrOutcome::Allocated | MshrOutcome::Full => {
                    // A merge can only fail if the looked-up entry vanished
                    // (retired or displaced) between lookup and register.
                    // Count it instead of dropping it on the floor; the
                    // requester still waits for the fill it observed.
                    self.stats.l2_mshr_merge_failures += 1;
                    in_flight_ready
                }
            };
            ready.saturating_sub(below_start)
        } else {
            // Under queued contention a full L2 MSHR file delays the fill
            // until an entry drains; the request is never dropped.
            let mshr_stall = if self.config.contention == ContentionModel::Queued {
                self.l2_mshr.wait_for_slot(below_start)
            } else {
                0
            };
            self.stats.mshr_stall_delay.record(predictor, mshr_stall);
            queue_delay += mshr_stall;
            let issue_at = below_start + mshr_stall;
            self.stats.dram_reads += 1;
            let response = self.dram.read(block.base_address(), region, issue_at);
            queue_delay += response.queue_delay;
            let ready = issue_at + response.latency;
            let _ = self.l2_mshr.allocate(block, start, ready);
            (issue_at - below_start) + response.latency
        };
        let total = outcome.latency + dram_latency;
        self.fill_l2(block, kind == AccessKind::Write, start + total);
        L2Path {
            latency: (start - now) + total,
            level: HitLevel::Memory,
            queue_delay,
        }
    }

    /// A dirty line leaving an L1 (or the PVCache) is written back into the
    /// L2. Write-backs allocate in the L2 without fetching from memory
    /// because the whole block is being overwritten.
    ///
    /// One tag probe decides the case: the write-back is an L2 write
    /// access, which on a hit counts a write hit and marks the resident line
    /// dirty, and on a miss is followed by a dirty fill.
    ///
    /// Under `Queued` contention the write-back competes for the same L2
    /// tag-pipeline bank ports as reads: it waits for its bank, occupies it,
    /// and the wait is recorded in `l2_port_delay` under the victim's data
    /// class. No requester blocks on the write-back itself, but the port
    /// occupancy delays subsequent same-bank requests — dirty victims are no
    /// longer free.
    fn writeback_to_l2(&mut self, block: BlockAddr, now: u64) {
        let predictor = self.in_pv_region(block);
        self.stats.l2_requests.record(predictor);
        let start = self.acquire_l2_port(block, predictor, now);
        if !self.l2.access(block, AccessKind::Write, start).hit {
            self.fill_l2(block, true, start + self.config.l2.data_latency);
        }
    }

    /// Installs `block` in the L2 with its data ready at `ready_at`. A dirty
    /// victim is counted as an L2 write-back of its own class and written
    /// to DRAM at `ready_at`.
    fn fill_l2(&mut self, block: BlockAddr, dirty: bool, ready_at: u64) {
        if let Some(ev) = self.l2.fill(block, dirty, ready_at, FillOrigin::Demand) {
            if ev.dirty {
                let predictor = self.in_pv_region(ev.block);
                self.stats.l2_writebacks.record(predictor);
                self.stats.dram_writes += 1;
                self.dram.write(ev.block.base_address(), predictor, ready_at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::paper_baseline(2))
    }

    #[test]
    fn cold_read_goes_to_memory_then_hits_in_l1() {
        let mut h = hierarchy();
        let r = h.access(
            Requester::data(0),
            0x10_0000,
            AccessKind::Read,
            DataClass::Application,
            0,
        );
        assert_eq!(r.level, HitLevel::Memory);
        assert!(
            r.latency >= 400,
            "cold miss must pay DRAM latency, got {}",
            r.latency
        );
        let r2 = h.access(
            Requester::data(0),
            0x10_0000,
            AccessKind::Read,
            DataClass::Application,
            1000,
        );
        assert_eq!(r2.level, HitLevel::L1);
        assert_eq!(r2.latency, 2);
    }

    #[test]
    fn second_core_miss_hits_in_shared_l2() {
        let mut h = hierarchy();
        h.access(
            Requester::data(0),
            0x20_0000,
            AccessKind::Read,
            DataClass::Application,
            0,
        );
        let r = h.access(
            Requester::data(1),
            0x20_0000,
            AccessKind::Read,
            DataClass::Application,
            1000,
        );
        assert_eq!(r.level, HitLevel::L2);
        assert!(r.latency < 100, "L2 hit should be cheap, got {}", r.latency);
    }

    #[test]
    fn pv_proxy_requests_bypass_l1_and_are_classified_predictor() {
        let mut h = hierarchy();
        let pv_addr = h.config().pv_regions.core_base(0).raw();
        let r = h.access(
            Requester::pv_proxy(0),
            pv_addr,
            AccessKind::Read,
            DataClass::Predictor,
            0,
        );
        assert_eq!(r.level, HitLevel::Memory);
        let stats = h.stats();
        assert_eq!(stats.l2_requests.predictor, 1);
        assert_eq!(stats.l2_misses.predictor, 1);
        assert_eq!(stats.l1d_total().reads, 0, "PVProxy must not touch the L1");
        // Second access: the PHT block now lives in the L2.
        let r2 = h.access(
            Requester::pv_proxy(0),
            pv_addr,
            AccessKind::Read,
            DataClass::Predictor,
            1000,
        );
        assert_eq!(r2.level, HitLevel::L2);
    }

    #[test]
    fn prefetch_installs_into_l1_and_counts_coverage_on_use() {
        let mut h = hierarchy();
        let block = BlockAddr::new(0x3000);
        let pf = h.prefetch_into_l1d(0, block, 0, &mut EvictionBuffer::default());
        assert!(pf.issued);
        assert!(pf.ready_at >= 400);
        // Demand access long after the prefetch completed: full L1 hit.
        let r = h.access(
            Requester::data(0),
            block.base_address().raw(),
            AccessKind::Read,
            DataClass::Application,
            10_000,
        );
        assert_eq!(r.level, HitLevel::L1);
        assert!(r.first_use_of_prefetch);
        assert!(!r.late_prefetch);
    }

    #[test]
    fn late_prefetch_pays_partial_latency() {
        let mut h = hierarchy();
        let block = BlockAddr::new(0x4000);
        let pf = h.prefetch_into_l1d(0, block, 0, &mut EvictionBuffer::default());
        assert!(pf.issued);
        // Demand access 10 cycles later: prefetch still in flight.
        let r = h.access(
            Requester::data(0),
            block.base_address().raw(),
            AccessKind::Read,
            DataClass::Application,
            10,
        );
        assert!(r.late_prefetch);
        assert!(
            r.latency < pf.ready_at,
            "late prefetch should still save time"
        );
        assert!(
            r.latency >= pf.ready_at - 10 - 1,
            "residual latency should be close to remaining time"
        );
    }

    #[test]
    fn duplicate_prefetch_is_dropped() {
        let mut h = hierarchy();
        let block = BlockAddr::new(0x5000);
        let mut scratch = EvictionBuffer::default();
        assert!(h.prefetch_into_l1d(0, block, 0, &mut scratch).issued);
        assert!(!h.prefetch_into_l1d(0, block, 1, &mut scratch).issued);
        let stats = h.stats();
        assert_eq!(stats.l1d_prefetches[0], 1);
    }

    #[test]
    fn writes_produce_writebacks_eventually() {
        let mut h = hierarchy();
        // Write a block, then stream enough conflicting blocks through the
        // same L1 set to force the dirty line out.
        let l1_sets = h.config().l1d.sets() as u64;
        let base_block = 7u64;
        h.access(
            Requester::data(0),
            BlockAddr::new(base_block).base_address().raw(),
            AccessKind::Write,
            DataClass::Application,
            0,
        );
        for i in 1..=4u64 {
            let conflicting = BlockAddr::new(base_block + i * l1_sets);
            h.access(
                Requester::data(0),
                conflicting.base_address().raw(),
                AccessKind::Read,
                DataClass::Application,
                i * 1000,
            );
        }
        let stats = h.stats();
        assert!(
            stats.l1d[0].writebacks >= 1,
            "dirty line should have been written back"
        );
        assert!(stats.l2.writes >= 1, "write-back must arrive at the L2");
    }

    /// A dirty L1 victim whose block is still resident in the L2 costs one
    /// L2 tag probe: a write hit that marks the line dirty, with nothing
    /// filled, evicted or written to DRAM.
    #[test]
    fn writeback_onto_resident_l2_line_is_a_write_hit() {
        let mut h = hierarchy();
        let l1_sets = h.config().l1d.sets() as u64;
        let block = BlockAddr::new(7);
        h.access(
            Requester::data(0),
            block.base_address().raw(),
            AccessKind::Write,
            DataClass::Application,
            0,
        );
        // Four reads conflicting in the 4-way L1 set (but not in the larger
        // L2) push the dirty line out while the L2 still holds its block.
        for i in 1..=4u64 {
            h.access(
                Requester::data(0),
                BlockAddr::new(block.raw() + i * l1_sets).base_address().raw(),
                AccessKind::Read,
                DataClass::Application,
                i * 1000,
            );
        }
        let stats = h.stats();
        assert_eq!(stats.l1d[0].writebacks, 1);
        assert!(!h.l1d_contains(0, block));
        assert_eq!((stats.l2.write_hits, stats.l2.write_misses), (1, 0));
        assert_eq!((stats.l2.writebacks, stats.dram_writes), (0, 0));
        assert_eq!(
            h.shared.l2.resident_lines(),
            5,
            "the write-back must not fill"
        );
        let line = h.shared.l2.invalidate(block).expect("block stays resident in the L2");
        assert!(
            line.dirty,
            "the write hit must mark the resident line dirty"
        );
    }

    #[test]
    fn instruction_misses_trigger_next_line_prefetch() {
        let mut h = hierarchy();
        h.access(
            Requester::instruction(0),
            0x100_0000,
            AccessKind::Read,
            DataClass::Application,
            0,
        );
        let stats = h.stats();
        assert_eq!(stats.l1i_prefetches[0], 1);
        // The next sequential block should now be resident (L2 or L1I); a
        // fetch of it must not go to memory.
        let r = h.access(
            Requester::instruction(0),
            0x100_0000 + 64,
            AccessKind::Read,
            DataClass::Application,
            10_000,
        );
        assert_ne!(r.level, HitLevel::Memory);
    }

    #[test]
    fn stats_reset_preserves_contents() {
        let mut h = hierarchy();
        h.access(
            Requester::data(0),
            0x9000,
            AccessKind::Read,
            DataClass::Application,
            0,
        );
        h.reset_stats();
        let stats = h.stats();
        assert_eq!(stats.l1d_total().reads, 0);
        // Contents preserved: the block still hits in L1.
        let r = h.access(
            Requester::data(0),
            0x9000,
            AccessKind::Read,
            DataClass::Application,
            10_000,
        );
        assert_eq!(r.level, HitLevel::L1);
    }

    #[test]
    fn eviction_notifications_are_reported_for_data_accesses() {
        let mut h = hierarchy();
        let l1_sets = h.config().l1d.sets() as u64;
        let ways = h.config().l1d.ways as u64;
        // Fill one L1 set beyond capacity and check that an eviction shows up.
        let mut evictions_seen = 0;
        let mut evictions = EvictionBuffer::default();
        for i in 0..=ways {
            let block = BlockAddr::new(3 + i * l1_sets);
            let _ = h.access_data(
                0,
                block.base_address().raw(),
                AccessKind::Read,
                i * 1000,
                &mut evictions,
            );
            evictions_seen += evictions.len();
        }
        assert!(evictions_seen >= 1, "overflowing an L1 set must evict");
    }

    /// The classification-free data path must behave exactly like the
    /// general entry point, hit and miss alike: same responses, same
    /// resident L1 blocks, same statistics.
    #[test]
    fn access_data_fast_path_matches_general_access() {
        let mut a = hierarchy();
        let mut b = hierarchy();
        let mut evictions = EvictionBuffer::default();
        let l1_sets = a.config().l1d.sets() as u64;
        let block_of = |i: u64| BlockAddr::new((i % 7) * l1_sets + (i % 3));
        for i in 0..64u64 {
            // A mix of fresh misses, re-hits and set-conflict evictions.
            let block = block_of(i);
            let kind = if i % 5 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let ra = a.access(
                Requester::data(0),
                block.base_address().raw(),
                kind,
                DataClass::Application,
                i * 100,
            );
            let rb = b.access_data(0, block.base_address().raw(), kind, i * 100, &mut evictions);
            assert_eq!(ra, rb, "response diverged at access {i}");
            for j in 0..21u64 {
                assert_eq!(
                    a.l1d_contains(0, block_of(j)),
                    b.l1d_contains(0, block_of(j)),
                    "L1 residency of block {j} diverged at access {i}"
                );
            }
        }
        assert_eq!(a.stats(), b.stats());
    }

    fn queued_hierarchy(l2_mshr_entries: usize) -> MemoryHierarchy {
        let mut config =
            HierarchyConfig::paper_baseline(2).with_contention(ContentionModel::Queued);
        config.l2.mshr_entries = l2_mshr_entries;
        MemoryHierarchy::new(config)
    }

    #[test]
    fn ideal_accesses_report_zero_queue_delay() {
        let mut h = hierarchy();
        for i in 0..32u64 {
            let r = h.access(
                Requester::data(0),
                i * 64,
                AccessKind::Read,
                DataClass::Application,
                0,
            );
            assert_eq!(r.queue_delay, 0);
        }
        let stats = h.stats();
        assert_eq!(stats.total_queue_delay().total_cycles(), 0);
        assert_eq!(stats.dram_busy_cycles, 0);
    }

    #[test]
    fn queued_l2_ports_serialize_same_bank_requests() {
        let mut h = queued_hierarchy(64);
        let banks = h.config().l2.banks as u64;
        // Two PVProxy reads mapping to the same L2 bank at the same cycle:
        // the second must wait for the first's port occupancy.
        h.access(
            Requester::pv_proxy(0),
            0x10_0000,
            AccessKind::Read,
            DataClass::Application,
            0,
        );
        let r = h.access(
            Requester::pv_proxy(0),
            0x10_0000 + banks * 64,
            AccessKind::Read,
            DataClass::Application,
            0,
        );
        assert!(
            r.queue_delay >= h.config().l2.port_occupancy,
            "same-bank request must wait for the port, got {}",
            r.queue_delay
        );
        assert!(h.stats().l2_port_delay.total_cycles() > 0);
    }

    #[test]
    fn queued_full_l2_mshr_delays_but_never_drops() {
        let mut h = queued_hierarchy(2);
        // Three distinct-block misses at cycle 0 against a 2-entry L2 MSHR
        // file: the third must wait for a drain, and all three must still
        // reach DRAM exactly once each.
        let mut latencies = Vec::new();
        for i in 0..3u64 {
            let r = h.access(
                Requester::pv_proxy(0),
                0x40_0000 + i * 64,
                AccessKind::Read,
                DataClass::Application,
                0,
            );
            assert_eq!(r.level, HitLevel::Memory, "request {i} must be serviced");
            latencies.push(r.latency);
        }
        let stats = h.stats();
        assert_eq!(stats.dram_reads, 3, "delayed requests must not be dropped");
        assert!(
            stats.mshr_stall_delay.total_cycles() > 0,
            "the third miss must have waited for an MSHR slot"
        );
        assert!(
            latencies[2] > latencies[0],
            "the stalled miss must observe a longer latency ({} vs {})",
            latencies[2],
            latencies[0]
        );
    }

    #[test]
    fn queued_mshr_merges_do_not_double_count_dram_traffic() {
        let mut h = queued_hierarchy(64);
        // Two cores miss on the same block while the first fill is still in
        // flight: the second merges and no second DRAM read is issued.
        h.access(
            Requester::data(0),
            0x80_0000,
            AccessKind::Read,
            DataClass::Application,
            0,
        );
        let r = h.access(
            Requester::data(1),
            0x80_0000,
            AccessKind::Read,
            DataClass::Application,
            5,
        );
        assert_eq!(r.level, HitLevel::L2, "second miss merges into the fill");
        let stats = h.stats();
        assert_eq!(stats.dram_reads, 1, "a merged miss must not re-read DRAM");
        assert_eq!(stats.l2_misses.total(), 1);
    }

    #[test]
    fn stats_reset_rebases_queued_timing_to_the_new_window() {
        let mut h = queued_hierarchy(64);
        // Drive the shared resources deep into the warm-up timeline.
        for i in 0..256u64 {
            h.access(
                Requester::data(0),
                0x100_0000 + i * 64,
                AccessKind::Read,
                DataClass::Application,
                i * 400,
            );
        }
        h.reset_stats();
        // Measurement window: requester clocks restart at zero. A cold miss
        // must pay a normal unloaded latency, not wait out absolute
        // warm-up-era busy times.
        let r = h.access(
            Requester::data(0),
            0x900_0000,
            AccessKind::Read,
            DataClass::Application,
            0,
        );
        assert_eq!(r.level, HitLevel::Memory);
        assert!(
            r.latency < 1_000,
            "first post-reset miss must not inherit warm-up queue state, got {}",
            r.latency
        );
        assert_eq!(r.queue_delay, 0);
    }

    #[test]
    fn queued_dram_queueing_is_observable_under_burst() {
        let mut h = queued_hierarchy(64);
        let mut total_delay = 0;
        for i in 0..128u64 {
            let r = h.access(
                Requester::pv_proxy(0),
                0x200_0000 + i * 64,
                AccessKind::Read,
                DataClass::Application,
                0,
            );
            total_delay += r.queue_delay;
        }
        assert!(
            total_delay > 0,
            "a 128-block burst must queue somewhere in the shared hierarchy"
        );
        let stats = h.stats();
        assert!(stats.dram_queue_delay.total_cycles() > 0);
        assert!(stats.dram_busy_cycles > 0);
    }

    // Core-id bounds are a debug-only assertion; release builds rely on the
    // slice indexing panic instead.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        let mut h = hierarchy();
        h.access(
            Requester::data(5),
            0,
            AccessKind::Read,
            DataClass::Application,
            0,
        );
    }

    /// Each L1 side has its own MSHR file: with a one-entry L1I file, a
    /// second instruction miss in flight stalls, while a data miss at the
    /// same cycle finds the L1D file empty.
    #[test]
    fn queued_instruction_misses_stall_on_their_own_mshr_file() {
        let mut config =
            HierarchyConfig::paper_baseline(2).with_contention(ContentionModel::Queued);
        config.l1i.mshr_entries = 1;
        let mut h = MemoryHierarchy::new(config);
        let fetch = |h: &mut MemoryHierarchy, requester: Requester, addr: u64| {
            h.access(requester, addr, AccessKind::Read, DataClass::Application, 0);
            h.stats().mshr_stall_delay.total_cycles()
        };
        assert_eq!(fetch(&mut h, Requester::instruction(0), 0x100_0000), 0);
        let stalled = fetch(&mut h, Requester::instruction(0), 0x200_0000);
        assert!(
            stalled > 0,
            "the second instruction miss must wait for the L1I slot"
        );
        assert_eq!(
            fetch(&mut h, Requester::data(0), 0x300_0000),
            stalled,
            "a data miss must not wait on the L1I file"
        );
    }

    /// The demand path keeps the class the requester claims: a core's data
    /// access of predictor data counts as a predictor L2 request even at an
    /// address outside the PV region.
    #[test]
    fn data_requests_keep_their_predictor_class() {
        let mut h = hierarchy();
        h.access(
            Requester::data(0),
            0x10_0000,
            AccessKind::Read,
            DataClass::Predictor,
            0,
        );
        let stats = h.stats();
        assert_eq!(stats.l2_requests.predictor, 1);
        assert_eq!(stats.l2_requests.application, 0);
    }

    /// An L1 write-back that misses the L2 installs the line; the dirty
    /// PV-region line it displaces goes to DRAM counted as predictor data.
    #[test]
    fn l1_writeback_displacing_a_dirty_pv_line_writes_it_to_dram() {
        let mut h = hierarchy();
        let l1_sets = h.config().l1d.sets() as u64;
        let l2_sets = h.config().l2.sets() as u64;
        let l2_ways = h.config().l2.ways as u64;
        let pv = h.config().pv_regions.core_base(0).block();
        let set = pv.raw() % l2_sets;
        // `victim` shares the PV line's L2 set; `l2_conflict(i)` too.
        let victim = BlockAddr::new(set + l2_sets);
        let l2_conflict = |i: u64| BlockAddr::new(set + (2 + i) * l2_sets);
        let read = |h: &mut MemoryHierarchy, requester: Requester, block: BlockAddr, now: u64| {
            h.access(
                requester,
                block.base_address().raw(),
                AccessKind::Read,
                DataClass::Application,
                now,
            );
        };
        // The victim is dirty in core 0's L1D and clean in the L2.
        h.access(
            Requester::data(0),
            victim.base_address().raw(),
            AccessKind::Write,
            DataClass::Application,
            0,
        );
        // A dirty PV line joins the set; PVProxy reads, which bypass the L1,
        // then fill the set and push the victim's L2 copy out, leaving the
        // PV line least recently used.
        h.writeback(Requester::pv_proxy(0), pv.base_address().raw(), 1_000);
        for i in 0..l2_ways - 1 {
            read(
                &mut h,
                Requester::pv_proxy(0),
                l2_conflict(i),
                2_000 + i * 1_000,
            );
        }
        assert!(h.l2_contains(pv) && !h.l2_contains(victim));
        let before = h.stats();
        assert_eq!((before.l2_writebacks.total(), before.dram_writes), (0, 0));
        // Four reads in the victim's L1 set (other L2 sets) evict it from
        // the L1; its write-back misses the L2 and displaces the PV line.
        for k in 1..=4 {
            let block = BlockAddr::new(victim.raw() + k * l1_sets);
            read(&mut h, Requester::data(0), block, 100_000 + k * 1_000);
        }
        let stats = h.stats();
        assert_eq!(stats.l1d[0].writebacks, 1);
        assert!(h.l2_contains(victim) && !h.l2_contains(pv));
        assert_eq!(stats.l2_writebacks.predictor, 1);
        assert_eq!(stats.l2_writebacks.application, 0);
        assert_eq!(stats.dram_writes, 1);
    }

    /// Known defect: a stats reset restarts the core clocks at 0 but keeps
    /// each line's absolute `ready_at`, so a post-reset hit on a line
    /// filled late in warm-up waits out the warm-up-era fill time.
    #[test]
    #[ignore = "known defect: reset_stats keeps absolute line ready_at times while core clocks restart at 0"]
    fn reset_stats_rebases_line_fill_times() {
        for contention in [ContentionModel::Ideal, ContentionModel::Queued] {
            let config = HierarchyConfig::paper_baseline(2).with_contention(contention);
            let mut h = MemoryHierarchy::new(config);
            let mut evictions = EvictionBuffer::default();
            let miss = h.access_data(0, 0x9000, AccessKind::Read, 5_000_000, &mut evictions);
            assert_eq!(miss.latency, 407);
            h.reset_stats();
            let hit = h.access_data(0, 0x9000, AccessKind::Read, 10, &mut evictions);
            assert_eq!(hit.level, HitLevel::L1);
            assert_eq!(
                hit.latency, config.l1d.data_latency,
                "{contention:?}: a post-reset hit paid a warm-up-era fill time"
            );
        }
    }
}
