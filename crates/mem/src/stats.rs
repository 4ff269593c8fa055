//! Statistics collected by the memory system.
//!
//! The paper's evaluation reports L1 read misses (for prefetch coverage),
//! L2 request counts, L2 misses and write-backs, and off-chip traffic split
//! into application and predictor data. Every counter needed to regenerate
//! Figures 6-8 and 10 lives here.

use crate::address::BLOCK_BYTES;

/// Per-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand read accesses (loads / instruction fetches).
    pub reads: u64,
    /// Demand write accesses (stores and write-backs arriving from above).
    pub writes: u64,
    /// Demand read hits.
    pub read_hits: u64,
    /// Demand read misses.
    pub read_misses: u64,
    /// Demand write hits.
    pub write_hits: u64,
    /// Demand write misses.
    pub write_misses: u64,
    /// Lines installed by prefetches.
    pub prefetch_fills: u64,
    /// Prefetched lines that were evicted or invalidated before any demand
    /// access touched them (the paper's "overpredictions").
    pub prefetched_evicted_unused: u64,
    /// Demand accesses that hit a line still in flight from a prefetch
    /// (partial coverage: the access pays only the residual latency).
    pub late_prefetch_hits: u64,
    /// Dirty lines written back to the level below.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total demand accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total demand misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Read miss ratio in [0, 1]; zero when no reads were made.
    pub fn read_miss_ratio(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_misses as f64 / self.reads as f64
        }
    }

    /// Adds another stats block into this one (used to aggregate per-core L1s).
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_hits += other.read_hits;
        self.read_misses += other.read_misses;
        self.write_hits += other.write_hits;
        self.write_misses += other.write_misses;
        self.prefetch_fills += other.prefetch_fills;
        self.prefetched_evicted_unused += other.prefetched_evicted_unused;
        self.late_prefetch_hits += other.late_prefetch_hits;
        self.writebacks += other.writebacks;
    }
}

/// Counters of one core's next-line instruction prefetcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NextLineStats {
    /// Next-line prefetches the predictor asked for on L1I misses.
    pub issued: u64,
    /// Duplicate-miss requests suppressed (stalled fetch streams re-missing
    /// on the same block).
    pub suppressed: u64,
}

/// A counter split into application and predictor (PV) data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficBreakdown {
    /// Events attributable to ordinary application data.
    pub application: u64,
    /// Events attributable to virtualized predictor data.
    pub predictor: u64,
}

impl TrafficBreakdown {
    /// Total across both classes.
    pub fn total(&self) -> u64 {
        self.application + self.predictor
    }

    /// Records one event of the given class. Runs on every L2 request under
    /// both contention models, so the update is branchless: each class adds
    /// the bool cast of its own predicate instead of selecting a field.
    #[inline]
    pub fn record(&mut self, predictor: bool) {
        self.predictor += predictor as u64;
        self.application += !predictor as u64;
    }
}

/// Queueing-delay cycles accumulated at a shared resource, split into
/// application and predictor traffic, together with the number of delayed
/// requests of each class (so mean waits can be reported).
///
/// The counters are class-indexed `[u64; 2]` arrays (`Application = 0`,
/// `Predictor = 1`, matching [`crate::DataClass::index`]) so the per-access
/// [`Self::record`] on the contended path is two branchless indexed adds;
/// the per-class views and derived means are folded to read-time accessors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DelayBreakdown {
    /// Total wait cycles per class, indexed by `predictor as usize`.
    cycles: [u64; 2],
    /// Requests per class that waited at least one cycle, same indexing.
    events: [u64; 2],
}

impl DelayBreakdown {
    /// Records `cycles` of waiting for one request of the given class.
    /// Zero-cycle waits are not counted as events: folding the event
    /// predicate into a bool-cast add keeps the hot path free of both the
    /// early return and the class branch the field-per-class layout needed.
    #[inline]
    pub fn record(&mut self, predictor: bool, cycles: u64) {
        let class = predictor as usize;
        self.cycles[class] += cycles;
        self.events[class] += (cycles != 0) as u64;
    }

    /// Total wait cycles charged to application requests.
    pub fn application_cycles(&self) -> u64 {
        self.cycles[0]
    }

    /// Total wait cycles charged to predictor requests.
    pub fn predictor_cycles(&self) -> u64 {
        self.cycles[1]
    }

    /// Application requests that waited at least one cycle.
    pub fn application_events(&self) -> u64 {
        self.events[0]
    }

    /// Predictor requests that waited at least one cycle.
    pub fn predictor_events(&self) -> u64 {
        self.events[1]
    }

    /// Total wait cycles across both classes.
    pub fn total_cycles(&self) -> u64 {
        self.cycles[0] + self.cycles[1]
    }

    /// Mean wait in cycles over `requests` requests of the application
    /// class (zero when no requests were made).
    pub fn mean_application(&self, requests: u64) -> f64 {
        if requests == 0 {
            0.0
        } else {
            self.cycles[0] as f64 / requests as f64
        }
    }

    /// Mean wait in cycles over `requests` requests of the predictor class
    /// (zero when no requests were made).
    pub fn mean_predictor(&self, requests: u64) -> f64 {
        if requests == 0 {
            0.0
        } else {
            self.cycles[1] as f64 / requests as f64
        }
    }

    /// Adds another breakdown into this one.
    pub fn accumulate(&mut self, other: &DelayBreakdown) {
        for class in 0..2 {
            self.cycles[class] += other.cycles[class];
            self.events[class] += other.events[class];
        }
    }
}

/// System-wide memory statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HierarchyStats {
    /// Per-core L1 data-cache stats.
    pub l1d: Vec<CacheStats>,
    /// Per-core L1 instruction-cache stats.
    pub l1i: Vec<CacheStats>,
    /// Shared L2 stats (demand view, both classes).
    pub l2: CacheStats,
    /// L2 requests (reads + writes arriving at the L2) split by class.
    pub l2_requests: TrafficBreakdown,
    /// L2 misses split by class (off-chip block reads).
    pub l2_misses: TrafficBreakdown,
    /// L2 write-backs to memory split by class (off-chip block writes).
    pub l2_writebacks: TrafficBreakdown,
    /// DRAM read accesses.
    pub dram_reads: u64,
    /// DRAM write accesses.
    pub dram_writes: u64,
    /// Prefetches issued into L1 data caches (per core).
    pub l1d_prefetches: Vec<u64>,
    /// Next-line instruction prefetches issued (per core). Counts only
    /// prefetches that actually installed a line (the target was not
    /// already resident); the predictor's own view is in
    /// [`Self::next_line`].
    pub l1i_prefetches: Vec<u64>,
    /// Per-core next-line instruction-prefetcher counters (requests issued
    /// and duplicate-miss suppressions, regardless of residency).
    pub next_line: Vec<NextLineStats>,
    /// Cycles requests waited for a busy L2 tag-pipeline bank
    /// (always zero under `ContentionModel::Ideal`).
    pub l2_port_delay: DelayBreakdown,
    /// Cycles requests waited for a full MSHR file to drain an entry
    /// (always zero under `ContentionModel::Ideal`).
    pub mshr_stall_delay: DelayBreakdown,
    /// Secondary L2 misses whose merge-time MSHR registration did not
    /// actually merge (the observed in-flight entry vanished between lookup
    /// and registration). Expected to stay zero: the miss path retires and
    /// registers against the same cycle, so a looked-up entry cannot retire
    /// in between — but a non-zero count makes any future violation of that
    /// invariant loud instead of silently under-counting occupancy.
    pub l2_mshr_merge_failures: u64,
    /// Cycles DRAM *reads* waited in channel queues / for banks / for the
    /// data bus beyond the unloaded latency (always zero under
    /// `ContentionModel::Ideal`). Write-backs shape the timing state but
    /// are excluded — no requester waits on them.
    pub dram_queue_delay: DelayBreakdown,
    /// DRAM block reads split by data class (the denominator for mean
    /// queueing-delay-per-read reporting; unlike `l2_misses` this excludes
    /// misses that merged into an in-flight fill and issued no read).
    pub dram_read_traffic: TrafficBreakdown,
    /// Channel-cycles the DRAM data buses spent transferring blocks; divide
    /// by elapsed cycles for aggregate bus utilization (may exceed 1.0 with
    /// multiple channels).
    pub dram_busy_cycles: u64,
}

impl HierarchyStats {
    /// Creates zeroed statistics for `cores` cores.
    pub fn new(cores: usize) -> Self {
        HierarchyStats {
            l1d: vec![CacheStats::default(); cores],
            l1i: vec![CacheStats::default(); cores],
            l2: CacheStats::default(),
            l2_requests: TrafficBreakdown::default(),
            l2_misses: TrafficBreakdown::default(),
            l2_writebacks: TrafficBreakdown::default(),
            dram_reads: 0,
            dram_writes: 0,
            l1d_prefetches: vec![0; cores],
            l1i_prefetches: vec![0; cores],
            next_line: vec![NextLineStats::default(); cores],
            l2_port_delay: DelayBreakdown::default(),
            mshr_stall_delay: DelayBreakdown::default(),
            l2_mshr_merge_failures: 0,
            dram_queue_delay: DelayBreakdown::default(),
            dram_read_traffic: TrafficBreakdown::default(),
            dram_busy_cycles: 0,
        }
    }

    /// Total queueing-delay cycles across every contended resource (L2
    /// ports, MSHR files, DRAM queues), split by class.
    pub fn total_queue_delay(&self) -> DelayBreakdown {
        let mut total = self.l2_port_delay;
        total.accumulate(&self.mshr_stall_delay);
        total.accumulate(&self.dram_queue_delay);
        total
    }

    /// Aggregate next-line instruction-prefetcher counters over all cores.
    pub fn next_line_total(&self) -> NextLineStats {
        let mut total = NextLineStats::default();
        for s in &self.next_line {
            total.issued += s.issued;
            total.suppressed += s.suppressed;
        }
        total
    }

    /// Aggregate L1 data stats over all cores.
    pub fn l1d_total(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.l1d {
            total.accumulate(s);
        }
        total
    }

    /// Off-chip traffic in bytes (block reads + block writes).
    pub fn offchip_bytes(&self) -> u64 {
        (self.l2_misses.total() + self.l2_writebacks.total()) * BLOCK_BYTES
    }

    /// Off-chip traffic attributable to predictor data, in bytes.
    pub fn offchip_predictor_bytes(&self) -> u64 {
        (self.l2_misses.predictor + self.l2_writebacks.predictor) * BLOCK_BYTES
    }

    /// Resets every counter while keeping the core count (used at the end of
    /// the warm-up window, mirroring the paper's measurement methodology).
    pub fn reset(&mut self) {
        let cores = self.l1d.len();
        *self = HierarchyStats::new(cores);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_stats_totals() {
        let stats = CacheStats {
            reads: 100,
            writes: 50,
            read_hits: 80,
            read_misses: 20,
            write_hits: 45,
            write_misses: 5,
            ..CacheStats::default()
        };
        assert_eq!(stats.accesses(), 150);
        assert_eq!(stats.misses(), 25);
        assert!((stats.read_miss_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn miss_ratio_with_no_reads_is_zero() {
        assert_eq!(CacheStats::default().read_miss_ratio(), 0.0);
    }

    #[test]
    fn accumulate_adds_fields() {
        let mut a = CacheStats {
            reads: 1,
            writebacks: 2,
            ..CacheStats::default()
        };
        let b = CacheStats {
            reads: 3,
            writebacks: 4,
            ..CacheStats::default()
        };
        a.accumulate(&b);
        assert_eq!(a.reads, 4);
        assert_eq!(a.writebacks, 6);
    }

    #[test]
    fn breakdown_records_by_class() {
        let mut t = TrafficBreakdown::default();
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!(t.application, 1);
        assert_eq!(t.predictor, 2);
        assert_eq!(t.total(), 3);
    }

    #[test]
    fn delay_breakdown_records_and_averages() {
        let mut delay = DelayBreakdown::default();
        delay.record(false, 10);
        delay.record(false, 0); // zero waits are not events
        delay.record(true, 5);
        delay.record(true, 15);
        assert_eq!(delay.application_cycles(), 10);
        assert_eq!(delay.application_events(), 1);
        assert_eq!(delay.predictor_cycles(), 20);
        assert_eq!(delay.predictor_events(), 2);
        assert_eq!(delay.total_cycles(), 30);
        assert!((delay.mean_application(5) - 2.0).abs() < 1e-12);
        assert!((delay.mean_predictor(10) - 2.0).abs() < 1e-12);
        assert_eq!(delay.mean_application(0), 0.0);
        let mut sum = DelayBreakdown::default();
        sum.accumulate(&delay);
        sum.accumulate(&delay);
        assert_eq!(sum.total_cycles(), 60);
    }

    #[test]
    fn total_queue_delay_sums_all_resources() {
        let mut stats = HierarchyStats::new(1);
        stats.l2_port_delay.record(false, 3);
        stats.mshr_stall_delay.record(true, 4);
        stats.dram_queue_delay.record(false, 5);
        let total = stats.total_queue_delay();
        assert_eq!(total.application_cycles(), 8);
        assert_eq!(total.predictor_cycles(), 4);
        assert_eq!(total.total_cycles(), 12);
    }

    #[test]
    fn hierarchy_stats_aggregate_and_reset() {
        let mut stats = HierarchyStats::new(2);
        stats.l1d[0].reads = 10;
        stats.l1d[1].reads = 20;
        stats.l2_misses.record(false);
        stats.l2_writebacks.record(true);
        assert_eq!(stats.l1d_total().reads, 30);
        assert_eq!(stats.offchip_bytes(), 2 * BLOCK_BYTES);
        assert_eq!(stats.offchip_predictor_bytes(), BLOCK_BYTES);
        stats.reset();
        assert_eq!(stats.l1d_total().reads, 0);
        assert_eq!(stats.l1d.len(), 2);
    }
}
