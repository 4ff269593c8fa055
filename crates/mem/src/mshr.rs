//! Miss-status holding registers.
//!
//! An [`MshrFile`] tracks outstanding fills at block granularity so that
//! concurrent accesses to a block that is already being fetched merge into
//! the in-flight request instead of generating duplicate traffic. Both the
//! L1/L2 caches and the PVProxy use this structure (the paper's PVProxy
//! contains "an MSHR-like structure").
//!
//! The file is a flat `Vec` searched linearly. Its occupancy is capped at
//! the configured entry count (4 for the PVProxy, 16 per L1, 64 for the L2
//! in the paper's configuration), so a scan of adjacent [`MshrEntry`]s is
//! cheaper than hashing the block address on every lookup, merge and
//! allocation.

use crate::address::BlockAddr;

/// One outstanding fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrEntry {
    /// Block being fetched.
    pub block: BlockAddr,
    /// Cycle at which the fill completes.
    pub ready_at: u64,
    /// Number of requests merged into this entry (including the initiator).
    pub merged: u32,
}

/// Outcome of asking the MSHR file to track a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the caller must issue the fill.
    Allocated,
    /// The block was already in flight; the caller should wait until
    /// `ready_at` instead of issuing a new fill.
    Merged {
        /// Completion cycle of the in-flight fill.
        ready_at: u64,
    },
    /// No free entry was available; the caller must stall and retry (modelled
    /// as paying the full fill latency serially).
    Full,
}

/// A file of miss-status holding registers.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// Live entries, at most one per block, in no particular order.
    entries: Vec<MshrEntry>,
    /// Cached minimum `ready_at` over `entries` (`u64::MAX` when empty), so
    /// the per-miss [`Self::retire`] call is a single compare on the common
    /// nothing-has-completed-yet path instead of a full scan. Updated
    /// on insert (`min`), recomputed only when entries actually retire.
    earliest: u64,
    /// Peak simultaneous occupancy, for reporting.
    peak_occupancy: usize,
    /// Total merges performed.
    merges: u64,
    /// Times a request found the file full.
    full_stalls: u64,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// Occupancy is hard-capped at `capacity` ([`Self::allocate`] reports
    /// [`MshrOutcome::Full`] instead of pushing), so the entry `Vec`
    /// reserved here at exactly `capacity` never reallocates afterwards —
    /// the access hot path stays allocation-free (pinned by
    /// `tests/tests/alloc_free.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an MSHR file needs at least one entry");
        MshrFile {
            capacity,
            entries: Vec::with_capacity(capacity),
            earliest: u64::MAX,
            peak_occupancy: 0,
            merges: 0,
            full_stalls: 0,
        }
    }

    /// Number of entries currently in flight.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Peak simultaneous occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Total number of merged (secondary) misses.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Number of requests that found the file full.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }

    /// Drops entries whose fills have completed by `now`. The cached
    /// earliest completion makes the common no-entry-has-completed case a
    /// single compare; the entries are only scanned when something retires.
    pub fn retire(&mut self, now: u64) {
        if self.earliest > now {
            return;
        }
        self.entries.retain(|entry| entry.ready_at > now);
        self.earliest = self.entries.iter().map(|entry| entry.ready_at).min().unwrap_or(u64::MAX);
    }

    /// Looks up an in-flight fill for `block`.
    pub fn lookup(&self, block: BlockAddr) -> Option<&MshrEntry> {
        self.entries.iter().find(|entry| entry.block == block)
    }

    /// The completion cycle of the entry that will retire first, or `None`
    /// when the file is empty. Under queued contention a requester that
    /// finds the file full waits until this cycle for a slot to drain.
    pub fn earliest_ready(&self) -> Option<u64> {
        (self.earliest != u64::MAX).then_some(self.earliest)
    }

    /// Queued-contention backpressure: when the file is full at cycle
    /// `now`, waits until the earliest outstanding fill drains (retiring
    /// completed entries) and returns the wait in cycles; returns 0 when a
    /// slot is already free. The request is delayed, never dropped.
    pub fn wait_for_slot(&mut self, now: u64) -> u64 {
        if self.entries.len() < self.capacity {
            return 0;
        }
        let Some(drain) = self.earliest_ready() else {
            return 0;
        };
        let start = now.max(drain);
        self.retire(start);
        start - now
    }

    /// Registers a miss on `block` whose fill would complete at `ready_at`.
    ///
    /// Completed entries are retired first (based on `now`), then the miss
    /// either merges into an existing entry or, when `block` is not in
    /// flight, goes to [`Self::allocate`] (a new entry, or
    /// [`MshrOutcome::Full`]).
    pub fn register(&mut self, block: BlockAddr, now: u64, ready_at: u64) -> MshrOutcome {
        self.retire(now);
        if let Some(entry) = self.entries.iter_mut().find(|entry| entry.block == block) {
            entry.merged += 1;
            self.merges += 1;
            return MshrOutcome::Merged {
                ready_at: entry.ready_at,
            };
        }
        self.allocate(block, now, ready_at)
    }

    /// Allocates an entry for a miss on `block` that is not in flight,
    /// whose fill completes at `ready_at`: retires entries completed by
    /// `now`, then pushes a new entry or reports [`MshrOutcome::Full`].
    ///
    /// This is [`Self::register`] without the merge search, for a caller
    /// whose [`Self::lookup`] has just returned `None` with no registration
    /// in between, so the file is scanned once per miss. Debug builds
    /// assert that `block` is not in flight.
    pub fn allocate(&mut self, block: BlockAddr, now: u64, ready_at: u64) -> MshrOutcome {
        self.retire(now);
        debug_assert!(
            self.lookup(block).is_none(),
            "allocate of block {block:?} already in flight"
        );
        if self.entries.len() >= self.capacity {
            self.full_stalls += 1;
            return MshrOutcome::Full;
        }
        self.entries.push(MshrEntry {
            block,
            ready_at,
            merged: 1,
        });
        self.earliest = self.earliest.min(ready_at);
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
        MshrOutcome::Allocated
    }

    /// Clears all in-flight state (used when resetting between sampling
    /// windows).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.earliest = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_miss_allocates() {
        let mut mshr = MshrFile::new(4);
        let outcome = mshr.register(BlockAddr::new(1), 0, 100);
        assert_eq!(outcome, MshrOutcome::Allocated);
        assert_eq!(mshr.occupancy(), 1);
    }

    #[test]
    fn second_miss_to_same_block_merges() {
        let mut mshr = MshrFile::new(4);
        mshr.register(BlockAddr::new(1), 0, 100);
        let outcome = mshr.register(BlockAddr::new(1), 10, 110);
        assert_eq!(outcome, MshrOutcome::Merged { ready_at: 100 });
        assert_eq!(mshr.merges(), 1);
        assert_eq!(mshr.occupancy(), 1);
    }

    #[test]
    fn completed_entries_retire() {
        let mut mshr = MshrFile::new(4);
        mshr.register(BlockAddr::new(1), 0, 100);
        // At cycle 200 the fill has completed; a new miss allocates again.
        let outcome = mshr.register(BlockAddr::new(1), 200, 300);
        assert_eq!(outcome, MshrOutcome::Allocated);
    }

    #[test]
    fn full_file_reports_full() {
        let mut mshr = MshrFile::new(2);
        mshr.register(BlockAddr::new(1), 0, 100);
        mshr.register(BlockAddr::new(2), 0, 100);
        let outcome = mshr.register(BlockAddr::new(3), 0, 100);
        assert_eq!(outcome, MshrOutcome::Full);
        assert_eq!(mshr.full_stalls(), 1);
    }

    #[test]
    fn peak_occupancy_tracks_high_water_mark() {
        let mut mshr = MshrFile::new(8);
        for i in 0..5 {
            mshr.register(BlockAddr::new(i), 0, 100);
        }
        mshr.retire(1000);
        assert_eq!(mshr.occupancy(), 0);
        assert_eq!(mshr.peak_occupancy(), 5);
    }

    #[test]
    fn lookup_finds_in_flight_entries() {
        let mut mshr = MshrFile::new(2);
        mshr.register(BlockAddr::new(7), 0, 50);
        assert!(mshr.lookup(BlockAddr::new(7)).is_some());
        assert!(mshr.lookup(BlockAddr::new(8)).is_none());
        mshr.clear();
        assert!(mshr.lookup(BlockAddr::new(7)).is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already in flight")]
    fn allocate_of_in_flight_block_panics_in_debug() {
        let mut mshr = MshrFile::new(4);
        mshr.allocate(BlockAddr::new(1), 0, 100);
        mshr.allocate(BlockAddr::new(1), 10, 110);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        MshrFile::new(0);
    }

    #[test]
    fn earliest_ready_reports_next_drain() {
        let mut mshr = MshrFile::new(4);
        assert_eq!(mshr.earliest_ready(), None);
        mshr.register(BlockAddr::new(1), 0, 300);
        mshr.register(BlockAddr::new(2), 0, 100);
        mshr.register(BlockAddr::new(3), 0, 200);
        assert_eq!(mshr.earliest_ready(), Some(100));
        mshr.retire(150);
        assert_eq!(mshr.earliest_ready(), Some(200));
    }

    /// The cached minimum behind `earliest_ready` must track inserts,
    /// partial retires (including the nothing-completed early exit) and
    /// clears.
    #[test]
    fn cached_earliest_survives_retire_insert_clear_cycles() {
        let mut mshr = MshrFile::new(4);
        mshr.register(BlockAddr::new(1), 0, 50);
        mshr.register(BlockAddr::new(2), 0, 150);
        mshr.retire(10); // nothing completed: the early-exit compare path
        assert_eq!(mshr.earliest_ready(), Some(50));
        assert_eq!(mshr.occupancy(), 2);
        mshr.retire(60); // retires the first entry, recomputes the minimum
        assert_eq!(mshr.earliest_ready(), Some(150));
        mshr.register(BlockAddr::new(3), 60, 100);
        assert_eq!(mshr.earliest_ready(), Some(100));
        mshr.clear();
        assert_eq!(mshr.earliest_ready(), None);
    }

    #[test]
    fn wait_for_slot_delays_until_a_drain_and_frees_it() {
        let mut mshr = MshrFile::new(2);
        mshr.register(BlockAddr::new(1), 0, 100);
        mshr.register(BlockAddr::new(2), 0, 250);
        // Full at cycle 10: wait until the first fill completes at 100.
        assert_eq!(mshr.wait_for_slot(10), 90);
        assert_eq!(mshr.occupancy(), 1, "the drained entry must be retired");
        assert_eq!(
            mshr.register(BlockAddr::new(3), 100, 500),
            MshrOutcome::Allocated
        );
        // Not full: no wait, nothing retired.
        let mut free = MshrFile::new(2);
        free.register(BlockAddr::new(1), 0, 100);
        assert_eq!(free.wait_for_slot(10), 0);
        assert_eq!(free.occupancy(), 1);
    }
}
