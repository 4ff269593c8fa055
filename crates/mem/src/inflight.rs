//! The per-channel DRAM in-flight request queue.
//!
//! Under [`crate::ContentionModel::Queued`] every memory channel tracks the
//! completion cycles of the requests currently occupying its finite request
//! queue. The hot operations are, per serviced request:
//!
//! 1. **drain** — retire requests whose completion cycle has passed;
//! 2. **admit** — if the queue still holds `queue_depth` requests, delay the
//!    newcomer until enough earlier requests complete for occupancy to drop
//!    below the depth;
//! 3. **push** — append the newcomer's completion cycle.
//!
//! [`InflightRing`] implements all three as O(1) pointer arithmetic over a
//! fixed-capacity power-of-two ring buffer sized from `queue_depth` at
//! construction: it never reallocates, drain is a front-pointer bump, and
//! the admission "search" (`inflight[len - depth]` over the historical
//! `VecDeque`) collapses to reading the front slot. The pre-ring deque
//! lives on as a test oracle in the `pv-tests` crate; the two are
//! differential-tested against each other over seeded random request
//! streams (`tests/tests/differential.rs`), and every Queued-mode digest
//! in the suite pins the ring end to end.
//!
//! # Why the ring can be exactly `queue_depth` deep
//!
//! The reference deque's length is not bounded by `queue_depth`: admission
//! reads `inflight[len - depth]` but removes nothing, so bursts whose
//! requester clocks lag the completion times grow the deque past the depth
//! and the stale front entries are only dropped by a later drain. The ring
//! instead pops the front entry *at admission time*: when the queue is
//! full, the newcomer enters exactly when the oldest in-flight request
//! completes (completion cycles are non-decreasing along the queue, so the
//! front is the earliest), and from that cycle on the oldest request no
//! longer occupies a slot. Popping it immediately keeps occupancy at most
//! `queue_depth` while every observable start cycle stays identical:
//!
//! * While no drain has intervened, each early pop has shifted the
//!   reference's `len - depth` admission index past exactly the entries the
//!   ring already removed, so both read the same completion cycle — and the
//!   ring is at capacity exactly when the reference holds `depth` or more
//!   entries, so both delay the same requests.
//! * Any drain that removes an entry from the ring has `now` at least the
//!   ring front's completion cycle, which is itself at least every
//!   early-popped completion cycle — so the same drain removes all of the
//!   reference's stale front entries too, and the two queues re-converge to
//!   identical contents.

/// Fixed-capacity power-of-two ring buffer of in-flight completion cycles.
///
/// Sized from the channel's `queue_depth` at construction; never
/// reallocates. See the module docs for the equivalence argument against
/// the pre-ring deque.
#[derive(Debug, Clone)]
pub struct InflightRing {
    /// Completion cycles, in arrival order; a slot is live iff its offset
    /// from `head` is below `len`. Capacity is a power of two so the
    /// wrap-around is a mask, not a division.
    slots: Box<[u64]>,
    /// Index mask (`slots.len() - 1`).
    mask: usize,
    /// Index of the oldest live entry.
    head: usize,
    /// Number of live entries (at most `depth`).
    len: usize,
    /// Channel queue depth: occupancy at which admission delays.
    depth: usize,
}

impl InflightRing {
    /// Creates a ring for a channel with `queue_depth` request slots.
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth` is zero (a channel needs at least one slot).
    pub fn new(queue_depth: usize) -> Self {
        assert!(queue_depth > 0, "DRAM queues need at least one slot");
        let capacity = queue_depth.next_power_of_two();
        InflightRing {
            slots: vec![0; capacity].into_boxed_slice(),
            mask: capacity - 1,
            head: 0,
            len: 0,
            depth: queue_depth,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Retires requests whose completion cycle is at or before `now`.
    #[inline]
    pub fn drain(&mut self, now: u64) {
        while self.len > 0 && self.slots[self.head] <= now {
            self.head = (self.head + 1) & self.mask;
            self.len -= 1;
        }
    }

    /// Queue admission at cycle `now`: returns the cycle the request may
    /// start. A full queue delays the newcomer until the oldest in-flight
    /// request completes — and retires that request, which no longer
    /// occupies a slot at the returned start cycle.
    #[inline]
    pub fn admit(&mut self, now: u64) -> u64 {
        if self.len < self.depth {
            return now;
        }
        let start = self.slots[self.head];
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        start
    }

    /// Appends a request completing at `done`. Completion cycles must be
    /// non-decreasing along the queue (guaranteed by the channel data bus:
    /// each transfer finishes no earlier than the previous one's).
    #[inline]
    pub fn push(&mut self, done: u64) {
        debug_assert!(
            self.len < self.slots.len(),
            "admission keeps occupancy at most queue_depth <= capacity"
        );
        debug_assert!(
            self.len == 0 || self.slots[(self.head + self.len - 1) & self.mask] <= done,
            "completion cycles must be non-decreasing along the queue"
        );
        self.slots[(self.head + self.len) & self.mask] = done;
        self.len += 1;
    }

    /// Empties the queue (measurement-window timing rebase).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_admits_immediately() {
        let mut ring = InflightRing::new(4);
        assert!(ring.is_empty());
        assert_eq!(ring.admit(17), 17);
    }

    #[test]
    fn full_ring_delays_until_the_oldest_completes_and_frees_its_slot() {
        let mut ring = InflightRing::new(2);
        ring.push(100);
        ring.push(150);
        // Full at cycle 10: wait until the oldest (100) completes.
        assert_eq!(ring.admit(10), 100);
        // The drained slot is free: occupancy stays at the depth after the
        // newcomer is pushed.
        ring.push(200);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.admit(10), 150);
    }

    #[test]
    fn drain_retires_completed_requests() {
        let mut ring = InflightRing::new(4);
        for done in [10, 20, 30, 40] {
            ring.push(done);
        }
        ring.drain(25);
        assert_eq!(ring.len(), 2);
        ring.drain(9);
        assert_eq!(ring.len(), 2, "an earlier now must not retire anything");
        ring.drain(100);
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_wraps_around_without_growing() {
        let mut ring = InflightRing::new(3); // capacity rounds up to 4
        let mut done = 0;
        for round in 0..64u64 {
            ring.drain(round * 5);
            let start = ring.admit(round * 5);
            done = done.max(start) + 7;
            ring.push(done);
            assert!(ring.len() <= 3, "occupancy must never exceed the depth");
        }
    }

    #[test]
    fn clear_empties_the_ring() {
        let mut ring = InflightRing::new(2);
        ring.push(5);
        ring.push(6);
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.admit(0), 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_depth_panics() {
        InflightRing::new(0);
    }
}
