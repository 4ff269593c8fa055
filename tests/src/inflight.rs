//! The pre-ring DRAM in-flight queue, kept as a test oracle for
//! `pv_mem::InflightRing`.
//!
//! `pv_mem`'s `inflight` module docs argue why the fixed-capacity ring,
//! which retires the oldest request at admission, starts every request on
//! the same cycle as this growable deque, which leaves completed front
//! entries for a later drain. The tests below and
//! `tests/tests/differential.rs` check that argument on seeded streams.

use std::collections::VecDeque;

/// The pre-ring in-flight queue, retained verbatim as the differential
/// reference: a growable `VecDeque` whose admission path indexes
/// `inflight[len - depth]` and removes nothing, leaving completed front
/// entries for a later drain to pop.
#[derive(Debug, Clone, Default)]
pub struct ReferenceInflightQueue {
    inflight: VecDeque<u64>,
}

impl ReferenceInflightQueue {
    /// Creates an empty reference queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Retires requests whose completion cycle is at or before `now`.
    pub fn drain(&mut self, now: u64) {
        while self.inflight.front().is_some_and(|&done| done <= now) {
            self.inflight.pop_front();
        }
    }

    /// Queue admission at cycle `now` for a channel with `queue_depth`
    /// slots: the request may enter once enough earlier requests complete
    /// for occupancy to drop below the depth.
    pub fn admit(&mut self, now: u64, queue_depth: usize) -> u64 {
        if self.inflight.len() >= queue_depth {
            self.inflight[self.inflight.len() - queue_depth]
        } else {
            now
        }
    }

    /// Appends a request completing at `done`.
    pub fn push(&mut self, done: u64) {
        self.inflight.push_back(done);
    }

    /// Empties the queue.
    pub fn clear(&mut self) {
        self.inflight.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_mem::InflightRing;

    /// The reference queue admits by indexing, not popping: stale front
    /// entries linger until a drain with a late-enough `now`.
    #[test]
    fn reference_queue_keeps_stale_entries_until_a_drain() {
        let mut queue = ReferenceInflightQueue::new();
        queue.push(100);
        queue.push(150);
        assert_eq!(queue.admit(10, 2), 100);
        queue.push(200);
        // Length grows past the depth; the next admission skips the stale
        // front entry via the `len - depth` index.
        assert_eq!(queue.admit(10, 2), 150);
    }

    /// Seeded random request streams (non-monotone `now`, data-bus-shaped
    /// completion cycles) drive both implementations through identical
    /// drain/admit/push sequences; every admission must return the same
    /// start cycle. The cross-implementation equivalence over the *full*
    /// channel timing model lives in `tests/tests/differential.rs`.
    #[test]
    fn ring_matches_reference_on_seeded_streams() {
        for seed in 0..8u64 {
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (seed << 32 | 0x5bd1);
            let mut next = move || {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545_F491_4F6C_DD1D)
            };
            for depth in [1usize, 2, 3, 8, 16] {
                let mut ring = InflightRing::new(depth);
                let mut reference = ReferenceInflightQueue::new();
                let mut bus_busy_until = 0u64;
                let mut clock = 0u64;
                for _ in 0..512 {
                    let r = next();
                    // Requester clocks advance unevenly and occasionally
                    // jump backwards (different cores' timestamps).
                    clock = (clock + r % 37).saturating_sub((r >> 8) % 13);
                    ring.drain(clock);
                    reference.drain(clock);
                    let start_ring = ring.admit(clock);
                    let start_ref = reference.admit(clock, depth);
                    assert_eq!(
                        start_ring, start_ref,
                        "admission diverged (seed {seed}, depth {depth})"
                    );
                    // Completion mirrors the channel data bus: strictly
                    // after both the start and every earlier completion.
                    let done = (start_ring + 3 + (r >> 16) % 29).max(bus_busy_until + 1);
                    bus_busy_until = done;
                    ring.push(done);
                    reference.push(done);
                }
            }
        }
    }
}
