//! The PVProxy's pattern buffer.
//!
//! It is a structural-capacity model: in the cycle-approximate simulation a
//! PVCache miss resolves with a known completion time, so the buffer does
//! not queue work, but it bounds how many lookups can be outstanding at
//! once (occupancy is tracked against `now`), and a lookup that finds it
//! full is dropped. Its capacity, like the evict buffer's, feeds the
//! Section 4.6 storage accounting.

/// The pattern buffer: holds the trigger information of PHT lookups whose
/// PVTable set is still being fetched from the memory hierarchy (16 entries
/// in the paper, 4 bytes each).
#[derive(Debug, Clone)]
pub struct PatternBuffer {
    capacity: usize,
    /// Completion cycles of the reserved slots.
    pending: Vec<u64>,
}

impl PatternBuffer {
    /// Creates a pattern buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        PatternBuffer {
            capacity,
            pending: Vec::new(),
        }
    }

    /// Tries to reserve a slot for a lookup that completes at `done_at`,
    /// first freeing the slots of lookups completed by `now`. Returns
    /// `false` when the buffer is full — the prediction is dropped, not
    /// queued, mirroring the advisory nature of the predictor.
    pub fn try_reserve(&mut self, now: u64, done_at: u64) -> bool {
        self.pending.retain(|&done| done > now);
        if self.pending.len() >= self.capacity {
            return false;
        }
        self.pending.push(done_at);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_buffer_accepts_until_full() {
        let mut buffer = PatternBuffer::new(2);
        assert!(buffer.try_reserve(0, 100));
        assert!(buffer.try_reserve(0, 100));
        assert!(!buffer.try_reserve(0, 100));
        assert!(!buffer.try_reserve(99, 100), "still full one cycle early");
    }

    #[test]
    fn pattern_buffer_frees_completed_slots() {
        let mut buffer = PatternBuffer::new(1);
        assert!(buffer.try_reserve(0, 50));
        // At cycle 100 the first lookup has completed; the slot is free.
        assert!(buffer.try_reserve(100, 150));
    }

    #[test]
    fn occupancy_reflects_outstanding_entries() {
        let mut buffer = PatternBuffer::new(2);
        assert!(buffer.try_reserve(0, 10));
        assert!(buffer.try_reserve(0, 20));
        // At cycle 10 only the first slot has freed.
        assert!(buffer.try_reserve(10, 40));
        assert!(!buffer.try_reserve(10, 40));
        // At cycle 20 the second has too.
        assert!(buffer.try_reserve(20, 40));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_capacity_panics() {
        PatternBuffer::new(0);
    }
}
