//! The boxed per-set LRU policy: the original formulation of
//! `pv_mem::ReplacementState`, kept as a test oracle.
//!
//! Each set owns one [`ReplacementPolicy`] object (an [`Lru`] stack), and
//! victim selection takes a freshly built valid-mask.
//! [`ReferenceSetAssociative`](crate::ReferenceSetAssociative) boxes one
//! per set, and the differential tests drive it against the packed
//! recency words inside `pv_mem::SetAssociative`.

use std::fmt::Debug;

/// A replacement policy for one set of `ways` ways.
///
/// Implementations keep whatever per-set state they need (here a recency
/// stack) and are driven by the cache through [`on_access`],
/// [`on_fill`] and [`victim`].
///
/// [`on_access`]: ReplacementPolicy::on_access
/// [`on_fill`]: ReplacementPolicy::on_fill
/// [`victim`]: ReplacementPolicy::victim
pub trait ReplacementPolicy: Debug {
    /// Called when the block in `way` is referenced.
    fn on_access(&mut self, way: usize);

    /// Called when a new block is installed in `way`.
    fn on_fill(&mut self, way: usize);

    /// Returns the way that should be evicted next.
    ///
    /// `valid` flags which ways currently hold valid blocks; policies must
    /// prefer an invalid way when one exists.
    fn victim(&mut self, valid: &[bool]) -> usize;
}

/// True least-recently-used replacement.
#[derive(Debug, Clone)]
pub struct Lru {
    /// `stack[0]` is the most recently used way.
    stack: Vec<usize>,
}

impl Lru {
    /// Creates an LRU policy for a set with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn new(ways: usize) -> Self {
        assert!(ways > 0, "a set must have at least one way");
        Lru {
            stack: (0..ways).collect(),
        }
    }

    fn touch(&mut self, way: usize) {
        let pos = self
            .stack
            .iter()
            .position(|&w| w == way)
            .expect("way index out of range for LRU stack");
        let way = self.stack.remove(pos);
        self.stack.insert(0, way);
    }
}

impl ReplacementPolicy for Lru {
    fn on_access(&mut self, way: usize) {
        self.touch(way);
    }

    fn on_fill(&mut self, way: usize) {
        self.touch(way);
    }

    fn victim(&mut self, valid: &[bool]) -> usize {
        assert_eq!(valid.len(), self.stack.len(), "valid mask length mismatch");
        if let Some(way) = (0..valid.len()).find(|&w| !valid[w]) {
            return way;
        }
        *self.stack.last().expect("LRU stack is never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = Lru::new(4);
        for way in 0..4 {
            lru.on_fill(way);
        }
        // Access 0, 1, 2 again: way 3 becomes LRU.
        lru.on_access(0);
        lru.on_access(1);
        lru.on_access(2);
        assert_eq!(lru.victim(&[true; 4]), 3);
    }

    #[test]
    fn lru_prefers_invalid_way() {
        let mut lru = Lru::new(4);
        lru.on_fill(0);
        lru.on_fill(1);
        assert_eq!(lru.victim(&[true, true, false, true]), 2);
    }

    #[test]
    fn lru_single_way() {
        let mut lru = Lru::new(1);
        lru.on_fill(0);
        assert_eq!(lru.victim(&[true]), 0);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_way_lru_panics() {
        Lru::new(0);
    }
}
