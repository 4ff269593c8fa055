//! The pre-flattening set-associative array, kept as a test oracle.
//!
//! This is the original formulation of `pv_mem::SetAssociative`: a `Vec`
//! of `Vec`s of ways with one boxed LRU [`ReplacementPolicy`] per set and a
//! temporary valid-mask allocated on every insert. The differential tests
//! drive it and the flat array with the same seeded op streams and assert
//! identical hits, evictions and victims.

use crate::replacement::{Lru, ReplacementPolicy};
use pv_mem::Occupied;
use std::fmt;

/// The boxed-policy reference set-associative array.
pub struct ReferenceSetAssociative<T> {
    sets: usize,
    ways: usize,
    entries: Vec<Vec<Option<Occupied<T>>>>,
    policies: Vec<Box<dyn ReplacementPolicy>>,
}

impl<T: fmt::Debug> fmt::Debug for ReferenceSetAssociative<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReferenceSetAssociative")
            .field("sets", &self.sets)
            .field("ways", &self.ways)
            .finish()
    }
}

impl<T> ReferenceSetAssociative<T> {
    /// Creates an LRU array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0, "a set-associative array needs at least one set");
        assert!(ways > 0, "a set-associative array needs at least one way");
        let entries = (0..sets).map(|_| (0..ways).map(|_| None).collect()).collect();
        let policies = (0..sets)
            .map(|_| Box::new(Lru::new(ways)) as Box<dyn ReplacementPolicy>)
            .collect();
        ReferenceSetAssociative {
            sets,
            ways,
            entries,
            policies,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of occupied entries across all sets (O(capacity) scan).
    pub fn len(&self) -> usize {
        self.entries
            .iter()
            .map(|set| set.iter().filter(|way| way.is_some()).count())
            .sum()
    }

    /// Whether no entry is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn assert_set(&self, set: usize) {
        assert!(
            set < self.sets,
            "set index {set} out of range for {} sets",
            self.sets
        );
    }

    fn way_of(&self, set: usize, tag: u64) -> Option<usize> {
        self.entries[set]
            .iter()
            .position(|way| way.as_ref().is_some_and(|occ| occ.tag == tag))
    }

    /// Looks up `(set, tag)` without updating replacement state.
    pub fn peek(&self, set: usize, tag: u64) -> Option<&T> {
        self.assert_set(set);
        self.way_of(set, tag)
            .and_then(|way| self.entries[set][way].as_ref())
            .map(|occ| &occ.value)
    }

    /// Looks up `(set, tag)`, updating recency on a hit.
    pub fn get(&mut self, set: usize, tag: u64) -> Option<&T> {
        self.assert_set(set);
        let way = self.way_of(set, tag)?;
        self.policies[set].on_access(way);
        self.entries[set][way].as_ref().map(|occ| &occ.value)
    }

    /// Whether `(set, tag)` is present (no recency update).
    pub fn contains(&self, set: usize, tag: u64) -> bool {
        self.peek(set, tag).is_some()
    }

    /// Inserts `(set, tag) -> value`, returning the evicted entry if the set
    /// was full and a victim had to be replaced, or the previous value if the
    /// tag was already present.
    pub fn insert(&mut self, set: usize, tag: u64, value: T) -> Option<Occupied<T>> {
        self.assert_set(set);
        if let Some(way) = self.way_of(set, tag) {
            self.policies[set].on_access(way);
            let previous = self.entries[set][way].replace(Occupied { tag, value });
            return previous;
        }
        let valid: Vec<bool> = self.entries[set].iter().map(|w| w.is_some()).collect();
        let way = self.policies[set].victim(&valid);
        assert!(
            way < self.ways,
            "replacement policy returned way out of range"
        );
        let evicted = self.entries[set][way].take();
        self.entries[set][way] = Some(Occupied { tag, value });
        self.policies[set].on_fill(way);
        evicted
    }

    /// Removes `(set, tag)` and returns its payload. The replacement policy
    /// is *not* notified — the historical behaviour the flat array must stay
    /// observationally equivalent to.
    pub fn invalidate(&mut self, set: usize, tag: u64) -> Option<T> {
        self.assert_set(set);
        let way = self.way_of(set, tag)?;
        self.entries[set][way].take().map(|occ| occ.value)
    }

    /// Iterates over every occupied entry as `(set, &Occupied)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Occupied<T>)> {
        self.entries.iter().enumerate().flat_map(|(set, ways)| {
            ways.iter().filter_map(move |w| w.as_ref().map(|occ| (set, occ)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_behaves_like_original() {
        let mut arr: ReferenceSetAssociative<u32> = ReferenceSetAssociative::new(4, 2);
        arr.insert(2, 1, 10);
        arr.insert(2, 2, 20);
        arr.get(2, 1);
        let evicted = arr.insert(2, 3, 30).expect("set was full, must evict");
        assert_eq!(evicted.tag, 2);
        assert_eq!(arr.len(), 2);
        assert_eq!(arr.invalidate(2, 1), Some(10));
        assert!(!arr.contains(2, 1));
    }
}
