//! A generic set-associative array with LRU replacement.
//!
//! The same container backs the L1/L2 cache tag arrays, the SMS pattern
//! history table and the Markov correlation table, which keeps the
//! replacement and eviction behaviour identical everywhere it matters.
//!
//! This is the hottest structure in the simulator — every simulated access
//! walks it — so it is laid out for speed: entries live in one flat `Vec`
//! indexed by `set * ways + way`, replacement state is the bit-packed
//! [`ReplacementState`] (one recency word per set for the whole array
//! instead of one boxed policy object per set, so at most
//! [`ReplacementState::MAX_WAYS`] ways), and occupancy is counted
//! incrementally. After construction no operation allocates.
//!
//! A miss scans its set once: a caller that has just missed installs with
//! [`SetAssociative::fill`], which picks the victim directly instead of
//! repeating the tag search that [`SetAssociative::insert`] starts with.
//!
//! The boxed-policy formulation lives on as a test oracle in the
//! `pv-tests` crate, and differential tests pin the two to identical
//! behaviour.

use crate::replacement::ReplacementState;
use std::fmt;

/// One occupied way: the tag stored there and the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Occupied<T> {
    /// Tag identifying the entry within its set.
    pub tag: u64,
    /// Payload stored alongside the tag.
    pub value: T,
}

/// A set-associative array of `sets` sets with `ways` ways each.
///
/// Entries are addressed by `(set_index, tag)`. Replacement decisions within
/// a set are made by the array's inline [`ReplacementState`].
pub struct SetAssociative<T> {
    sets: usize,
    ways: usize,
    occupied: usize,
    /// Flat storage, way `w` of set `s` at index `s * ways + w`.
    entries: Vec<Option<Occupied<T>>>,
    replacement: ReplacementState,
}

impl<T: fmt::Debug> fmt::Debug for SetAssociative<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetAssociative")
            .field("sets", &self.sets)
            .field("ways", &self.ways)
            .finish()
    }
}

impl<T> SetAssociative<T> {
    /// Creates an LRU array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or if `ways` exceeds
    /// [`ReplacementState::MAX_WAYS`].
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0, "a set-associative array needs at least one set");
        assert!(ways > 0, "a set-associative array needs at least one way");
        let replacement = ReplacementState::new(sets, ways);
        let mut entries = Vec::new();
        entries.resize_with(sets * ways, || None);
        SetAssociative {
            sets,
            ways,
            occupied: 0,
            entries,
            replacement,
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

    /// Number of occupied entries across all sets (tracked incrementally,
    /// O(1)).
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether no entry is occupied.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    fn assert_set(&self, set: usize) {
        assert!(
            set < self.sets,
            "set index {set} out of range for {} sets",
            self.sets
        );
    }

    fn set_slice(&self, set: usize) -> &[Option<Occupied<T>>] {
        &self.entries[set * self.ways..(set + 1) * self.ways]
    }

    fn way_of(&self, set: usize, tag: u64) -> Option<usize> {
        self.set_slice(set)
            .iter()
            .position(|way| way.as_ref().is_some_and(|occ| occ.tag == tag))
    }

    /// Looks up `(set, tag)` without updating replacement state.
    pub fn peek(&self, set: usize, tag: u64) -> Option<&T> {
        self.assert_set(set);
        self.way_of(set, tag)
            .and_then(|way| self.entries[set * self.ways + way].as_ref())
            .map(|occ| &occ.value)
    }

    /// Looks up `(set, tag)`, updating recency on a hit.
    pub fn get(&mut self, set: usize, tag: u64) -> Option<&T> {
        self.assert_set(set);
        let way = self.way_of(set, tag)?;
        self.replacement.on_access(set, way);
        self.entries[set * self.ways + way].as_ref().map(|occ| &occ.value)
    }

    /// Mutable lookup, updating recency on a hit.
    pub fn get_mut(&mut self, set: usize, tag: u64) -> Option<&mut T> {
        self.assert_set(set);
        let way = self.way_of(set, tag)?;
        self.replacement.on_access(set, way);
        self.entries[set * self.ways + way].as_mut().map(|occ| &mut occ.value)
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
            self.replacement.on_access(set, way);
            return self.entries[set * self.ways + way].replace(Occupied { tag, value });
        }
        self.fill(set, tag, value)
    }

    /// Installs `(set, tag) -> value` for a tag the caller knows is absent
    /// (it has just missed), returning the victim if the set was full. This
    /// is [`Self::insert`] without the tag search: the victim is chosen and
    /// replaced directly.
    ///
    /// Debug builds assert that `tag` is absent from `set`; filling a
    /// resident tag would leave two ways holding it.
    pub fn fill(&mut self, set: usize, tag: u64, value: T) -> Option<Occupied<T>> {
        self.assert_set(set);
        debug_assert!(
            self.way_of(set, tag).is_none(),
            "fill of tag {tag:#x} already resident in set {set}"
        );
        let base = set * self.ways;
        let entries = &self.entries;
        let way = self.replacement.victim(set, |w| entries[base + w].is_some());
        assert!(
            way < self.ways,
            "replacement state returned way out of range"
        );
        let evicted = self.entries[base + way].replace(Occupied { tag, value });
        if evicted.is_none() {
            self.occupied += 1;
        }
        self.replacement.on_access(set, way);
        evicted
    }

    /// Removes `(set, tag)` and returns its payload. The replacement state
    /// observes the invalidation, so the vacated way's stale recency cannot
    /// outlive the entry.
    pub fn invalidate(&mut self, set: usize, tag: u64) -> Option<T> {
        self.assert_set(set);
        let way = self.way_of(set, tag)?;
        let removed = self.entries[set * self.ways + way].take().map(|occ| occ.value);
        if removed.is_some() {
            self.occupied -= 1;
            self.replacement.on_invalidate(set, way);
        }
        removed
    }

    /// Iterates over every occupied entry as `(set, &Occupied)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Occupied<T>)> {
        let ways = self.ways;
        self.entries
            .iter()
            .enumerate()
            .filter_map(move |(index, way)| way.as_ref().map(|occ| (index / ways, occ)))
    }

    /// Clears every set (replacement state is left as-is, matching the
    /// reference implementation).
    pub fn clear(&mut self) {
        for way in &mut self.entries {
            *way = None;
        }
        self.occupied = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssociative<u32> {
        SetAssociative::new(4, 2)
    }

    #[test]
    fn insert_then_get_round_trips() {
        let mut arr = small();
        assert!(arr.insert(1, 0xaa, 7).is_none());
        assert_eq!(arr.get(1, 0xaa), Some(&7));
        assert_eq!(arr.peek(1, 0xaa), Some(&7));
        assert_eq!(arr.len(), 1);
    }

    #[test]
    fn insert_same_tag_replaces_value_and_returns_previous() {
        let mut arr = small();
        arr.insert(0, 5, 1);
        let prev = arr.insert(0, 5, 2);
        assert_eq!(prev.map(|o| o.value), Some(1));
        assert_eq!(arr.get(0, 5), Some(&2));
        assert_eq!(arr.len(), 1);
    }

    #[test]
    fn eviction_follows_lru_order() {
        let mut arr = small();
        arr.insert(2, 1, 10);
        arr.insert(2, 2, 20);
        // Touch tag 1 so tag 2 becomes LRU.
        arr.get(2, 1);
        let evicted = arr.insert(2, 3, 30).expect("set was full, must evict");
        assert_eq!(evicted.tag, 2);
        assert_eq!(evicted.value, 20);
        assert!(arr.contains(2, 1));
        assert!(arr.contains(2, 3));
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut arr = small();
        arr.insert(3, 9, 99);
        assert_eq!(arr.invalidate(3, 9), Some(99));
        assert!(!arr.contains(3, 9));
        assert_eq!(arr.invalidate(3, 9), None);
    }

    #[test]
    fn capacity_and_len_track_occupancy() {
        let mut arr = SetAssociative::new(2, 3);
        assert_eq!(arr.capacity(), 6);
        assert!(arr.is_empty());
        for tag in 0..3 {
            arr.insert(0, tag, tag as u32);
        }
        assert_eq!(arr.len(), 3);
        arr.clear();
        assert!(arr.is_empty());
    }

    #[test]
    fn len_stays_exact_under_churn() {
        let mut arr = SetAssociative::new(2, 2);
        arr.insert(0, 1, 1);
        arr.insert(0, 2, 2);
        arr.insert(0, 3, 3); // evicts, occupancy stays 2
        assert_eq!(arr.len(), 2);
        arr.insert(0, 3, 4); // in-place update, occupancy stays 2
        assert_eq!(arr.len(), 2);
        arr.invalidate(0, 3);
        assert_eq!(arr.len(), 1);
        arr.invalidate(0, 3);
        assert_eq!(arr.len(), 1);
    }

    #[test]
    fn invalidated_way_is_refilled_first() {
        let mut arr = SetAssociative::new(1, 4);
        for tag in 0..4 {
            arr.insert(0, tag, tag as u32);
        }
        arr.invalidate(0, 1);
        // The vacated way must be refilled before any valid entry is evicted.
        assert!(arr.insert(0, 9, 9).is_none());
        assert_eq!(arr.len(), 4);
    }

    #[test]
    fn iter_visits_every_entry_once() {
        let mut arr = SetAssociative::new(4, 4);
        for set in 0..4 {
            for tag in 0..4u64 {
                arr.insert(set, tag, (set as u32) * 10 + tag as u32);
            }
        }
        let mut seen: Vec<(usize, u64)> = arr.iter().map(|(set, occ)| (set, occ.tag)).collect();
        seen.sort_unstable();
        assert_eq!(seen.len(), 16);
        seen.dedup();
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn peek_does_not_change_replacement_order() {
        let mut arr = small();
        arr.insert(0, 1, 1);
        arr.insert(0, 2, 2);
        // Peek at tag 1 only; tag 1 stays LRU because peeks don't touch.
        arr.peek(0, 1);
        let evicted = arr.insert(0, 3, 3).unwrap();
        assert_eq!(evicted.tag, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        small().peek(10, 0);
    }

    #[test]
    #[should_panic(expected = "at most 16 ways")]
    fn seventeen_ways_are_rejected() {
        SetAssociative::<u32>::new(4, 17);
    }
}
