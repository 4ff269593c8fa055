//! One set of a virtualized predictor table.
//!
//! The simulator tracks a table's *contents* functionally (the actual entry
//! values, one [`PvSet`] per table set, held by the table's
//! [`crate::PvFront`]) while the *movement* of those contents through the
//! memory hierarchy is modelled by the proxy issuing real block requests
//! for the sets' addresses. This mirrors how an RTL implementation would
//! behave: the values live in DRAM/caches, and what the architecture
//! controls is which blocks move when.
//!
//! A set's associativity is however many entries fit in one memory block
//! under the entry type's [`crate::PvLayout`] (Figure 3a).

use crate::entry::PvEntry;

/// One set of the PVTable: up to `ways` entries, kept in recency order
/// (most recently used first) so that within-set replacement is LRU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PvSet<E> {
    entries: Vec<E>,
    ways: usize,
}

impl<E: PvEntry> PvSet<E> {
    /// Creates an empty set with the given associativity. Storage for all
    /// `ways` entries is reserved up front so inserts never reallocate.
    pub fn new(ways: usize) -> Self {
        PvSet {
            entries: Vec::with_capacity(ways),
            ways,
        }
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the entry tagged `tag`, promoting it to most-recently-used
    /// on a hit.
    pub fn lookup(&mut self, tag: u64) -> Option<&E> {
        let pos = self.entries.iter().position(|e| e.tag() == tag)?;
        self.entries[..=pos].rotate_right(1);
        Some(&self.entries[0])
    }

    /// Looks up `tag` without modifying recency.
    pub fn peek(&self, tag: u64) -> Option<&E> {
        self.entries.iter().find(|e| e.tag() == tag)
    }

    /// Inserts or updates `entry` (keyed by its tag), evicting the
    /// least-recently-used entry when the set is full. Returns the evicted
    /// entry if one was pushed out.
    pub fn insert(&mut self, entry: E) -> Option<E> {
        if let Some(pos) = self.entries.iter().position(|e| e.tag() == entry.tag()) {
            self.entries[pos] = entry;
            self.entries[..=pos].rotate_right(1);
            return None;
        }
        if self.entries.len() >= self.ways {
            self.entries.rotate_right(1);
            return Some(std::mem::replace(&mut self.entries[0], entry));
        }
        self.entries.push(entry);
        self.entries.rotate_right(1);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PvConfig;
    use crate::entry::{NarrowEntry, RawEntry};
    use crate::proxy::PvFront;
    use pv_mem::{HierarchyConfig, MemoryHierarchy};

    /// A memory hierarchy and a dedicated PV-8 front of `E` entries on
    /// core 0's PV region.
    fn front<E: PvEntry>() -> (MemoryHierarchy, PvFront<E>) {
        let config = HierarchyConfig::paper_baseline(4);
        let front = PvFront::dedicated(0, PvConfig::pv8(), config.pv_regions.core_base(0), "test");
        (MemoryHierarchy::new(config), front)
    }

    #[test]
    fn associativity_derives_from_entry_widths() {
        // RawEntry is 128 bits wide, so only 4 fit in a 64-byte block: a
        // fifth tag stored into one set evicts the least recently used.
        let (mut mem, mut front) = front::<RawEntry>();
        assert_eq!(front.layout().entries_per_block(), 4);
        let index = |tag: u64| (tag << 10) | 7;
        for tag in 1..=5 {
            front.store(
                index(tag),
                RawEntry::new(tag, tag),
                &mut mem,
                None,
                tag * 1_000,
            );
        }
        assert_eq!(front.resident_entries(), 4);
        assert!(front.lookup(index(1), &mut mem, None, 10_000).entry.is_none());
        for tag in 2..=5 {
            assert!(front.lookup(index(tag), &mut mem, None, 10_000 + tag).entry.is_some());
        }
    }

    #[test]
    fn pv_set_lru_eviction() {
        let mut set: PvSet<NarrowEntry> = PvSet::new(2);
        assert!(set.insert(NarrowEntry { tag: 1, payload: 1 }).is_none());
        assert!(set.insert(NarrowEntry { tag: 2, payload: 2 }).is_none());
        // Touch tag 1; tag 2 becomes LRU.
        assert!(set.lookup(1).is_some());
        let evicted = set.insert(NarrowEntry { tag: 3, payload: 3 }).expect("full set must evict");
        assert_eq!(evicted.tag, 2);
        assert_eq!(set.len(), 2);
        assert!(set.peek(1).is_some());
        assert!(set.peek(3).is_some());
    }

    #[test]
    fn pv_set_update_replaces_in_place() {
        let mut set: PvSet<NarrowEntry> = PvSet::new(4);
        set.insert(NarrowEntry { tag: 7, payload: 1 });
        set.insert(NarrowEntry { tag: 7, payload: 2 });
        assert_eq!(set.len(), 1);
        assert_eq!(set.peek(7).map(|e| e.payload), Some(2));
    }

    #[test]
    fn write_and_read_set_round_trip() {
        let (mut mem, mut front) = front::<NarrowEntry>();
        assert_eq!(front.layout().entries_per_block(), 11);
        let index = (5 << 10) | 100;
        let entry = NarrowEntry {
            tag: 5,
            payload: 0xE,
        };
        front.store(index, entry, &mut mem, None, 0);
        assert_eq!(
            front.lookup(index, &mut mem, None, 1_000).entry,
            Some(entry)
        );
        assert_eq!(front.resident_entries(), 1);
    }
}
