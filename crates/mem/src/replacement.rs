//! LRU replacement state for set-associative structures.
//!
//! Every cache in the paper's Table 1 is LRU, and so is every array the
//! simulator builds (L1 4-way, L2 16-way, the SMS PHT at 11 or 16 ways, the
//! Markov table at 4 ways). [`ReplacementState`] is that policy packed for
//! the [`SetAssociative`](crate::SetAssociative) path: one `u64` recency
//! word per set, sized at construction, so no allocation happens
//! afterwards. A word holds sixteen 4-bit way indices, which caps the
//! associativity at [`ReplacementState::MAX_WAYS`]. The original
//! formulation — a boxed LRU stack per set — lives on as a test oracle in
//! the `pv-tests` crate, and differential tests drive it against this
//! packed state at every way count.

/// Bit-packed true-LRU state for a whole set-associative array.
///
/// Nibble `p` of a set's recency word holds the way at recency position
/// `p` (position 0 = most recently used, position `ways - 1` = the LRU
/// victim).
///
/// Victim selection always prefers an invalid way (lowest index first);
/// callers pass occupancy as a closure so no temporary valid-mask vector is
/// materialised.
#[derive(Debug, Clone)]
pub struct ReplacementState {
    ways: usize,
    /// One recency word per set; nibble `p` = way at position `p`.
    words: Vec<u64>,
}

/// The recency position of `way` in a `ways`-way recency word.
fn position(word: u64, ways: usize, way: usize) -> usize {
    (0..ways)
        .find(|&p| (word >> (4 * p)) & 0xF == way as u64)
        .expect("way index out of range for LRU recency word")
}

/// Nibble `p` of an LRU recency word: the identity permutation at reset.
fn identity_word(ways: usize) -> u64 {
    let mut word = 0u64;
    for p in 0..ways {
        word |= (p as u64) << (4 * p);
    }
    word
}

impl ReplacementState {
    /// The widest associativity one recency word can order.
    pub const MAX_WAYS: usize = 16;

    /// Builds LRU state for `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or greater than [`Self::MAX_WAYS`].
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways > 0, "a set must have at least one way");
        assert!(
            ways <= Self::MAX_WAYS,
            "LRU supports at most {} ways per set, got {ways}",
            Self::MAX_WAYS
        );
        ReplacementState {
            ways,
            words: vec![identity_word(ways); sets],
        }
    }

    /// Promotes `way` of `set` to most-recently-used, on a hit or a fill.
    pub fn on_access(&mut self, set: usize, way: usize) {
        let word = &mut self.words[set];
        let pos = position(*word, self.ways, way);
        // Keep nibbles above `pos`, shift [0, pos) up one position and
        // install `way` as MRU.
        let below = *word & ((1u64 << (4 * pos)) - 1);
        let above = if 4 * (pos + 1) >= 64 {
            0
        } else {
            *word & !((1u64 << (4 * (pos + 1))) - 1)
        };
        *word = above | (below << 4) | way as u64;
    }

    /// Observes the invalidation of `way` in `set`, moving the way to the
    /// least-recently-used position so its stale recency cannot outlive the
    /// entry. Observationally this never changes victim choice — invalid
    /// ways are preferred by scan and refills re-touch — but the state no
    /// longer claims an empty way was recently used.
    pub fn on_invalidate(&mut self, set: usize, way: usize) {
        let ways = self.ways;
        let word = &mut self.words[set];
        let pos = position(*word, ways, way);
        if pos == ways - 1 {
            return;
        }
        // Keep nibbles below `pos`, shift (pos, ways) down one position and
        // park `way` at the LRU end.
        let below = *word & ((1u64 << (4 * pos)) - 1);
        let rest = (*word >> (4 * (pos + 1))) << (4 * pos);
        *word = below | rest | ((way as u64) << (4 * (ways - 1)));
    }

    /// Picks the victim way for `set`; `valid(way)` reports occupancy.
    ///
    /// Invalid ways are preferred (lowest index first); otherwise the least
    /// recently used way is the victim.
    pub fn victim<F: Fn(usize) -> bool>(&self, set: usize, valid: F) -> usize {
        if let Some(way) = (0..self.ways).find(|&w| !valid(w)) {
            return way;
        }
        ((self.words[set] >> (4 * (self.ways - 1))) & 0xF) as usize
    }
}
