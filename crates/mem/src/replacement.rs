//! Replacement policies for set-associative structures.
//!
//! The paper's caches use LRU; the PVCache in the proxy is fully associative
//! and also uses LRU. Tree-PLRU and a deterministic pseudo-random policy are
//! provided for ablation studies.
//!
//! [`ReplacementState`] is the bit-packed, enum-dispatched per-array state
//! the [`SetAssociative`](crate::SetAssociative) path uses. All sets' state
//! lives in a handful of flat vectors sized at construction; no allocation
//! happens afterwards. The original formulation — a boxed policy object per
//! set — lives on as a test oracle in the `pv-tests` crate, and differential
//! tests drive it against this packed state.

/// Enum-dispatched, bit-packed replacement state for a whole set-associative
/// array.
///
/// Per-set state is packed into machine words held in flat vectors:
///
/// * LRU with at most 16 ways: one `u64` recency word per set, nibble `p`
///   holding the way at recency position `p` (position 0 = MRU).
/// * Wider LRU: a flat `u8` recency stack, `ways` bytes per set, MRU first.
/// * Tree-PLRU: one `u64` bitfield per set, bit `n` = internal node `n` of
///   the binary tree in level order.
/// * Random: one xorshift64* state per set.
///
/// Victim selection always prefers an invalid way (lowest index first);
/// callers pass occupancy as a closure so no temporary valid-mask vector is
/// materialised.
#[derive(Debug, Clone)]
pub enum ReplacementState {
    /// True LRU, `ways <= 16`, one packed recency word per set.
    LruPacked {
        /// Associativity.
        ways: usize,
        /// One recency word per set; nibble `p` = way at position `p`.
        words: Vec<u64>,
    },
    /// True LRU, `16 < ways <= 256`, flat per-set recency stacks.
    LruFlat {
        /// Associativity.
        ways: usize,
        /// `ways` bytes per set, most recently used way first.
        stacks: Vec<u8>,
    },
    /// Tree pseudo-LRU, one bitfield per set.
    TreePlru {
        /// Associativity (power of two, at most 64).
        ways: usize,
        /// One `u64` of tree bits per set.
        bits: Vec<u64>,
    },
    /// Deterministic pseudo-random (xorshift64*), one state word per set.
    Random {
        /// Associativity.
        ways: usize,
        /// Per-set generator state.
        states: Vec<u64>,
    },
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
    /// Builds packed state for `sets` sets of `ways` ways under `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, if tree-PLRU is requested with a
    /// non-power-of-two or greater-than-64 way count, or if LRU is requested
    /// with more than 256 ways.
    pub fn new(kind: ReplacementKind, sets: usize, ways: usize) -> Self {
        assert!(ways > 0, "a set must have at least one way");
        match kind {
            ReplacementKind::Lru if ways <= 16 => ReplacementState::LruPacked {
                ways,
                words: vec![identity_word(ways); sets],
            },
            ReplacementKind::Lru => {
                assert!(ways <= 256, "packed LRU supports at most 256 ways");
                let mut stacks = vec![0u8; sets * ways];
                for set in 0..sets {
                    for (p, slot) in stacks[set * ways..(set + 1) * ways].iter_mut().enumerate() {
                        *slot = p as u8;
                    }
                }
                ReplacementState::LruFlat { ways, stacks }
            }
            ReplacementKind::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "tree-PLRU requires a power-of-two way count"
                );
                assert!(ways <= 64, "packed tree-PLRU supports at most 64 ways");
                ReplacementState::TreePlru {
                    ways,
                    bits: vec![0u64; sets],
                }
            }
            ReplacementKind::Random => ReplacementState::Random {
                ways,
                states: (0..sets).map(|set| (set as u64).wrapping_add(0x9E37_79B9) | 1).collect(),
            },
        }
    }

    /// Promotes `way` of `set` to most-recently-used.
    pub fn on_access(&mut self, set: usize, way: usize) {
        match self {
            ReplacementState::LruPacked { ways, words } => {
                let word = &mut words[set];
                let pos = (0..*ways)
                    .find(|&p| (*word >> (4 * p)) & 0xF == way as u64)
                    .expect("way index out of range for LRU recency word");
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
            ReplacementState::LruFlat { ways, stacks } => {
                let stack = &mut stacks[set * *ways..(set + 1) * *ways];
                let pos = stack
                    .iter()
                    .position(|&w| w == way as u8)
                    .expect("way index out of range for LRU recency stack");
                stack[..=pos].rotate_right(1);
            }
            ReplacementState::TreePlru { ways, bits } => {
                plru_touch(&mut bits[set], *ways, way, false);
            }
            ReplacementState::Random { .. } => {}
        }
    }

    /// Records a fill of `way` in `set` (same recency effect as an access).
    pub fn on_fill(&mut self, set: usize, way: usize) {
        self.on_access(set, way);
    }

    /// Observes the invalidation of `way` in `set`, demoting its stale
    /// recency so it cannot outlive the entry: LRU moves the way to the
    /// least-recently-used position, tree-PLRU points the tree at it, random
    /// keeps no recency. Observationally this never changes victim choice —
    /// invalid ways are preferred by scan and refills re-touch — but the
    /// state no longer claims an empty way was recently used.
    pub fn on_invalidate(&mut self, set: usize, way: usize) {
        match self {
            ReplacementState::LruPacked { ways, words } => {
                let word = &mut words[set];
                let pos = (0..*ways)
                    .find(|&p| (*word >> (4 * p)) & 0xF == way as u64)
                    .expect("way index out of range for LRU recency word");
                if pos == *ways - 1 {
                    return;
                }
                // Keep nibbles below `pos`, shift (pos, ways) down one
                // position and park `way` at the LRU end.
                let below = *word & ((1u64 << (4 * pos)) - 1);
                let rest = (*word >> (4 * (pos + 1))) << (4 * pos);
                *word = below | rest | ((way as u64) << (4 * (*ways - 1)));
            }
            ReplacementState::LruFlat { ways, stacks } => {
                let stack = &mut stacks[set * *ways..(set + 1) * *ways];
                let pos = stack
                    .iter()
                    .position(|&w| w == way as u8)
                    .expect("way index out of range for LRU recency stack");
                stack[pos..].rotate_left(1);
            }
            ReplacementState::TreePlru { ways, bits } => {
                plru_touch(&mut bits[set], *ways, way, true);
            }
            ReplacementState::Random { .. } => {}
        }
    }

    /// Picks the victim way for `set`; `valid(way)` reports occupancy.
    ///
    /// Invalid ways are preferred (lowest index first). The random policy
    /// only advances its generator when every way is valid.
    pub fn victim<F: Fn(usize) -> bool>(&mut self, set: usize, valid: F) -> usize {
        let ways = self.ways();
        if let Some(way) = (0..ways).find(|&w| !valid(w)) {
            return way;
        }
        match self {
            ReplacementState::LruPacked { ways, words } => {
                ((words[set] >> (4 * (*ways - 1))) & 0xF) as usize
            }
            ReplacementState::LruFlat { ways, stacks } => stacks[(set + 1) * *ways - 1] as usize,
            ReplacementState::TreePlru { ways, bits } => {
                if *ways == 1 {
                    return 0;
                }
                let word = bits[set];
                let mut node = 0usize;
                let mut low = 0usize;
                let mut high = *ways;
                while high - low > 1 {
                    let mid = (low + high) / 2;
                    if (word >> node) & 1 != 0 {
                        node = 2 * node + 2;
                        low = mid;
                    } else {
                        node = 2 * node + 1;
                        high = mid;
                    }
                }
                low
            }
            ReplacementState::Random { ways, states } => {
                let state = &mut states[set];
                let mut x = *state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *state = x;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % *ways as u64) as usize
            }
        }
    }

    /// Associativity this state manages.
    pub fn ways(&self) -> usize {
        match self {
            ReplacementState::LruPacked { ways, .. }
            | ReplacementState::LruFlat { ways, .. }
            | ReplacementState::TreePlru { ways, .. }
            | ReplacementState::Random { ways, .. } => *ways,
        }
    }
}

/// Walks the PLRU tree path of `way`, pointing every node on the path away
/// from it (`toward == false`, the access/fill update) or toward it
/// (`toward == true`, the invalidation update).
fn plru_touch(word: &mut u64, ways: usize, way: usize, toward: bool) {
    if ways == 1 {
        return;
    }
    let mut node = 0usize;
    let mut low = 0usize;
    let mut high = ways;
    while high - low > 1 {
        let mid = (low + high) / 2;
        let go_right = way >= mid;
        let bit = if toward { go_right } else { !go_right };
        if bit {
            *word |= 1u64 << node;
        } else {
            *word &= !(1u64 << node);
        }
        if go_right {
            node = 2 * node + 2;
            low = mid;
        } else {
            node = 2 * node + 1;
            high = mid;
        }
    }
}

/// Which replacement policy a cache should instantiate per set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementKind {
    /// True LRU (paper default).
    Lru,
    /// Tree pseudo-LRU.
    TreePlru,
    /// Deterministic pseudo-random.
    Random,
}
