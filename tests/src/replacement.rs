//! The boxed per-set replacement policies: the original formulation of
//! `pv_mem::ReplacementState`, kept as a test oracle.
//!
//! Each set owns one [`ReplacementPolicy`] object, and victim selection
//! takes a freshly built valid-mask.
//! [`ReferenceSetAssociative`](crate::ReferenceSetAssociative) builds one
//! policy per set with [`build_policy`], and the differential tests drive
//! it against the packed state inside `pv_mem::SetAssociative`.

use pv_mem::ReplacementKind;
use std::fmt::Debug;

/// A replacement policy for one set of `ways` ways.
///
/// Implementations keep whatever per-set state they need (recency stacks,
/// PLRU trees, ...) and are driven by the cache through [`on_access`],
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

    /// Number of ways this policy instance manages.
    fn ways(&self) -> usize;
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

    fn ways(&self) -> usize {
        self.stack.len()
    }
}

/// Tree-based pseudo-LRU, the classic hardware approximation of LRU for
/// power-of-two associativities.
#[derive(Debug, Clone)]
pub struct TreePlru {
    ways: usize,
    /// One bit per internal node of the binary tree, stored level order.
    bits: Vec<bool>,
}

impl TreePlru {
    /// Creates a tree-PLRU policy for `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or not a power of two.
    pub fn new(ways: usize) -> Self {
        assert!(ways > 0, "a set must have at least one way");
        assert!(
            ways.is_power_of_two(),
            "tree-PLRU requires a power-of-two way count"
        );
        TreePlru {
            ways,
            bits: vec![false; ways.saturating_sub(1)],
        }
    }

    fn update_on_access(&mut self, way: usize) {
        if self.ways == 1 {
            return;
        }
        let mut node = 0usize;
        let mut low = 0usize;
        let mut high = self.ways;
        while high - low > 1 {
            let mid = (low + high) / 2;
            let go_right = way >= mid;
            // Point away from the accessed half.
            self.bits[node] = !go_right;
            if go_right {
                node = 2 * node + 2;
                low = mid;
            } else {
                node = 2 * node + 1;
                high = mid;
            }
        }
    }
}

impl ReplacementPolicy for TreePlru {
    fn on_access(&mut self, way: usize) {
        self.update_on_access(way);
    }

    fn on_fill(&mut self, way: usize) {
        self.update_on_access(way);
    }

    fn victim(&mut self, valid: &[bool]) -> usize {
        assert_eq!(valid.len(), self.ways, "valid mask length mismatch");
        if let Some(way) = (0..valid.len()).find(|&w| !valid[w]) {
            return way;
        }
        if self.ways == 1 {
            return 0;
        }
        let mut node = 0usize;
        let mut low = 0usize;
        let mut high = self.ways;
        while high - low > 1 {
            let mid = (low + high) / 2;
            if self.bits[node] {
                node = 2 * node + 2;
                low = mid;
            } else {
                node = 2 * node + 1;
                high = mid;
            }
        }
        low
    }

    fn ways(&self) -> usize {
        self.ways
    }
}

/// Deterministic pseudo-random replacement (xorshift), useful as an ablation
/// baseline; never used by the paper configurations.
#[derive(Debug, Clone)]
pub struct RandomEvict {
    ways: usize,
    state: u64,
}

impl RandomEvict {
    /// Creates a random-replacement policy seeded deterministically per set.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn new(ways: usize, seed: u64) -> Self {
        assert!(ways > 0, "a set must have at least one way");
        RandomEvict {
            ways,
            state: seed | 1,
        }
    }

    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl ReplacementPolicy for RandomEvict {
    fn on_access(&mut self, _way: usize) {}

    fn on_fill(&mut self, _way: usize) {}

    fn victim(&mut self, valid: &[bool]) -> usize {
        assert_eq!(valid.len(), self.ways, "valid mask length mismatch");
        if let Some(way) = (0..valid.len()).find(|&w| !valid[w]) {
            return way;
        }
        (self.next() % self.ways as u64) as usize
    }

    fn ways(&self) -> usize {
        self.ways
    }
}

/// Builds the policy instance `kind` names for a set with `ways` ways; the
/// random policy is seeded per set from `set_index`.
pub fn build_policy(
    kind: ReplacementKind,
    ways: usize,
    set_index: u64,
) -> Box<dyn ReplacementPolicy> {
    match kind {
        ReplacementKind::Lru => Box::new(Lru::new(ways)),
        ReplacementKind::TreePlru => Box::new(TreePlru::new(ways)),
        ReplacementKind::Random => {
            Box::new(RandomEvict::new(ways, set_index.wrapping_add(0x9E37_79B9)))
        }
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
    fn plru_prefers_invalid_way() {
        let mut plru = TreePlru::new(8);
        assert_eq!(
            plru.victim(&[true, true, true, false, true, true, true, true]),
            3
        );
    }

    #[test]
    fn plru_never_evicts_most_recent() {
        let mut plru = TreePlru::new(8);
        for way in 0..8 {
            plru.on_fill(way);
        }
        for target in 0..8 {
            plru.on_access(target);
            let victim = plru.victim(&[true; 8]);
            assert_ne!(victim, target, "PLRU must not evict the just-accessed way");
        }
    }

    #[test]
    fn random_is_deterministic_for_same_seed() {
        let mut a = RandomEvict::new(16, 7);
        let mut b = RandomEvict::new(16, 7);
        let valid = [true; 16];
        for _ in 0..64 {
            assert_eq!(a.victim(&valid), b.victim(&valid));
        }
    }

    #[test]
    fn random_victims_are_in_range() {
        let mut r = RandomEvict::new(11, 3);
        let valid = [true; 11];
        for _ in 0..256 {
            assert!(r.victim(&valid) < 11);
        }
    }

    #[test]
    fn kind_builds_expected_way_count() {
        for kind in [ReplacementKind::Lru, ReplacementKind::Random] {
            let policy = build_policy(kind, 11, 0);
            assert_eq!(policy.ways(), 11);
        }
        let policy = build_policy(ReplacementKind::TreePlru, 16, 0);
        assert_eq!(policy.ways(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_way_lru_panics() {
        Lru::new(0);
    }
}
