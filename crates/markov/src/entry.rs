//! The Markov predictor's table entry and index arithmetic.

use pv_core::PvEntry;

/// Number of PC bits used in the table index.
pub const PC_INDEX_BITS: u32 = 22;
/// Total index width (the index is the PC bits alone).
pub const INDEX_BITS: u32 = PC_INDEX_BITS;

/// Set-bit count of the canonical 1K-set table (used to size the tag).
const SET_BITS: u32 = 10;

/// A 22-bit index into the next-address table, derived from the program
/// counter of a memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MarkovIndex(u32);

impl MarkovIndex {
    /// Builds the index from a program counter (instruction-word address).
    pub fn from_pc(pc: u64) -> Self {
        MarkovIndex(((pc >> 2) as u32) & ((1 << INDEX_BITS) - 1))
    }

    /// Builds an index from its raw value (masked to width).
    pub fn from_raw(raw: u32) -> Self {
        MarkovIndex(raw & ((1 << INDEX_BITS) - 1))
    }

    /// The raw index value.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The set index for a table with `sets` sets (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or is zero.
    pub fn set_index(self, sets: usize) -> usize {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "table set count must be a power of two"
        );
        (self.0 as usize) & (sets - 1)
    }

    /// The tag for a table with `sets` sets: the index bits above the set
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or is zero.
    pub fn tag(self, sets: usize) -> u32 {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "table set count must be a power of two"
        );
        self.0 >> sets.trailing_zeros()
    }
}

/// One entry of the next-address table: the index tag and a signed block
/// delta, packed as 12 + 28 = 40 bits (twelve entries per 64-byte block —
/// a deliberately different geometry from SMS's 11 × 43 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkovEntry {
    tag: u16,
    /// Zig-zag-encoded delta, biased by one so a valid payload is never the
    /// substrate's all-zero invalid marker.
    code: u32,
}

impl MarkovEntry {
    /// Largest delta magnitude the payload encoding can hold.
    pub fn max_delta() -> i64 {
        // Zig-zag + 1 must fit in PAYLOAD_BITS.
        i64::from((1u32 << (Self::PAYLOAD_BITS - 1)) - 1)
    }

    /// Creates an entry for `delta` blocks, or `None` if the delta is out of
    /// the encodable range (or zero — a zero delta predicts the block the
    /// demand access already fetches, so it is never stored).
    pub fn new(tag: u16, delta: i64) -> Option<Self> {
        if delta == 0 || delta.abs() > Self::max_delta() {
            return None;
        }
        let zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
        Some(MarkovEntry {
            tag,
            code: (zigzag + 1) as u32,
        })
    }

    /// The stored block delta.
    pub fn delta(&self) -> i64 {
        let zigzag = u64::from(self.code - 1);
        ((zigzag >> 1) as i64) ^ -((zigzag & 1) as i64)
    }
}

impl PvEntry for MarkovEntry {
    const TAG_BITS: u32 = INDEX_BITS - SET_BITS; // 12
    const PAYLOAD_BITS: u32 = 28;

    fn tag(&self) -> u64 {
        u64::from(self.tag)
    }

    fn payload(&self) -> u64 {
        u64::from(self.code)
    }
}

/// Configuration of the Markov prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MarkovConfig {
    /// Number of table sets (1K, matching the virtualized layout).
    pub table_sets: usize,
    /// Associativity of the *dedicated* on-chip variant.
    pub dedicated_ways: usize,
    /// Lookup latency of the dedicated on-chip table in cycles.
    pub dedicated_lookup_latency: u64,
}

impl MarkovConfig {
    /// The canonical configuration: a 1K-set table, 4-way when dedicated.
    pub fn paper_1k() -> Self {
        MarkovConfig {
            table_sets: 1024,
            dedicated_ways: 4,
            dedicated_lookup_latency: 1,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry.
    pub fn assert_valid(&self) {
        assert!(
            self.table_sets > 0 && self.table_sets.is_power_of_two(),
            "table_sets must be a power of two"
        );
        assert!(self.dedicated_ways > 0, "dedicated_ways must be positive");
        assert!(
            self.table_sets.trailing_zeros() + MarkovEntry::TAG_BITS >= INDEX_BITS,
            "set bits plus entry tag bits must cover the {INDEX_BITS}-bit index"
        );
    }

    /// Dedicated on-chip storage in bytes: tag + delta payload per entry.
    pub fn dedicated_storage_bytes(&self) -> u64 {
        let entries = (self.table_sets * self.dedicated_ways) as u64;
        let entry_bits = u64::from(MarkovEntry::TAG_BITS + MarkovEntry::PAYLOAD_BITS);
        (entries * entry_bits).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_core::PvLayout;

    #[test]
    fn twelve_entries_pack_per_block() {
        let layout = PvLayout::of::<MarkovEntry>(64);
        assert_eq!(MarkovEntry::entry_bits(), 40);
        assert_eq!(layout.entries_per_block(), 12);
        assert_eq!(layout.unused_trailing_bits(), 32);
    }

    #[test]
    fn deltas_round_trip_through_the_packed_encoding() {
        for delta in [
            1i64,
            -1,
            7,
            -42,
            1 << 20,
            -(1 << 20),
            MarkovEntry::max_delta(),
            -MarkovEntry::max_delta(),
        ] {
            let entry = MarkovEntry::new(0x5A5, delta).expect("delta in range");
            assert_eq!(entry.delta(), delta, "delta {delta}");
            assert_ne!(
                entry.payload(),
                0,
                "valid entries never use the invalid marker"
            );
            assert!(
                entry.payload() <= PvLayout::of::<MarkovEntry>(64).max_payload(),
                "delta {delta} fits the payload bits"
            );
        }
    }

    #[test]
    fn zero_and_oversized_deltas_are_rejected() {
        assert!(MarkovEntry::new(1, 0).is_none());
        assert!(MarkovEntry::new(1, MarkovEntry::max_delta() + 1).is_none());
        assert!(MarkovEntry::new(1, -(MarkovEntry::max_delta() + 1)).is_none());
    }

    #[test]
    fn index_set_and_tag_reconstruct() {
        let sets = 1024;
        for raw in [0u32, 1, 123_456, (1 << INDEX_BITS) - 1] {
            let index = MarkovIndex::from_raw(raw);
            let rebuilt = (index.tag(sets) << sets.trailing_zeros()) | index.set_index(sets) as u32;
            assert_eq!(rebuilt, index.raw());
        }
    }

    #[test]
    fn different_pcs_map_to_different_indices() {
        assert_ne!(MarkovIndex::from_pc(0x4000), MarkovIndex::from_pc(0x4004));
    }

    #[test]
    fn config_is_valid_and_sized() {
        let config = MarkovConfig::paper_1k();
        config.assert_valid();
        // 4K entries x 40 bits = 20 KB dedicated.
        assert_eq!(config.dedicated_storage_bytes(), 20 * 1024);
    }
}
