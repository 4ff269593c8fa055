//! The predictor-facing entry abstraction: what `pv-core` virtualizes.
//!
//! Predictor Virtualization is a *substrate*: any predictor whose metadata
//! lives in an indexed table can have that table emulated in the memory
//! hierarchy (paper Sections 2 and 3). The substrate does not know what a
//! "spatial pattern" or a "next address" is — it only needs each table entry
//! to expose a tag and a payload of fixed bit-widths.
//!
//! A predictor plugs in by implementing [`PvEntry`] for its entry type; the
//! Figure 3a layout of one set in one memory block ([`PvLayout`]) — bits
//! per entry, entries per block, unused trailer — is then *derived* from
//! the entry's widths instead of being hard-coded to the paper's
//! 11 × 43-bit SMS instance. The simulator keeps each set's entries in
//! structured form; the layout fixes how many of them a set holds and how
//! much on-chip storage the proxy needs.

/// One entry of a virtualized predictor table.
///
/// The tag disambiguates table indices that map to the same set; the payload
/// is the predictor's actual metadata (a spatial pattern, a target address,
/// a confidence counter, ...). Both are exposed as raw bit-fields of fixed
/// widths, which is what sizes the entry in a packed memory block.
///
/// # Width and invalid-marker rules
///
/// * `tag()` must fit in [`PvEntry::TAG_BITS`] bits and `payload()` in
///   [`PvEntry::PAYLOAD_BITS`] bits.
/// * The all-zero payload is reserved as the *invalid marker* of an empty
///   slot: a valid entry never has payload `0` (bias the encoding if the
///   natural payload can be zero).
///
/// The invalid marker is why Figure 3a's packed entries carry no valid
/// bit: an entry is exactly `TAG_BITS + PAYLOAD_BITS` wide, so
/// [`PvLayout::entries_per_block`] divides the block by that width alone.
/// [`crate::PvFront::store`] enforces both rules on every store.
pub trait PvEntry: Clone + PartialEq + Eq + std::fmt::Debug {
    /// Number of tag bits stored per packed entry.
    const TAG_BITS: u32;
    /// Number of payload bits stored per packed entry.
    const PAYLOAD_BITS: u32;

    /// The tag bits of this entry.
    fn tag(&self) -> u64;

    /// The payload bits of this entry (never zero for a valid entry).
    fn payload(&self) -> u64;

    /// Total bits per packed entry.
    fn entry_bits() -> u32 {
        Self::TAG_BITS + Self::PAYLOAD_BITS
    }
}

/// The derived bit-level layout of one virtualized table: how entries of
/// given widths pack into memory blocks.
///
/// For the paper's SMS instance (11-bit tags, 32-bit patterns, 64-byte
/// blocks) this reproduces Figure 3a: eleven 43-bit entries per block with a
/// 39-bit unused trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PvLayout {
    /// Tag bits per packed entry.
    pub tag_bits: u32,
    /// Payload bits per packed entry.
    pub payload_bits: u32,
    /// Size of the memory block one table set packs into.
    pub block_bytes: u64,
}

impl PvLayout {
    /// Builds a layout from explicit widths.
    ///
    /// # Panics
    ///
    /// Panics if either width is zero or exceeds 64 bits, or if a single
    /// entry does not fit in one block.
    pub fn new(tag_bits: u32, payload_bits: u32, block_bytes: u64) -> Self {
        assert!(
            tag_bits > 0 && tag_bits <= 64,
            "tag width must be in 1..=64 bits, got {tag_bits}"
        );
        assert!(
            payload_bits > 0 && payload_bits <= 64,
            "payload width must be in 1..=64 bits, got {payload_bits}"
        );
        assert!(block_bytes > 0, "block size must be positive");
        let layout = PvLayout {
            tag_bits,
            payload_bits,
            block_bytes,
        };
        assert!(
            layout.entries_per_block() >= 1,
            "a {}-bit entry does not fit in a {}-byte block",
            layout.entry_bits(),
            block_bytes
        );
        layout
    }

    /// The layout of entry type `E` packed into `block_bytes`-byte blocks.
    pub fn of<E: PvEntry>(block_bytes: u64) -> Self {
        Self::new(E::TAG_BITS, E::PAYLOAD_BITS, block_bytes)
    }

    /// Bits per packed entry.
    pub fn entry_bits(&self) -> u32 {
        self.tag_bits + self.payload_bits
    }

    /// How many entries pack into one block — the associativity of the
    /// virtualized table (11 for the paper's 43-bit SMS entries in 64-byte
    /// blocks).
    pub fn entries_per_block(&self) -> usize {
        (self.block_bytes * 8 / u64::from(self.entry_bits())) as usize
    }

    /// Unused bits at the end of each packed block (Figure 3a's trailer; 39
    /// for the SMS instance).
    pub fn unused_trailing_bits(&self) -> u64 {
        self.block_bytes * 8 - self.entries_per_block() as u64 * u64::from(self.entry_bits())
    }

    /// The largest value `tag()` may return under this layout.
    pub fn max_tag(&self) -> u64 {
        ones(self.tag_bits)
    }

    /// The largest value `payload()` may return under this layout.
    pub fn max_payload(&self) -> u64 {
        ones(self.payload_bits)
    }
}

/// A bit-mask of `bits` ones (handles `bits == 64`).
pub(crate) fn ones(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// A width-agnostic raw entry for tests, tools and layout experiments: the
/// tag and payload are stored as full words and interpreted at whatever
/// widths the [`PvLayout`] in use prescribes.
///
/// Payload `0` is the invalid marker, per the [`PvEntry`] contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawEntry {
    /// Tag bits.
    pub tag: u64,
    /// Payload bits (non-zero for a valid entry).
    pub payload: u64,
}

impl RawEntry {
    /// Creates a raw entry.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is zero (the invalid marker).
    pub fn new(tag: u64, payload: u64) -> Self {
        assert!(payload != 0, "payload 0 is reserved as the invalid marker");
        RawEntry { tag, payload }
    }
}

impl PvEntry for RawEntry {
    const TAG_BITS: u32 = 64;
    const PAYLOAD_BITS: u32 = 64;

    fn tag(&self) -> u64 {
        self.tag
    }

    fn payload(&self) -> u64 {
        self.payload
    }
}

/// An SMS-shaped test entry: an 11-bit tag and a 32-bit payload, held in
/// full words so a test can hand a table fields too wide for them.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NarrowEntry {
    pub(crate) tag: u64,
    pub(crate) payload: u64,
}

#[cfg(test)]
impl PvEntry for NarrowEntry {
    const TAG_BITS: u32 = 11;
    const PAYLOAD_BITS: u32 = 32;

    fn tag(&self) -> u64 {
        self.tag
    }

    fn payload(&self) -> u64 {
        self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sms_instance_layout_matches_figure_3a() {
        let layout = PvLayout::new(11, 32, 64);
        assert_eq!(layout.entry_bits(), 43);
        assert_eq!(layout.entries_per_block(), 11);
        assert_eq!(layout.unused_trailing_bits(), 39);
        assert_eq!(layout.max_tag(), 0x7FF);
        assert_eq!(layout.max_payload(), u64::from(u32::MAX));
    }

    #[test]
    fn different_widths_give_different_associativity() {
        // A 40-bit entry (12-bit tag + 28-bit payload) packs 12 per block.
        let layout = PvLayout::new(12, 28, 64);
        assert_eq!(layout.entries_per_block(), 12);
        assert_eq!(layout.unused_trailing_bits(), 32);
        // Wide entries pack fewer.
        assert_eq!(PvLayout::new(16, 48, 64).entries_per_block(), 8);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_entries_panic() {
        PvLayout::new(64, 64, 8);
    }

    #[test]
    #[should_panic(expected = "invalid marker")]
    fn zero_payload_raw_entry_panics() {
        RawEntry::new(1, 0);
    }
}
