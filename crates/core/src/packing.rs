//! Bit-level packing of PVTable sets into memory blocks (Figure 3a,
//! generalised to arbitrary entry widths).
//!
//! Entries are packed back to back — tag bits first, then payload bits —
//! into one memory block per set, with any remaining bits left unused (the
//! paper suggests using the trailer for LRU state or future extensions).
//! For the paper's SMS instance (11-bit tag + 32-bit pattern, 64-byte
//! blocks) this yields eleven 43-bit entries and a 39-bit trailer; other
//! [`PvEntry`] implementations get whatever geometry their widths imply via
//! [`PvLayout`]. The simulator keeps table contents in structured form for
//! speed, but this codec is what defines the in-memory layout, and the
//! proxy's footprint and tests are checked against it.

use crate::entry::{ones, PvEntry, PvLayout};
use crate::table::PvSet;
use bytes::{Bytes, BytesMut};

/// Mask of the low `bits` bits of a 128-bit window (`bits <= 64`).
fn low_mask(bits: u32) -> u128 {
    (1u128 << bits) - 1
}

/// ORs the low `bits` bits of `value` into `buffer` starting at `bit_offset`,
/// little-endian within and across bytes.
///
/// A field of up to 64 bits at an arbitrary bit offset spans at most 9 bytes,
/// so the whole operation is one 128-bit shift/mask over that byte window
/// instead of a per-bit loop. The OR semantics (set bits are never cleared)
/// match the bit-at-a-time original; `encode_set` always writes into a zeroed
/// buffer.
pub fn write_bits(buffer: &mut [u8], bit_offset: usize, value: u64, bits: u32) {
    debug_assert!(bits <= 64);
    let first = bit_offset / 8;
    let shift = bit_offset % 8;
    let span = (shift + bits as usize).div_ceil(8);
    let mut window = [0u8; 16];
    window[..span].copy_from_slice(&buffer[first..first + span]);
    let word = u128::from_le_bytes(window) | ((u128::from(value) & low_mask(bits)) << shift);
    buffer[first..first + span].copy_from_slice(&word.to_le_bytes()[..span]);
}

/// Reads `bits` bits starting at `bit_offset` as one 128-bit window
/// shift/mask; the exact inverse of [`write_bits`].
///
/// When a full 16-byte window starting at the field's first byte lies
/// inside `buffer`, it is loaded as one fixed-size `u128`; bytes past the
/// field's span are masked off, so the result is identical to reading
/// only the span. Near the end of the buffer the span is copied into a
/// zero-padded window instead.
pub fn read_bits(buffer: &[u8], bit_offset: usize, bits: u32) -> u64 {
    debug_assert!(bits <= 64);
    let first = bit_offset / 8;
    let shift = bit_offset % 8;
    let window = match buffer.get(first..first + 16) {
        Some(bytes) => u128::from_le_bytes(bytes.try_into().expect("a 16-byte slice")),
        None => {
            let span = (shift + bits as usize).div_ceil(8);
            let mut window = [0u8; 16];
            window[..span].copy_from_slice(&buffer[first..first + span]);
            u128::from_le_bytes(window)
        }
    };
    ((window >> shift) & low_mask(bits)) as u64
}

/// Encodes a PVTable set into its packed one-block representation.
///
/// Entries are written in recency order; empty ways are encoded as all-zero
/// entries (the all-zero payload is the invalid marker per the [`PvEntry`]
/// contract).
///
/// # Panics
///
/// Panics if the set holds more entries than fit in one block under
/// `layout`, or if an entry's tag or payload exceeds the layout's widths.
pub fn encode_set<E: PvEntry>(set: &PvSet<E>, layout: &PvLayout) -> Bytes {
    assert!(
        set.len() <= layout.entries_per_block(),
        "set holds {} entries but only {} fit in a {}-byte block",
        set.len(),
        layout.entries_per_block(),
        layout.block_bytes
    );
    let mut buffer = BytesMut::zeroed(layout.block_bytes as usize);
    for (slot, entry) in set.iter().enumerate() {
        let (tag, payload) = (entry.tag(), entry.payload());
        assert!(
            tag <= ones(layout.tag_bits),
            "tag {tag:#x} exceeds {} tag bits",
            layout.tag_bits
        );
        assert!(
            payload <= ones(layout.payload_bits),
            "payload {payload:#x} exceeds {} payload bits",
            layout.payload_bits
        );
        assert!(
            payload != 0,
            "a valid entry must not encode the all-zero invalid marker"
        );
        let bit_offset = slot * layout.entry_bits() as usize;
        write_bits(&mut buffer, bit_offset, tag, layout.tag_bits);
        write_bits(
            &mut buffer,
            bit_offset + layout.tag_bits as usize,
            payload,
            layout.payload_bits,
        );
    }
    buffer.freeze()
}

/// Decodes a packed block back into a PVTable set.
///
/// # Panics
///
/// Panics if `block` is shorter than the layout's block size.
pub fn decode_set<E: PvEntry>(block: &[u8], layout: &PvLayout) -> PvSet<E> {
    assert!(
        block.len() >= layout.block_bytes as usize,
        "packed block must be at least {} bytes",
        layout.block_bytes
    );
    let ways = layout.entries_per_block();
    let mut set = PvSet::new(ways);
    // Entries were packed most-recently-used first, so appending each slot at
    // the LRU end rebuilds the recency order directly. Keeping the first
    // occurrence of a duplicated tag matches the historical reverse-insertion
    // rebuild (promote-on-reinsert left the earliest slot's payload in
    // front), which the bit-at-a-time test oracle still implements literally.
    for slot in 0..ways {
        let bit_offset = slot * layout.entry_bits() as usize;
        let tag = read_bits(block, bit_offset, layout.tag_bits);
        let payload = read_bits(
            block,
            bit_offset + layout.tag_bits as usize,
            layout.payload_bits,
        );
        if let Some(entry) = E::from_parts(tag, payload) {
            set.push_lru(entry);
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::RawEntry;

    /// The paper's SMS instance of the layout.
    fn sms_layout() -> PvLayout {
        PvLayout::new(11, 32, 64)
    }

    fn raw(tag: u64, payload: u64) -> RawEntry {
        RawEntry::new(tag, payload)
    }

    #[test]
    fn encoded_block_is_one_cache_block() {
        let set: PvSet<RawEntry> = PvSet::new(11);
        let block = encode_set(&set, &sms_layout());
        assert_eq!(block.len(), 64);
        assert!(
            block.iter().all(|&b| b == 0),
            "an empty set encodes to zeroes"
        );
    }

    #[test]
    fn round_trip_preserves_entries() {
        let layout = sms_layout();
        let mut set = PvSet::new(layout.entries_per_block());
        set.insert(raw(0x2aa, 0x8000_0009));
        set.insert(raw(0x155, 1 << 7));
        set.insert(raw(0x001, 0xdead_beef));
        let decoded: PvSet<RawEntry> = decode_set(&encode_set(&set, &layout), &layout);
        assert_eq!(decoded.len(), set.len());
        for entry in set.iter() {
            assert_eq!(decoded.peek(entry.tag), Some(entry), "tag {:#x}", entry.tag);
        }
    }

    #[test]
    fn full_set_round_trips() {
        let layout = sms_layout();
        let mut set = PvSet::new(layout.entries_per_block());
        for i in 0..layout.entries_per_block() as u64 {
            set.insert(raw(i, 0x8000_0001 | (i << 8)));
        }
        let decoded: PvSet<RawEntry> = decode_set(&encode_set(&set, &layout), &layout);
        assert_eq!(decoded.len(), layout.entries_per_block());
        for i in 0..layout.entries_per_block() as u64 {
            assert!(decoded.peek(i).is_some());
        }
    }

    #[test]
    fn recency_order_is_preserved() {
        let layout = sms_layout();
        let mut set = PvSet::new(layout.entries_per_block());
        for i in 0..layout.entries_per_block() as u64 {
            set.insert(raw(i, i + 1));
        }
        // Touch tag 0 so it is most recently used.
        set.lookup(0);
        let decoded: PvSet<RawEntry> = decode_set(&encode_set(&set, &layout), &layout);
        let first = decoded.iter().next().expect("set is not empty");
        assert_eq!(
            first.tag, 0,
            "MRU entry must survive the round trip in first position"
        );
    }

    #[test]
    fn trailing_bits_are_unused() {
        // 11 entries x 43 bits = 473 bits; bits 473..512 must stay zero even
        // for a full set (Figure 3a's unused trailer).
        let layout = sms_layout();
        let mut set = PvSet::new(layout.entries_per_block());
        for i in 0..layout.entries_per_block() as u64 {
            set.insert(raw(i | 0x7f0, u64::from(u32::MAX)));
        }
        let block = encode_set(&set, &layout);
        let full_bits = layout.entries_per_block() * layout.entry_bits() as usize;
        assert_eq!(full_bits, 473);
        for bit in full_bits..512 {
            let byte = bit / 8;
            let shift = bit % 8;
            assert_eq!(block[byte] & (1 << shift), 0, "bit {bit} must be unused");
        }
    }

    #[test]
    fn max_tag_and_payload_round_trip() {
        let layout = sms_layout();
        let mut set = PvSet::new(layout.entries_per_block());
        set.insert(raw(0x7ff, u64::from(u32::MAX)));
        let decoded: PvSet<RawEntry> = decode_set(&encode_set(&set, &layout), &layout);
        assert_eq!(
            decoded.peek(0x7ff).map(|e| e.payload),
            Some(u64::from(u32::MAX))
        );
    }

    #[test]
    fn wide_layouts_pack_fewer_entries_per_block() {
        // 16-bit tag + 48-bit payload = 64-bit entries: 8 per block.
        let layout = PvLayout::new(16, 48, 64);
        let mut set = PvSet::new(layout.entries_per_block());
        for i in 0..8u64 {
            set.insert(raw(0xFF00 | i, (1 << 47) | i));
        }
        let decoded: PvSet<RawEntry> = decode_set(&encode_set(&set, &layout), &layout);
        assert_eq!(decoded.len(), 8);
        assert_eq!(decoded.peek(0xFF07).map(|e| e.payload), Some((1 << 47) | 7));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn overwide_tag_panics() {
        let layout = sms_layout();
        let mut set = PvSet::new(layout.entries_per_block());
        set.insert(raw(0x800, 1)); // 12 bits: one past the 11-bit tag limit.
        encode_set(&set, &layout);
    }
}
