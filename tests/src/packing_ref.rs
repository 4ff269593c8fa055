//! The bit-at-a-time packing codec that `pv_core::packing` replaced with
//! word-level windows, kept as a test oracle.
//!
//! The differential tests check that both codecs write byte-identical
//! blocks and decode them to identical sets, duplicate tags included; the
//! trace-format tests build a whole-trace encoder and decoder on it.

use bytes::{Bytes, BytesMut};
use pv_core::{PvEntry, PvLayout, PvSet};

/// Bit-at-a-time equivalent of `pv_core::packing::write_bits`.
pub fn write_bits(buffer: &mut [u8], bit_offset: usize, value: u64, bits: u32) {
    for i in 0..bits as usize {
        let bit = (value >> i) & 1;
        let position = bit_offset + i;
        let byte = position / 8;
        let shift = position % 8;
        if bit == 1 {
            buffer[byte] |= 1 << shift;
        }
    }
}

/// Bit-at-a-time equivalent of `pv_core::packing::read_bits`.
pub fn read_bits(buffer: &[u8], bit_offset: usize, bits: u32) -> u64 {
    let mut value = 0u64;
    for i in 0..bits as usize {
        let position = bit_offset + i;
        let byte = position / 8;
        let shift = position % 8;
        if buffer[byte] & (1 << shift) != 0 {
            value |= 1 << i;
        }
    }
    value
}

/// `pv_core::encode_set` over the bit-at-a-time primitives.
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
        let bit_offset = slot * layout.entry_bits() as usize;
        write_bits(&mut buffer, bit_offset, entry.tag(), layout.tag_bits);
        write_bits(
            &mut buffer,
            bit_offset + layout.tag_bits as usize,
            entry.payload(),
            layout.payload_bits,
        );
    }
    buffer.freeze()
}

/// `pv_core::decode_set` over the bit-at-a-time primitives.
pub fn decode_set<E: PvEntry>(block: &[u8], layout: &PvLayout) -> PvSet<E> {
    assert!(
        block.len() >= layout.block_bytes as usize,
        "packed block must be at least {} bytes",
        layout.block_bytes
    );
    let ways = layout.entries_per_block();
    let mut set = PvSet::new(ways);
    let mut entries = Vec::new();
    for slot in 0..ways {
        let bit_offset = slot * layout.entry_bits() as usize;
        let tag = read_bits(block, bit_offset, layout.tag_bits);
        let payload = read_bits(
            block,
            bit_offset + layout.tag_bits as usize,
            layout.payload_bits,
        );
        if let Some(entry) = E::from_parts(tag, payload) {
            entries.push(entry);
        }
    }
    for entry in entries.into_iter().rev() {
        set.insert(entry);
    }
    set
}
