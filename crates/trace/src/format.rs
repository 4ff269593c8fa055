//! The on-disk trace format: a fixed header followed by 64-byte blocks of
//! packed records.
//!
//! The layout follows the paper's Figure 3a packing idiom for PVTable
//! sets: records are packed back to back, little-endian, into
//! cache-block-sized frames, and the bytes
//! left over at the end of a block form an unused trailer. A record has one
//! fixed layout — 48-bit PC, 48-bit address, 2-bit op, 14-bit instruction
//! count, 112 bits — so it fills exactly 14 bytes, each 64-byte block
//! carries four of them at bytes 0, 14, 28 and 42, and the last 8 bytes are
//! the trailer: 16 bytes per record against the 24 an in-memory
//! [`TraceRecord`] occupies.
//!
//! Because every record starts on a byte, the codec moves a whole record at
//! once: the encoder builds it as one `u128` (pc, then address, op and
//! count above it) and copies out its 14 low bytes; the decoder copies the
//! 14 bytes back into a word and takes the four fields with shifts and
//! masks.
//!
//! The header is versioned and self-describing (field widths, block size,
//! record count, provenance); readers reject unknown magics, versions and
//! widths so the format cannot drift silently.

use pv_workloads::{MemOp, TraceRecord};

/// File magic, first four bytes of every trace.
pub const MAGIC: [u8; 4] = *b"PVTR";
/// Current format version. Readers reject anything else.
pub const VERSION: u16 = 1;
/// Header size in bytes; record blocks start immediately after.
pub const HEADER_BYTES: usize = 32;
/// Size of one record frame — a cache block, as in Figure 3a.
pub const BLOCK_BYTES: usize = 64;
/// Records per block; the block's last 8 bytes are an unused trailer.
pub const RECORDS_PER_BLOCK: usize = 4;

/// Bits of the program-counter field. 48-bit PC and address cover the
/// simulator's 3 GB physical space with per-core strides many times over.
const PC_BITS: u32 = 48;
/// Bits of the byte-address field.
const ADDR_BITS: u32 = 48;
/// Bits used to encode [`MemOp`].
const OP_BITS: u32 = 2;
/// Bits of the non-memory-instruction count field, which dwarf any
/// generator's `instr_per_mem`.
const COUNT_BITS: u32 = 14;
/// Bytes one packed record occupies.
const RECORD_BYTES: usize = 14;
/// The record byte whose two low bits hold the op field.
const OP_BYTE: usize = (PC_BITS + ADDR_BITS) as usize / 8;
const _: () = assert!(
    PC_BITS + ADDR_BITS + OP_BITS + COUNT_BITS == 8 * RECORD_BYTES as u32
        && (PC_BITS + ADDR_BITS).is_multiple_of(8)
        && RECORDS_PER_BLOCK * RECORD_BYTES <= BLOCK_BYTES
);
/// The field widths header bytes 6..9 carry: pc, address, count.
const WIDTHS: [u8; 3] = [PC_BITS as u8, ADDR_BITS as u8, COUNT_BITS as u8];
/// Records [`TraceWriter::with_capacity`] makes room for at most (64 MiB of
/// trace); a longer trace grows its buffer as it fills, so an oversized
/// record count cannot demand a huge up-front allocation.
pub(crate) const MAX_RESERVED_RECORDS: u64 = 1 << 22;

/// Errors produced while encoding or decoding a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The header names a version this reader does not understand.
    UnsupportedVersion(u16),
    /// The body is shorter than the header's record count implies.
    Truncated {
        /// Bytes the header implies.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The body is not exactly as long as the header's record count implies:
    /// bytes trail the last block, or the count implies a size no buffer can
    /// have.
    BadLength {
        /// Records the header claims.
        records: u64,
        /// Bytes actually present.
        actual: usize,
    },
    /// The header's field widths or block size are not the format's.
    BadLayout(String),
    /// A record field does not fit its width.
    FieldOverflow {
        /// Field name (`"pc"`, `"address"`, `"non_mem_instructions"`).
        field: &'static str,
        /// The value that did not fit.
        value: u64,
        /// The format's width for that field.
        bits: u32,
    },
    /// A decoded op code is not a valid [`MemOp`].
    BadOp(u8),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic(magic) => write!(f, "bad trace magic {magic:?}"),
            TraceError::UnsupportedVersion(version) => {
                write!(
                    f,
                    "unsupported trace version {version} (expected {VERSION})"
                )
            }
            TraceError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated trace: header implies {expected} bytes, got {actual}"
                )
            }
            TraceError::BadLength { records, actual } => write!(
                f,
                "a {actual}-byte trace cannot hold the {records} records its header claims"
            ),
            TraceError::BadLayout(message) => write!(f, "bad trace layout: {message}"),
            TraceError::FieldOverflow { field, value, bits } => {
                write!(f, "record field {field}={value:#x} exceeds {bits} bits")
            }
            TraceError::BadOp(op) => write!(f, "invalid op code {op}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Encoded size in bytes of a trace holding `records` records (header plus
/// full and partial blocks), or `None` when that size does not fit in a
/// `usize`.
pub(crate) fn encoded_bytes(records: u64) -> Option<usize> {
    let blocks = records.div_ceil(RECORDS_PER_BLOCK as u64);
    usize::try_from(blocks)
        .ok()?
        .checked_mul(BLOCK_BYTES)?
        .checked_add(HEADER_BYTES)
}

/// Byte offset in a trace of the first byte of record `index`.
fn record_offset(index: u64) -> usize {
    let index = usize::try_from(index).expect("a parsed trace fits in memory");
    HEADER_BYTES
        + index / RECORDS_PER_BLOCK * BLOCK_BYTES
        + index % RECORDS_PER_BLOCK * RECORD_BYTES
}

/// Packs `record` into its 14 little-endian bytes. Every field is checked
/// before anything is built, so a rejected record produces no bytes.
fn pack(record: &TraceRecord) -> Result<[u8; RECORD_BYTES], TraceError> {
    let check = |field: &'static str, value: u64, bits: u32| {
        if value >> bits != 0 {
            Err(TraceError::FieldOverflow { field, value, bits })
        } else {
            Ok(u128::from(value))
        }
    };
    let word = check("pc", record.pc, PC_BITS)?
        | check("address", record.address, ADDR_BITS)? << PC_BITS
        | u128::from(encode_op(record.op)) << (PC_BITS + ADDR_BITS)
        | check(
            "non_mem_instructions",
            u64::from(record.non_mem_instructions),
            COUNT_BITS,
        )? << (PC_BITS + ADDR_BITS + OP_BITS);
    Ok(*word.to_le_bytes().first_chunk().expect("a 16-byte word holds a record"))
}

/// Unpacks record `index` of a parsed trace.
pub(crate) fn unpack(data: &[u8], index: u64) -> Result<TraceRecord, TraceError> {
    let at = record_offset(index);
    let mut word = [0u8; 16];
    word[..RECORD_BYTES].copy_from_slice(&data[at..at + RECORD_BYTES]);
    let word = u128::from_le_bytes(word);
    let field = |shift: u32, bits: u32| (word >> shift) as u64 & ((1 << bits) - 1);
    Ok(TraceRecord {
        pc: field(0, PC_BITS),
        address: field(PC_BITS, ADDR_BITS),
        op: decode_op(field(PC_BITS + ADDR_BITS, OP_BITS) as u8)?,
        non_mem_instructions: field(PC_BITS + ADDR_BITS + OP_BITS, COUNT_BITS) as u32,
    })
}

fn encode_op(op: MemOp) -> u64 {
    match op {
        MemOp::Load => 0,
        MemOp::Store => 1,
        MemOp::InstructionFetch => 2,
    }
}

fn decode_op(code: u8) -> Result<MemOp, TraceError> {
    match code {
        0 => Ok(MemOp::Load),
        1 => Ok(MemOp::Store),
        2 => Ok(MemOp::InstructionFetch),
        other => Err(TraceError::BadOp(other)),
    }
}

/// Provenance recorded in the header: which `(seed, core)` pair produced
/// the stream (zeroes when unknown — e.g. a trace recorded from a scenario
/// composition rather than a single generator).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Provenance {
    /// Core index the stream belonged to.
    pub core: u32,
    /// Generator seed of the run.
    pub seed: u64,
}

/// The parsed header of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version (always [`VERSION`] after a successful parse).
    pub version: u16,
    /// Number of records in the body.
    pub records: u64,
    /// Recording provenance.
    pub provenance: Provenance,
}

impl TraceHeader {
    /// Serializes the header into its 32-byte wire form.
    fn to_bytes(self) -> [u8; HEADER_BYTES] {
        let mut bytes = [0u8; HEADER_BYTES];
        bytes[0..4].copy_from_slice(&MAGIC);
        bytes[4..6].copy_from_slice(&self.version.to_le_bytes());
        bytes[6..9].copy_from_slice(&WIDTHS);
        // byte 9 reserved (zero)
        bytes[10..12].copy_from_slice(&(BLOCK_BYTES as u16).to_le_bytes());
        bytes[12..20].copy_from_slice(&self.records.to_le_bytes());
        bytes[20..24].copy_from_slice(&self.provenance.core.to_le_bytes());
        bytes[24..32].copy_from_slice(&self.provenance.seed.to_le_bytes());
        bytes
    }

    /// Parses and validates a header from the front of `data`.
    ///
    /// # Errors
    ///
    /// Returns the [`TraceError`] describing the first problem found: bad
    /// magic, unknown version, field widths or block size other than the
    /// format's, or a body whose length is not exactly what the record
    /// count implies.
    pub fn parse(data: &[u8]) -> Result<TraceHeader, TraceError> {
        if data.len() < HEADER_BYTES {
            return Err(TraceError::Truncated {
                expected: HEADER_BYTES,
                actual: data.len(),
            });
        }
        let magic: [u8; 4] = data[0..4].try_into().expect("slice is four bytes");
        if magic != MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(data[4..6].try_into().expect("two bytes"));
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        if data[6..9] != WIDTHS {
            return Err(TraceError::BadLayout(format!(
                "field widths {}/{}/{} (expected {}/{}/{})",
                data[6], data[7], data[8], WIDTHS[0], WIDTHS[1], WIDTHS[2]
            )));
        }
        let block_bytes = u16::from_le_bytes(data[10..12].try_into().expect("two bytes"));
        if usize::from(block_bytes) != BLOCK_BYTES {
            return Err(TraceError::BadLayout(format!(
                "unsupported block size {block_bytes} (expected {BLOCK_BYTES})"
            )));
        }
        let records = u64::from_le_bytes(data[12..20].try_into().expect("eight bytes"));
        let provenance = Provenance {
            core: u32::from_le_bytes(data[20..24].try_into().expect("four bytes")),
            seed: u64::from_le_bytes(data[24..32].try_into().expect("eight bytes")),
        };
        let header = TraceHeader {
            version,
            records,
            provenance,
        };
        let actual = data.len();
        match encoded_bytes(records) {
            Some(expected) if expected == actual => Ok(header),
            Some(expected) if expected > actual => Err(TraceError::Truncated { expected, actual }),
            _ => Err(TraceError::BadLength { records, actual }),
        }
    }
}

/// Incremental encoder: push records, take the finished byte buffer.
///
/// Each record's 14 bytes are appended to the output as it is pushed, and
/// each full block's trailer after its fourth; `finish` zero-fills the
/// partial tail block and patches the record count into the header. The
/// writer owns a plain `Vec<u8>` — callers persist it with one
/// `std::fs::write`.
#[derive(Debug)]
pub struct TraceWriter {
    out: Vec<u8>,
    records: u64,
}

impl TraceWriter {
    /// Creates a writer.
    pub fn new(provenance: Provenance) -> Self {
        Self::with_capacity(provenance, 0)
    }

    /// A writer whose buffer has room for a whole trace of `records`
    /// records, so a trace of known length is encoded into one allocation
    /// that never grows. Room is made for at most [`MAX_RESERVED_RECORDS`].
    pub(crate) fn with_capacity(provenance: Provenance, records: u64) -> Self {
        let header = TraceHeader {
            version: VERSION,
            records: 0,
            provenance,
        };
        let capacity = encoded_bytes(records.min(MAX_RESERVED_RECORDS))
            .expect("a capped trace fits in memory");
        let mut out = Vec::with_capacity(capacity);
        out.extend_from_slice(&header.to_bytes());
        TraceWriter { out, records: 0 }
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::FieldOverflow`] when a field exceeds its
    /// width; the writer state is unchanged in that case.
    pub fn push(&mut self, record: &TraceRecord) -> Result<(), TraceError> {
        self.out.extend_from_slice(&pack(record)?);
        self.records += 1;
        if self.records.is_multiple_of(RECORDS_PER_BLOCK as u64) {
            self.out.extend_from_slice(&[0; BLOCK_BYTES - RECORDS_PER_BLOCK * RECORD_BYTES]);
        }
        Ok(())
    }

    /// Records pushed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Zero-fills the partial tail block, patches the header's record
    /// count, and returns the finished buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let len = encoded_bytes(self.records).expect("the pushed records are in memory");
        self.out.resize(len, 0);
        self.out[12..20].copy_from_slice(&self.records.to_le_bytes());
        self.out
    }
}

/// Encodes a slice of records in one call.
///
/// # Panics
///
/// Panics if a record field does not fit its width — batch encoding is
/// used on records known to fit.
pub fn encode_records(records: &[TraceRecord], provenance: Provenance) -> Vec<u8> {
    let mut writer = TraceWriter::with_capacity(provenance, records.len() as u64);
    for record in records {
        writer.push(record).expect("record must fit the trace format");
    }
    writer.finish()
}

/// Checks the op code of each of the first `records` records of a parsed
/// trace. Every other field decodes from any bit pattern, but op code `3`
/// (both op bits set) names no [`MemOp`], so this is the body check that
/// makes decoding infallible. Each op field is the two low bits of one
/// byte of its record, so the check is one branch-free pass over those
/// bytes that allocates nothing.
///
/// # Errors
///
/// Returns [`TraceError::BadOp`] when any record's op code is `3`.
pub(crate) fn check_ops(data: &[u8], records: u64) -> Result<(), TraceError> {
    const INVALID: u8 = 0b11;
    debug_assert!(decode_op(INVALID).is_err());
    let invalid = (0..records).fold(0, |invalid, index| {
        let op = data[record_offset(index) + OP_BYTE];
        invalid | op & op >> 1
    });
    if invalid & 1 != 0 {
        return Err(TraceError::BadOp(INVALID));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::load(0x1000_0040, 0x1800_0123, 3),
            TraceRecord::store(0x1000_0044, 0x1800_4567, 0),
            TraceRecord::fetch(0x1000_0080, 0x1000_0080),
            TraceRecord::load(0xFFFF_FFFF_FFFF, 0xFFFF_FFFF_FFFF, (1 << 14) - 1),
            TraceRecord::load(0, 0, 0),
        ]
    }

    #[test]
    fn default_layout_packs_four_records_per_block() {
        assert_eq!(PC_BITS + ADDR_BITS + OP_BITS + COUNT_BITS, 112);
        assert_eq!(RECORDS_PER_BLOCK, 4);
        assert_eq!(encoded_bytes(0), Some(HEADER_BYTES));
        assert_eq!(encoded_bytes(4), Some(HEADER_BYTES + BLOCK_BYTES));
        assert_eq!(encoded_bytes(5), Some(HEADER_BYTES + 2 * BLOCK_BYTES));
        assert_eq!(encoded_bytes(u64::MAX), None);
        let starts: Vec<_> = (0..6).map(|index| record_offset(index) - HEADER_BYTES).collect();
        assert_eq!(starts, [0, 14, 28, 42, 64, 78]);
    }

    #[test]
    fn header_round_trips() {
        let header = TraceHeader {
            version: VERSION,
            records: 12345,
            provenance: Provenance {
                core: 3,
                seed: 0x5EED_0001,
            },
        };
        let parsed = TraceHeader::parse(&{
            // Pad to the implied size so the length check passes.
            let mut bytes = header.to_bytes().to_vec();
            bytes.resize(encoded_bytes(header.records).unwrap(), 0);
            bytes
        })
        .expect("header parses");
        assert_eq!(parsed, header);
    }

    #[test]
    fn records_round_trip_through_writer_and_decode() {
        let records = sample_records();
        let bytes = encode_records(&records, Provenance::default());
        let header = TraceHeader::parse(&bytes).expect("valid trace");
        assert_eq!(header.records, records.len() as u64);
        for (i, expected) in records.iter().enumerate() {
            let decoded = unpack(&bytes, i as u64).expect("decodes");
            assert_eq!(decoded, *expected, "record {i}");
        }
    }

    #[test]
    fn trailer_bits_stay_zero() {
        // 4 x 14 = 56 bytes used; bytes 56..64 of every block are unused,
        // as are the empty slots of the partial last block.
        let records = sample_records();
        let bytes = encode_records(&records, Provenance::default());
        for block in bytes[HEADER_BYTES..].chunks(BLOCK_BYTES) {
            assert_eq!(&block[56..64], &[0u8; 8], "trailer must stay zero");
        }
        assert!(bytes[HEADER_BYTES + BLOCK_BYTES + RECORD_BYTES..].iter().all(|&byte| byte == 0));
    }

    /// A rejected record leaves no trace: it does not count, and the
    /// finished bytes equal those of a writer that never saw it.
    #[test]
    fn field_overflow_is_rejected_not_truncated() {
        let mut writer = TraceWriter::new(Provenance::default());
        let record = TraceRecord::load(1 << 48, 0, 0);
        assert_eq!(
            writer.push(&record),
            Err(TraceError::FieldOverflow {
                field: "pc",
                value: 1 << 48,
                bits: 48,
            })
        );
        assert_eq!(writer.records(), 0, "a rejected record must not count");

        // One overflow per field, the instruction count (checked last)
        // included.
        let overflows = [
            TraceRecord::load(u64::MAX, 1, 1),
            TraceRecord::store(1, 1 << 48, 1),
            TraceRecord::load(1, 1, 1 << 14),
        ];
        let valid = sample_records();
        let mut rejecting = TraceWriter::new(Provenance::default());
        for (i, record) in valid.iter().enumerate() {
            let bad = &overflows[i % overflows.len()];
            assert!(
                matches!(rejecting.push(bad), Err(TraceError::FieldOverflow { .. })),
                "{bad:?} must be rejected"
            );
            rejecting.push(record).expect("sample records fit");
        }
        assert_eq!(
            rejecting.finish(),
            encode_records(&valid, Provenance::default()),
            "rejected records must leave the bytes untouched"
        );
    }

    #[test]
    fn bad_magic_and_versions_are_rejected() {
        let bytes = encode_records(&sample_records(), Provenance::default());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            TraceHeader::parse(&bad_magic),
            Err(TraceError::BadMagic(_))
        ));
        let mut future = bytes.clone();
        future[4..6].copy_from_slice(&2u16.to_le_bytes());
        assert_eq!(
            TraceHeader::parse(&future),
            Err(TraceError::UnsupportedVersion(2))
        );
        assert!(matches!(
            TraceHeader::parse(&bytes[..bytes.len() - 1]),
            Err(TraceError::Truncated { .. })
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            TraceHeader::parse(&trailing),
            Err(TraceError::BadLength {
                records: 5,
                actual: bytes.len() + 1,
            })
        );
        assert!(TraceHeader::parse(&[]).is_err());
    }

    /// The header's field widths must be exactly 48/48/14: a wider record
    /// (the 64/64/32 widths of a 162-bit record), a zero width or any other
    /// value in bytes 6, 7 or 8 is refused.
    #[test]
    fn wide_records_are_rejected_by_layout_validation() {
        let bytes = encode_records(&sample_records(), Provenance::default());
        assert_eq!(bytes[6..9], [48, 48, 14]);
        let mut wide = bytes.clone();
        wide[6..9].copy_from_slice(&[64, 64, 32]);
        let mut corrupt = vec![wide];
        for at in 6..9 {
            for value in [0, 1, 13, 15, 47, 49, 64, 255] {
                let mut changed = bytes.clone();
                changed[at] = value;
                corrupt.push(changed);
            }
        }
        for changed in corrupt {
            assert!(
                matches!(TraceHeader::parse(&changed), Err(TraceError::BadLayout(_))),
                "widths {:?}",
                &changed[6..9]
            );
        }
    }

    /// The op check must agree with decoding, slot by slot, including the
    /// partial last block.
    #[test]
    fn the_op_check_agrees_with_decoding_on_every_slot() {
        let records = 2 * RECORDS_PER_BLOCK as u64 + 1;
        let clean = encode_records(
            &vec![TraceRecord::store(1, 1, 1); records as usize],
            Provenance::default(),
        );
        assert_eq!(check_ops(&clean, records), Ok(()));
        for index in 0..records {
            // The op field's bit offset, from the format's definition.
            let bit = 8 * (HEADER_BYTES + (index / 4) as usize * BLOCK_BYTES)
                + (index % 4) as usize * 112
                + 96;
            assert_eq!(bit % 8, 0, "record {index}: op fields start on a byte");
            let mut corrupt = clean.clone();
            corrupt[bit / 8] |= 0b11;
            assert_eq!(
                unpack(&corrupt, index),
                Err(TraceError::BadOp(3)),
                "record {index}"
            );
            assert_eq!(
                check_ops(&corrupt, records),
                Err(TraceError::BadOp(3)),
                "record {index}"
            );
        }
    }

    #[test]
    fn errors_render_for_humans() {
        let error = TraceError::UnsupportedVersion(9);
        assert!(error.to_string().contains("version 9"));
        let overflow = TraceError::FieldOverflow {
            field: "address",
            value: 0x1_0000,
            bits: 8,
        };
        assert!(overflow.to_string().contains("address"));
    }
}
