//! Streaming decoder that replays a recorded trace as an [`AccessStream`].
//!
//! The stream owns the trace's bytes as one `Vec<u8>` and decodes each
//! record from them on demand — one 14-byte copy at the record's offset,
//! then four shifts and masks, mirroring the encoder — so producing a
//! record allocates nothing. The trace is validated up front — bad magic,
//! unknown versions, field widths other than the format's, bodies of the
//! wrong length and invalid op codes are all rejected before the first
//! record is produced — so the hot path contains no error handling at all.

use crate::format::{check_ops, unpack, TraceError, TraceHeader};
use pv_workloads::{AccessStream, TraceRecord};

/// Replays the records of an encoded trace, in order, then ends.
///
/// Implements both [`AccessStream`] (for feeding the simulator) and
/// [`Iterator`] (for tests and tools). The stream is finite: after
/// `records()` items it returns `None` forever, which the simulator turns
/// into a clean end-of-run for the owning core.
#[derive(Debug)]
pub struct ReplayStream {
    data: Vec<u8>,
    header: TraceHeader,
    next: u64,
    label: String,
}

impl ReplayStream {
    /// Parses and validates `data`, returning a stream positioned at the
    /// first record.
    ///
    /// # Errors
    ///
    /// Returns the [`TraceError`] from header validation (bad magic,
    /// unsupported version, field widths other than the format's, or a
    /// body whose length is not exactly what the record count implies), or
    /// [`TraceError::BadOp`] when a record's op code names no operation.
    pub fn new(data: Vec<u8>) -> Result<ReplayStream, TraceError> {
        let header = TraceHeader::parse(&data)?;
        check_ops(&data, header.records)?;
        let label = format!(
            "replay:core{}:seed{:#x}",
            header.provenance.core, header.provenance.seed
        );
        Ok(ReplayStream {
            data,
            header,
            next: 0,
            label,
        })
    }

    /// The validated header of the underlying trace.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Total records in the trace.
    pub fn records(&self) -> u64 {
        self.header.records
    }

    /// Records not yet produced.
    pub fn remaining(&self) -> u64 {
        self.header.records - self.next
    }
}

impl AccessStream for ReplayStream {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.next >= self.header.records {
            return None;
        }
        let record = unpack(&self.data, self.next)
            .expect("length and op codes were validated at construction");
        self.next += 1;
        Some(record)
    }

    fn label(&self) -> &str {
        &self.label
    }
}

impl Iterator for ReplayStream {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        self.next_record()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = usize::try_from(self.remaining()).expect("trace fits in memory");
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{encode_records, Provenance, HEADER_BYTES, VERSION};
    use pv_workloads::{workloads, TraceGenerator};

    #[test]
    fn replay_reproduces_the_generator_stream() {
        let params = workloads::oracle();
        let records: Vec<_> = TraceGenerator::new(&params, 99, 2).take(500).collect();
        let bytes = encode_records(&records, Provenance { core: 2, seed: 99 });
        let replay = ReplayStream::new(bytes).expect("valid trace");
        assert_eq!(replay.records(), 500);
        let replayed: Vec<_> = replay.collect();
        assert_eq!(replayed, records);
    }

    #[test]
    fn replay_ends_and_stays_ended() {
        let records: Vec<_> = TraceGenerator::new(&workloads::qry1(), 1, 0).take(3).collect();
        let bytes = encode_records(&records, Provenance::default());
        let mut replay = ReplayStream::new(bytes).expect("valid trace");
        for _ in 0..3 {
            assert!(replay.next_record().is_some());
        }
        assert_eq!(replay.remaining(), 0);
        assert!(replay.next_record().is_none());
        assert!(replay.next_record().is_none(), "exhaustion is sticky");
    }

    #[test]
    fn label_names_the_provenance() {
        let bytes = encode_records(
            &[],
            Provenance {
                core: 1,
                seed: 0xABC,
            },
        );
        let replay = ReplayStream::new(bytes).expect("valid trace");
        assert_eq!(replay.label(), "replay:core1:seed0xabc");
        assert_eq!(replay.header().version, VERSION);
    }

    #[test]
    fn corrupted_traces_are_rejected_at_construction() {
        let records: Vec<_> = TraceGenerator::new(&workloads::zeus(), 5, 1).take(10).collect();
        let bytes = encode_records(&records, Provenance::default());
        let mut future = bytes.clone();
        future[4] = 7;
        assert_eq!(
            ReplayStream::new(future).unwrap_err(),
            TraceError::UnsupportedVersion(7)
        );
        let truncated = bytes[..bytes.len() - 8].to_vec();
        assert!(matches!(
            ReplayStream::new(truncated).unwrap_err(),
            TraceError::Truncated { .. }
        ));
    }

    /// A bare header claiming `u64::MAX` records: the implied body size
    /// overflows, and the stream must be refused up front rather than panic
    /// on its first record.
    #[test]
    fn a_header_claiming_more_records_than_any_buffer_holds_is_rejected() {
        let mut bytes = encode_records(&[], Provenance::default());
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(bytes.len(), HEADER_BYTES);
        assert_eq!(
            ReplayStream::new(bytes).unwrap_err(),
            TraceError::BadLength {
                records: u64::MAX,
                actual: HEADER_BYTES,
            }
        );
    }

    /// Op code 3 names no operation. A record carrying it must be refused at
    /// construction, not panic when the stream reaches it; the unused slots
    /// of a partial last block are never decoded, so they are not checked.
    #[test]
    fn an_invalid_op_code_in_the_body_is_rejected_at_construction() {
        let records: Vec<_> = TraceGenerator::new(&workloads::apache(), 3, 0).take(10).collect();
        let bytes = encode_records(&records, Provenance::default());
        // The op field of slot `s` is the two low bits of byte `14 * s + 12`
        // of its block.
        for (index, byte) in [(0, HEADER_BYTES + 12), (9, HEADER_BYTES + 128 + 26)] {
            let mut corrupt = bytes.clone();
            corrupt[byte] |= 0b11;
            assert_eq!(
                ReplayStream::new(corrupt).unwrap_err(),
                TraceError::BadOp(3),
                "record {index}"
            );
        }
        let mut padding = bytes.clone();
        padding[HEADER_BYTES + 128 + 40] |= 0b11; // slot 2 of the last block
        assert_eq!(ReplayStream::new(padding).expect("valid trace").count(), 10);
    }

    #[test]
    fn size_hint_tracks_consumption() {
        let records: Vec<_> = TraceGenerator::new(&workloads::db2(), 5, 1).take(8).collect();
        let bytes = encode_records(&records, Provenance::default());
        let mut replay = ReplayStream::new(bytes).expect("valid trace");
        assert_eq!(replay.size_hint(), (8, Some(8)));
        replay.next();
        assert_eq!(replay.size_hint(), (7, Some(7)));
    }
}
