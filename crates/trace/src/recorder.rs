//! Recording: capture the records a simulation consumes.
//!
//! [`record_stream`] and [`record_generator`] pull a fixed number of records
//! from a source and encode them directly. Because the simulator consumes
//! exactly `warmup + measure` records per core and per-core streams are
//! interleaving-independent, recording that many records from the same
//! `(params, seed, core)` — or from the same scenario stream — captures
//! precisely what a live run would see.

use crate::format::{Provenance, TraceError, TraceWriter};
use pv_workloads::{AccessStream, TraceGenerator, WorkloadParams};

/// Pulls up to `records` records from `stream` and encodes them. The buffer
/// is sized for `records` up front (up to a cap), so recording a
/// fixed-length stream allocates once.
///
/// # Errors
///
/// Returns [`TraceError::FieldOverflow`] if the stream produces a record
/// outside the format's field widths (48-bit PC/address).
pub fn record_stream<S: AccessStream>(
    stream: &mut S,
    records: u64,
    provenance: Provenance,
) -> Result<Vec<u8>, TraceError> {
    let mut writer = TraceWriter::with_capacity(provenance, records);
    for _ in 0..records {
        match stream.next_record() {
            Some(record) => writer.push(&record)?,
            None => break,
        }
    }
    Ok(writer.finish())
}

/// Records `records` records of the deterministic generator stream for
/// `(params, seed, core)` — the stream a live run's core `core` would
/// consume — stamping the provenance into the header.
///
/// # Errors
///
/// Returns [`TraceError::FieldOverflow`] if a generated record does not fit
/// the format (cannot happen for the paper workloads, whose addresses stay
/// below 2^48).
pub fn record_generator(
    params: &WorkloadParams,
    seed: u64,
    core: u32,
    records: u64,
) -> Result<Vec<u8>, TraceError> {
    let mut generator = TraceGenerator::new(params, seed, core as usize);
    record_stream(&mut generator, records, Provenance { core, seed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{encoded_bytes, MAX_RESERVED_RECORDS};
    use crate::replay::ReplayStream;
    use pv_workloads::workloads;

    #[test]
    fn record_generator_matches_the_live_stream() {
        let params = workloads::qry17();
        let bytes = record_generator(&params, 0x5EED, 1, 200).expect("records fit");
        let replay = ReplayStream::new(bytes).expect("valid trace");
        assert_eq!(replay.header().provenance.seed, 0x5EED);
        assert_eq!(replay.header().provenance.core, 1);
        let direct: Vec<_> = TraceGenerator::new(&params, 0x5EED, 1).take(200).collect();
        let replayed: Vec<_> = replay.collect();
        assert_eq!(replayed, direct);
    }

    #[test]
    fn record_stream_stops_at_source_exhaustion() {
        let params = workloads::zeus();
        let short = record_generator(&params, 3, 0, 10).expect("records fit");
        // Room is made for the request, but never for more than the cap.
        let cap = encoded_bytes(MAX_RESERVED_RECORDS).expect("the cap fits in memory");
        for records in [1_000, u64::MAX] {
            let mut replay = ReplayStream::new(short.clone()).expect("valid trace");
            let bytes =
                record_stream(&mut replay, records, Provenance::default()).expect("records fit");
            assert!(bytes.capacity() <= cap, "{records} records");
            let rerecorded = ReplayStream::new(bytes).expect("valid trace");
            assert_eq!(rerecorded.records(), 10, "source ended after 10 records");
        }
    }

    #[test]
    fn a_recorded_trace_is_one_exact_allocation() {
        for records in [0, 1, 4, 75_000] {
            let bytes = record_generator(&workloads::qry1(), 1, 0, records).expect("records fit");
            assert_eq!(bytes.capacity(), bytes.len(), "{records} records");
        }
    }
}
