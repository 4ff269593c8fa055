//! Recording: capture the records a simulation actually consumes.
//!
//! Two ways to produce a trace:
//!
//! * [`record_stream`] / [`record_generator`] pull a fixed number of records
//!   from a source and encode them directly — the simple path when you know
//!   the workload and length up front. Because the simulator consumes
//!   exactly `warmup + measure` records per core and per-core streams are
//!   interleaving-independent, recording that many records from the same
//!   `(params, seed, core)` captures precisely what a live run would see.
//! * [`TeeStream`] wraps any [`AccessStream`] and encodes every record that
//!   passes through it, so a trace can be captured *while* the simulator
//!   runs. The encoded bytes live behind a shared [`TeeHandle`] because the
//!   simulator takes ownership of the stream; the handle stays with the
//!   caller and yields the finished trace after the run. The handle pair is
//!   `Arc<Mutex<_>>`-backed (not `Rc<RefCell<_>>`) so a teed stream remains
//!   a valid — `Send` — simulator stream; the lock is uncontended in
//!   practice because the tee and the handle are used from one thread at a
//!   time (during and after the run, respectively).

use std::sync::{Arc, Mutex};

use crate::format::{Provenance, TraceError, TraceLayout, TraceWriter};
use pv_workloads::{AccessStream, TraceGenerator, TraceRecord, WorkloadParams};

/// Pulls up to `records` records from `stream` and encodes them with the
/// default layout. The buffer is sized for `records` up front (up to a cap),
/// so recording a fixed-length stream allocates once.
///
/// # Errors
///
/// Returns [`TraceError::FieldOverflow`] if the stream produces a record
/// outside the default layout's field widths (48-bit PC/address).
pub fn record_stream<S: AccessStream>(
    stream: &mut S,
    records: u64,
    provenance: Provenance,
) -> Result<Vec<u8>, TraceError> {
    let mut writer = TraceWriter::with_capacity(TraceLayout::DEFAULT, provenance, records);
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
/// the default layout (cannot happen for the paper workloads, whose
/// addresses stay below 2^48).
pub fn record_generator(
    params: &WorkloadParams,
    seed: u64,
    core: u32,
    records: u64,
) -> Result<Vec<u8>, TraceError> {
    let mut generator = TraceGenerator::new(params, seed, core as usize);
    record_stream(&mut generator, records, Provenance { core, seed })
}

/// Shared handle to a tee's encoder; yields the trace after the wrapped
/// stream has been consumed (typically by a simulation run that took
/// ownership of the [`TeeStream`]).
#[derive(Debug, Clone)]
pub struct TeeHandle {
    writer: Arc<Mutex<Option<TraceWriter>>>,
}

impl TeeHandle {
    /// Records encoded so far.
    pub fn records(&self) -> u64 {
        self.writer
            .lock()
            .expect("tee writer lock poisoned")
            .as_ref()
            .map_or(0, TraceWriter::records)
    }

    /// Finalizes the trace and returns its bytes. Call after the run that
    /// consumed the tee has completed.
    ///
    /// # Panics
    ///
    /// Panics if called twice — the encoder is consumed by finishing.
    pub fn finish(&self) -> Vec<u8> {
        self.writer
            .lock()
            .expect("tee writer lock poisoned")
            .take()
            .expect("a tee handle can only be finished once")
            .finish()
    }
}

/// An [`AccessStream`] adaptor that encodes every record it forwards.
///
/// The tee is transparent: the wrapped stream's records and label pass
/// through unchanged, so teeing a run does not perturb it. Records whose
/// fields exceed the default layout panic rather than silently corrupting
/// the trace — the generators never produce such records.
#[derive(Debug)]
pub struct TeeStream<S> {
    inner: S,
    writer: Arc<Mutex<Option<TraceWriter>>>,
}

impl<S: AccessStream> TeeStream<S> {
    /// Wraps `inner`, returning the tee and the handle that will yield the
    /// encoded trace once the tee has been consumed.
    pub fn new(inner: S, provenance: Provenance) -> (TeeStream<S>, TeeHandle) {
        let writer = Arc::new(Mutex::new(Some(TraceWriter::new(provenance))));
        let handle = TeeHandle {
            writer: Arc::clone(&writer),
        };
        (TeeStream { inner, writer }, handle)
    }
}

impl<S: AccessStream> AccessStream for TeeStream<S> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        let record = self.inner.next_record()?;
        self.writer
            .lock()
            .expect("tee writer lock poisoned")
            .as_mut()
            .expect("tee must not be used after its handle finished")
            .push(&record)
            .expect("generated records fit the default trace layout");
        Some(record)
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::MAX_RESERVED_RECORDS;
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
    fn tee_is_transparent_and_captures_everything() {
        let params = workloads::apache();
        let generator = TraceGenerator::new(&params, 11, 0);
        let (mut tee, handle) = TeeStream::new(generator, Provenance { core: 0, seed: 11 });
        assert_eq!(tee.label(), "Apache");
        let seen: Vec<_> = (0..150).map(|_| tee.next_record().unwrap()).collect();
        assert_eq!(handle.records(), 150);
        let replayed: Vec<_> = ReplayStream::new(handle.finish()).expect("valid trace").collect();
        assert_eq!(replayed, seen);
        let direct: Vec<_> = TraceGenerator::new(&params, 11, 0).take(150).collect();
        assert_eq!(replayed, direct, "tee must not perturb the stream");
    }

    #[test]
    fn record_stream_stops_at_source_exhaustion() {
        let params = workloads::zeus();
        let short = record_generator(&params, 3, 0, 10).expect("records fit");
        // Room is made for the request, but never for more than the cap.
        let cap = TraceLayout::DEFAULT
            .encoded_bytes(MAX_RESERVED_RECORDS)
            .expect("the cap fits in memory");
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
