//! The stream abstraction every access source implements.
//!
//! The simulator used to own a [`TraceGenerator`] per core; anything that
//! wanted to feed it differently — a recorded trace replayed from disk, a
//! non-stationary scenario that flips workloads mid-run, a tee that records
//! while passing records through — had no seam to plug into. [`AccessStream`]
//! is that seam: one object-safe trait producing [`TraceRecord`]s until the
//! source runs dry. Synthetic generators are infinite; replayed traces end,
//! and the simulator terminates the run cleanly when they do.

use crate::generator::TraceGenerator;
use crate::record::TraceRecord;

/// A source of per-core trace records.
///
/// Implementations must be deterministic: the same construction parameters
/// must yield the same record sequence on every host (the digest-pinning
/// discipline depends on it). A stream may be finite; once `next_record`
/// returns `None` it must keep returning `None`.
///
/// `Send` is a supertrait: streams are owned by simulator cores, and a
/// whole `System` (cores, engines, hierarchy) must be movable across host
/// threads so fleet sweeps can distribute runs over worker threads.
pub trait AccessStream: Send {
    /// The next record, or `None` when the stream is exhausted.
    fn next_record(&mut self) -> Option<TraceRecord>;

    /// Short human-readable label (workload name, `"replay:..."`, scenario
    /// description) used for run labelling and reports.
    fn label(&self) -> &str;
}

impl AccessStream for TraceGenerator {
    fn next_record(&mut self) -> Option<TraceRecord> {
        self.next()
    }

    fn label(&self) -> &str {
        &self.params().name
    }
}

impl<S: AccessStream + ?Sized> AccessStream for Box<S> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        (**self).next_record()
    }

    fn label(&self) -> &str {
        (**self).label()
    }
}

/// A finite adaptor: passes through at most `limit` records of any inner
/// stream, then reports exhaustion. Turns an infinite generator into a
/// finite stream (the building block for recording fixed-length traces and
/// for testing end-of-stream handling).
#[derive(Debug)]
pub struct TakeStream<S> {
    inner: S,
    remaining: u64,
}

impl<S: AccessStream> TakeStream<S> {
    /// Caps `inner` at `limit` records.
    pub fn new(inner: S, limit: u64) -> Self {
        TakeStream {
            inner,
            remaining: limit,
        }
    }

    /// Records this stream will still hand out (upper bound; the inner
    /// stream may end sooner).
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl<S: AccessStream> AccessStream for TakeStream<S> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.inner.next_record()
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn generators_are_access_streams() {
        let params = workloads::qry1();
        let mut stream = TraceGenerator::new(&params, 7, 0);
        assert_eq!(stream.label(), "Qry1");
        assert!(stream.next_record().is_some());
    }

    #[test]
    fn boxed_streams_forward() {
        let params = workloads::apache();
        let mut stream: Box<dyn AccessStream> = Box::new(TraceGenerator::new(&params, 7, 0));
        assert_eq!(stream.label(), "Apache");
        assert!(stream.next_record().is_some());
    }

    #[test]
    fn take_stream_ends_after_its_limit() {
        let params = workloads::qry17();
        let mut stream = TakeStream::new(TraceGenerator::new(&params, 7, 0), 5);
        let mut produced = 0;
        while stream.next_record().is_some() {
            produced += 1;
        }
        assert_eq!(produced, 5);
        assert_eq!(stream.remaining(), 0);
        assert!(stream.next_record().is_none(), "exhaustion is sticky");
    }

    #[test]
    fn streamed_records_match_direct_iteration() {
        let params = workloads::db2();
        let direct: Vec<_> = TraceGenerator::new(&params, 42, 1).take(100).collect();
        let mut stream = TraceGenerator::new(&params, 42, 1);
        let via_stream: Vec<_> = (0..100).map(|_| stream.next_record().unwrap()).collect();
        assert_eq!(direct, via_stream);
    }
}
