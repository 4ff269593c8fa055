//! The stream abstraction every access source implements.
//!
//! The simulator used to own a [`TraceGenerator`] per core; anything that
//! wanted to feed it differently — a recorded trace replayed from disk, or a
//! non-stationary scenario that flips workloads mid-run — had no seam to
//! plug into. [`AccessStream`] is that seam: one object-safe trait producing
//! [`TraceRecord`]s until the source runs dry. Synthetic generators are
//! infinite; replayed traces end, and the simulator terminates the run
//! cleanly when they do.
//!
//! A stream's output never depends on simulated state, so a stream whose
//! records are expensive to make can be produced ahead of the simulation on
//! another host thread. [`AccessStream::worth_running_ahead`] says whether
//! that pays, and [`RunAhead`] does it: a helper thread fills fixed-size
//! chunks of records that the consumer then reads with no per-record
//! synchronization. The live generator answers `true`; a replayed trace
//! keeps the default `false`, because decoding a 14-byte record costs less
//! than handing it across cores.

use crate::generator::TraceGenerator;
use crate::record::TraceRecord;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use std::{iter, mem};

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

    /// Whether making a record costs more than handing it to another host
    /// thread, so the stream is worth producing ahead of its consumer on a
    /// helper thread (see [`RunAhead`]). `false` by default: the stream
    /// then runs in the consumer's thread, one record per pull.
    fn worth_running_ahead(&self) -> bool {
        false
    }
}

impl AccessStream for TraceGenerator {
    fn next_record(&mut self) -> Option<TraceRecord> {
        self.next()
    }

    fn label(&self) -> &str {
        &self.params().name
    }

    fn worth_running_ahead(&self) -> bool {
        true
    }
}

impl<S: AccessStream + ?Sized> AccessStream for Box<S> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        (**self).next_record()
    }

    fn label(&self) -> &str {
        (**self).label()
    }

    fn worth_running_ahead(&self) -> bool {
        (**self).worth_running_ahead()
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

    fn worth_running_ahead(&self) -> bool {
        self.inner.worth_running_ahead()
    }
}

/// Records a [`RunAhead`] helper puts in one chunk before handing it over.
const CHUNK_RECORDS: usize = 256;

/// Chunk buffers one [`RunAhead`] owns: one the consumer reads while the
/// helper fills or has filled the others.
const CHUNKS: usize = 3;

/// Shortest and longest sleep of a helper that finds no spent buffer. The
/// longest bounds how long a helper whose consumer has stopped pulling
/// keeps waking up.
const MIN_PAUSE: Duration = Duration::from_micros(20);
const MAX_PAUSE: Duration = Duration::from_millis(1);

/// Runs a stream ahead of its consumer on a helper thread.
///
/// At the first pull the inner stream moves to a helper thread (so building
/// the adapter costs no thread start). The helper fills chunks of 256
/// records and sends them over a bounded channel; the
/// consumer reads a chunk with plain indexing and sends the spent buffer
/// back on a return channel. The records and their order are exactly the
/// inner stream's; the helper runs at most the buffered chunks ahead.
///
/// The channels and the three chunk buffers are allocated with the
/// adapter, so the hand-off neither synchronizes per record nor allocates
/// in steady state. The consumer does not wake the helper when it returns
/// a buffer: Linux tends to place a thread woken by another on the waker's
/// CPU, where the helper would preempt the simulation instead of running
/// beside it. The helper polls for spent buffers instead, sleeping half as
/// long as the consumer took to spend its last chunk, so with two chunks
/// queued it refills before the consumer runs dry. A consumer that does run
/// dry blocks until the next chunk arrives.
///
/// A panic in the inner stream is re-raised, with its payload, on the pull
/// that would have returned the panicking record. Dropping the adapter
/// stops and joins the helper; a panic the consumer never pulled up to
/// stays unseen, as it would have in-thread.
#[derive(Debug)]
pub struct RunAhead<S> {
    label: String,
    /// The helper's side until the first pull moves it to the helper.
    idle: Option<Producer<S>>,
    helper: Option<JoinHandle<()>>,
    /// The consumer's channel ends; `None` once the inner stream has ended.
    ends: Option<Consumer>,
    /// The chunk being read and the index of its next record.
    chunk: Vec<TraceRecord>,
    next: usize,
}

/// The helper's side: the inner stream, where spent buffers come back and
/// where filled chunks go.
#[derive(Debug)]
struct Producer<S> {
    inner: S,
    spent: Receiver<Vec<TraceRecord>>,
    filled: SyncSender<Vec<TraceRecord>>,
}

/// The consumer's side: where filled chunks arrive and spent buffers go.
#[derive(Debug)]
struct Consumer {
    filled: Receiver<Vec<TraceRecord>>,
    spent: SyncSender<Vec<TraceRecord>>,
}

impl<S: AccessStream + 'static> RunAhead<S> {
    /// Wraps `inner` and allocates the hand-off; no thread starts until the
    /// first pull.
    pub fn new(inner: S) -> Self {
        let (filled_tx, filled) = mpsc::sync_channel(CHUNKS);
        let (spent, spent_rx) = mpsc::sync_channel(CHUNKS);
        for _ in 0..CHUNKS {
            spent
                .send(Vec::with_capacity(CHUNK_RECORDS))
                .expect("the return channel holds every buffer");
        }
        RunAhead {
            label: inner.label().to_owned(),
            idle: Some(Producer {
                inner,
                spent: spent_rx,
                filled: filled_tx,
            }),
            helper: None,
            ends: Some(Consumer { filled, spent }),
            chunk: Vec::new(),
            next: 0,
        }
    }

    /// Moves to the next chunk, starting the helper on the first call.
    /// Returns `false` once the inner stream has ended.
    #[cold]
    #[inline(never)]
    fn next_chunk(&mut self) -> bool {
        if let Some(producer) = self.idle.take() {
            let helper = thread::Builder::new()
                .name("run-ahead".to_owned())
                .spawn(move || producer.run())
                .expect("spawn a run-ahead thread");
            self.helper = Some(helper);
        }
        let Some(ends) = &self.ends else {
            return false;
        };
        let spent = mem::take(&mut self.chunk);
        if spent.capacity() > 0 {
            // Fails only when the helper has already returned.
            let _ = ends.spent.send(spent);
        }
        self.next = 0;
        if let Ok(chunk) = ends.filled.recv() {
            self.chunk = chunk;
            return true;
        }
        // The helper hung up: the inner stream ended, or it panicked.
        self.ends = None;
        if let Some(Err(panic)) = self.helper.take().map(JoinHandle::join) {
            panic::resume_unwind(panic);
        }
        false
    }
}

impl<S: AccessStream> Producer<S> {
    /// The helper's loop: fill each spent buffer and send it on. Ends after
    /// the inner stream's last record, or once the consumer has gone.
    fn run(mut self) {
        let mut last_spent = Instant::now();
        let mut pause = MIN_PAUSE;
        loop {
            let mut chunk = match self.spent.try_recv() {
                Ok(chunk) => chunk,
                Err(TryRecvError::Empty) => {
                    thread::park_timeout(pause);
                    continue;
                }
                Err(TryRecvError::Disconnected) => return,
            };
            let now = Instant::now();
            pause = ((now - last_spent) / 2).clamp(MIN_PAUSE, MAX_PAUSE);
            last_spent = now;
            chunk.clear();
            // A panic still hands over the records made before it, so the
            // consumer meets the panic at the pull it would have in-thread.
            let inner = &mut self.inner;
            let made = panic::catch_unwind(AssertUnwindSafe(|| {
                chunk.extend(iter::from_fn(|| inner.next_record()).take(CHUNK_RECORDS));
            }));
            let ended = chunk.len() < CHUNK_RECORDS;
            if !chunk.is_empty() && self.filled.send(chunk).is_err() {
                return;
            }
            if let Err(panic) = made {
                panic::resume_unwind(panic);
            }
            if ended {
                return;
            }
        }
    }
}

impl<S: AccessStream + 'static> AccessStream for RunAhead<S> {
    #[inline]
    fn next_record(&mut self) -> Option<TraceRecord> {
        loop {
            if let Some(&record) = self.chunk.get(self.next) {
                self.next += 1;
                return Some(record);
            }
            if !self.next_chunk() {
                return None;
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

impl<S> Drop for RunAhead<S> {
    fn drop(&mut self) {
        // With the consumer's ends hung up, the helper's next poll or send
        // fails; unparking it makes that poll now, so the join returns
        // within a chunk.
        self.ends = None;
        if let Some(helper) = self.helper.take() {
            helper.thread().unpark();
            let _ = helper.join();
        }
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

    /// The first `n` records of a DB2 generator, read directly.
    fn direct(n: usize) -> Vec<TraceRecord> {
        TraceGenerator::new(&workloads::db2(), 42, 1).take(n).collect()
    }

    /// A run-ahead DB2 generator capped at `limit` records.
    fn run_ahead(limit: u64) -> RunAhead<TakeStream<TraceGenerator>> {
        let generator = TraceGenerator::new(&workloads::db2(), 42, 1);
        RunAhead::new(TakeStream::new(generator, limit))
    }

    /// Everything `stream` yields until its first `None`.
    fn drain(stream: &mut impl AccessStream) -> Vec<TraceRecord> {
        std::iter::from_fn(|| stream.next_record()).collect()
    }

    /// Runs `f` on another thread and fails if it has not returned within
    /// ten seconds, so a hang fails the test instead of stalling it.
    fn returns_promptly(f: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("returned within ten seconds");
    }

    /// A stream that panics on its `fail_at`-th pull.
    struct Failing {
        inner: TraceGenerator,
        pulled: u64,
        fail_at: u64,
    }

    impl AccessStream for Failing {
        fn next_record(&mut self) -> Option<TraceRecord> {
            self.pulled += 1;
            if self.pulled == self.fail_at {
                panic!("inner stream failed at pull {}", self.fail_at);
            }
            self.inner.next_record()
        }

        fn label(&self) -> &str {
            "failing"
        }
    }

    #[test]
    fn only_the_live_generator_and_its_wrappers_run_ahead() {
        let generator = || TraceGenerator::new(&workloads::qry1(), 7, 0);
        assert!(generator().worth_running_ahead());
        assert!(TakeStream::new(generator(), 3).worth_running_ahead());
        let boxed: Box<dyn AccessStream> = Box::new(generator());
        assert!(boxed.worth_running_ahead());
        let failing = Failing {
            inner: generator(),
            pulled: 0,
            fail_at: 1,
        };
        assert!(
            !failing.worth_running_ahead(),
            "the default stays in-thread"
        );
        assert!(!RunAhead::new(generator()).worth_running_ahead());
    }

    #[test]
    fn run_ahead_matches_the_inner_stream_across_many_chunks() {
        let n = 40 * CHUNK_RECORDS + 17;
        let mut stream = RunAhead::new(TraceGenerator::new(&workloads::db2(), 42, 1));
        assert_eq!(stream.label(), "DB2");
        let via_helper: Vec<_> = (0..n).map(|_| stream.next_record().unwrap()).collect();
        assert_eq!(via_helper, direct(n));
    }

    #[test]
    fn run_ahead_finite_streams_end_where_the_inner_stream_ends() {
        for n in [CHUNK_RECORDS * 3 + 100, CHUNK_RECORDS * 2, 1, 0] {
            let mut stream = run_ahead(n as u64);
            assert_eq!(drain(&mut stream), direct(n), "{n} records");
            for _ in 0..3 {
                assert!(stream.next_record().is_none(), "exhaustion is sticky");
            }
        }
    }

    #[test]
    fn run_ahead_dropped_before_its_first_record_returns_promptly() {
        returns_promptly(|| drop(run_ahead(u64::MAX)));
    }

    #[test]
    fn run_ahead_dropped_mid_stream_returns_promptly() {
        returns_promptly(|| {
            let mut stream = run_ahead(u64::MAX);
            assert_eq!(stream.next_record(), direct(1).pop());
            // Let the helper fill every buffer and wait for a spent one.
            thread::sleep(std::time::Duration::from_millis(20));
            drop(stream);
        });
        returns_promptly(|| {
            let mut stream = run_ahead(u64::MAX);
            for _ in 0..CHUNK_RECORDS * 5 + 3 {
                stream.next_record();
            }
            drop(stream);
        });
    }

    #[test]
    #[should_panic(expected = "inner stream failed at pull 600")]
    fn run_ahead_reraises_an_inner_panic_on_the_consumer() {
        let mut stream = RunAhead::new(Failing {
            inner: TraceGenerator::new(&workloads::db2(), 42, 1),
            pulled: 0,
            fail_at: 600,
        });
        let before = panic::catch_unwind(AssertUnwindSafe(|| {
            (0..599).map(|_| stream.next_record().unwrap()).collect::<Vec<_>>()
        }))
        .unwrap_or_else(|_| unreachable!("re-raised before the failing pull"));
        assert_eq!(
            before,
            direct(599),
            "records before the panic arrive intact"
        );
        stream.next_record();
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
