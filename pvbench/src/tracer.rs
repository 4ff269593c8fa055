//! A span tracer for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code, around each
//! call into a simulator layer. Per span name the tracer keeps a call count,
//! the inclusive time and the self time (the span minus its child spans),
//! and it keeps a bounded sample of whole spans (id, parent, name, start,
//! end) to write out at the end of the run.
//!
//! Every span costs the tracer two clock reads and some bookkeeping. Part
//! of that cost falls inside the span's own interval and is subtracted from
//! the span; the rest falls inside its parent's interval and is subtracted
//! from the parent. Both parts are measured at start-up by [`calibrate`]
//! (an empty span's duration, and what it adds to its parent). The removed
//! time is the tracer's own cost, so the self times of all layers plus that
//! cost add up to the traced wall time.

use std::cell::RefCell;
use std::time::Instant;

/// The span names, one per traced layer entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Building one simulation's streams and `System` parts.
    Setup,
    /// Recording one per-core trace (`pv_trace::record_generator`).
    TraceEncode,
    /// One simulation's run loop: scheduler plus `CoreModel` (self time).
    Run,
    /// `AccessStream::next_record` on a live `TraceGenerator`.
    GeneratorNext,
    /// `AccessStream::next_record` on a `ReplayStream`.
    ReplayNext,
    /// `MemoryHierarchy::access`/`access_data` serviced by the L1.
    AccessL1,
    /// `MemoryHierarchy::access`/`access_data` serviced by the L2.
    AccessL2,
    /// `MemoryHierarchy::access`/`access_data` serviced by main memory.
    AccessDram,
    /// `MemoryHierarchy::prefetch_into_l1d`.
    Prefetch,
    /// `PrefetchEngine::on_data_access`.
    EngineAccess,
    /// `PrefetchEngine::on_l1_evictions`.
    EngineEvictions,
    /// A lookup in a virtualized predictor table (PV proxy and PVC$).
    PvLookup,
    /// A store into a virtualized predictor table (PV proxy and PVC$).
    PvStore,
    /// Statistics reset and metric collection around the run loop.
    Collect,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 14] = [
        Layer::Setup,
        Layer::TraceEncode,
        Layer::Run,
        Layer::GeneratorNext,
        Layer::ReplayNext,
        Layer::AccessL1,
        Layer::AccessL2,
        Layer::AccessDram,
        Layer::Prefetch,
        Layer::EngineAccess,
        Layer::EngineEvictions,
        Layer::PvLookup,
        Layer::PvStore,
        Layer::Collect,
    ];

    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "sim.setup",
            Layer::TraceEncode => "trace.encode",
            Layer::Run => "sim.run",
            Layer::GeneratorNext => "workloads.next_record",
            Layer::ReplayNext => "trace.next_record",
            Layer::AccessL1 => "mem.access.l1",
            Layer::AccessL2 => "mem.access.l2",
            Layer::AccessDram => "mem.access.dram",
            Layer::Prefetch => "mem.prefetch_into_l1d",
            Layer::EngineAccess => "engine.on_data_access",
            Layer::EngineEvictions => "engine.on_l1_evictions",
            Layer::PvLookup => "core.pv_lookup",
            Layer::PvStore => "core.pv_store",
            Layer::Collect => "sim.collect",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Inclusive nanoseconds, with the tracer's cost inside the span
    /// removed.
    pub total_ns: f64,
    /// Nanoseconds not covered by child spans, with the tracer's cost of
    /// the span and of its children removed.
    pub self_ns: f64,
}

/// One sampled span as written to the trace file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the run (1-based).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root span.
    pub parent: u64,
    /// The span name.
    pub layer: Layer,
    /// Start, in ns since the tracer was reset.
    pub start_ns: u64,
    /// End, in ns since the tracer was reset.
    pub end_ns: u64,
}

/// Everything a traced pass collected.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Totals per layer, indexed like [`Layer::ALL`].
    pub totals: [LayerTotals; Layer::ALL.len()],
    /// Spans closed in total.
    pub spans: u64,
    /// The tracer cost removed per span.
    pub overhead: Overhead,
    /// The bounded span sample, in closing order.
    pub samples: Vec<SpanRecord>,
}

impl TraceSummary {
    /// Totals of one layer.
    pub fn get(&self, layer: Layer) -> LayerTotals {
        self.totals[layer.index()]
    }

    /// Self time of every layer plus the removed tracer cost, in ns: the
    /// traced time the spans account for.
    pub fn attributed_ns(&self) -> f64 {
        let layers: f64 = self.totals.iter().map(|t| t.self_ns).sum();
        layers + self.spans as f64 * self.overhead.per_span_ns()
    }

    /// Adds the totals of a later pass; the sample stays this pass's.
    pub fn merge(&mut self, other: &TraceSummary) {
        for (total, more) in self.totals.iter_mut().zip(&other.totals) {
            total.calls += more.calls;
            total.total_ns += more.total_ns;
            total.self_ns += more.self_ns;
        }
        self.spans += other.spans;
    }
}

/// The tracer's own cost of one span, in ns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Overhead {
    /// The part inside the span's interval: an empty span's duration.
    pub inside_ns: f64,
    /// The part inside the parent's interval, outside the span's.
    pub outside_ns: f64,
}

impl Overhead {
    /// The whole cost of one span.
    pub fn per_span_ns(&self) -> f64 {
        self.inside_ns + self.outside_ns
    }
}

struct Open {
    layer: Layer,
    id: u64,
    start: Instant,
    child_ns: f64,
    children: u32,
}

struct Tracer {
    epoch: Option<Instant>,
    overhead: Overhead,
    stack: Vec<Open>,
    totals: [LayerTotals; Layer::ALL.len()],
    spans: u64,
    sampling: bool,
    sample_capacity: usize,
    samples: Vec<SpanRecord>,
}

const ZERO: LayerTotals = LayerTotals {
    calls: 0,
    total_ns: 0.0,
    self_ns: 0.0,
};

thread_local! {
    static TRACER: RefCell<Tracer> = const {
        RefCell::new(Tracer {
            epoch: None,
            overhead: Overhead {
                inside_ns: 0.0,
                outside_ns: 0.0,
            },
            stack: Vec::new(),
            totals: [ZERO; Layer::ALL.len()],
            spans: 0,
            sampling: false,
            sample_capacity: 0,
            samples: Vec::new(),
        })
    };
}

/// The host cost of one `Instant::now`, in ns: the median over batches of
/// back-to-back reads.
pub fn measure_clock_read_ns() -> f64 {
    const READS: u32 = 20_000;
    let mut batches: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// Measures the tracer's own cost per span: the median, over batches of
/// empty spans inside one parent, of an empty span's duration and of what
/// each adds to its parent's self time.
pub fn calibrate() -> Overhead {
    const SPANS: u32 = 20_000;
    let (mut inside, mut outside): (Vec<f64>, Vec<f64>) = (0..15)
        .map(|_| {
            reset(Overhead::default(), 0);
            enter(Layer::Run);
            for _ in 0..SPANS {
                enter(Layer::Collect);
                exit(Layer::Collect);
            }
            exit(Layer::Run);
            let summary = finish();
            (
                summary.get(Layer::Collect).total_ns / f64::from(SPANS),
                summary.get(Layer::Run).self_ns / f64::from(SPANS),
            )
        })
        .unzip();
    let median = |values: &mut Vec<f64>| {
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    };
    Overhead {
        inside_ns: median(&mut inside),
        outside_ns: median(&mut outside),
    }
}

/// Clears this thread's tracer and starts a new traced pass that removes
/// `overhead` per span and keeps up to `sample_capacity` spans.
pub fn reset(overhead: Overhead, sample_capacity: usize) {
    TRACER.with_borrow_mut(|t| {
        t.epoch = Some(Instant::now());
        t.overhead = overhead;
        t.stack.clear();
        t.totals = [ZERO; Layer::ALL.len()];
        t.spans = 0;
        t.sampling = false;
        t.sample_capacity = sample_capacity;
        t.samples = Vec::with_capacity(sample_capacity);
    });
}

/// Turns sampling of non-root spans on or off (root spans are always
/// sampled while there is room).
pub fn set_sampling(on: bool) {
    TRACER.with_borrow_mut(|t| t.sampling = on);
}

/// Opens a span of `layer`.
#[inline]
pub fn enter(layer: Layer) {
    TRACER.with_borrow_mut(|t| {
        t.spans += 1;
        let id = t.spans;
        t.stack.push(Open {
            layer,
            id,
            start: Instant::now(),
            child_ns: 0.0,
            children: 0,
        });
    });
}

/// Closes the innermost span, which was opened as `layer`.
#[inline]
pub fn exit(layer: Layer) {
    exit_as(layer, layer);
}

/// Closes the innermost span, opened as `opened`, under the name `layer`
/// (a call whose outcome picks its name, such as the level that serviced
/// a memory access).
#[inline]
pub fn exit_as(opened: Layer, layer: Layer) {
    let end = Instant::now();
    TRACER.with_borrow_mut(|t| {
        let open = t.stack.pop().expect("exit without a matching enter");
        debug_assert_eq!(open.layer, opened, "spans must close innermost first");
        let duration = end.duration_since(open.start).as_nanos() as f64;
        let Overhead {
            inside_ns,
            outside_ns,
        } = t.overhead;
        let totals = &mut t.totals[layer.index()];
        totals.calls += 1;
        totals.total_ns += duration - inside_ns;
        totals.self_ns +=
            duration - open.child_ns - inside_ns - outside_ns * f64::from(open.children);
        let parent = match t.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += duration;
                parent.children += 1;
                parent.id
            }
            None => 0,
        };
        if (t.sampling || parent == 0) && t.samples.len() < t.sample_capacity {
            let epoch = t.epoch.expect("tracer reset before use");
            t.samples.push(SpanRecord {
                id: open.id,
                parent,
                layer,
                start_ns: open.start.duration_since(epoch).as_nanos() as u64,
                end_ns: end.duration_since(epoch).as_nanos() as u64,
            });
        }
    });
}

/// Runs `f` inside a span of `layer`.
#[inline]
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    enter(layer);
    let value = f();
    exit(layer);
    value
}

/// Ends the traced pass and returns what it collected.
///
/// # Panics
///
/// Panics if a span is still open.
pub fn finish() -> TraceSummary {
    TRACER.with_borrow_mut(|t| {
        assert!(t.stack.is_empty(), "every span must be closed");
        TraceSummary {
            totals: t.totals,
            spans: t.spans,
            overhead: t.overhead,
            samples: std::mem::take(&mut t.samples),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_tracer_cost_add_up_to_the_root_span() {
        let overhead = Overhead {
            inside_ns: 3.0,
            outside_ns: 5.0,
        };
        reset(overhead, 16);
        enter(Layer::Run);
        span(Layer::GeneratorNext, || std::hint::black_box(1 + 1));
        enter(Layer::EngineAccess);
        span(Layer::PvLookup, || ());
        exit(Layer::EngineAccess);
        exit(Layer::Run);
        let summary = finish();
        let root = summary.get(Layer::Run);
        assert_eq!(root.calls, 1);
        // The root's own outside part lies outside every span.
        let covered = root.total_ns + overhead.inside_ns;
        let attributed = summary.attributed_ns() - overhead.outside_ns;
        assert!(
            (attributed - covered).abs() < 1e-6,
            "{attributed} vs {covered}"
        );
        assert_eq!(summary.spans, 4);
        assert_eq!(summary.samples.len(), 1, "only the root span is sampled");
        assert_eq!(summary.samples[0].parent, 0);
    }

    #[test]
    fn sampled_spans_name_their_parent() {
        reset(Overhead::default(), 16);
        enter(Layer::Run);
        set_sampling(true);
        enter(Layer::AccessL1);
        exit_as(Layer::AccessL1, Layer::AccessDram);
        set_sampling(false);
        exit(Layer::Run);
        let summary = finish();
        assert_eq!(summary.get(Layer::AccessDram).calls, 1);
        assert_eq!(summary.get(Layer::AccessL1).calls, 0);
        let child = summary.samples[0];
        assert_eq!(child.layer, Layer::AccessDram);
        assert_eq!(child.parent, summary.samples[1].id);
        assert!(child.start_ns <= child.end_ns);
    }

    #[test]
    fn calibration_measures_a_positive_cost() {
        let overhead = calibrate();
        assert!(
            overhead.inside_ns > 0.0 && overhead.per_span_ns() > 0.0,
            "{overhead:?}"
        );
    }
}
