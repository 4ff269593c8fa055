//! # pv-trace — trace record/replay and non-stationary scenarios
//!
//! Two halves, one seam. The seam is [`pv_workloads::AccessStream`]: the
//! simulator consumes records through it without knowing whether they come
//! from a live synthetic generator, a recorded trace, or a scenario
//! composition.
//!
//! **Record/replay** ([`mod@format`], [`recorder`], [`replay`]): a compact
//! binary per-core trace format that packs
//! `TraceRecord {pc, address, op, non_mem_instructions}` into cache-block
//! frames as the PV tables pack their sets (the paper's Fig. 3a idiom).
//! Every record has one 48/48/2/14-bit layout, 14 bytes, four to a 64-byte
//! block, so each moves as one byte copy. The header is versioned and
//! self-describing; readers reject unknown versions and field widths.
//! Replaying a recorded run reproduces a bit-identical `RunMetrics` digest,
//! which makes traces diffable artifacts: capture once, replay against any
//! configuration.
//!
//! **Scenarios** ([`scenario`]): non-stationary streams composed over
//! `WorkloadParams` — scheduled phase flips, flash-crowd spikes, diurnal
//! intensity modulation, and an antagonist core thrashing the shared L2 —
//! the test bed for how the throttle controller and the cohabiting PV
//! cache respond when workload statistics shift mid-run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod recorder;
pub mod replay;
pub mod scenario;

pub use format::{
    encode_records, Provenance, TraceError, TraceHeader, TraceWriter, BLOCK_BYTES, HEADER_BYTES,
    MAGIC, RECORDS_PER_BLOCK, VERSION,
};
pub use recorder::{record_generator, record_stream};
pub use replay::ReplayStream;
pub use scenario::{antagonist_params, intensify, Scenario, ScheduleStream};
