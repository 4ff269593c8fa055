//! # pv-mem — memory-hierarchy substrate
//!
//! This crate implements the memory-system substrate used by the Predictor
//! Virtualization (PV) reproduction: physical addresses and cache-block
//! arithmetic, generic set-associative arrays with packed LRU replacement
//! (every cache the paper models is LRU), L1/L2 cache models with
//! write-back/write-allocate semantics, MSHR files, a DRAM model, and a
//! multi-core [`MemoryHierarchy`] that ties the pieces together and keeps
//! the per-requester traffic statistics the paper's evaluation reports (L1
//! read misses, L2 requests, L2 misses, L2 write-backs, off-chip traffic
//! split into application vs. predictor data). The hierarchy alone decides
//! which blocks lie in the reserved PV regions; the DRAM model counts each
//! access under the class it is handed.
//!
//! The model is *cycle-approximate*: every access returns the latency it
//! would have observed (tag/data latencies per level plus DRAM latency on a
//! miss) and records which level serviced it. In-flight fills are modelled
//! through a per-line `ready_at` timestamp so that the timeliness of
//! prefetches is captured (a demand access arriving before the prefetch
//! completes pays the residual latency).
//!
//! Timing comes in two flavours selected by [`ContentionModel`]: `Ideal`
//! (fixed latencies, shared resources free — the original semantics) and
//! `Queued` (L2 tag-pipeline banks with port occupancy, MSHR files that
//! exert backpressure when full, and a channel/bank DRAM model with finite
//! request queues whose latency grows under load, with every wait reported
//! as `queue_delay` and split into application vs. predictor traffic).
//!
//! # Example
//!
//! ```
//! use pv_mem::{HierarchyConfig, MemoryHierarchy, Requester, AccessKind, DataClass};
//!
//! let config = HierarchyConfig::paper_baseline(4);
//! let mut hierarchy = MemoryHierarchy::new(config);
//!
//! // Core 0 reads a data block at cycle 100.
//! let response = hierarchy.access(
//!     Requester::data(0),
//!     0x8000,
//!     AccessKind::Read,
//!     DataClass::Application,
//!     100,
//! );
//! assert!(response.latency >= 2); // at least the L1 hit latency
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod address;
pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod inflight;
pub mod memory;
pub mod mshr;
pub mod prefetch;
pub mod replacement;
pub mod set_assoc;
pub mod stats;

pub use accuracy::{AccuracySample, AccuracyWindow};
pub use address::{Address, BlockAddr, RegionAddr, BLOCK_BYTES, BLOCK_OFFSET_BITS};
pub use cache::{AccessKind, AccessOutcome, Cache, Evicted, FillOrigin, HitLevel};
pub use config::{CacheConfig, ContentionModel, DramConfig, HierarchyConfig, PvRegionConfig};
pub use hierarchy::{
    AccessResponse, DataClass, EvictionBuffer, MemoryHierarchy, PrefetchResponse, Requester,
    RequesterKind,
};
pub use inflight::InflightRing;
pub use memory::{DramResponse, MainMemory};
pub use mshr::{MshrEntry, MshrFile, MshrOutcome};
pub use prefetch::NextLinePrefetcher;
pub use replacement::ReplacementState;
pub use set_assoc::{Occupied, SetAssociative};
pub use stats::{CacheStats, DelayBreakdown, HierarchyStats, NextLineStats, TrafficBreakdown};
