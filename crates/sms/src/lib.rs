//! # pv-sms — Spatial Memory Streaming prefetcher
//!
//! A from-scratch model of the Spatial Memory Streaming (SMS) data
//! prefetcher (Somogyi et al., ISCA 2006), the predictor the Predictor
//! Virtualization paper virtualizes as its case study.
//!
//! SMS splits memory into fixed-size *spatial regions* (32 cache blocks in
//! the paper). While a region is *active* — between its first (trigger)
//! access and the moment any block accessed during the generation leaves the
//! L1 — the Active Generation Table (AGT) records which blocks were touched
//! as a bit-vector *spatial pattern*. When the generation ends, the pattern
//! is stored in the Pattern History Table (PHT), indexed by the trigger's
//! program counter and block offset. The next time the same trigger recurs,
//! the stored pattern predicts which blocks the program will touch, and the
//! prefetcher streams them into the L1.
//!
//! The PHT is the structure Predictor Virtualization moves into the memory
//! hierarchy, so its storage is abstracted behind the [`PatternStorage`]
//! trait: [`DedicatedPht`] and [`InfinitePht`] are conventional on-chip
//! tables, and [`VirtualizedPht`] plugs SMS into the generic `pv-core`
//! substrate by implementing `pv_core::PvEntry` for [`SmsEntry`] (the
//! 43-bit packed entry of Figure 3a) and adapting `PvFront<SmsEntry>` to
//! `PatternStorage`, on a PVProxy of its own or cohabiting one with other
//! predictors. The engine is identical in all configurations.
//!
//! # Example
//!
//! ```
//! use pv_mem::{HierarchyConfig, MemoryHierarchy};
//! use pv_sms::{DedicatedPht, PhtGeometry, SmsConfig, SmsPrefetcher};
//!
//! let config = SmsConfig::paper_1k_11a();
//! let storage = DedicatedPht::new(PhtGeometry::finite(1024, 11), &config);
//! let mut sms = SmsPrefetcher::new(config, Box::new(storage));
//! let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::paper_baseline(1));
//!
//! // Feed an access; a cold trigger produces no prefetches yet. The engine
//! // appends its prefetches to a caller-owned buffer.
//! let mut prefetches = Vec::new();
//! let decision =
//!     sms.on_data_access_into(0x400, 0x10_0000, &mut hierarchy, None, 0, &mut prefetches);
//! assert!(decision.triggered);
//! assert!(prefetches.is_empty());
//! ```
//!
//! Running the same engine over the virtualized PHT only changes the
//! storage that is passed in:
//!
//! ```
//! use pv_core::PvConfig;
//! use pv_mem::{HierarchyConfig, MemoryHierarchy};
//! use pv_sms::{SmsConfig, SmsPrefetcher, VirtualizedPht};
//!
//! let hierarchy_config = HierarchyConfig::paper_baseline(4);
//! let mut hierarchy = MemoryHierarchy::new(hierarchy_config);
//! let pht = VirtualizedPht::new(0, PvConfig::pv8(), hierarchy_config.pv_regions.core_base(0));
//! let mut sms = SmsPrefetcher::new(SmsConfig::paper_1k_11a(), Box::new(pht));
//! let mut prefetches = Vec::new();
//! sms.on_data_access_into(0x400, 0x10_0000, &mut hierarchy, None, 0, &mut prefetches);
//! assert!(prefetches.is_empty()); // nothing learned yet
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agt;
pub mod config;
pub mod index;
pub mod pattern;
pub mod pht;
pub mod prefetcher;
pub mod stats;
pub mod virtualized;

pub use agt::{ActiveGenerationTable, AgtUpdate, CompletedGeneration, TriggerInfo};
pub use config::{PhtGeometry, SmsConfig};
pub use index::{PhtIndex, TriggerKey};
pub use pattern::SpatialPattern;
pub use pht::{build_storage, DedicatedPht, InfinitePht, PatternLookup, PatternStorage};
pub use prefetcher::{AccessDecision, PrefetchAction, SmsPrefetcher};
pub use stats::SmsStats;
pub use virtualized::{SmsEntry, VirtualizedPht};
