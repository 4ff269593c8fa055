//! # pv-core — the Predictor Virtualization substrate
//!
//! This crate implements the paper's contribution: *Predictor
//! Virtualization* (PV), a technique that emulates large predictor tables by
//! storing them in the ordinary memory hierarchy instead of in dedicated
//! on-chip SRAM.
//!
//! The crate is a **predictor-agnostic substrate**: it has no knowledge of
//! any particular predictor. A predictor plugs in by implementing
//! [`PvEntry`] for its table-entry type (tag and payload bit-widths);
//! everything else — the typed [`PvFront`] an engine talks to, the proxy
//! behind it and the Section 4.6 [`PvStorageBudget`] — is generic over that
//! entry type, with the per-block associativity and storage figures
//! *derived* from the entry's widths ([`PvLayout`]). The SMS prefetcher of
//! the paper's case study lives in `pv-sms` and depends on this crate, not
//! the other way around; a second backend (a PC-indexed next-address
//! prefetcher) lives in `pv-markov`.
//!
//! The architecture follows Section 2 of the paper:
//!
//! * a virtualized table is laid out in a reserved region of physical
//!   memory, one predictor set per memory block; [`PvLayout`] gives the
//!   Figure 3a geometry of a set — eleven 43-bit entries per 64-byte block
//!   for the paper's SMS instance — and each [`PvFront`] holds the table's
//!   contents as one [`PvSet`] per table set;
//! * the [`SharedPvProxy`] is the small on-chip agent between the
//!   optimization engines and their tables: it holds a fully-associative
//!   [`SharedPvCache`] of a handful of table sets, an MSHR and a pattern
//!   buffer; lookups that miss in the PVCache become ordinary memory
//!   requests injected at the L2, to the address
//!   [`SharedPvProxy::set_address`] computes (Figure 3b's
//!   `PVStart + set × block`, with each table's `PVStart` the base it was
//!   registered at);
//! * [`PvStorageBudget`] reproduces the Section 4.6 accounting of the
//!   on-chip storage the proxy needs (889 bytes for the paper's SMS
//!   configuration, versus ~59 KB for the dedicated table it replaces).
//!
//! Engines talk to their table through a [`PvFront`] — the same
//! retrieve/store interface a dedicated table offers, keyed by the same
//! index, which is why "the optimization engine remains unchanged" when its
//! table is virtualized.
//!
//! There is one proxy type. A dedicated virtualized table is a proxy with
//! one table registered ([`PvFront::dedicated`]). Several predictors can
//! also *cohabit* one proxy, which is the paper's economic argument for
//! virtualization: a [`PvRegionPlan`] carves a core's reserved PV region
//! into one sub-region per table, and the tables registered with one proxy
//! ([`PvFront::cohabiting`]) share its PVCache and its memory-request
//! stream (see the [`shared`] module docs).
//!
//! # Example
//!
//! A minimal predictor entry (a 12-bit tag with a 20-bit confidence-weighted
//! target) virtualized on a proxy of its own:
//!
//! ```
//! use pv_core::{PvConfig, PvEntry, PvFront};
//! use pv_mem::{HierarchyConfig, MemoryHierarchy};
//!
//! #[derive(Debug, Clone, Copy, PartialEq, Eq)]
//! struct TargetEntry { tag: u16, target: u32 }
//!
//! impl PvEntry for TargetEntry {
//!     const TAG_BITS: u32 = 12;
//!     const PAYLOAD_BITS: u32 = 20;
//!     fn tag(&self) -> u64 { u64::from(self.tag) }
//!     // Bias by one so a valid payload is never the all-zero marker.
//!     fn payload(&self) -> u64 { u64::from(self.target) + 1 }
//! }
//!
//! let hierarchy_config = HierarchyConfig::paper_baseline(4);
//! let mut hierarchy = MemoryHierarchy::new(hierarchy_config);
//! let pv_start = hierarchy_config.pv_regions.core_base(0);
//! let mut front: PvFront<TargetEntry> =
//!     PvFront::dedicated(0, PvConfig::pv8(), pv_start, "targets");
//!
//! // 32-bit entries pack 16 to a 64-byte block — derived, not hard-coded.
//! assert_eq!(front.layout().entries_per_block(), 16);
//!
//! let index = 0x2A7;
//! let entry = TargetEntry { tag: front.tag_of(index) as u16, target: 0xBEEF };
//! // The front owns its proxy, so the caller lends none (`None`).
//! front.store(index, entry, &mut hierarchy, None, 0);
//! let lookup = front.lookup(index, &mut hierarchy, None, 100);
//! assert_eq!(lookup.entry, Some(entry));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffers;
pub mod config;
pub mod entry;
pub mod plan;
pub mod proxy;
pub mod pvcache;
pub mod shared;
pub mod stats;
pub mod storage;
pub mod table;

pub use buffers::PatternBuffer;
pub use config::PvConfig;
pub use entry::{PvEntry, PvLayout, RawEntry};
pub use plan::PvRegionPlan;
pub use proxy::{PvFront, PvLookup};
pub use pvcache::{SharedPvCache, SharedPvCacheEntry};
pub use shared::{ReplanOutcome, SharedPvProxy, SharedSetAccess, SharedStoreOutcome};
pub use stats::PvStats;
pub use storage::PvStorageBudget;
pub use table::PvSet;
