//! Cross-crate integration tests (in `tests/tests/`) and the test oracles
//! they check the simulator's structures against.
//!
//! Each oracle is the original, obviously-correct formulation of a
//! structure the simulator has since replaced with a faster one. They live
//! here, outside the shipped crates, and `tests/tests/differential.rs`
//! drives each pair with the same seeded streams:
//!
//! * [`ReferenceSetAssociative`] — a `Vec` of `Vec`s with one boxed LRU
//!   [`ReplacementPolicy`](replacement::ReplacementPolicy) per set,
//!   against `pv_mem::SetAssociative`;
//! * [`ReferenceInflightQueue`] — the growable DRAM in-flight deque,
//!   against `pv_mem::InflightRing`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inflight;
pub mod replacement;
pub mod set_assoc_ref;

pub use inflight::ReferenceInflightQueue;
pub use set_assoc_ref::ReferenceSetAssociative;
