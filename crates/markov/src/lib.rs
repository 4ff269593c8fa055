//! # pv-markov — a second virtualized backend
//!
//! A PC-indexed next-address (Markov-style) data prefetcher, built to prove
//! that the `pv-core` substrate is predictor-agnostic (paper Section 2: any
//! predictor's metadata tables can be emulated in the memory hierarchy; SMS
//! is merely the case study).
//!
//! The predictor keys on the program counter of a memory instruction and
//! learns the *block delta* that followed its last access: table\[PC\] = the
//! signed distance (in cache blocks) between consecutive data accesses made
//! under that PC. On the next execution of the PC the learned delta predicts
//! the block the program will touch next, and the prefetcher fetches it into
//! the L1. This is the classic correlation/next-address scheme — much
//! simpler than SMS, with a *different table geometry*: 40-bit entries
//! (12-bit tag + 28-bit delta payload) instead of SMS's 43-bit entries, so
//! twelve entries pack into each 64-byte PVTable block instead of eleven.
//!
//! Like the SMS PHT, the table's storage is abstracted behind a trait
//! ([`NextAddrStorage`]) with a dedicated on-chip implementation
//! ([`DedicatedMarkov`]) and a virtualized one ([`VirtualizedMarkov`])
//! that adapts the *same* generic `PvFront` — instantiated at
//! `PvFront<MarkovEntry>` — the SMS backend uses at `PvFront<SmsEntry>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entry;
pub mod prefetcher;
pub mod storage;

pub use entry::{MarkovConfig, MarkovEntry, MarkovIndex, INDEX_BITS, PC_INDEX_BITS};
pub use prefetcher::{MarkovPrefetcher, MarkovResponse, MarkovStats};
pub use storage::{DedicatedMarkov, NextAddrLookup, NextAddrStorage, VirtualizedMarkov};
