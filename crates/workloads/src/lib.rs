//! # pv-workloads — synthetic commercial-workload models
//!
//! The paper evaluates Predictor Virtualization on eight commercial
//! workloads (TPC-C on DB2 and Oracle, four TPC-H queries on DB2, and
//! SPECweb99 on Apache and Zeus). Those workloads — multi-gigabyte database
//! and web-server setups driven by client simulators — cannot be shipped
//! with a reproduction, so this crate provides *synthetic trace generators*
//! that reproduce the statistical properties the paper's results depend on:
//!
//! * how many distinct spatial-access patterns are live at once (this is
//!   what determines how large the SMS pattern history table must be),
//! * how skewed the reuse of those patterns is,
//! * how dense and how stable the per-region access patterns are,
//! * the data footprint and its reuse (which set the baseline L1/L2 miss
//!   rates), and
//! * the fraction of accesses with no spatial correlation at all (which
//!   bounds the coverage even an infinite predictor can reach).
//!
//! Each of the eight workloads in [`workloads::paper_workloads`] is a named
//! parameter set over the same generator, documented with the rationale for
//! its values. The generator produces an infinite, deterministic (seeded)
//! stream of [`TraceRecord`]s that the `pv-sim` crate feeds to the simulated
//! cores.
//!
//! # Example
//!
//! ```
//! use pv_workloads::{workloads, TraceGenerator};
//!
//! let params = workloads::oracle();
//! let mut generator = TraceGenerator::new(&params, 42, 0);
//! let first: Vec<_> = (&mut generator).take(1000).collect();
//! assert_eq!(first.len(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod params;
pub mod record;
pub mod stream;
pub mod workloads;
pub mod zipf;

pub use generator::TraceGenerator;
pub use params::WorkloadParams;
pub use record::{MemOp, TraceRecord};
pub use stream::{AccessStream, RunAhead, TakeStream};
pub use workloads::{paper_workloads, WorkloadId};
pub use zipf::ZipfSampler;
