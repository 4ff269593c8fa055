//! # pv-sim — cycle-approximate CMP timing model
//!
//! This crate wires the substrates together into the simulated machine the
//! paper evaluates: four cores, each running a workload trace through its
//! private L1 caches and an SMS prefetcher (dedicated or virtualized), all
//! sharing an L2 and main memory.
//!
//! ## Relationship to the paper's methodology
//!
//! The paper uses Flexus, a full-system, cycle-accurate simulator with
//! SMARTS sampling. This reproduction replaces the out-of-order core model
//! with a trace-driven core that retires instructions at a configurable
//! width and exposes a configurable fraction of each memory-access latency
//! (loads mostly exposed, stores and instruction fetches mostly hidden).
//! Every quantity the evaluation reports — miss coverage, L2 request/miss/
//! write-back counts, off-chip traffic and relative performance — is driven
//! by the memory system, which is modelled faithfully; the core model only
//! converts latencies into cycles. Runs are split into a warm-up window and
//! a measurement window (statistics reset in between), mirroring the paper's
//! functional-warming methodology, and the aggregate user-IPC metric matches
//! the paper's throughput metric (committed instructions summed over cores,
//! divided by elapsed cycles).
//!
//! # Example
//!
//! ```no_run
//! use pv_sim::{PrefetcherKind, SimConfig};
//! use pv_workloads::workloads;
//!
//! let config = SimConfig::quick(PrefetcherKind::sms_1k_11a());
//! let metrics = pv_sim::run_workload(&config, &workloads::qry1());
//! println!("aggregate IPC: {:.3}", metrics.aggregate_ipc());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod composite;
pub mod config;
pub mod core_model;
pub mod engine;
pub mod metrics;
pub mod repartition;
pub mod system;
pub mod throttle;

pub use composite::CompositePrefetcher;
pub use config::{CoreConfig, PrefetcherKind, SimConfig};
pub use core_model::CoreModel;
pub use engine::{EngineSnapshot, PrefetchEngine, PvTableStats};
pub use metrics::{mean_and_ci95, CoverageMetrics, RunMetrics};
pub use repartition::{PlanChange, RepartitionConfig, RepartitionController, RepartitionMetrics};
pub use system::{run_streams, run_workload, run_workload_mix, System};
pub use throttle::{
    LevelChange, ThrottleConfig, ThrottleController, ThrottleMetrics, ThrottledEngine,
};
