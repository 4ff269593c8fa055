//! Second backend: the substrate is predictor-agnostic.
//!
//! Runs the paper's SMS prefetcher and a PC-indexed next-address (Markov)
//! prefetcher — two predictors with *different table geometries* — through
//! the same generic PVProxy, and prints the derived packed layouts, on-chip
//! budgets, and the simulated coverage/traffic of both.
//!
//! ```text
//! cargo run --release -p pv-examples --bin second_backend [workload]
//! ```
//!
//! `workload` is a paper workload name, case-insensitive (default:
//! Qry1); an unknown name exits with status 2 and the list of valid names.

use pv_core::{PvConfig, PvLayout};
use pv_examples::workload_arg;
use pv_markov::{MarkovEntry, VirtualizedMarkov};
use pv_sim::{run_workload, PrefetcherKind, SimConfig};
use pv_sms::{SmsEntry, VirtualizedPht};
use pv_workloads::WorkloadId;

fn main() {
    let workload = workload_arg(1, WorkloadId::Qry1);
    let params = workload.params();
    let pv = PvConfig::pv8();

    println!(
        "Two predictors, one substrate — workload {}: {}\n",
        params.name, params.description
    );

    let sms_layout = PvLayout::of::<SmsEntry>(pv.block_bytes);
    let markov_layout = PvLayout::of::<MarkovEntry>(pv.block_bytes);
    println!(
        "{:<12} {:>10} {:>14} {:>13} {:>16}",
        "backend", "entry bits", "entries/block", "trailer bits", "on-chip budget"
    );
    println!(
        "{:<12} {:>10} {:>14} {:>13} {:>15}B",
        "SMS",
        sms_layout.entry_bits(),
        sms_layout.entries_per_block(),
        sms_layout.unused_trailing_bits(),
        VirtualizedPht::storage_budget(&pv).total_bytes()
    );
    println!(
        "{:<12} {:>10} {:>14} {:>13} {:>15}B",
        "Markov",
        markov_layout.entry_bits(),
        markov_layout.entries_per_block(),
        markov_layout.unused_trailing_bits(),
        VirtualizedMarkov::storage_budget(&pv).total_bytes()
    );
    println!("\nEverything above is derived from each backend's PvEntry widths — nothing is hard-coded.\n");

    let baseline = run_workload(&SimConfig::quick(PrefetcherKind::None), &params);
    println!(
        "{:<14} {:>9} {:>10} {:>10} {:>14} {:>12}",
        "config", "coverage", "IPC", "speedup", "PV mem reqs", "L2 pred reqs"
    );
    for prefetcher in [
        PrefetcherKind::sms_pv8(),
        PrefetcherKind::markov_pv8(),
        PrefetcherKind::markov_1k(),
    ] {
        let metrics = run_workload(&SimConfig::quick(prefetcher), &params);
        println!(
            "{:<14} {:>8.1}% {:>10.3} {:>9.1}% {:>14} {:>12}",
            metrics.configuration,
            metrics.coverage.coverage() * 100.0,
            metrics.aggregate_ipc(),
            metrics.speedup_over(&baseline) * 100.0,
            metrics.pv.map(|pv| pv.memory_requests).unwrap_or(0),
            metrics.hierarchy.l2_requests.predictor,
        );
    }
    println!("\nBoth virtualized runs inject predictor-classified requests at the L2 through the same proxy.");
}
