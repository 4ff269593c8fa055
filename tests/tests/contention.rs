//! End-to-end behaviour of the queued contention model: the
//! bandwidth-sensitivity acceptance invariant and the split of queueing
//! delay into application and predictor traffic.

use pv_experiments::bandwidth::{self, cycles_per_transfer};
use pv_experiments::{Pair, Runner, Scale};
use pv_workloads::WorkloadId;

/// The bandwidth sweep on the scan query.
fn qry1_pairs(runner: &Runner) -> Vec<Pair> {
    bandwidth::comparison().on(&[WorkloadId::Qry1]).pairs(runner)
}

fn app_queue_cycles(pair: &Pair) -> u64 {
    pair.run.hierarchy.dram_queue_delay.application_cycles()
}

fn pv_queue_cycles(pair: &Pair) -> u64 {
    pair.run.hierarchy.dram_queue_delay.predictor_cycles()
}

/// Acceptance invariant of the contention refactor: as configured DRAM
/// bandwidth decreases (cycles per transfer grows), the measured queueing
/// delay rises monotonically — for application traffic and, in virtualized
/// runs, for predictor traffic separately.
#[test]
fn queueing_delay_rises_monotonically_as_bandwidth_falls() {
    let runner = Runner::new(Scale::Smoke, 4);
    let pairs = qry1_pairs(&runner);
    for config in ["SMS-1K-11a", "SMS-PV8"] {
        let mut sweep: Vec<&Pair> =
            pairs.iter().filter(|p| p.run.configuration == config).collect();
        sweep.sort_by_key(|p| cycles_per_transfer(p));
        assert_eq!(sweep.len(), bandwidth::cycles_per_transfer_sweep().len());
        for pair in sweep.windows(2) {
            assert!(
                app_queue_cycles(pair[0]) < app_queue_cycles(pair[1]),
                "{config}: application queueing must grow as bandwidth falls \
                 (cpt {} -> {}: {} -> {})",
                cycles_per_transfer(pair[0]),
                cycles_per_transfer(pair[1]),
                app_queue_cycles(pair[0]),
                app_queue_cycles(pair[1])
            );
            if config == "SMS-PV8" {
                assert!(
                    pv_queue_cycles(pair[0]) < pv_queue_cycles(pair[1]),
                    "{config}: predictor queueing must grow as bandwidth falls \
                     (cpt {} -> {}: {} -> {})",
                    cycles_per_transfer(pair[0]),
                    cycles_per_transfer(pair[1]),
                    pv_queue_cycles(pair[0]),
                    pv_queue_cycles(pair[1])
                );
            }
        }
    }
}

#[test]
fn predictor_traffic_queues_only_in_virtualized_runs() {
    let runner = Runner::new(Scale::Smoke, 4);
    for pair in &qry1_pairs(&runner) {
        if pair.run.configuration == "SMS-PV8" {
            assert!(
                pv_queue_cycles(pair) > 0,
                "virtualized runs must observe predictor-class queueing at cpt {}",
                cycles_per_transfer(pair)
            );
        } else {
            assert_eq!(
                pv_queue_cycles(pair),
                0,
                "dedicated-table runs have no predictor traffic to queue"
            );
        }
        assert!(app_queue_cycles(pair) > 0);
        assert!(pair.run.dram_utilization() > 0.0);
    }
}

#[test]
fn contention_erodes_the_virtualized_advantage_first() {
    let runner = Runner::new(Scale::Smoke, 4);
    let pairs = qry1_pairs(&runner);
    let speedup = |config: &str, cpt: u64| {
        pairs
            .iter()
            .find(|p| p.run.configuration == config && cycles_per_transfer(p) == cpt)
            .expect("row present")
            .speedup()
    };
    let sweep = bandwidth::cycles_per_transfer_sweep();
    let fastest = sweep[0];
    let slowest = sweep[sweep.len() - 1];
    // At ample bandwidth both prefetchers pay off; when the bus is starved,
    // both collapse, and the virtualized design — whose PHT misses consume
    // the same scarce bandwidth — must not fare better than the dedicated
    // table does.
    assert!(speedup("SMS-1K-11a", fastest) > 0.10);
    assert!(speedup("SMS-PV8", fastest) > 0.10);
    assert!(speedup("SMS-1K-11a", slowest) < speedup("SMS-1K-11a", fastest));
    assert!(speedup("SMS-PV8", slowest) < speedup("SMS-PV8", fastest));
    assert!(speedup("SMS-PV8", slowest) <= speedup("SMS-1K-11a", slowest) + 0.01);
}
