//! Acceptance tests for the feedback-directed throttling subsystem and its
//! `throttle` experiment.
//!
//! The headline invariant (the PR-5 acceptance criterion): at the scarcest
//! bandwidth point of the sweep, the throttled variant strictly reduces
//! the DRAM queueing delay its predictor traffic observes and matches or
//! beats the fixed-degree configuration's IPC on the low-accuracy
//! workload. The flip side — an accurate predictor must ride through the
//! feedback loop essentially untouched — is checked on the scan query.

use pv_experiments::bandwidth::{cycles_per_transfer, cycles_per_transfer_sweep};
use pv_experiments::throttle::{self, accuracy, max_level};
use pv_experiments::{Pair, Runner, Scale};
use pv_workloads::WorkloadId;

/// One (fixed, throttled) pair of runs at one point of the sweep.
fn pair_at<'a>(pairs: &'a [Pair], workload: &str, cpt: u64) -> (&'a Pair, &'a Pair) {
    let mut pair = pairs
        .iter()
        .filter(|p| p.workload() == workload && cycles_per_transfer(p) == cpt);
    let fixed = pair.next().expect("fixed-degree row present");
    let throttled = pair.next().expect("throttled row present");
    assert!(!fixed.run.configuration.ends_with("-throttled"));
    assert!(throttled.run.configuration.ends_with("-throttled"));
    (fixed, throttled)
}

fn pv_queue_cycles(pair: &Pair) -> u64 {
    pair.run.hierarchy.dram_queue_delay.predictor_cycles()
}

fn app_queue_cycles(pair: &Pair) -> u64 {
    pair.run.hierarchy.dram_queue_delay.application_cycles()
}

/// The pinned acceptance property at the scarcest `cycles_per_transfer`
/// point: strictly less predictor DRAM queueing delay, and at least the
/// fixed-degree IPC, on the workload whose accuracy engages the throttle.
#[test]
fn throttling_recovers_ipc_and_cuts_predictor_queue_delay_when_bandwidth_is_scarce() {
    let runner = Runner::with_default_threads(Scale::Smoke);
    let pairs = throttle::comparison().on(&[WorkloadId::Apache]).pairs(&runner);
    let scarcest = *cycles_per_transfer_sweep().last().expect("non-empty sweep");
    let (fixed, throttled) = pair_at(&pairs, "Apache", scarcest);

    assert!(
        max_level(&throttled.run) > 0 && throttled.run.dropped_prefetches() > 0,
        "Apache's misprediction rate must engage the throttle"
    );
    assert!(
        accuracy(&throttled.run) < 0.70,
        "the experiment's premise: Apache prefetches are inaccurate \
         (measured {:.2})",
        accuracy(&throttled.run)
    );
    assert!(
        pv_queue_cycles(throttled) < pv_queue_cycles(fixed),
        "throttling must strictly reduce predictor DRAM queue delay at the \
         scarcest point ({} vs {})",
        pv_queue_cycles(throttled),
        pv_queue_cycles(fixed)
    );
    let (fixed_ipc, throttled_ipc) = (fixed.run.aggregate_ipc(), throttled.run.aggregate_ipc());
    assert!(
        throttled_ipc >= fixed_ipc,
        "throttling must match or beat fixed-degree IPC at the scarcest \
         point ({throttled_ipc:.4} vs {fixed_ipc:.4})"
    );
    // The mechanism, not just the outcome: the win comes from suppressing
    // useless traffic, so the demand stream must also wait less.
    assert!(throttled.run.prefetches_issued < fixed.run.prefetches_issued);
    assert!(app_queue_cycles(throttled) < app_queue_cycles(fixed));
}

/// An accurate predictor stays inside the dead band: the throttled variant
/// keeps (almost all of) the fixed-degree speedup at full bandwidth.
#[test]
fn accurate_predictors_ride_through_the_feedback_loop() {
    let runner = Runner::with_default_threads(Scale::Smoke);
    let pairs = throttle::comparison().on(&[WorkloadId::Qry1]).pairs(&runner);
    let fastest = cycles_per_transfer_sweep()[0];
    let (fixed, throttled) = pair_at(&pairs, "Qry1", fastest);

    assert!(
        accuracy(&throttled.run) > 0.80,
        "the scan query predicts accurately (measured {:.2})",
        accuracy(&throttled.run)
    );
    assert!(
        fixed.speedup() > 0.25,
        "fixed-degree prefetching must pay off at full bandwidth"
    );
    let retained = (1.0 + throttled.speedup()) / (1.0 + fixed.speedup());
    assert!(
        retained > 0.95,
        "an accurate stream must keep its speedup under the feedback loop \
         (retained {:.3} of the fixed-degree performance)",
        retained
    );
    // Only a sliver of its predictions may be dropped.
    assert!(
        throttled.run.dropped_prefetches() * 20 < fixed.run.prefetches_issued,
        "under 5% of an accurate stream's prefetches may be dropped \
         ({} of {})",
        throttled.run.dropped_prefetches(),
        fixed.run.prefetches_issued
    );
}

/// Throttling is a per-epoch feedback loop, so more queue pressure must
/// never make the controller report nonsense: every sweep point reports
/// consistent counters and the throttled run never issues more than the
/// fixed one.
#[test]
fn throttle_rows_are_internally_consistent_across_the_sweep() {
    let runner = Runner::with_default_threads(Scale::Smoke);
    let pairs = throttle::comparison().pairs(&runner);
    assert_eq!(
        pairs.len(),
        2 * 2 * cycles_per_transfer_sweep().len(),
        "two workloads x two configs per sweep point"
    );
    for pair in &pairs {
        if pair.run.configuration.ends_with("-throttled") {
            assert!(accuracy(&pair.run) > 0.0, "throttled runs sample accuracy");
        } else {
            assert_eq!(pair.run.dropped_prefetches(), 0);
            assert_eq!(max_level(&pair.run), 0);
        }
        assert!(
            pair.run.next_line_issued() > 0,
            "next-line counters are surfaced"
        );
    }
    for &workload in &["Qry1", "Apache"] {
        for &cpt in &cycles_per_transfer_sweep() {
            let (fixed, throttled) = pair_at(&pairs, workload, cpt);
            assert!(throttled.run.prefetches_issued <= fixed.run.prefetches_issued);
        }
    }
}
