//! The benchmark's own checks: the traced loop is the simulator's loop,
//! and the names it reports are the names `BENCHMARK.json` declares.

use crate::json::{self, Value};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::spec::{Sim, Source, Workload};
use crate::traced::TracedSystem;
use crate::tracer::{self, Layer, Overhead};
use pv_mem::ContentionModel;
use pv_sim::System;
use pv_trace::{record_generator, ReplayStream};
use pv_workloads::{AccessStream, TraceGenerator, WorkloadId};

const SEED: u64 = 7;
const WARMUP: u64 = 1_500;
const MEASURE: u64 = 2_500;

fn generators(sim: &Sim, cores: usize) -> Vec<Box<dyn AccessStream>> {
    (0..cores)
        .map(|core| {
            Box::new(TraceGenerator::new(&sim.program.params(), SEED, core))
                as Box<dyn AccessStream>
        })
        .collect()
}

/// The untraced and traced digests of `sim` at a tiny scale.
fn digests(sim: &Sim) -> (String, String) {
    let config = sim.config_sized(SEED, WARMUP, MEASURE);
    let cores = config.cores;
    let untraced = System::from_streams(config.clone(), generators(sim, cores)).run().digest();
    tracer::reset(Overhead::default(), 64);
    let streams = match sim.source {
        Source::Live => generators(sim, cores),
        Source::Replay => (0..cores as u32)
            .map(|core| {
                let bytes = record_generator(&sim.program.params(), SEED, core, WARMUP + MEASURE)
                    .expect("generated records fit the trace layout");
                Box::new(ReplayStream::new(bytes).expect("valid trace")) as Box<dyn AccessStream>
            })
            .collect(),
    };
    let traced = TracedSystem::new(config, streams, sim.source == Source::Replay).run().digest();
    let trace = tracer::finish();
    assert_eq!(trace.get(Layer::Run).calls, 1);
    (untraced, traced)
}

#[test]
fn traced_loop_reproduces_system_run_for_every_kind_ideal_and_queued() {
    let mut kinds = Vec::new();
    for workload in Workload::ALL {
        for sim in workload.sims() {
            if !kinds.contains(&sim.kind) {
                kinds.push(sim.kind);
            }
        }
    }
    assert_eq!(kinds.len(), 8, "every kind the workloads run");
    for kind in kinds {
        for contention in [ContentionModel::Ideal, ContentionModel::Queued] {
            for source in [Source::Live, Source::Replay] {
                let sim = Sim {
                    kind: kind.clone(),
                    program: WorkloadId::Qry1,
                    contention,
                    source,
                };
                let (untraced, traced) = digests(&sim);
                assert_eq!(untraced, traced, "{}", sim.label());
            }
        }
    }
}

fn is_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn every_metric_and_workload_name_is_well_formed_and_unique() {
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
    for name in &names {
        assert!(is_name(name), "`{name}` must match [A-Za-z0-9_.-]+");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "names must be unique");
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(benchmark: &Value, key: &str) -> Vec<(String, String)> {
    benchmark
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn defined(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter().map(|m| (m.name.to_owned(), m.unit.to_owned())).collect()
}

#[test]
fn benchmark_json_declares_exactly_the_reported_names_and_units() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let benchmark = json::parse(&text).expect("BENCHMARK.json is valid JSON");
    assert_eq!(declared(&benchmark, "end_to_end"), defined(&END_TO_END));
    assert_eq!(declared(&benchmark, "per_layer"), defined(&PER_LAYER));
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Value::as_array)
        .expect("a workloads list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
