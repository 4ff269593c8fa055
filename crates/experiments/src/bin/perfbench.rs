//! Performance gate: times the simulator end to end and checks the result
//! against a recorded baseline.
//!
//! ```text
//! cargo run --release -p pv-experiments --bin perfbench -- OUT.json \
//!     [--check-against BASELINE.json]
//! ```
//!
//! It writes `OUT.json` (schema `pv-perfbench/3`, see the README's
//! Performance section), which is required, so no default name can
//! overwrite a committed report: 32 smoke-scale end-to-end rows — every
//! [`PrefetcherKind`] on Apache and Qry1, then SMS-PV8 on Qry1 replayed
//! from recorded traces (`Qry1-replay`) and under Queued contention
//! (`Qry1-queued`) — each the best of five repetitions with the digest of
//! its `RunMetrics`, and the `hierarchy/access_queued` micro.
//!
//! With `--check-against`, it exits 1 when any row's digest differs from
//! the baseline's (speed may move, simulated outcomes may not), when the
//! records/sec geomean over the rows the baseline also recorded falls
//! below 0.75×, or when `hierarchy/access_queued` takes more than 1.5× the
//! baseline's ns/op. A baseline that cannot be read, holds no end-to-end
//! rows, or records a rate or ns/op that does not parse or is not finite
//! and positive exits 2 before anything is measured.

use pv_experiments::{RunSpec, Scale};
use pv_mem::{AccessKind, ContentionModel, DataClass, HierarchyConfig, MemoryHierarchy, Requester};
use pv_sim::{run_streams, run_workload, PrefetcherKind, RunMetrics, SimConfig};
use pv_trace::{record_generator, ReplayStream};
use pv_workloads::{AccessStream, WorkloadId};
use std::time::Instant;

/// The gate fails when the end-to-end records/sec geomean ratio against
/// the baseline falls below this.
const MIN_THROUGHPUT_RATIO: f64 = 0.75;

/// The gate fails when `hierarchy/access_queued` ns/op over the baseline's
/// exceeds this. Both sides are wall-clock ns, so it is looser than the
/// geomean bound.
const MAX_ACCESS_QUEUED_RATIO: f64 = 1.5;

const USAGE: &str = "usage: perfbench OUT.json [--check-against BASELINE.json]";

fn all_kinds() -> Vec<PrefetcherKind> {
    vec![
        PrefetcherKind::None,
        PrefetcherKind::sms_1k_16a(),
        PrefetcherKind::sms_1k_11a(),
        PrefetcherKind::sms_16_11a(),
        PrefetcherKind::sms_8_11a(),
        PrefetcherKind::sms_infinite(),
        PrefetcherKind::sms_pv8(),
        PrefetcherKind::sms_pv16(),
        PrefetcherKind::markov_1k(),
        PrefetcherKind::markov_pv8(),
        PrefetcherKind::composite_dedicated(4),
        PrefetcherKind::composite_shared(8),
        PrefetcherKind::composite_shared_dynamic(8),
        PrefetcherKind::sms_pv8_throttled(),
        PrefetcherKind::markov_pv8_throttled(),
    ]
}

struct EndToEnd {
    prefetcher: String,
    workload: String,
    records: u64,
    seconds: f64,
    records_per_sec: f64,
    digest: String,
}

/// Times `run` (one whole simulation under `config`) as the best of five
/// repetitions — CI runners share cores, and wall-clock noise must not read
/// as a regression — and prints and returns its row.
fn timed_row(
    prefetcher: String,
    workload: String,
    config: &SimConfig,
    mut run: impl FnMut() -> RunMetrics,
) -> EndToEnd {
    let records = (config.warmup_records + config.measure_records) * config.cores as u64;
    let mut seconds = f64::INFINITY;
    let mut digest = String::new();
    for _ in 0..5 {
        let start = Instant::now();
        let metrics = run();
        seconds = seconds.min(start.elapsed().as_secs_f64());
        digest = metrics.digest();
    }
    let row = EndToEnd {
        prefetcher,
        workload,
        records,
        seconds,
        records_per_sec: records as f64 / seconds,
        digest,
    };
    eprintln!(
        "end_to_end {:<14} {:<8} {:>10.0} records/sec ({})",
        row.prefetcher, row.workload, row.records_per_sec, row.digest
    );
    row
}

/// The 32 end-to-end rows: every kind on Apache and Qry1, then SMS-PV8 on
/// Qry1 replayed from recorded traces and under Queued contention.
fn end_to_end_rows() -> Vec<EndToEnd> {
    let mut rows = Vec::new();
    for kind in all_kinds() {
        for workload in [WorkloadId::Apache, WorkloadId::Qry1] {
            let config = RunSpec::base(workload, kind.clone()).config(Scale::Smoke);
            rows.push(timed_row(
                kind.label(),
                workload.name().to_owned(),
                &config,
                || run_workload(&config, &workload.params()),
            ));
        }
    }

    let kind = PrefetcherKind::sms_pv8();
    let workload = WorkloadId::Qry1;
    let config = RunSpec::base(workload, kind.clone()).config(Scale::Smoke);

    // Replay path: the row times the full pipeline (header parse, per-record
    // unpacking, simulation); its digest matches the live run's by
    // construction, so the row also guards record/replay fidelity.
    let per_core = config.warmup_records + config.measure_records;
    let traces: Vec<Vec<u8>> = (0..config.cores)
        .map(|core| {
            record_generator(&workload.params(), config.seed, core as u32, per_core)
                .expect("generated records fit the default trace layout")
        })
        .collect();
    rows.push(timed_row(
        kind.label(),
        format!("{}-replay", workload.name()),
        &config,
        || {
            let streams: Vec<Box<dyn AccessStream>> = traces
                .iter()
                .map(|bytes| {
                    Box::new(ReplayStream::new(bytes.clone()).expect("valid trace"))
                        as Box<dyn AccessStream>
                })
                .collect();
            run_streams(&config, streams)
        },
    ));

    // The same point under Queued contention, the mode every bandwidth,
    // throttle and fleet experiment runs.
    let mut queued = config;
    queued.hierarchy = queued.hierarchy.with_contention(ContentionModel::Queued);
    rows.push(timed_row(
        kind.label(),
        format!("{}-queued", workload.name()),
        &queued,
        || run_workload(&queued, &workload.params()),
    ));
    rows
}

/// `hierarchy/access_queued`: a deterministic four-core read/write stream
/// over a footprint far larger than the L2, through the full Queued access
/// path (L1 + L2 ports + MSHRs + DRAM queues), in ns per access. Best of
/// five.
fn bench_access_queued() -> f64 {
    const ITERS: u64 = 2_000_000;
    let once = || {
        let config = HierarchyConfig::paper_baseline(4).with_contention(ContentionModel::Queued);
        let mut hierarchy = MemoryHierarchy::new(config);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut now = 0u64;
        let start = Instant::now();
        for _ in 0..ITERS {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let core = (r % 4) as usize;
            // 16M blocks = 1 GB footprint: far beyond the 8 MB L2.
            let addr = ((r >> 2) % (16 * 1024 * 1024)) * 64;
            let kind = if r & 16 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let response = hierarchy.access(
                Requester::data(core),
                addr,
                kind,
                DataClass::Application,
                now,
            );
            std::hint::black_box(response.latency);
            now += 3;
        }
        start.elapsed().as_nanos() as f64 / ITERS as f64
    };
    (0..5).map(|_| once()).fold(f64::INFINITY, f64::min)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The benchmark JSON: one end-to-end row and one micro row per line, the
/// layout [`parse_baseline`] reads back.
fn to_json(runs: &[EndToEnd], access_queued_ns: f64) -> String {
    let rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"prefetcher\": \"{}\", \"workload\": \"{}\", \"records\": {}, \
                 \"seconds\": {:.4}, \"records_per_sec\": {:.0}, \"digest\": \"{}\"}}",
                json_escape(&r.prefetcher),
                json_escape(&r.workload),
                r.records,
                r.seconds,
                r.records_per_sec,
                json_escape(&r.digest),
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"pv-perfbench/3\",\n  \"scale\": \"smoke\",\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"micro\": [\n    \
         {{\"name\": \"hierarchy/access_queued\", \"ns_per_op\": {access_queued_ns:.1}}}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// One `(prefetcher, workload, records_per_sec, digest)` row parsed out of
/// a previously-recorded benchmark JSON.
struct BaselineRow {
    prefetcher: String,
    workload: String,
    records_per_sec: f64,
    digest: Option<String>,
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_owned())
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the `end_to_end` rows of a benchmark JSON. The emitter writes one
/// row per line, so a line-oriented scan is sufficient and keeps the binary
/// free of a JSON dependency (the build environment has no crates.io). A
/// row whose rate does not parse keeps it as NaN, for [`load_baseline`] to
/// reject, instead of dropping out of the gate.
fn parse_baseline(text: &str) -> Vec<BaselineRow> {
    text.lines()
        .filter_map(|line| {
            Some(BaselineRow {
                prefetcher: extract_str(line, "\"prefetcher\": \"")?,
                workload: extract_str(line, "\"workload\": \"")?,
                records_per_sec: extract_num(line, "\"records_per_sec\": ").unwrap_or(f64::NAN),
                digest: extract_str(line, "\"digest\": \""),
            })
        })
        .collect()
}

/// Finds the `ns_per_op` of the named `micro` row in a benchmark JSON, via
/// the same line-oriented scan as [`parse_baseline`] (NaN when the row is
/// there but its value does not parse).
fn parse_baseline_micro(text: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    text.lines()
        .find(|line| line.contains(&needle))
        .map(|line| extract_num(line, "\"ns_per_op\": ").unwrap_or(f64::NAN))
}

/// What the regression gate reads from a recorded benchmark JSON.
struct Baseline {
    rows: Vec<BaselineRow>,
    /// The recorded `hierarchy/access_queued` ns/op, if the file has one.
    access_queued_ns: Option<f64>,
}

/// Whether `value` can be the denominator of a gate ratio. Zero, negative
/// and non-finite values would turn a ratio into `inf`, a negative number
/// or NaN, and some of those pass a threshold compare.
fn usable(value: f64) -> bool {
    value.is_finite() && value > 0.0
}

/// Reads and parses the baseline at `path`. A file that cannot be read,
/// holds no `end_to_end` rows, or records a rate or ns/op that does not
/// parse or is not finite and positive is an error.
fn load_baseline(path: &str) -> Result<Baseline, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let rows = parse_baseline(&text);
    if rows.is_empty() {
        return Err(format!("baseline {path} holds no end_to_end rows"));
    }
    if let Some(row) = rows.iter().find(|row| !usable(row.records_per_sec)) {
        return Err(format!(
            "baseline {path}: {} {} records_per_sec {} is not finite and positive",
            row.prefetcher, row.workload, row.records_per_sec
        ));
    }
    let access_queued_ns = parse_baseline_micro(&text, "hierarchy/access_queued");
    if let Some(ns) = access_queued_ns.filter(|&ns| !usable(ns)) {
        return Err(format!(
            "baseline {path}: hierarchy/access_queued ns_per_op {ns} is not finite and positive"
        ));
    }
    Ok(Baseline {
        rows,
        access_queued_ns,
    })
}

/// The baseline row recorded for the same `(prefetcher, workload)` as `run`.
fn baseline_row<'a>(run: &EndToEnd, baseline: &'a [BaselineRow]) -> Option<&'a BaselineRow> {
    baseline
        .iter()
        .find(|b| b.prefetcher == run.prefetcher && b.workload == run.workload)
}

/// The geometric mean of the fresh rows' records/sec over the baseline's,
/// across the rows both recorded, or `None` when none match.
fn geomean_ratio(runs: &[EndToEnd], baseline: &[BaselineRow]) -> Option<f64> {
    let logs: Vec<f64> = runs
        .iter()
        .filter_map(|run| {
            let base = baseline_row(run, baseline)?;
            Some((run.records_per_sec / base.records_per_sec).ln())
        })
        .collect();
    (!logs.is_empty()).then(|| (logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

/// Prints every end-to-end row whose `RunMetrics` digest differs from the
/// baseline's recording of the same row, and returns how many did. Rows
/// without a baseline counterpart or a recorded digest are not compared.
fn report_moved_digests(runs: &[EndToEnd], baseline: &[BaselineRow]) -> usize {
    let mut moved = 0;
    for run in runs {
        let expected = baseline_row(run, baseline).and_then(|base| base.digest.as_ref());
        if let Some(expected) = expected.filter(|&expected| *expected != run.digest) {
            eprintln!(
                "digest moved for {} {}: baseline {expected} vs current {}",
                run.prefetcher, run.workload, run.digest
            );
            moved += 1;
        }
    }
    moved
}

/// Applies the three checks in order and returns the first failure. A NaN
/// ratio fails its check.
fn gate(
    runs: &[EndToEnd],
    access_queued_ns: f64,
    baseline: &Baseline,
    path: &str,
) -> Result<(), String> {
    // Digests are the behavioural contract: a moved one fails the gate
    // outright. A behaviour-changing PR re-records the baseline in the
    // same change, so the move shows up as a reviewed diff.
    let moved = report_moved_digests(runs, &baseline.rows);
    if moved > 0 {
        return Err(format!("{moved} end-to-end digest(s) moved vs {path}"));
    }
    let ratio = geomean_ratio(runs, &baseline.rows)
        .ok_or_else(|| format!("no matching end_to_end rows found in {path}"))?;
    eprintln!(
        "check-against {path}: end-to-end records/sec geomean ratio {ratio:.3} \
         (fail threshold {MIN_THROUGHPUT_RATIO})"
    );
    if ratio.is_nan() || ratio < MIN_THROUGHPUT_RATIO {
        return Err(format!(
            "end-to-end throughput regressed more than 25% vs {path}"
        ));
    }
    if let Some(base) = baseline.access_queued_ns {
        let ratio = access_queued_ns / base;
        eprintln!(
            "check-against {path}: hierarchy/access_queued {access_queued_ns:.1} ns/op vs \
             baseline {base:.1} ns/op (ratio {ratio:.3}, fail threshold \
             {MAX_ACCESS_QUEUED_RATIO})"
        );
        if ratio.is_nan() || ratio > MAX_ACCESS_QUEUED_RATIO {
            return Err(format!(
                "the Queued contended micro regressed more than 50% vs {path}"
            ));
        }
    }
    Ok(())
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check-against" => match args.next() {
                Some(path) => baseline_path = Some(path),
                None => {
                    eprintln!("--check-against requires a path");
                    std::process::exit(2);
                }
            },
            // A mistyped flag must not silently become the output path:
            // that would both disable the regression gate and overwrite
            // whatever file the typo names.
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag '{flag}'\n{USAGE}");
                std::process::exit(2);
            }
            path if out_path.is_none() => out_path = Some(path.to_owned()),
            path => {
                eprintln!("unexpected extra argument '{path}'");
                std::process::exit(2);
            }
        }
    }
    let Some(out_path) = out_path else {
        eprintln!("missing the output path\n{USAGE}");
        std::process::exit(2);
    };
    // The baseline is read before anything is measured, so a bad one fails
    // at once instead of after the whole run.
    let baseline = match baseline_path.as_deref().map(load_baseline).transpose() {
        Ok(baseline) => baseline,
        Err(error) => {
            eprintln!("{error}");
            std::process::exit(2);
        }
    };

    let runs = end_to_end_rows();
    let access_queued_ns = bench_access_queued();
    eprintln!("micro hierarchy/access_queued {access_queued_ns:>8.1} ns/op");

    std::fs::write(&out_path, to_json(&runs, access_queued_ns))
        .expect("failed to write benchmark JSON");
    eprintln!("wrote {out_path}");

    if let (Some(path), Some(baseline)) = (baseline_path, baseline) {
        if let Err(failure) = gate(&runs, access_queued_ns, &baseline, &path) {
            eprintln!("FAIL: {failure}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PR9: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR9.json");

    /// The baseline's own rows, as if measured again at the recorded rates.
    fn rerun(baseline: &Baseline) -> Vec<EndToEnd> {
        baseline
            .rows
            .iter()
            .map(|row| EndToEnd {
                prefetcher: row.prefetcher.clone(),
                workload: row.workload.clone(),
                records: 200_000,
                seconds: 200_000.0 / row.records_per_sec,
                records_per_sec: row.records_per_sec,
                digest: row.digest.clone().expect("every PR9 row has a digest"),
            })
            .collect()
    }

    #[test]
    fn the_committed_baseline_parses() {
        let baseline = load_baseline(PR9).expect("BENCH_PR9.json is a usable baseline");
        assert_eq!(baseline.rows.len(), 31);
        assert_eq!(baseline.access_queued_ns, Some(823.4));
        assert!(gate(&rerun(&baseline), 823.4, &baseline, PR9).is_ok());
    }

    /// A `pv-perfbench/3` report reads back as a baseline with the same
    /// rows and micro.
    #[test]
    fn the_report_reads_back_as_a_baseline() {
        let baseline = load_baseline(PR9).expect("BENCH_PR9.json is a usable baseline");
        let text = to_json(&rerun(&baseline), 273.6);
        let rows = parse_baseline(&text);
        assert_eq!(rows.len(), 31);
        for (row, recorded) in rows.iter().zip(&baseline.rows) {
            assert_eq!(
                (&row.prefetcher, &row.workload),
                (&recorded.prefetcher, &recorded.workload)
            );
            assert_eq!(
                (row.records_per_sec, &row.digest),
                (recorded.records_per_sec, &recorded.digest)
            );
        }
        assert_eq!(
            parse_baseline_micro(&text, "hierarchy/access_queued"),
            Some(273.6)
        );
    }

    #[test]
    fn one_altered_digest_counts_as_moved() {
        let baseline = load_baseline(PR9).expect("BENCH_PR9.json is a usable baseline");
        let mut runs = rerun(&baseline);
        assert_eq!(report_moved_digests(&runs, &baseline.rows), 0);
        runs[7].digest.push('x');
        assert_eq!(report_moved_digests(&runs, &baseline.rows), 1);
        let failure = gate(&runs, 823.4, &baseline, PR9).expect_err("a moved digest fails");
        assert!(failure.contains("digest"), "{failure}");
    }

    #[test]
    fn low_or_nan_ratios_fail() {
        let baseline = load_baseline(PR9).expect("BENCH_PR9.json is a usable baseline");
        let with_rates = |scale: f64| {
            let mut runs = rerun(&baseline);
            runs.iter_mut().for_each(|run| run.records_per_sec *= scale);
            gate(&runs, 823.4, &baseline, PR9)
        };
        assert!(with_rates(0.76).is_ok());
        assert!(with_rates(0.74).expect_err("0.74x fails").contains("throughput"));
        assert!(with_rates(f64::NAN).expect_err("NaN fails").contains("throughput"));
        let runs = rerun(&baseline);
        assert!(gate(&runs, 823.4 * 1.49, &baseline, PR9).is_ok());
        assert!(gate(&runs, 823.4 * 1.51, &baseline, PR9).is_err());
        assert!(gate(&runs, f64::NAN, &baseline, PR9).is_err());
    }
}
