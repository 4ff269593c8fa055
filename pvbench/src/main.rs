//! `pvbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! pvbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! pvbench --report [--seed N] [--seconds S]
//! pvbench --list
//! ```
//!
//! A run measures one workload for `--seconds` host seconds and prints, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `--report` runs
//! every workload both ways in child processes and prints every metric by
//! name with its unit; `--list` prints the metric names and units. See
//! `pvbench/README.md`.

mod bench;
mod json;
mod metrics;
mod spec;
#[cfg(test)]
mod tests;
mod traced;
mod tracer;

use bench::Options;
use json::Summary;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use spec::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 1;
/// The seed kept out of tuning, on which steadiness is checked again.
const HELD_OUT_SEED: u64 = 42;
/// Measured seconds per run when none are given.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str =
    "usage: pvbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       \
                     pvbench --report [--seed N] [--seconds S]\n       pvbench --list";

enum Mode {
    Run { options: Options, trace: bool },
    Report { seed: u64, seconds: f64 },
    List,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut report = false;
    let mut list = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value")).cloned();
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                seed = value()?.parse().map_err(|_| "--seed needs a whole number".to_owned())?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--report" => report = true,
            "--list" => list = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match (list, report, workload) {
        (true, false, None) => Ok(Mode::List),
        (false, true, None) => Ok(Mode::Report { seed, seconds }),
        (false, false, Some(workload)) => Ok(Mode::Run {
            options: Options {
                workload,
                seed,
                seconds,
            },
            trace,
        }),
        _ => Err("give exactly one of --workload, --report and --list".into()),
    }
}

fn spans_path(options: &Options) -> PathBuf {
    PathBuf::from("pvbench").join("traces").join(format!(
        "{}-seed{}.jsonl",
        options.workload.name(),
        options.seed
    ))
}

fn print_list() {
    println!("default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}");
    println!("workloads: {}", Workload::ALL.map(|w| w.name()).join(", "));
    let print = |title: &str, defs: &[MetricDef]| {
        println!("{title}:");
        for def in defs {
            println!("  {:<38} {:<9} {}", def.name, def.unit, def.meaning);
        }
    };
    print("end-to-end metrics (--trace 0)", &END_TO_END);
    print("per-layer metrics (--trace 1)", &PER_LAYER);
}

/// Runs every workload both ways in child processes (so each reports its
/// own peak RSS) and prints every metric with its unit. Per-layer metrics
/// that read 0 on a workload do not apply to it and are left out.
fn report(seed: u64, seconds: f64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut correct = true;
    for workload in Workload::ALL {
        println!("== {} (seed {seed})", workload.name());
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", trace])
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            if !output.status.success() {
                return Err(format!(
                    "{} --trace {trace} failed: {}",
                    workload.name(),
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let summary = Summary::parse(line)?;
            correct &= summary.correct;
            println!(
                "   --trace {trace}: correct {}, attempted {}, failed {}",
                summary.correct, summary.attempted, summary.failed
            );
            for (name, metric) in &summary.metrics {
                if trace == "1" && metric.value == 0.0 {
                    continue;
                }
                println!("   {name:<38} {:>16.6} {}", metric.value, metric.unit);
            }
        }
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(message) => {
            eprintln!("pvbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::List => print_list(),
        Mode::Report { seed, seconds } => match report(seed, seconds) {
            Ok(true) => {}
            Ok(false) => return ExitCode::FAILURE,
            Err(message) => {
                eprintln!("pvbench: {message}");
                return ExitCode::FAILURE;
            }
        },
        Mode::Run { options, trace } => {
            let summary = if trace {
                match bench::run_traced_layers(options, &spans_path(&options)) {
                    Ok(summary) => summary,
                    Err(error) => {
                        eprintln!("pvbench: cannot write the span file: {error}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                bench::run_end_to_end(options)
            };
            println!("{}", summary.to_json());
        }
    }
    ExitCode::SUCCESS
}
