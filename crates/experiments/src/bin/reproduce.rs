//! `reproduce` — regenerate every table and figure of the paper.
//!
//! ```text
//! reproduce all [--scale quick|paper|smoke] [--threads N]
//! reproduce fig4 fig9 --scale paper
//! reproduce --list
//! ```

use pv_experiments::{Experiment, Runner, Scale};
use std::time::Instant;

fn print_usage() {
    println!("Usage: reproduce [EXPERIMENT...] [--scale quick|paper|smoke] [--threads N] [--list]");
    println!();
    println!("Experiments:");
    for experiment in Experiment::all() {
        println!("  {}", experiment.name());
    }
    println!("  all        run every experiment");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut threads: Option<usize> = None;
    let mut selected: Vec<Experiment> = Vec::new();
    let mut run_all = false;

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print_usage();
                return;
            }
            "--list" => {
                for experiment in Experiment::all() {
                    println!("{}", experiment.name());
                }
                return;
            }
            "--scale" => {
                let value = iter.next().map(String::as_str).unwrap_or("");
                match Scale::from_name(value) {
                    Some(parsed) => scale = parsed,
                    None => {
                        eprintln!("unknown scale '{value}' (expected quick, paper or smoke)");
                        std::process::exit(2);
                    }
                }
            }
            "--threads" => {
                let value = iter.next().map(String::as_str).unwrap_or("");
                match value.parse() {
                    Ok(parsed) if parsed > 0 => threads = Some(parsed),
                    _ => {
                        eprintln!("invalid thread count '{value}' (expected a positive integer)");
                        std::process::exit(2);
                    }
                }
            }
            "all" => run_all = true,
            name => match Experiment::from_name(name) {
                Some(experiment) => selected.push(experiment),
                None => {
                    eprintln!("unknown experiment '{name}'");
                    print_usage();
                    std::process::exit(2);
                }
            },
        }
    }

    if run_all || selected.is_empty() {
        selected = Experiment::all();
    }

    let runner = match threads {
        Some(threads) => Runner::new(scale, threads),
        None => Runner::with_default_threads(scale),
    };

    println!("# Predictor Virtualization — reproduction report");
    println!();
    println!(
        "Scale: {:?}; experiments: {}",
        runner.scale(),
        selected.iter().map(|e| e.name()).collect::<Vec<_>>().join(", ")
    );
    println!();
    let start = Instant::now();
    for experiment in selected {
        let t0 = Instant::now();
        let report = experiment.run(&runner);
        println!("{report}");
        eprintln!("[{}] finished in {:.1?}", experiment.name(), t0.elapsed());
    }
    eprintln!(
        "Total: {:.1?} ({} simulations executed)",
        start.elapsed(),
        runner.runs_executed()
    );
}
