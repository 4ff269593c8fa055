//! `reproduce` — regenerate every table and figure of the paper.
//!
//! ```text
//! reproduce all [--scale quick|paper|smoke] [--threads N]
//! reproduce fig4 fig9 --scale paper
//! reproduce --list
//! ```
//!
//! A report that cannot be written (a closed pipe, a full disk) exits 1
//! with the error.

use pv_experiments::{Experiment, Runner, Scale, CATALOGUE};
use std::io::{self, Write};
use std::time::Instant;

fn usage(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "Usage: reproduce [EXPERIMENT...] [--scale quick|paper|smoke] [--threads N] [--list]"
    )?;
    writeln!(out)?;
    writeln!(out, "Experiments:")?;
    for experiment in CATALOGUE {
        writeln!(out, "  {}", experiment.name)?;
    }
    writeln!(out, "  all        run every experiment")
}

/// Exits 1 when the output cannot be written.
fn check(result: io::Result<()>) {
    if let Err(e) = result {
        eprintln!("reproduce: writing the output failed: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut threads: Option<usize> = None;
    let mut selected: Vec<Experiment> = Vec::new();
    let mut run_all = false;
    let mut out = io::stdout().lock();

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                check(usage(&mut out).and_then(|()| out.flush()));
                return;
            }
            "--list" => {
                let list = CATALOGUE.iter().try_for_each(|e| writeln!(out, "{}", e.name));
                check(list.and_then(|()| out.flush()));
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
                    let _ = usage(&mut out).and_then(|()| out.flush());
                    std::process::exit(2);
                }
            },
        }
    }

    if run_all || selected.is_empty() {
        selected = CATALOGUE.to_vec();
    }

    let runner = match threads {
        Some(threads) => Runner::new(scale, threads),
        None => Runner::with_default_threads(scale),
    };

    let names: Vec<&str> = selected.iter().map(|e| e.name).collect();
    check(write!(
        out,
        "# Predictor Virtualization — reproduction report\n\nScale: {:?}; experiments: {}\n\n",
        runner.scale(),
        names.join(", ")
    ));
    let start = Instant::now();
    for experiment in selected {
        let t0 = Instant::now();
        let report = (experiment.run)(&runner);
        check(writeln!(out, "{report}").and_then(|()| out.flush()));
        eprintln!("[{}] finished in {:.1?}", experiment.name, t0.elapsed());
    }
    eprintln!(
        "Total: {:.1?} ({} simulations executed)",
        start.elapsed(),
        runner.runs_executed()
    );
}
