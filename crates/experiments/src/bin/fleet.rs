//! Fleet sweep CLI: expand a configuration grid and drain it over worker
//! threads, streaming JSON Lines.
//!
//! ```text
//! cargo run --release -p pv-experiments --bin fleet -- \
//!     [--threads N] [--scale quick|paper|smoke] \
//!     [--kinds none,sms-pv8,markov-pv8,composite-shared8] \
//!     [--workloads Apache,DB2,Qry1,Qry17] \
//!     [--cpt 0,32,64,128] \
//!     [--mix Apache+DB2+Qry1+Qry17] \
//!     [--scenarios] [--throttle] [--out sweep.jsonl]
//! ```
//!
//! Defaults sweep the 64-point grid of `FleetGrid::default_grid` at quick
//! scale over all available host threads. `--cpt 0` is the paper's
//! `Ideal` fixed-latency DRAM; non-zero values run `Queued` contention at
//! that cycles-per-transfer, at most [`MAX_CPT`] (larger values exit 2
//! before any point runs). `--scenarios` appends the
//! non-stationary scenario compositions as additional workload points;
//! `--throttle` additionally sweeps every throttleable kind under the
//! default feedback policy. Rows carry no timing, so
//! `grep '"type": "run"' out.jsonl | sort` is byte-stable across thread
//! counts; wall-clock throughput lives in the summary footer. A sink that
//! fails (a closed pipe, a full disk) exits 1 with the error.

use pv_experiments::fleet::{
    default_scenarios, kind_names, parse_kind, parse_workload, run_fleet, FleetGrid,
};
use pv_experiments::{Scale, Workload};

/// The largest `--cpt` value: far above the 16–128 cycles per transfer the
/// experiments sweep, and small enough that a run's queued cycle
/// arithmetic stays far below `u64::MAX` (at `u64::MAX` itself the DRAM
/// queue delay wraps and a worker panics).
const MAX_CPT: u64 = u32::MAX as u64;

fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| fail(&format!("{flag} requires a value")))
}

fn main() {
    let mut grid = FleetGrid::default_grid();
    let mut scale = Scale::Quick;
    let mut threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let mut out_path: Option<String> = None;
    let mut scenarios = false;
    // Appended after parsing, so a later `--workloads` cannot replace
    // them: homogeneous workloads first, then mixes, then scenarios.
    let mut mixes = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                threads = next_value(&mut args, "--threads")
                    .parse()
                    .unwrap_or_else(|_| fail("--threads requires a positive integer"));
                if threads == 0 {
                    fail("--threads requires a positive integer");
                }
            }
            "--scale" => {
                let name = next_value(&mut args, "--scale");
                scale = Scale::from_name(&name)
                    .unwrap_or_else(|| fail("--scale expects quick, paper or smoke"));
            }
            "--kinds" => {
                let list = next_value(&mut args, "--kinds");
                grid.kinds = list
                    .split(',')
                    .map(|name| {
                        parse_kind(name.trim()).unwrap_or_else(|| {
                            fail(&format!(
                                "unknown kind '{}' (expected one of {}, each optionally \
                                 suffixed -throttled)",
                                name.trim(),
                                kind_names().join(", ")
                            ))
                        })
                    })
                    .collect();
            }
            "--workloads" => {
                let list = next_value(&mut args, "--workloads");
                grid.workloads = list
                    .split(',')
                    .map(|name| {
                        parse_workload(name.trim())
                            .map(Workload::Homogeneous)
                            .unwrap_or_else(|| fail(&format!("unknown workload '{}'", name.trim())))
                    })
                    .collect();
            }
            "--cpt" => {
                let list = next_value(&mut args, "--cpt");
                grid.cycles_per_transfer = list
                    .split(',')
                    .map(|v| {
                        let cpt: u64 = v.trim().parse().unwrap_or_else(|_| {
                            fail("--cpt expects comma-separated cycle counts (0 = Ideal)")
                        });
                        if cpt > MAX_CPT {
                            fail(&format!(
                                "--cpt {cpt} exceeds the ceiling of {MAX_CPT} cycles per transfer"
                            ));
                        }
                        cpt
                    })
                    .collect();
            }
            "--mix" => {
                let spec = next_value(&mut args, "--mix");
                let parts: Vec<_> = spec
                    .split('+')
                    .map(|name| {
                        parse_workload(name.trim())
                            .unwrap_or_else(|| fail(&format!("unknown workload '{}'", name.trim())))
                    })
                    .collect();
                let mix: [pv_workloads::WorkloadId; 4] = parts
                    .try_into()
                    .unwrap_or_else(|_| fail("--mix expects exactly four +-joined workloads"));
                mixes.push(Workload::Mix(mix));
            }
            "--scenarios" => scenarios = true,
            "--throttle" => grid.throttle = true,
            "--out" => out_path = Some(next_value(&mut args, "--out")),
            flag => fail(&format!(
                "unknown argument '{flag}' (expected --threads, --scale, --kinds, --workloads, \
                 --cpt, --mix, --scenarios, --throttle, --out)"
            )),
        }
    }
    grid.workloads.extend(mixes);
    if scenarios {
        grid.workloads.extend(default_scenarios(scale));
    }

    let points = grid.points();
    if points.is_empty() {
        fail("the grid expanded to zero points (every axis needs at least one value)");
    }
    eprintln!(
        "fleet: {} points ({} kinds x {} workloads x {} bandwidths{}) over {} threads",
        points.len(),
        grid.kinds.len(),
        grid.workloads.len(),
        grid.cycles_per_transfer.len(),
        if grid.throttle {
            " + throttle axis"
        } else {
            ""
        },
        threads
    );

    let result = match out_path {
        Some(path) => {
            let file = std::fs::File::create(&path)
                .unwrap_or_else(|e| fail(&format!("failed to create {path}: {e}")));
            run_fleet(points, scale, threads, &mut std::io::BufWriter::new(file))
        }
        None => run_fleet(points, scale, threads, &mut std::io::stdout()),
    };
    let summary = result.unwrap_or_else(|e| {
        eprintln!("fleet: writing the output failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "fleet: {} runs in {:.1}s ({:.2} runs/sec on {} threads)",
        summary.points, summary.seconds, summary.runs_per_sec, summary.threads
    );
}
