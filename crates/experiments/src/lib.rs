//! # pv-experiments — reproduction harness
//!
//! Every experiment is an entry of one [`CATALOGUE`] of named cases over a
//! shared [`Runner`] that executes and caches simulation runs. Most of the
//! paper's evaluation (Section 4) compares prefetcher kinds against a
//! baseline kind over a set of workloads; each such experiment is a
//! [`Comparison`] value — workloads, hierarchy variants, baseline and
//! compared kinds, named columns and a note — that one engine runs and
//! renders as a markdown table with the paper's reference values alongside
//! the measured ones. The static tables (`table1`–`table3`, `sec46`) and the
//! scenario studies (`scenarios`, `repartition`) render their own reports.
//!
//! The `reproduce` binary drives everything:
//!
//! ```text
//! cargo run --release -p pv-experiments --bin reproduce -- all --scale quick
//! cargo run --release -p pv-experiments --bin reproduce -- fig9 --scale paper
//! ```
//!
//! The integration tests run the same comparisons, often on fewer
//! workloads ([`Comparison::on`]), and read the finished [`Pair`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod backends;
pub mod bandwidth;
pub mod cohabit;
pub mod comparison;
pub mod fig10;
pub mod fig11;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fleet;
pub mod mixes;
pub mod repartition;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod sec46;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod throttle;

pub use comparison::{Comparison, Pair};
pub use fleet::{run_fleet, FleetGrid, FleetPoint, FleetSummary};
pub use report::Table;
pub use runner::{HierarchyVariant, RunSpec, Runner, Scale, Workload};

/// One reproducible experiment: its command-line name and the function
/// that runs it and renders its report.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Command-line name (e.g. `"fig4"`).
    pub name: &'static str,
    /// Runs the experiment and renders its report.
    pub run: fn(&Runner) -> String,
}

/// Every experiment, in presentation order: the paper's tables and figures
/// (Section 4), then the studies beyond them.
pub const CATALOGUE: &[Experiment] = &[
    Experiment::new("table1", |_| table1::report()),
    Experiment::new("table2", |_| table2::report()),
    Experiment::new("table3", |_| table3::report()),
    Experiment::new("fig4", |runner| fig4::comparison().report(runner)),
    Experiment::new("fig5", |runner| fig5::comparison().report(runner)),
    Experiment::new("fig6", |runner| fig6::comparison().report(runner)),
    Experiment::new("fig7", |runner| fig7::comparison().report(runner)),
    Experiment::new("fig8", |runner| fig8::comparison().report(runner)),
    Experiment::new("fig9", |runner| fig9::comparison().report(runner)),
    Experiment::new("fig10", |runner| fig10::comparison().report(runner)),
    Experiment::new("fig11", |runner| fig11::comparison().report(runner)),
    Experiment::new("sec46", |_| sec46::report()),
    Experiment::new("ablation", |runner| {
        ablation::comparison().report(runner) + &ablation::packing()
    }),
    Experiment::new("backends", |runner| backends::comparison().report(runner)),
    Experiment::new("bandwidth", |runner| bandwidth::comparison().report(runner)),
    Experiment::new("mixes", |runner| mixes::comparison().report(runner)),
    Experiment::new("cohabit", |runner| cohabit::comparison().report(runner)),
    Experiment::new("throttle", |runner| throttle::comparison().report(runner)),
    Experiment::new("scenarios", scenarios::report),
    Experiment::new("repartition", repartition::report),
];

impl Experiment {
    /// The entry `name`, run by `run`.
    pub const fn new(name: &'static str, run: fn(&Runner) -> String) -> Self {
        Experiment { name, run }
    }

    /// The catalogue entry named `name`.
    pub fn from_name(name: &str) -> Option<Experiment> {
        CATALOGUE.iter().find(|e| e.name == name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_round_trip() {
        let mut names: Vec<&str> = CATALOGUE.iter().map(|e| e.name).collect();
        for name in &names {
            assert_eq!(Experiment::from_name(name).map(|e| e.name), Some(*name));
        }
        assert!(Experiment::from_name("fig99").is_none());
        assert!(
            Experiment::from_name("all").is_none(),
            "`all` is the CLI's, not an entry"
        );
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            CATALOGUE.len(),
            "catalogue names must be unique"
        );
    }

    #[test]
    fn static_reports_render_without_simulation() {
        assert!(table1::report().contains("L2"));
        assert!(table2::report().contains("Oracle"));
        assert!(table3::report().contains("1K-16a"));
        assert!(sec46::report().contains("889"));
    }
}
