//! The comparison engine: most of the paper's evaluation runs one or more
//! prefetcher kinds against a baseline kind over a set of workloads, so an
//! experiment of that shape is plain data — a [`Comparison`] — and this
//! module does the rest once: it builds the run grid, runs it through the
//! shared [`Runner`], pairs every run with its baseline on the same
//! hierarchy variant, and renders the pairs as a markdown table.

use crate::report::{mean, pct, Table};
use crate::runner::{HierarchyVariant, RunSpec, Runner, Workload};
use pv_sim::{PrefetcherKind, RunMetrics};
use pv_workloads::WorkloadId;
use std::iter::once;
use std::sync::Arc;

/// One compared run and the baseline run it is measured against.
#[derive(Debug, Clone)]
pub struct Pair {
    /// What the compared run simulated.
    pub spec: RunSpec,
    /// The baseline kind's run on the same workload and hierarchy variant
    /// (`None` when the comparison has no baseline).
    pub baseline: Option<Arc<RunMetrics>>,
    /// The compared run.
    pub run: Arc<RunMetrics>,
}

impl Pair {
    /// The workload label (`"Qry1"`, `"mix:…"`).
    pub fn workload(&self) -> String {
        self.spec.workload.label()
    }

    /// The baseline run.
    ///
    /// # Panics
    ///
    /// Panics if the comparison has no baseline kind.
    pub fn base(&self) -> &RunMetrics {
        self.baseline.as_deref().expect("the comparison has a baseline kind")
    }

    /// Speedup of the compared run over its baseline.
    pub fn speedup(&self) -> f64 {
        self.run.speedup_over(self.base())
    }

    /// `delta` blocks as a fraction of the baseline's off-chip traffic.
    pub(crate) fn offchip_share(&self, delta: f64) -> f64 {
        delta / self.base().offchip_blocks().max(1) as f64
    }
}

/// A table column of one row per pair: header text and cell renderer.
pub type Column = (&'static str, fn(&Pair) -> String);

/// A table column of one row per workload: header text and the column's
/// value over that workload's pairs (in kind order).
pub type WorkloadColumn = (&'static str, fn(&[Pair]) -> f64);

/// How the pairs become table rows.
#[derive(Debug, Clone)]
pub enum Rows {
    /// One row per pair.
    PerRun(Vec<Column>),
    /// One row per workload (and variant), headed by the workload; each
    /// column is a percentage over that row's pairs (in kind order).
    /// `average` appends a row of column means.
    PerWorkload {
        /// Header text and value of each column.
        columns: Vec<WorkloadColumn>,
        /// Whether an `Average` row closes the table.
        average: bool,
    },
}

/// Each of `workloads` run on every core.
pub(crate) fn homogeneous(workloads: &[WorkloadId]) -> Vec<Workload> {
    workloads.iter().map(|&w| w.into()).collect()
}

/// One experiment comparing prefetcher kinds against a baseline kind.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Table title.
    pub title: String,
    /// The workloads compared, in row order.
    pub workloads: Vec<Workload>,
    /// The hierarchy variants each workload runs under, in row order.
    pub variants: Vec<HierarchyVariant>,
    /// The kind every compared run is paired with on the same workload and
    /// variant, if any.
    pub baseline: Option<PrefetcherKind>,
    /// The compared kinds, in row order.
    pub kinds: Vec<PrefetcherKind>,
    /// The table's rows and columns.
    pub rows: Rows,
    /// The note printed under the table, over the finished pairs.
    pub note: fn(&[Pair]) -> String,
}

impl Comparison {
    /// The same comparison over `workloads` instead.
    pub fn on(mut self, workloads: &[WorkloadId]) -> Self {
        self.workloads = homogeneous(workloads);
        self
    }

    /// Runs the grid (reusing cached runs) and returns one pair per
    /// (workload, variant, kind), in that nesting order.
    pub fn pairs(&self, runner: &Runner) -> Vec<Pair> {
        let group: Vec<&PrefetcherKind> = self.baseline.iter().chain(&self.kinds).collect();
        let mut specs = Vec::new();
        for &workload in &self.workloads {
            for &hierarchy in &self.variants {
                specs.extend(group.iter().map(|&kind| RunSpec {
                    workload,
                    prefetcher: kind.clone(),
                    hierarchy,
                }));
            }
        }
        runner.prefetch(&specs);
        specs
            .chunks(group.len())
            .flat_map(|specs| {
                let (baseline, compared) = match self.baseline {
                    Some(_) => (Some(runner.metrics(&specs[0])), &specs[1..]),
                    None => (None, specs),
                };
                compared.iter().map(move |spec| Pair {
                    spec: spec.clone(),
                    baseline: baseline.clone(),
                    run: runner.metrics(spec),
                })
            })
            .collect()
    }

    /// Runs the comparison and renders its report table.
    pub(crate) fn report(&self, runner: &Runner) -> String {
        let pairs = self.pairs(runner);
        let mut table = Table::new(&self.title);
        match &self.rows {
            Rows::PerRun(columns) => {
                table.header(columns.iter().map(|c| c.0));
                for pair in &pairs {
                    table.row(columns.iter().map(|c| c.1(pair)));
                }
            }
            Rows::PerWorkload { columns, average } => {
                table.header(once("Workload").chain(columns.iter().map(|c| c.0)));
                let groups = pairs.chunks(self.kinds.len());
                let values: Vec<Vec<f64>> =
                    groups.clone().map(|g| columns.iter().map(|c| c.1(g)).collect()).collect();
                for (group, row) in groups.zip(&values) {
                    table.row(once(group[0].workload()).chain(row.iter().map(|&v| pct(v))));
                }
                if *average {
                    let means =
                        (0..columns.len()).map(|i| pct(mean(values.iter().map(|row| row[i]))));
                    table.row(once("Average".to_owned()).chain(means));
                }
            }
        }
        table.note((self.note)(&pairs));
        table.render()
    }
}
