//! Non-stationary scenarios: access streams whose statistics change mid-run.
//!
//! Every workload the simulator previously saw was stationary — one
//! generator, one parameter set, forever. Real commercial systems are not:
//! the query mix flips, a flash crowd arrives, load breathes diurnally, and
//! a co-scheduled job can thrash the shared cache. Each [`Scenario`]
//! composes the existing synthetic generators over [`WorkloadParams`] into
//! such a stream, built from phases of `(params, records)` cycled forever
//! by [`ScheduleStream`].
//!
//! Scenarios are *values* (small `Copy` enums over workload identifiers and
//! integer knobs) so the experiment runner can hash them into its
//! memoisation key, and every stream they build is deterministic in
//! `(scenario, core, seed)` — the digest-pinning discipline extends to
//! non-stationary runs unchanged.

use pv_workloads::{AccessStream, TraceGenerator, TraceRecord, WorkloadId, WorkloadParams};

/// A non-stationary workload composition.
///
/// All record counts are per core: each core runs its own copy of the
/// scenario schedule (with a core-specific generator seed), mirroring how
/// homogeneous stationary runs work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Alternate between two workloads every `period` records — the
    /// paper-style phase change (e.g. Qry1 → Apache at record N).
    PhaseFlip {
        /// Workload of the even phases (phase 0, 2, ...).
        a: WorkloadId,
        /// Workload of the odd phases.
        b: WorkloadId,
        /// Records per phase.
        period: u64,
    },
    /// A flash crowd: `calm` records of the base workload, then `spike`
    /// records of an intensified variant (more memory pressure, larger
    /// instantaneous footprint), repeating.
    FlashCrowd {
        /// The base workload.
        workload: WorkloadId,
        /// Records of calm traffic per cycle.
        calm: u64,
        /// Records of spike traffic per cycle.
        spike: u64,
        /// Spike intensity in percent (e.g. `150` makes the spike phases
        /// half again as memory-intense as the calm ones; must be > 0).
        intensity_pct: u32,
    },
    /// Diurnal load: miss intensity sweeps through a triangle wave across
    /// `steps` equal segments of `period` records, rising to
    /// `amplitude_pct` percent above the base at the peak and falling the
    /// same amount below it at the trough.
    Diurnal {
        /// The base workload.
        workload: WorkloadId,
        /// Records per full wave.
        period: u64,
        /// Segments the wave is quantised into (≥ 2).
        steps: u32,
        /// Peak deviation from base intensity, in percent (< 100).
        amplitude_pct: u32,
    },
    /// All cores but the last run `workload`; the last core runs a
    /// streaming thrasher ([`antagonist_params`]) that pollutes the shared
    /// L2 — and, when a PV region is configured, competes for it.
    Antagonist {
        /// Workload of the well-behaved cores.
        workload: WorkloadId,
    },
}

impl Scenario {
    /// Short machine-friendly name used in run labels and reports.
    pub fn name(&self) -> String {
        match self {
            Scenario::PhaseFlip { a, b, period } => {
                format!("flip:{a}>{b}@{period}")
            }
            Scenario::FlashCrowd {
                workload,
                calm,
                spike,
                intensity_pct,
            } => format!("flash:{workload}:{calm}+{spike}@{intensity_pct}%"),
            Scenario::Diurnal {
                workload,
                period,
                steps,
                amplitude_pct,
            } => format!("diurnal:{workload}@{period}/{steps}±{amplitude_pct}%"),
            Scenario::Antagonist { workload } => format!("antagonist:{workload}"),
        }
    }

    /// The phase schedule one core cycles through (empty only for
    /// [`Scenario::Antagonist`], which is stationary per core).
    fn phases(&self) -> Vec<(WorkloadParams, u64)> {
        match *self {
            Scenario::PhaseFlip { a, b, period } => {
                vec![(a.params(), period), (b.params(), period)]
            }
            Scenario::FlashCrowd {
                workload,
                calm,
                spike,
                intensity_pct,
            } => {
                let base = workload.params();
                let spiked = intensify(&base, i64::from(intensity_pct) - 100);
                vec![(base, calm), (spiked, spike)]
            }
            Scenario::Diurnal {
                workload,
                period,
                steps,
                amplitude_pct,
            } => {
                let base = workload.params();
                let steps = steps.max(2);
                let segment = (period / u64::from(steps)).max(1);
                (0..steps)
                    .map(|step| {
                        let wave = triangle_pct(step, steps);
                        let pct = wave * i64::from(amplitude_pct) / 100;
                        (intensify(&base, pct), segment)
                    })
                    .collect()
            }
            Scenario::Antagonist { .. } => Vec::new(),
        }
    }

    /// Builds the stream core `core` of `cores` runs under this scenario.
    ///
    /// Deterministic in `(self, core, cores, seed)` and independent of the
    /// other cores' streams, so multi-core interleaving cannot perturb it.
    pub fn stream_for_core(&self, core: usize, cores: usize, seed: u64) -> Box<dyn AccessStream> {
        match *self {
            Scenario::Antagonist { workload } => {
                let params = if core + 1 == cores {
                    antagonist_params()
                } else {
                    workload.params()
                };
                Box::new(TraceGenerator::new(&params, seed, core))
            }
            _ => Box::new(ScheduleStream::new(self.phases(), self.name(), seed, core)),
        }
    }

    /// Builds one stream per core.
    pub fn build_streams(&self, cores: usize, seed: u64) -> Vec<Box<dyn AccessStream>> {
        (0..cores).map(|core| self.stream_for_core(core, cores, seed)).collect()
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// An infinite stream cycling through a fixed schedule of
/// `(params, records)` phases, rebuilding the generator at each phase
/// boundary with a seed derived from `(base seed, core, phase instance)`.
///
/// Rebuilding (rather than mutating a live generator) makes each phase
/// exactly the stream a stationary run of those parameters would produce —
/// the predictor sees a genuine phase change, not a gradual drift — and
/// keeps the whole composition trivially deterministic.
#[derive(Debug)]
pub struct ScheduleStream {
    phases: Vec<(WorkloadParams, u64)>,
    label: String,
    seed: u64,
    core: usize,
    phase: usize,
    instance: u64,
    remaining: u64,
    current: TraceGenerator,
}

impl ScheduleStream {
    /// Builds a stream cycling through `phases` forever.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase length is zero.
    pub fn new(phases: Vec<(WorkloadParams, u64)>, label: String, seed: u64, core: usize) -> Self {
        assert!(!phases.is_empty(), "a schedule needs at least one phase");
        assert!(
            phases.iter().all(|&(_, records)| records > 0),
            "phase lengths must be positive"
        );
        let current = TraceGenerator::new(&phases[0].0, phase_seed(seed, core, 0), core);
        let remaining = phases[0].1;
        ScheduleStream {
            phases,
            label,
            seed,
            core,
            phase: 0,
            instance: 0,
            remaining,
            current,
        }
    }

    /// Index into the schedule of the phase currently playing.
    pub fn phase(&self) -> usize {
        self.phase
    }

    fn advance_phase(&mut self) {
        self.phase = (self.phase + 1) % self.phases.len();
        self.instance += 1;
        let (params, records) = &self.phases[self.phase];
        self.current = TraceGenerator::new(
            params,
            phase_seed(self.seed, self.core, self.instance),
            self.core,
        );
        self.remaining = *records;
    }
}

impl AccessStream for ScheduleStream {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            self.advance_phase();
        }
        self.remaining -= 1;
        self.current.next()
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// Derives the generator seed of one phase instance (splitmix64 over the
/// base seed, core, and instance index) so consecutive phases of the same
/// workload do not replay identical streams.
fn phase_seed(seed: u64, core: usize, instance: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + core as u64))
        .wrapping_add(0x2545_F491_4F6C_DD1Du64.wrapping_mul(1 + instance));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Symmetric triangle wave over `steps` segments in percent of full scale:
/// starts at `-100`, peaks at `+100` mid-cycle, returns to `-100`.
fn triangle_pct(step: u32, steps: u32) -> i64 {
    let half = i64::from(steps) / 2;
    let position = i64::from(step);
    let distance = if position <= half {
        position
    } else {
        i64::from(steps) - position
    };
    // Map distance 0..=half onto -100..=100.
    if half == 0 {
        0
    } else {
        distance * 200 / half - 100
    }
}

/// Scales a workload's memory intensity by `pct` percent (positive = more
/// intense). Intensity here means pressure on the memory system: fewer
/// non-memory instructions between accesses and a larger instantaneous
/// footprint (less reuse), which raises the L2 miss rate — the knob the
/// diurnal and flash-crowd scenarios modulate.
///
/// # Panics
///
/// Panics if the scaled parameters fail [`WorkloadParams::validate`]: a
/// data footprint scaled past its bound would run into the irregular heap
/// (Oracle's 180 K regions allow at most +154%).
pub fn intensify(base: &WorkloadParams, pct: i64) -> WorkloadParams {
    let pct = pct.clamp(-90, 400);
    let scale = |value: usize| -> usize {
        let scaled = value as i64 + value as i64 * pct / 100;
        scaled.max(1) as usize
    };
    let mut params = base.clone();
    params.name = format!("{}{:+}%", base.name, pct);
    // More intensity = fewer covering instructions per access...
    params.instr_per_mem = base.instr_per_mem * 100.0 / (100.0 + pct as f64);
    // ...and a larger working set (less reuse, more capacity misses).
    params.data_regions = scale(base.data_regions);
    params.active_generations = scale(base.active_generations);
    params.validate().expect("intensifying a valid workload preserves validity");
    params
}

/// The cache thrasher the [`Scenario::Antagonist`] scenario schedules on
/// the last core: a streaming scan over a footprint far larger than the
/// shared L2, dense but unstable spatial patterns (so its prefetcher is
/// both busy and wasteful), heavy store traffic, and almost no reuse.
pub fn antagonist_params() -> WorkloadParams {
    WorkloadParams {
        name: "Antagonist".to_owned(),
        description: "streaming thrasher: scans a 25 MB footprint with no reuse, \
                      unstable dense patterns, heavy stores"
            .to_owned(),
        contexts: 4_000,
        context_zipf: 0.1,
        pattern_density: 1.0,
        pattern_stability: 0.5,
        data_regions: 400_000,
        region_zipf: 0.0,
        irregular_fraction: 0.2,
        write_fraction: 0.3,
        accesses_per_block: 1.0,
        active_generations: 48,
        instr_per_mem: 1.0,
        code_blocks: 256,
        branch_fraction: 0.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Provenance;
    use crate::recorder::record_stream;
    use crate::replay::ReplayStream;
    use pv_workloads::workloads;

    fn collect(stream: &mut dyn AccessStream, n: usize) -> Vec<TraceRecord> {
        (0..n).map(|_| stream.next_record().unwrap()).collect()
    }

    #[test]
    fn phase_flip_switches_workloads_at_the_period() {
        let scenario = Scenario::PhaseFlip {
            a: WorkloadId::Qry1,
            b: WorkloadId::Apache,
            period: 100,
        };
        let mut stream = ScheduleStream::new(scenario.phases(), scenario.name(), 7, 0);
        // Phase 0 records equal a fresh Qry1 generator with the derived seed.
        let phase0 = collect(&mut stream, 100);
        let expected: Vec<_> = TraceGenerator::new(&workloads::qry1(), phase_seed(7, 0, 0), 0)
            .take(100)
            .collect();
        assert_eq!(phase0, expected);
        assert_eq!(stream.phase(), 0, "boundary not crossed yet");
        // The 101st record comes from a fresh Apache generator.
        let first_b = stream.next_record().unwrap();
        assert_eq!(stream.phase(), 1);
        let expected_b = TraceGenerator::new(&workloads::apache(), phase_seed(7, 0, 1), 0)
            .next()
            .unwrap();
        assert_eq!(first_b, expected_b);
    }

    #[test]
    fn repeated_phases_use_distinct_seeds() {
        let scenario = Scenario::PhaseFlip {
            a: WorkloadId::Qry1,
            b: WorkloadId::Apache,
            period: 50,
        };
        let mut stream = scenario.stream_for_core(0, 4, 7);
        let cycle0: Vec<_> = collect(stream.as_mut(), 50);
        let _skip_b: Vec<_> = collect(stream.as_mut(), 50);
        let cycle1: Vec<_> = collect(stream.as_mut(), 50);
        assert_ne!(
            cycle0, cycle1,
            "the second Qry1 phase must not replay the first"
        );
    }

    #[test]
    fn scenario_streams_are_deterministic_per_core() {
        for scenario in [
            Scenario::PhaseFlip {
                a: WorkloadId::Db2,
                b: WorkloadId::Zeus,
                period: 64,
            },
            Scenario::FlashCrowd {
                workload: WorkloadId::Oracle,
                calm: 96,
                spike: 32,
                intensity_pct: 200,
            },
            Scenario::Diurnal {
                workload: WorkloadId::Qry17,
                period: 128,
                steps: 4,
                amplitude_pct: 50,
            },
            Scenario::Antagonist {
                workload: WorkloadId::Qry2,
            },
        ] {
            for core in [0, 3] {
                let mut first = scenario.stream_for_core(core, 4, 42);
                let mut second = scenario.stream_for_core(core, 4, 42);
                let a = collect(first.as_mut(), 300);
                let b = collect(second.as_mut(), 300);
                assert_eq!(a, b, "{scenario} core {core} must be deterministic");
            }
        }
    }

    #[test]
    fn antagonist_runs_on_the_last_core_only() {
        let scenario = Scenario::Antagonist {
            workload: WorkloadId::Qry1,
        };
        let streams = scenario.build_streams(4, 7);
        assert_eq!(streams.len(), 4);
        assert_eq!(streams[0].label(), "Qry1");
        assert_eq!(streams[2].label(), "Qry1");
        assert_eq!(streams[3].label(), "Antagonist");
        antagonist_params().validate().expect("antagonist parameters must be valid");
    }

    #[test]
    fn intensify_scales_pressure_both_ways() {
        let base = workloads::qry1();
        let hot = intensify(&base, 100);
        assert!(hot.instr_per_mem < base.instr_per_mem);
        assert_eq!(hot.data_regions, base.data_regions * 2);
        let cold = intensify(&base, -50);
        assert!(cold.instr_per_mem > base.instr_per_mem);
        assert!(cold.data_regions < base.data_regions);
        assert!(cold.data_regions >= 1);
    }

    #[test]
    fn triangle_wave_is_symmetric_and_bounded() {
        let steps = 8;
        let values: Vec<_> = (0..steps).map(|s| triangle_pct(s, steps)).collect();
        assert_eq!(values[0], -100);
        assert_eq!(values[4], 100);
        assert!(values.iter().all(|v| (-100..=100).contains(v)));
        assert_eq!(values[3], values[5], "wave must be symmetric");
    }

    #[test]
    fn diurnal_schedule_covers_the_period() {
        let scenario = Scenario::Diurnal {
            workload: WorkloadId::Apache,
            period: 1000,
            steps: 5,
            amplitude_pct: 40,
        };
        let phases = scenario.phases();
        assert_eq!(phases.len(), 5);
        let total: u64 = phases.iter().map(|&(_, records)| records).sum();
        assert_eq!(total, 1000);
        for (params, _) in &phases {
            params.validate().expect("modulated params stay valid");
        }
    }

    #[test]
    fn scenario_runs_are_recordable_and_replayable() {
        let scenario = Scenario::FlashCrowd {
            workload: WorkloadId::Zeus,
            calm: 64,
            spike: 64,
            intensity_pct: 250,
        };
        let mut stream = scenario.stream_for_core(1, 4, 9);
        let bytes =
            record_stream(&mut stream, 400, Provenance { core: 1, seed: 9 }).expect("records fit");
        let replay = ReplayStream::new(bytes).expect("valid trace");
        assert_eq!(replay.records(), 400);
        let mut live = scenario.stream_for_core(1, 4, 9);
        let direct = collect(live.as_mut(), 400);
        let replayed: Vec<_> = replay.collect();
        assert_eq!(replayed, direct);
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let flip = Scenario::PhaseFlip {
            a: WorkloadId::Qry1,
            b: WorkloadId::Apache,
            period: 6000,
        };
        assert_eq!(flip.name(), "flip:Qry1>Apache@6000");
        let names: Vec<String> = [
            flip,
            Scenario::FlashCrowd {
                workload: WorkloadId::Qry1,
                calm: 1,
                spike: 1,
                intensity_pct: 150,
            },
            Scenario::Diurnal {
                workload: WorkloadId::Qry1,
                period: 8,
                steps: 4,
                amplitude_pct: 50,
            },
            Scenario::Antagonist {
                workload: WorkloadId::Qry1,
            },
        ]
        .iter()
        .map(Scenario::name)
        .collect();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
