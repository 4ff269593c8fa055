//! Workload-generator parameters.

use crate::generator::{MAX_CODE_BLOCKS, MAX_CONTEXTS, MAX_DATA_REGIONS};

/// Number of cache blocks per spatial region (32 in the paper, i.e. 2 KB
/// regions of 64 B blocks).
pub const BLOCKS_PER_REGION: u32 = 32;

/// Parameters of one synthetic workload.
///
/// Every parameter corresponds to a property of the paper's commercial
/// workloads that the Predictor Virtualization results depend on; the
/// per-workload values live in [`crate::workloads`] together with the
/// rationale for each choice.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadParams {
    /// Human-readable name (e.g. `"Oracle"`).
    pub name: String,
    /// One-line description mirroring Table 2 of the paper.
    pub description: String,
    /// Number of distinct trigger contexts (PC × trigger-offset pairs), i.e.
    /// the size of the spatial-pattern working set. This is the primary knob
    /// controlling how large a PHT the workload needs.
    pub contexts: usize,
    /// Zipf exponent of trigger-context selection (how skewed code-path
    /// popularity is).
    pub context_zipf: f64,
    /// Mean fraction of the 32 blocks of a region touched per generation.
    pub pattern_density: f64,
    /// Probability that a block that belongs to a context's canonical
    /// pattern is actually accessed in a given generation. Lower values
    /// produce over-predictions (prefetched blocks that are never used).
    pub pattern_stability: f64,
    /// Number of distinct spatial regions in the data footprint.
    pub data_regions: usize,
    /// Zipf exponent of region reuse (0 ≈ streaming scan, 1 ≈ heavily
    /// skewed reuse).
    pub region_zipf: f64,
    /// Fraction of data accesses with no spatial correlation (pointer
    /// chasing, hashed lookups); these bound the coverage any spatial
    /// prefetcher can reach.
    pub irregular_fraction: f64,
    /// Fraction of data accesses that are stores.
    pub write_fraction: f64,
    /// Mean number of demand accesses to each block touched during a
    /// generation (real code revisits fields of the structures it walks, so
    /// only a fraction of accesses miss even when the region is cold).
    pub accesses_per_block: f64,
    /// Number of spatial-region generations progressing concurrently; this
    /// controls how far apart in time the accesses of one region are spread.
    pub active_generations: usize,
    /// Mean non-memory instructions per memory access.
    pub instr_per_mem: f64,
    /// Instruction footprint in 64 B blocks (commercial workloads have large
    /// instruction footprints, which is why the baseline includes a
    /// next-line instruction prefetcher).
    pub code_blocks: usize,
    /// Probability per memory access that the instruction stream jumps to a
    /// new code block rather than falling through sequentially.
    pub branch_fraction: f64,
}

/// Errors produced when validating workload parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidWorkload {
    message: String,
}

impl std::fmt::Display for InvalidWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid workload parameters: {}", self.message)
    }
}

impl std::error::Error for InvalidWorkload {}

impl WorkloadParams {
    /// Checks that every parameter is in its meaningful range.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidWorkload`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), InvalidWorkload> {
        fn fraction(name: &str, value: f64) -> Result<(), InvalidWorkload> {
            if !(0.0..=1.0).contains(&value) || !value.is_finite() {
                return Err(InvalidWorkload {
                    message: format!("{name} must be in [0, 1], got {value}"),
                });
            }
            Ok(())
        }
        if self.name.is_empty() {
            return Err(InvalidWorkload {
                message: "name must not be empty".to_owned(),
            });
        }
        // Each upper bound keeps one of the generator's address ranges
        // below the next one in a core's address space.
        for (name, value, max, next) in [
            (
                "contexts",
                self.contexts,
                MAX_CONTEXTS,
                "context PCs reach the irregular PCs",
            ),
            (
                "data_regions",
                self.data_regions,
                MAX_DATA_REGIONS,
                "the data pool reaches the irregular heap",
            ),
            (
                "code_blocks",
                self.code_blocks,
                MAX_CODE_BLOCKS,
                "code reaches the data pool",
            ),
        ] {
            if value == 0 {
                return Err(InvalidWorkload {
                    message: format!("{name} must be positive"),
                });
            }
            if value > max {
                return Err(InvalidWorkload {
                    message: format!(
                        "{name} must be at most {max} (beyond that {next}), got {value}"
                    ),
                });
            }
        }
        if self.active_generations == 0 {
            return Err(InvalidWorkload {
                message: "active_generations must be positive".to_owned(),
            });
        }
        fraction("pattern_density", self.pattern_density)?;
        fraction("pattern_stability", self.pattern_stability)?;
        fraction("irregular_fraction", self.irregular_fraction)?;
        fraction("write_fraction", self.write_fraction)?;
        fraction("branch_fraction", self.branch_fraction)?;
        if self.pattern_density <= 0.0 {
            return Err(InvalidWorkload {
                message: "pattern_density must be positive".to_owned(),
            });
        }
        if !(0.0..=3.0).contains(&self.context_zipf) || !(0.0..=3.0).contains(&self.region_zipf) {
            return Err(InvalidWorkload {
                message: "Zipf exponents must be in [0, 3]".to_owned(),
            });
        }
        if self.instr_per_mem < 0.0 || !self.instr_per_mem.is_finite() {
            return Err(InvalidWorkload {
                message: format!(
                    "instr_per_mem must be non-negative, got {}",
                    self.instr_per_mem
                ),
            });
        }
        if self.accesses_per_block < 1.0 || !self.accesses_per_block.is_finite() {
            return Err(InvalidWorkload {
                message: format!(
                    "accesses_per_block must be at least 1, got {}",
                    self.accesses_per_block
                ),
            });
        }
        Ok(())
    }

    /// Approximate data footprint in bytes.
    pub fn data_footprint_bytes(&self) -> u64 {
        self.data_regions as u64 * u64::from(BLOCKS_PER_REGION) * 64
    }

    /// Approximate instruction footprint in bytes.
    pub fn code_footprint_bytes(&self) -> u64 {
        self.code_blocks as u64 * 64
    }
}

#[cfg(test)]
mod tests {
    use crate::workloads;

    #[test]
    fn paper_workloads_validate() {
        for (_, params) in workloads::paper_workloads() {
            params.validate().expect("paper workload must be valid");
        }
    }

    #[test]
    fn invalid_fraction_is_rejected() {
        let mut params = workloads::apache();
        params.irregular_fraction = 1.5;
        assert!(params.validate().is_err());
    }

    #[test]
    fn zero_contexts_is_rejected() {
        let mut params = workloads::apache();
        params.contexts = 0;
        let err = params.validate().unwrap_err();
        assert!(err.to_string().contains("contexts"));
    }

    /// Beyond these counts one generator address range runs into the next:
    /// context PCs into the irregular PCs at `+0x10_0000`, the data pool at
    /// `+0x0800_0000` into the irregular heap at `+0x4000_0000`, and code
    /// into the data pool.
    #[test]
    fn address_range_bounds_accept_the_maximum_and_reject_one_more() {
        type Field = fn(&mut crate::WorkloadParams) -> &mut usize;
        let fields: [(&str, Field, usize); 3] = [
            ("contexts", |p| &mut p.contexts, 262_144),
            ("data_regions", |p| &mut p.data_regions, 458_752),
            ("code_blocks", |p| &mut p.code_blocks, 2_097_152),
        ];
        for (name, field, max) in fields {
            let mut params = workloads::apache();
            assert!(
                *field(&mut params) < max,
                "paper values are far below {name}'s bound"
            );
            *field(&mut params) = max;
            params.validate().unwrap_or_else(|e| panic!("{name} = {max}: {e}"));
            *field(&mut params) = max + 1;
            let err = params.validate().expect_err(name).to_string();
            assert!(
                err.contains(name) && err.contains(&max.to_string()),
                "{err}"
            );
        }
    }

    #[test]
    fn footprint_helpers_scale_with_parameters() {
        let params = workloads::qry1();
        assert_eq!(
            params.data_footprint_bytes(),
            params.data_regions as u64 * 32 * 64
        );
        assert_eq!(
            params.code_footprint_bytes(),
            params.code_blocks as u64 * 64
        );
    }
}
