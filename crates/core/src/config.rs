//! Configuration of the virtualization substrate.

/// Configuration of one virtualized predictor table (PVTable geometry plus
/// PVProxy resources).
///
/// The configuration is *predictor-agnostic*: entry bit-widths — and with
/// them the per-block associativity of the table — are not part of it. They
/// come from the predictor's [`crate::PvEntry`] implementation, from which
/// the packed layout is derived (see [`crate::PvLayout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PvConfig {
    /// Number of sets of the virtualized predictor table (1K in the paper).
    pub table_sets: usize,
    /// Memory-block size each PVTable set is packed into (64 bytes, the L1
    /// block size).
    pub block_bytes: u64,
    /// Number of PVTable sets the PVCache holds (8 in the final design; 16
    /// and 32 are evaluated in Figures 6 and 7).
    pub pvcache_sets: usize,
    /// PVProxy MSHR entries.
    pub mshr_entries: usize,
    /// Evict-buffer entries (dirty sets waiting to be written to the L2).
    pub evict_buffer_entries: usize,
    /// Pattern-buffer entries (engine requests waiting for their set to
    /// arrive).
    pub pattern_buffer_entries: usize,
    /// Lookup latency of the PVCache itself in cycles (it is tiny, so the
    /// paper argues it is faster than a large dedicated table).
    pub pvcache_latency: u64,
}

impl PvConfig {
    /// The paper's final design: an 8-set PVCache in front of a 1K-set
    /// PVTable.
    pub fn pv8() -> Self {
        PvConfig {
            table_sets: 1024,
            block_bytes: 64,
            pvcache_sets: 8,
            mshr_entries: 4,
            evict_buffer_entries: 4,
            pattern_buffer_entries: 16,
            pvcache_latency: 1,
        }
    }

    /// The 16-set PVCache variant (PV-16 in Figures 6 and 7).
    pub fn pv16() -> Self {
        PvConfig {
            pvcache_sets: 16,
            ..Self::pv8()
        }
    }

    /// The 32-set PVCache variant discussed in Section 4.3.
    pub fn pv32() -> Self {
        PvConfig {
            pvcache_sets: 32,
            ..Self::pv8()
        }
    }

    /// A variant with a different number of PVCache sets.
    pub fn with_pvcache_sets(mut self, sets: usize) -> Self {
        self.pvcache_sets = sets;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero sizes or sets not a
    /// power of two). Entry-width validity is checked when a layout is
    /// derived (see [`crate::PvLayout::new`]).
    pub fn assert_valid(&self) {
        assert!(
            self.table_sets > 0 && self.table_sets.is_power_of_two(),
            "table_sets must be a power of two"
        );
        assert!(self.block_bytes > 0, "block_bytes must be positive");
        assert!(self.pvcache_sets > 0, "pvcache_sets must be positive");
        assert!(self.mshr_entries > 0, "mshr_entries must be positive");
        assert!(
            self.evict_buffer_entries > 0,
            "evict_buffer_entries must be positive"
        );
        assert!(
            self.pattern_buffer_entries > 0,
            "pattern_buffer_entries must be positive"
        );
    }

    /// Bytes of main memory reserved per core for the PVTable
    /// (sets × block size; 64 KB for the paper configuration).
    pub fn table_bytes(&self) -> u64 {
        self.table_sets as u64 * self.block_bytes
    }

    /// Number of tag bits identifying a PVTable set held in the PVCache
    /// (log2 of the number of table sets).
    pub fn pvcache_tag_bits(&self) -> u32 {
        self.table_sets.trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations_are_valid() {
        PvConfig::pv8().assert_valid();
        PvConfig::pv16().assert_valid();
        PvConfig::pv32().assert_valid();
    }

    #[test]
    fn pv8_matches_paper_geometry() {
        let config = PvConfig::pv8();
        assert_eq!(config.table_sets, 1024);
        assert_eq!(config.block_bytes, 64);
        assert_eq!(config.table_bytes(), 64 * 1024);
        assert_eq!(config.pvcache_tag_bits(), 10);
    }

    #[test]
    fn builder_variants_apply() {
        assert_eq!(PvConfig::pv8().with_pvcache_sets(32).pvcache_sets, 32);
        assert_eq!(PvConfig::pv16().pvcache_sets, 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panic() {
        let mut config = PvConfig::pv8();
        config.table_sets = 1000;
        config.assert_valid();
    }
}
