//! Region planning for cohabiting predictors.
//!
//! The paper's economic argument is that virtualization lets *many*
//! predictors amortize one physical resource: spare memory capacity plus a
//! small on-chip PVCache. A [`PvRegionPlan`] realizes the memory half of
//! that claim: it carves each core's reserved PV region into one contiguous,
//! block-aligned sub-region per virtualized table, so several predictors
//! (SMS, Markov, any future [`crate::PvEntry`] backend) can live side by
//! side in a single region without their addresses aliasing — across tables
//! on one core or across cores.

use pv_mem::{Address, PvRegionConfig};

/// A carve-up of one [`PvRegionConfig`] into per-(core, table) sub-regions.
///
/// Table `t` of core `c` occupies `table_bytes[t]` bytes starting at
/// `core_base(c) + sum(table_bytes[..t])`. The plan validates that every
/// table fits inside the per-core reservation, so no sub-region can bleed
/// into a neighbouring core's region (which would create false sharing in
/// the L2 and misclassify traffic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PvRegionPlan {
    region: PvRegionConfig,
    table_bytes: Vec<u64>,
    offsets: Vec<u64>,
}

impl PvRegionPlan {
    /// Plans `table_bytes.len()` tables of the given sizes (in bytes) inside
    /// each core's region.
    ///
    /// # Panics
    ///
    /// Panics if no tables are given, if any table is empty, or if the
    /// tables together exceed the region's `bytes_per_core` — an overflowing
    /// plan would alias the next core's tables, so it is rejected at
    /// construction instead of corrupting traffic accounting at runtime.
    pub fn new(region: PvRegionConfig, table_bytes: Vec<u64>) -> Self {
        assert!(
            !table_bytes.is_empty(),
            "a region plan needs at least one table"
        );
        let mut offsets = Vec::with_capacity(table_bytes.len());
        let mut used = 0u64;
        for (table, &bytes) in table_bytes.iter().enumerate() {
            assert!(bytes > 0, "table {table} must occupy at least one byte");
            offsets.push(used);
            used += bytes;
        }
        assert!(
            used <= region.bytes_per_core,
            "{} tables need {used} bytes per core but the PV region reserves only {} \
             (grow it with HierarchyConfig::with_pv_bytes_per_core)",
            table_bytes.len(),
            region.bytes_per_core
        );
        PvRegionPlan {
            region,
            table_bytes,
            offsets,
        }
    }

    /// Re-plans the same tables to new sizes inside the same region — the
    /// epoch-boundary move of the dynamic repartitioning loop. Validation is
    /// identical to construction (every table non-empty, total within
    /// `bytes_per_core`), plus the table count must not change: a replan
    /// moves boundaries, it never adds or removes tables.
    ///
    /// # Panics
    ///
    /// Panics if `table_bytes.len()` differs from the planned table count,
    /// if any table would be empty, or if the new sizes overflow the region
    /// (same message as [`Self::new`]).
    pub fn replan(&self, table_bytes: &[u64]) -> PvRegionPlan {
        assert_eq!(
            table_bytes.len(),
            self.table_bytes.len(),
            "a replan must keep the table count"
        );
        PvRegionPlan::new(self.region, table_bytes.to_vec())
    }

    /// The region this plan carves up.
    pub fn region(&self) -> PvRegionConfig {
        self.region
    }

    /// Number of tables per core.
    pub fn tables(&self) -> usize {
        self.table_bytes.len()
    }

    /// Bytes allocated to `table` on each core.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    pub fn table_bytes(&self, table: usize) -> u64 {
        self.table_bytes[table]
    }

    /// Bytes of each core's region the plan actually uses.
    pub fn bytes_used_per_core(&self) -> u64 {
        self.table_bytes.iter().sum()
    }

    /// Base physical address of `table`'s sub-region on `core` — the
    /// table's `PVStart`, the base its proxy computes set addresses from.
    ///
    /// # Panics
    ///
    /// Panics if `core` or `table` is out of range.
    pub fn base(&self, core: usize, table: usize) -> Address {
        assert!(
            table < self.table_bytes.len(),
            "table {table} out of range ({} tables)",
            self.table_bytes.len()
        );
        Address::new(self.region.core_base(core).raw() + self.offsets[table])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_regions_are_contiguous_and_disjoint() {
        let region = PvRegionConfig::with_bytes_per_core(4, 128 * 1024);
        let plan = PvRegionPlan::new(region, vec![64 * 1024, 64 * 1024]);
        assert_eq!(plan.tables(), 2);
        assert_eq!(plan.bytes_used_per_core(), 128 * 1024);
        for core in 0..4 {
            let sms = plan.base(core, 0).raw();
            let markov = plan.base(core, 1).raw();
            assert_eq!(markov, sms + 64 * 1024, "table 1 starts where table 0 ends");
            if core > 0 {
                // The previous core's last table ends exactly at this core's
                // first table.
                assert_eq!(plan.base(core - 1, 1).raw() + 64 * 1024, sms);
            }
            // Every sub-region byte classifies as predictor data.
            assert!(region.contains(Address::new(sms)));
            assert!(region.contains(Address::new(markov + 64 * 1024 - 1)));
        }
    }

    #[test]
    fn single_table_plan_matches_the_legacy_core_base() {
        // One table per core on the paper-default region is exactly the
        // pre-cohabitation layout: base(core, 0) == core_base(core).
        let region = PvRegionConfig::paper_default(4);
        let plan = PvRegionPlan::new(region, vec![64 * 1024]);
        for core in 0..4 {
            assert_eq!(plan.base(core, 0), region.core_base(core));
        }
    }

    #[test]
    fn replan_moves_the_boundary_inside_the_same_region() {
        let region = PvRegionConfig::with_bytes_per_core(4, 128 * 1024);
        let plan = PvRegionPlan::new(region, vec![64 * 1024, 64 * 1024]);
        let moved = plan.replan(&[96 * 1024, 32 * 1024]);
        assert_eq!(moved.region(), region);
        assert_eq!(moved.table_bytes(0), 96 * 1024);
        assert_eq!(moved.table_bytes(1), 32 * 1024);
        // Table 0 keeps its base; table 1 starts where table 0 now ends.
        for core in 0..4 {
            assert_eq!(moved.base(core, 0), plan.base(core, 0));
            assert_eq!(
                moved.base(core, 1).raw(),
                moved.base(core, 0).raw() + 96 * 1024
            );
        }
    }

    #[test]
    #[should_panic(expected = "reserves only")]
    fn replan_rejects_overflow_like_construction() {
        let region = PvRegionConfig::with_bytes_per_core(4, 128 * 1024);
        let plan = PvRegionPlan::new(region, vec![64 * 1024, 64 * 1024]);
        let _ = plan.replan(&[128 * 1024, 64 * 1024]);
    }

    #[test]
    #[should_panic(expected = "keep the table count")]
    fn replan_rejects_table_count_changes() {
        let plan = PvRegionPlan::new(PvRegionConfig::paper_default(4), vec![32 * 1024]);
        let _ = plan.replan(&[16 * 1024, 16 * 1024]);
    }

    #[test]
    #[should_panic(expected = "reserves only")]
    fn overflowing_plans_are_rejected() {
        let region = PvRegionConfig::paper_default(4); // 64 KB per core
        PvRegionPlan::new(region, vec![64 * 1024, 64 * 1024]);
    }

    #[test]
    #[should_panic(expected = "at least one table")]
    fn empty_plans_are_rejected() {
        PvRegionPlan::new(PvRegionConfig::paper_default(4), vec![]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_table_panics() {
        let plan = PvRegionPlan::new(PvRegionConfig::paper_default(4), vec![1024]);
        plan.base(0, 1);
    }
}
