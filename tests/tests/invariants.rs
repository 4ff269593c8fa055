//! Property-based tests of cross-crate invariants: the generic Figure 3a
//! layout (randomized entry widths), PHT index arithmetic, address
//! round-trips, and coverage accounting.
//!
//! The properties are exercised with a seeded deterministic RNG: hundreds of
//! random cases per property, fully reproducible.

use pv_core::{PvConfig, PvLayout};
use pv_mem::Address;
use pv_sms::{PhtIndex, SmsEntry, SpatialPattern, TriggerKey, VirtualizedPht};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x0001_AB4D_5EED)
}

/// A random layout that fits 64-byte blocks: 4..=20 tag bits, 4..=44
/// payload bits.
fn random_layout(rng: &mut StdRng) -> PvLayout {
    let tag_bits = rng.gen_range(4u32..=20);
    let payload_bits = rng.gen_range(4u32..=44);
    PvLayout::new(tag_bits, payload_bits, 64)
}

/// A full set of packed entries fits one block, whatever the entry
/// widths: the entries and the unused Figure 3a trailer add up to the
/// block exactly, and the trailer is too short for one more entry.
#[test]
fn packed_sets_always_fit_one_block() {
    let mut rng = rng();
    for _ in 0..300 {
        let layout = random_layout(&mut rng);
        let entry_bits = u64::from(layout.entry_bits());
        assert_eq!(
            entry_bits,
            u64::from(layout.tag_bits + layout.payload_bits),
            "{layout:?}"
        );
        let used_bits = layout.entries_per_block() as u64 * entry_bits;
        assert_eq!(
            used_bits + layout.unused_trailing_bits(),
            layout.block_bytes * 8,
            "{layout:?}"
        );
        assert!(layout.unused_trailing_bits() < entry_bits, "{layout:?}");
    }
}

/// Regression pin: the paper's SMS instance of the generic machinery is
/// exactly the Figure 3a layout — 11 entries of 43 bits — and the Section
/// 4.6 PV-8 budget is exactly 889 bytes.
#[test]
fn paper_sms_instance_is_pinned() {
    let layout = PvLayout::of::<SmsEntry>(64);
    assert_eq!(layout.entry_bits(), 43);
    assert_eq!(layout.entries_per_block(), 11);
    assert_eq!(layout.unused_trailing_bits(), 39);
    assert_eq!(
        VirtualizedPht::storage_budget(&PvConfig::pv8()).total_bytes(),
        889
    );
}

/// PHT set index and tag always reconstruct the 21-bit index, for every
/// power-of-two table size the sweeps use.
#[test]
fn pht_index_set_tag_reconstruction() {
    let mut rng = rng();
    for _ in 0..300 {
        let pc: u64 = rng.gen();
        let offset = rng.gen_range(0u32..32);
        let sets_log2 = rng.gen_range(3u32..=10);
        let sets = 1usize << sets_log2;
        let index = TriggerKey::new(pc, offset).index();
        let rebuilt = (index.tag(sets) << sets_log2) | index.set_index(sets) as u32;
        assert_eq!(rebuilt, index.raw());
        assert!(index.set_index(sets) < sets);
        assert_eq!(PhtIndex::from_raw(index.raw()), index);
    }
}

/// Byte address <-> block <-> region arithmetic is consistent for the
/// 32-block regions SMS uses.
#[test]
fn address_block_region_round_trip() {
    let mut rng = rng();
    for _ in 0..300 {
        let raw: u64 = rng.gen();
        let addr = Address::new(raw & 0x0000_FFFF_FFFF_FFFF);
        let block = addr.block();
        assert_eq!(block.base_address().block(), block);
        assert!(addr.block_offset() < 64);
        let region = block.region(32);
        let offset = block.region_offset(32);
        assert_eq!(region.block_at(offset, 32), block);
        assert!(offset < 32);
    }
}

/// Spatial patterns: building from offsets and reading offsets back are
/// inverse operations, and `without` removes exactly one offset.
#[test]
fn spatial_pattern_offsets_round_trip() {
    let mut rng = rng();
    for _ in 0..300 {
        let mut offsets = std::collections::BTreeSet::new();
        for _ in 0..rng.gen_range(0usize..=32) {
            offsets.insert(rng.gen_range(0u32..32));
        }
        let pattern = SpatialPattern::from_offsets(offsets.iter().copied());
        let back: std::collections::BTreeSet<u32> = pattern.offsets().collect();
        assert_eq!(back, offsets);
        assert_eq!(pattern.count() as usize, offsets.len());
        if let Some(&first) = offsets.iter().next() {
            let without = pattern.without(first);
            assert!(!without.contains(first));
            assert_eq!(without.count() + 1, pattern.count());
        }
    }
}

/// Coverage accounting never produces fractions outside [0, 1] and the
/// baseline decomposition always adds up.
#[test]
fn coverage_metrics_are_well_formed() {
    let mut rng = rng();
    for _ in 0..300 {
        let covered = rng.gen_range(0u64..1_000_000);
        let uncovered = rng.gen_range(0u64..1_000_000);
        let over = rng.gen_range(0u64..1_000_000);
        let coverage = pv_sim::CoverageMetrics {
            covered,
            uncovered,
            overpredictions: over,
        };
        assert_eq!(coverage.baseline_misses(), covered + uncovered);
        assert!(coverage.coverage() >= 0.0 && coverage.coverage() <= 1.0);
        assert!(coverage.overprediction_ratio() >= 0.0);
    }
}

#[test]
fn pv_regions_never_overlap_workload_address_spaces() {
    // Deterministic cross-crate invariant: the reserved PVTable regions of
    // all cores are disjoint from every address the workload generators can
    // emit (checked statistically in pv-workloads; here we check the layout
    // boundaries directly).
    let hierarchy = pv_mem::HierarchyConfig::paper_baseline(4);
    for core in 0..4 {
        let base = hierarchy.pv_regions.core_base(core).raw();
        let end = base + hierarchy.pv_regions.bytes_per_core;
        assert!(base >= 3 * 1024 * 1024 * 1024 - hierarchy.pv_regions.total_bytes());
        assert!(end <= 3 * 1024 * 1024 * 1024);
    }
}

#[test]
fn proxy_storage_budget_is_monotonic_in_every_resource() {
    let base = VirtualizedPht::storage_budget(&PvConfig::pv8()).total_bytes();
    let mut bigger_cache = PvConfig::pv8();
    bigger_cache.pvcache_sets *= 2;
    let mut bigger_mshr = PvConfig::pv8();
    bigger_mshr.mshr_entries *= 2;
    let mut bigger_evict = PvConfig::pv8();
    bigger_evict.evict_buffer_entries *= 2;
    for config in [bigger_cache, bigger_mshr, bigger_evict] {
        assert!(VirtualizedPht::storage_budget(&config).total_bytes() > base);
    }
}
