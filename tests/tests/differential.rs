//! Differential tests: the allocation-free hot-path structures against the
//! reference implementations in `pv_tests`.
//!
//! The flat [`SetAssociative`] (packed replacement state, no boxed policies,
//! no per-insert valid-mask) replaced an allocation-heavy original in the
//! per-access simulation path. That original is kept as a test oracle,
//! [`ReferenceSetAssociative`]; here both generations are driven with
//! identical seeded random op streams and must agree on every observable:
//! hits, misses, evicted victims and occupancy. The DRAM in-flight ring is
//! checked the same way against [`ReferenceInflightQueue`], and the flat
//! [`MshrFile`] against an ordered-map model written here.

use pv_mem::{ReplacementState, SetAssociative};
use pv_tests::{ReferenceInflightQueue, ReferenceSetAssociative};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drives both arrays with the same op stream (get / insert / invalidate
/// over a small tag universe so hits, conflicts and invalidations all
/// occur), asserting identical results after every op. Inserts of an
/// absent tag go through the flat array's `fill`, so its victim choice is
/// checked against the reference's `insert` too.
fn drive_differential(ways: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sets = 1usize << rng.gen_range(0u32..=5);
    let mut flat: SetAssociative<u64> = SetAssociative::new(sets, ways);
    let mut reference: ReferenceSetAssociative<u64> = ReferenceSetAssociative::new(sets, ways);
    let mut fills = 0u32;
    for op in 0..4_000u64 {
        let set = rng.gen_range(0usize..sets);
        // ~2x capacity worth of tags: plenty of hits and plenty of misses.
        let tag = rng.gen_range(0u64..(2 * ways as u64).max(2));
        match rng.gen_range(0u32..10) {
            0..=3 => {
                assert_eq!(
                    flat.get(set, tag),
                    reference.get(set, tag),
                    "get mismatch at op {op} ({sets}x{ways})"
                );
            }
            4..=7 => {
                let value = op;
                // An absent tag takes the miss path's `fill`, which must pick
                // the same victim as the reference's searching `insert`.
                let a = if flat.contains(set, tag) {
                    flat.insert(set, tag, value)
                } else {
                    fills += 1;
                    flat.fill(set, tag, value)
                };
                let b = reference.insert(set, tag, value);
                assert_eq!(a, b, "insert eviction mismatch at op {op} ({sets}x{ways})");
            }
            _ => {
                assert_eq!(
                    flat.invalidate(set, tag),
                    reference.invalidate(set, tag),
                    "invalidate mismatch at op {op} ({sets}x{ways})"
                );
            }
        }
        assert_eq!(flat.len(), reference.len(), "occupancy diverged at op {op}");
    }
    // Final contents must agree exactly, set by set.
    let mut flat_entries: Vec<(usize, u64, u64)> =
        flat.iter().map(|(s, occ)| (s, occ.tag, occ.value)).collect();
    let mut ref_entries: Vec<(usize, u64, u64)> =
        reference.iter().map(|(s, occ)| (s, occ.tag, occ.value)).collect();
    flat_entries.sort_unstable();
    ref_entries.sort_unstable();
    assert_eq!(flat_entries, ref_entries);
    assert!(
        fills > 0,
        "the stream must install absent tags through `fill`"
    );
}

/// Every way count the packed recency word supports, 1 through 16 (the
/// full word), for every seed.
#[test]
fn flat_set_associative_matches_reference_lru() {
    for seed in 0..24 {
        for ways in 1..=ReplacementState::MAX_WAYS {
            drive_differential(ways, 0xD1FF_0000 + (seed << 8) + ways as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// DRAM in-flight queue: the fixed-capacity ring against the retained
// reference deque, replicated over the full channel timing model.
// ---------------------------------------------------------------------------

use pv_mem::{Address, ContentionModel, DramConfig, MainMemory, PvRegionConfig, BLOCK_OFFSET_BITS};

/// The pre-ring Queued channel service, reimplemented verbatim around
/// [`ReferenceInflightQueue`]: growable deque, `len - depth` admission
/// indexing, drain-on-entry. Every timing decision the production
/// [`MainMemory`] makes through its [`pv_mem::InflightRing`] must match
/// this model request for request.
struct ReferenceDram {
    config: DramConfig,
    channels: Vec<(Vec<u64>, u64, ReferenceInflightQueue)>,
}

impl ReferenceDram {
    fn new(config: DramConfig) -> Self {
        let channels = (0..config.channels)
            .map(|_| {
                (
                    vec![0u64; config.banks_per_channel],
                    0u64,
                    ReferenceInflightQueue::new(),
                )
            })
            .collect();
        ReferenceDram { config, channels }
    }

    /// `(latency, queue_delay)` of one request, original semantics.
    fn service(&mut self, addr: Address, now: u64) -> (u64, u64) {
        let block = addr.raw() >> BLOCK_OFFSET_BITS;
        let channel_idx = (block % self.config.channels as u64) as usize;
        let bank_idx =
            ((block / self.config.channels as u64) % self.config.banks_per_channel as u64) as usize;
        let (banks, data_busy_until, inflight) = &mut self.channels[channel_idx];
        inflight.drain(now);
        let start = inflight.admit(now, self.config.queue_depth);
        let bank_start = start.max(banks[bank_idx]);
        banks[bank_idx] = bank_start + self.config.bank_occupancy;
        let unloaded_done = bank_start + self.config.latency;
        let done = unloaded_done.max(*data_busy_until + self.config.cycles_per_transfer);
        *data_busy_until = done;
        inflight.push(done);
        let latency = done - now;
        (latency, latency - self.config.latency)
    }

    fn reset_timing(&mut self) {
        for (banks, data_busy_until, inflight) in &mut self.channels {
            banks.iter_mut().for_each(|bank| *bank = 0);
            *data_busy_until = 0;
            inflight.clear();
        }
    }
}

/// Seeded request streams (mixed reads/writes, PV and application
/// addresses, non-monotone per-requester timestamps, a mid-stream timing
/// rebase) driven through the production Queued [`MainMemory`] and the
/// reference model: latency and queue delay must agree on every request,
/// across geometries that keep the queues empty, saturated, and
/// oscillating — including an ideal bus and a single one-deep queue.
#[test]
fn queued_dram_service_matches_the_reference_inflight_queue() {
    let geometries = [
        DramConfig::paper(),
        DramConfig::paper().with_cycles_per_transfer(0),
        DramConfig::paper().with_cycles_per_transfer(128),
        {
            let mut c = DramConfig::paper();
            c.channels = 1;
            c.banks_per_channel = 1;
            c.queue_depth = 1;
            c
        },
        {
            let mut c = DramConfig::paper();
            c.channels = 3;
            c.banks_per_channel = 2;
            c.queue_depth = 2;
            c.cycles_per_transfer = 64;
            c
        },
    ];
    for seed in 0..4u64 {
        for config in &geometries {
            let regions = PvRegionConfig::paper_default(4);
            let mut mem = MainMemory::new(*config, ContentionModel::Queued);
            let mut reference = ReferenceDram::new(*config);
            let mut rng = StdRng::seed_from_u64(0xD3A1_0000 ^ (seed << 8));
            let mut now = 0u64;
            for op in 0..4_000u32 {
                // Timestamps advance unevenly and occasionally jump back
                // (independent requester clocks are not globally ordered).
                now = (now + rng.gen_range(0u64..48)).saturating_sub(rng.gen_range(0u64..16));
                let addr = if rng.gen_range(0u32..4) == 0 {
                    Address::new(regions.core_base(0).raw() + rng.gen_range(0u64..256 * 1024))
                } else {
                    Address::new(rng.gen_range(0u64..1 << 30))
                };
                let predictor = regions.contains(addr);
                let response = if rng.gen_bool(0.8) {
                    mem.read(addr, predictor, now)
                } else {
                    mem.write(addr, predictor, now)
                };
                let (latency, queue_delay) = reference.service(addr, now);
                assert_eq!(
                    (response.latency, response.queue_delay),
                    (latency, queue_delay),
                    "op {op} diverged (seed {seed}, config {config:?})"
                );
                // A measurement-window rebase mid-stream: both models must
                // clear their queues identically.
                if op == 2_500 {
                    mem.reset_timing();
                    reference.reset_timing();
                    now = 0;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// MSHR file: the flat linear-search file against an ordered-map model.
// ---------------------------------------------------------------------------

use pv_mem::{BlockAddr, MshrEntry, MshrFile, MshrOutcome};
use std::collections::BTreeMap;

/// An obviously-correct MSHR file: live fills keyed by block in a
/// `BTreeMap`, every query a direct scan with no cached state.
struct ModelMshr {
    capacity: usize,
    entries: BTreeMap<u64, MshrEntry>,
    peak_occupancy: usize,
    merges: u64,
    full_stalls: u64,
}

impl ModelMshr {
    fn new(capacity: usize) -> Self {
        ModelMshr {
            capacity,
            entries: BTreeMap::new(),
            peak_occupancy: 0,
            merges: 0,
            full_stalls: 0,
        }
    }

    fn retire(&mut self, now: u64) {
        self.entries.retain(|_, entry| entry.ready_at > now);
    }

    fn earliest_ready(&self) -> Option<u64> {
        self.entries.values().map(|entry| entry.ready_at).min()
    }

    fn wait_for_slot(&mut self, now: u64) -> u64 {
        if self.entries.len() < self.capacity {
            return 0;
        }
        let start = now.max(self.earliest_ready().expect("a full file is not empty"));
        self.retire(start);
        start - now
    }

    fn register(&mut self, block: BlockAddr, now: u64, ready_at: u64) -> MshrOutcome {
        self.retire(now);
        if let Some(entry) = self.entries.get_mut(&block.raw()) {
            entry.merged += 1;
            self.merges += 1;
            return MshrOutcome::Merged {
                ready_at: entry.ready_at,
            };
        }
        if self.entries.len() >= self.capacity {
            self.full_stalls += 1;
            return MshrOutcome::Full;
        }
        let entry = MshrEntry {
            block,
            ready_at,
            merged: 1,
        };
        self.entries.insert(block.raw(), entry);
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
        MshrOutcome::Allocated
    }
}

/// Seeded op streams (register or allocate / lookup / retire /
/// wait-for-slot, rare clears) over a block pool about twice the capacity,
/// with fill latencies long enough to keep the file near full and
/// timestamps that occasionally step back (requester clocks are not
/// globally ordered). After every op the flat file and the model agree on
/// the op's result, occupancy, earliest completion and every counter; each
/// capacity must see merges, full stalls, draining waits, clears and
/// direct allocations.
#[test]
fn flat_mshr_file_matches_an_ordered_map_model() {
    for capacity in [1usize, 4, 16, 64] {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(0xD1FF_5000 ^ (seed << 8) ^ capacity as u64);
            let mut flat = MshrFile::new(capacity);
            let mut model = ModelMshr::new(capacity);
            let pool = 2 * capacity as u64 + 2;
            let max_latency = 16 * capacity as u64 + 16;
            let (mut drains, mut clears, mut allocations) = (0u32, 0u32, 0u32);
            let mut now = 0u64;
            for op in 0..6_000u32 {
                now = (now + rng.gen_range(0u64..8)).saturating_sub(rng.gen_range(0u64..3));
                let block = BlockAddr::new(rng.gen_range(0..pool));
                let context = format!("op {op} (capacity {capacity}, seed {seed}, now {now})");
                match rng.gen_range(0u32..100) {
                    0..=49 => {
                        let ready_at = now + rng.gen_range(1..=max_latency);
                        // A block the model holds no entry for takes the
                        // miss path's `allocate`, as after a failed lookup.
                        let outcome = if model.entries.contains_key(&block.raw()) {
                            flat.register(block, now, ready_at)
                        } else {
                            allocations += 1;
                            flat.allocate(block, now, ready_at)
                        };
                        assert_eq!(
                            outcome,
                            model.register(block, now, ready_at),
                            "register diverged at {context}"
                        );
                    }
                    50..=69 => assert_eq!(
                        flat.lookup(block),
                        model.entries.get(&block.raw()),
                        "lookup diverged at {context}"
                    ),
                    70..=84 => {
                        flat.retire(now);
                        model.retire(now);
                    }
                    85..=98 => {
                        let wait = model.wait_for_slot(now);
                        assert_eq!(flat.wait_for_slot(now), wait, "wait diverged at {context}");
                        drains += u32::from(wait > 0);
                    }
                    _ => {
                        flat.clear();
                        model.entries.clear();
                        clears += 1;
                    }
                }
                assert_eq!(
                    (
                        flat.occupancy(),
                        flat.earliest_ready(),
                        flat.peak_occupancy(),
                        flat.merges(),
                        flat.full_stalls()
                    ),
                    (
                        model.entries.len(),
                        model.earliest_ready(),
                        model.peak_occupancy,
                        model.merges,
                        model.full_stalls
                    ),
                    "(occupancy, earliest, peak, merges, full stalls) after {context}"
                );
            }
            assert!(
                model.merges > 0
                    && model.full_stalls > 0
                    && drains > 0
                    && clears > 0
                    && allocations > 0,
                "capacity {capacity}, seed {seed}: the stream must exercise every path \
                 (merges {}, full stalls {}, draining waits {drains}, clears {clears}, \
                 allocations {allocations})",
                model.merges,
                model.full_stalls
            );
        }
    }
}
