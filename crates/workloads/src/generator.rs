//! The synthetic trace generator.
//!
//! One [`TraceGenerator`] produces the access stream of one core running one
//! workload. The stream is an interleaving of:
//!
//! * *spatially-correlated data accesses*: a pool of "trigger contexts"
//!   (program counters), each with a canonical spatial pattern over a 32-block
//!   region; a generation picks a context and a data region, and touches the
//!   blocks of the (slightly perturbed) pattern spread out over time by
//!   interleaving several concurrent generations — this is the structure the
//!   SMS prefetcher learns;
//! * *irregular data accesses* with no spatial correlation (pointer chasing,
//!   hashing), which no spatial prefetcher can cover;
//! * *instruction fetches* walking a configurable code footprint with
//!   occasional branches, which exercise the L1 instruction cache and the
//!   baseline next-line instruction prefetcher.
//!
//! The generator is an infinite, deterministic iterator of [`TraceRecord`]s.

use crate::params::{WorkloadParams, BLOCKS_PER_REGION};
use crate::record::{MemOp, TraceRecord};
use crate::zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Bytes per cache block (matches `pv_mem::BLOCK_BYTES`).
const BLOCK_BYTES: u64 = 64;
/// Bytes per spatial region.
const REGION_BYTES: u64 = BLOCK_BYTES * BLOCKS_PER_REGION as u64;
/// Per-core address-space stride: cores run independent instances of the
/// workload in disjoint address ranges (no coherence traffic is modelled).
const CORE_STRIDE: u64 = 0x1_0000_0000;
/// Base of core 0's address space. Chosen so no workload data ever overlaps
/// the reserved PV regions near the top of the 3 GB physical memory.
const CORE0_BASE: u64 = 0x1000_0000;
/// Offset of the data-region pool within a core's address space.
const DATA_OFFSET: u64 = 0x0800_0000;
/// Offset of the irregular heap within a core's address space.
const IRREGULAR_OFFSET: u64 = 0x4000_0000;
/// Size of the irregular heap in blocks (64 MB).
const IRREGULAR_BLOCKS: u64 = 1 << 20;
/// Offset of the irregular accesses' PCs within a core's address space;
/// trigger-context PCs sit 4 bytes apart below it.
const IRREGULAR_PC_OFFSET: u64 = 0x10_0000;

/// Most trigger contexts whose PCs stay below the irregular PCs.
pub(crate) const MAX_CONTEXTS: usize = (IRREGULAR_PC_OFFSET / 4) as usize;
/// Most data regions that fit between the data pool and the irregular heap.
pub(crate) const MAX_DATA_REGIONS: usize =
    ((IRREGULAR_OFFSET - DATA_OFFSET) / REGION_BYTES) as usize;
/// Most code blocks that fit below the data pool.
pub(crate) const MAX_CODE_BLOCKS: usize = (DATA_OFFSET / BLOCK_BYTES) as usize;

/// One trigger context: a program counter and the canonical spatial pattern
/// it produces.
#[derive(Debug, Clone)]
struct Context {
    pc: u64,
    trigger_offset: u32,
    canonical_pattern: u32,
}

/// One in-flight spatial-region generation.
#[derive(Debug, Clone)]
struct ActiveGeneration {
    context: usize,
    region_base: u64,
    /// Block offsets still to be accessed; the trigger offset is always
    /// first.
    offsets: Vec<u32>,
    next: usize,
}

impl ActiveGeneration {
    fn finished(&self) -> bool {
        self.next >= self.offsets.len()
    }
}

/// Deterministic, infinite trace generator for one core.
#[derive(Debug)]
pub struct TraceGenerator {
    params: WorkloadParams,
    rng: StdRng,
    contexts: Vec<Context>,
    context_sampler: ZipfSampler,
    region_sampler: ZipfSampler,
    code_sampler: ZipfSampler,
    irregular_pcs: Vec<u64>,
    active: Vec<ActiveGeneration>,
    // Address-space bases for this core.
    code_base: u64,
    data_base: u64,
    irregular_base: u64,
    // Instruction-stream cursor.
    current_code_block: u64,
    bytes_into_block: u64,
    last_fetched_block: Option<u64>,
    // Records waiting to be handed out (instruction fetches precede the data
    // access that consumed them).
    queue: VecDeque<TraceRecord>,
    records_emitted: u64,
}

impl TraceGenerator {
    /// Creates a generator for `core` running `params`, seeded with `seed`.
    ///
    /// The stream is fully determined by `(params, seed, core)`.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails validation.
    pub fn new(params: &WorkloadParams, seed: u64, core: usize) -> Self {
        params.validate().expect("workload parameters must be valid");
        let mut rng =
            StdRng::seed_from_u64(seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let core_base = CORE0_BASE + core as u64 * CORE_STRIDE;
        let code_base = core_base;
        let data_base = core_base + DATA_OFFSET;
        let irregular_base = core_base + IRREGULAR_OFFSET;

        let contexts: Vec<Context> = (0..params.contexts)
            .map(|i| {
                let trigger_offset = rng.gen_range(0..BLOCKS_PER_REGION);
                Context {
                    pc: code_base + (i as u64) * 4,
                    trigger_offset,
                    canonical_pattern: Self::random_pattern(
                        &mut rng,
                        params.pattern_density,
                        trigger_offset,
                    ),
                }
            })
            .collect();
        let irregular_pcs: Vec<u64> = (0..(params.contexts / 4).max(8))
            .map(|i| code_base + IRREGULAR_PC_OFFSET + (i as u64) * 4)
            .collect();

        let context_sampler = ZipfSampler::new(params.contexts, params.context_zipf);
        let region_sampler = ZipfSampler::new(params.data_regions, params.region_zipf);
        let code_sampler = ZipfSampler::new(params.code_blocks, 0.6);

        // Buffers sized for their largest possible contents keep the
        // generator allocation-free from its first record: a generation
        // visits each of its at most `BLOCKS_PER_REGION` blocks at most
        // `⌊accesses_per_block⌋ + 1` times, and one refill queues at most
        // one fetch per instruction (`⌊instr_per_mem⌋ + 2`) plus its data
        // access.
        let generation_len =
            BLOCKS_PER_REGION as usize * (params.accesses_per_block.floor() as usize + 1);
        let refill_len = params.instr_per_mem.floor() as usize + 3;
        let mut generator = TraceGenerator {
            params: params.clone(),
            rng,
            contexts,
            context_sampler,
            region_sampler,
            code_sampler,
            irregular_pcs,
            active: Vec::new(),
            code_base,
            data_base,
            irregular_base,
            current_code_block: 0,
            bytes_into_block: 0,
            last_fetched_block: None,
            queue: VecDeque::with_capacity(refill_len),
            records_emitted: 0,
        };
        for _ in 0..generator.params.active_generations {
            let generation = generator.new_generation(Vec::with_capacity(generation_len));
            generator.active.push(generation);
        }
        generator
    }

    /// Number of records handed out so far.
    pub fn records_emitted(&self) -> u64 {
        self.records_emitted
    }

    /// The parameters this generator was built with.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// Draws a random spatial pattern with the given expected density; the
    /// trigger offset is always part of the pattern.
    fn random_pattern<R: Rng + ?Sized>(rng: &mut R, density: f64, trigger_offset: u32) -> u32 {
        let mut pattern = 1u32 << trigger_offset;
        for bit in 0..BLOCKS_PER_REGION {
            if bit != trigger_offset && rng.gen_bool(density) {
                pattern |= 1 << bit;
            }
        }
        pattern
    }

    /// Starts a new spatial-region generation, building its access order
    /// in `offsets` (cleared first): handing a finished generation's buffer
    /// back in, sized at construction for the longest generation, keeps the
    /// generator allocation-free.
    fn new_generation(&mut self, mut offsets: Vec<u32>) -> ActiveGeneration {
        let context_idx = self.context_sampler.sample(&mut self.rng);
        let region_idx = self.region_sampler.sample(&mut self.rng) as u64;
        let region_base = self.data_base + region_idx * REGION_BYTES;
        let canonical = self.contexts[context_idx].canonical_pattern;
        let trigger = self.contexts[context_idx].trigger_offset;

        // Perturb the canonical pattern: each canonical block is accessed
        // with probability `pattern_stability`; spurious blocks appear with a
        // small complementary probability. The trigger block is always
        // accessed first.
        let stability = self.params.pattern_stability;
        let spurious = (1.0 - stability) * self.params.pattern_density;
        let mut touched = 0u32;
        for bit in 0..BLOCKS_PER_REGION {
            if bit == trigger {
                continue;
            }
            let in_canonical = canonical & (1 << bit) != 0;
            let accessed = if in_canonical {
                self.rng.gen_bool(stability)
            } else {
                self.rng.gen_bool(spurious)
            };
            if accessed {
                touched |= 1 << bit;
            }
        }
        // Each touched block is revisited `accesses_per_block` times on
        // average (real code touches several fields of the records it
        // walks), so only the first access to each block can miss. The
        // trigger comes first, then the other touched blocks in ascending
        // order.
        let base_repeats = self.params.accesses_per_block.floor() as u32;
        let extra_prob = self.params.accesses_per_block - f64::from(base_repeats);
        offsets.clear();
        offsets.push(trigger);
        let touched_in_order = std::iter::once(trigger)
            .chain((0..BLOCKS_PER_REGION).filter(|&bit| touched & (1 << bit) != 0));
        for bit in touched_in_order {
            let repeats = base_repeats + u32::from(self.rng.gen_bool(extra_prob));
            let first_is_trigger_slot = bit == trigger;
            let start = usize::from(first_is_trigger_slot);
            for _ in start..repeats.max(1) as usize {
                offsets.push(bit);
            }
        }
        // Visit the non-trigger accesses in a random order so the accesses
        // of one region interleave naturally with other regions.
        let extras = &mut offsets[1..];
        for i in (1..extras.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            extras.swap(i, j);
        }
        ActiveGeneration {
            context: context_idx,
            region_base,
            offsets,
            next: 0,
        }
    }

    /// Produces the next data access (address, PC, op).
    fn next_data_access(&mut self) -> (u64, u64, MemOp) {
        let op = if self.rng.gen_bool(self.params.write_fraction) {
            MemOp::Store
        } else {
            MemOp::Load
        };
        if self.rng.gen_bool(self.params.irregular_fraction) {
            let block = self.rng.gen_range(0..IRREGULAR_BLOCKS);
            let offset = u64::from(self.rng.gen_range(0..8u32)) * 8;
            let pc_idx = self.rng.gen_range(0..self.irregular_pcs.len());
            return (
                self.irregular_base + block * BLOCK_BYTES + offset,
                self.irregular_pcs[pc_idx],
                op,
            );
        }
        let slot = self.rng.gen_range(0..self.active.len());
        let (address, pc) = {
            let generation = &mut self.active[slot];
            let offset = generation.offsets[generation.next];
            generation.next += 1;
            let address = generation.region_base
                + u64::from(offset) * BLOCK_BYTES
                + u64::from(self.rng.gen_range(0..8u32)) * 8;
            (address, self.contexts[generation.context].pc)
        };
        if self.active[slot].finished() {
            let offsets = std::mem::take(&mut self.active[slot].offsets);
            self.active[slot] = self.new_generation(offsets);
        }
        (address, pc, op)
    }

    /// Advances the instruction-fetch cursor by `instructions` instructions
    /// and pushes fetch records for every new code block entered.
    fn advance_instruction_stream(&mut self, instructions: u64) {
        let mut remaining_bytes = instructions * 4;
        while remaining_bytes > 0 {
            if self
                .rng
                .gen_bool(self.params.branch_fraction / (1.0 + self.params.instr_per_mem))
            {
                // Branch to a new code block.
                self.current_code_block = self.code_sampler.sample(&mut self.rng) as u64;
                self.bytes_into_block = 0;
            }
            let room = BLOCK_BYTES - self.bytes_into_block;
            let step = room.min(remaining_bytes);
            if self.last_fetched_block != Some(self.current_code_block) {
                let fetch_addr = self.code_base + self.current_code_block * BLOCK_BYTES;
                self.queue.push_back(TraceRecord::fetch(fetch_addr, fetch_addr));
                self.last_fetched_block = Some(self.current_code_block);
            }
            self.bytes_into_block += step;
            remaining_bytes -= step;
            if self.bytes_into_block >= BLOCK_BYTES {
                self.current_code_block =
                    (self.current_code_block + 1) % self.params.code_blocks as u64;
                self.bytes_into_block = 0;
            }
        }
    }

    /// Generates the next batch of records into the queue.
    fn refill(&mut self) {
        let mean = self.params.instr_per_mem;
        let base = mean.floor() as u32;
        let extra = if self.rng.gen_bool(mean - f64::from(base).min(mean)) {
            1
        } else {
            0
        };
        let non_mem = base + extra;
        self.advance_instruction_stream(u64::from(non_mem) + 1);
        let (address, pc, op) = self.next_data_access();
        self.queue.push_back(TraceRecord {
            pc,
            address,
            op,
            non_mem_instructions: non_mem,
        });
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        while self.queue.is_empty() {
            self.refill();
        }
        self.records_emitted += 1;
        self.queue.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn take(params: &WorkloadParams, n: usize) -> Vec<TraceRecord> {
        TraceGenerator::new(params, 1234, 0).take(n).collect()
    }

    #[test]
    fn generator_is_deterministic() {
        let params = workloads::apache();
        let a: Vec<_> = TraceGenerator::new(&params, 7, 0).take(5_000).collect();
        let b: Vec<_> = TraceGenerator::new(&params, 7, 0).take(5_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_cores_use_disjoint_address_spaces() {
        let params = workloads::db2();
        let a: Vec<_> = TraceGenerator::new(&params, 7, 0).take(2_000).collect();
        let b: Vec<_> = TraceGenerator::new(&params, 7, 1).take(2_000).collect();
        let max_a = a.iter().map(|r| r.address).max().unwrap();
        let min_b = b.iter().map(|r| r.address).min().unwrap();
        assert!(max_a < min_b, "core address ranges must not overlap");
    }

    #[test]
    fn stream_contains_all_operation_kinds() {
        let params = workloads::oracle();
        let records = take(&params, 20_000);
        assert!(records.iter().any(|r| r.op == MemOp::Load));
        assert!(records.iter().any(|r| r.op == MemOp::Store));
        assert!(records.iter().any(|r| r.op == MemOp::InstructionFetch));
    }

    #[test]
    fn write_fraction_is_respected_roughly() {
        let params = workloads::db2();
        let records = take(&params, 50_000);
        let data: Vec<_> = records.iter().filter(|r| r.op.is_data()).collect();
        let stores = data.iter().filter(|r| r.op.is_write()).count();
        let ratio = stores as f64 / data.len() as f64;
        assert!(
            (ratio - params.write_fraction).abs() < 0.03,
            "store ratio {ratio} too far from configured {}",
            params.write_fraction
        );
    }

    #[test]
    fn spatial_accesses_reuse_trigger_pcs() {
        // The same PC must recur many times: that is what the SMS PHT keys on.
        let params = workloads::qry1();
        let records = take(&params, 50_000);
        let mut pc_counts = std::collections::HashMap::new();
        for r in records.iter().filter(|r| r.op.is_data()) {
            *pc_counts.entry(r.pc).or_insert(0u32) += 1;
        }
        let max_count = pc_counts.values().copied().max().unwrap();
        assert!(
            max_count > 100,
            "hot trigger PCs must recur (max count {max_count})"
        );
    }

    #[test]
    fn data_addresses_stay_out_of_pv_reserved_range() {
        // The PV regions live in the top 256 KB below 3 GB for a 4-core
        // system; workload data must never land there.
        let pv_lo = 3u64 * 1024 * 1024 * 1024 - 4 * 64 * 1024;
        let pv_hi = 3u64 * 1024 * 1024 * 1024;
        for core in 0..4 {
            let params = workloads::zeus();
            let records: Vec<_> = TraceGenerator::new(&params, 3, core).take(5_000).collect();
            for r in records {
                assert!(
                    r.address < pv_lo || r.address >= pv_hi,
                    "workload address {:#x} collides with the reserved PV region",
                    r.address
                );
            }
        }
    }

    #[test]
    fn instruction_fetches_precede_dependent_data_accesses() {
        let params = workloads::qry17();
        let records = take(&params, 1_000);
        assert_eq!(
            records[0].op,
            MemOp::InstructionFetch,
            "the very first record must be the fetch of the first code block"
        );
    }

    #[test]
    fn records_emitted_counter_tracks_iteration() {
        let params = workloads::qry2();
        let mut generator = TraceGenerator::new(&params, 9, 0);
        let _ = (&mut generator).take(123).count();
        assert_eq!(generator.records_emitted(), 123);
    }

    #[test]
    fn mean_instructions_per_record_matches_parameter() {
        let params = workloads::apache();
        let records = take(&params, 100_000);
        let instructions: u64 = records.iter().map(|r| r.instructions()).sum();
        let data_records = records.iter().filter(|r| r.op.is_data()).count() as f64;
        let mean = instructions as f64 / data_records;
        assert!(
            (mean - (1.0 + params.instr_per_mem)).abs() < 0.15,
            "mean instructions per data access {mean} should be close to {}",
            1.0 + params.instr_per_mem
        );
    }
}
