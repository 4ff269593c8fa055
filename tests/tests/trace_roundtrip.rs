//! Trace format guards: random round trips, the pinned on-disk
//! golden trace, version gating, and record→replay digest fidelity.
//!
//! The binary trace format (pv-trace) is a persistence format: bytes
//! written by one build must decode identically in every later build, or
//! every recorded artifact silently rots. Four layers of defence:
//!
//! 1. property round trips — seeded random records that fill every field's
//!    width encode→decode identically;
//! 2. a bit-at-a-time oracle (`oracle_write_bits`, `oracle_read_bits`) —
//!    encoding matches it byte for byte, all-ones fields at every slot
//!    included, and decoding matches it on random bodies, so a bug mirrored
//!    in encoder and decoder cannot pass as a round trip;
//! 3. a golden trace committed at `tests/data/golden_qry1.pvtrace` — both
//!    directions are pinned (current encoder reproduces the bytes, current
//!    decoder reproduces the records), so neither side can drift;
//! 4. replaying a recorded run must reproduce the live run's
//!    `RunMetrics::digest()` bit-for-bit in both contention modes — the
//!    pinned digests below were recorded when the format was introduced.

use pv_mem::ContentionModel;
use pv_sim::{run_streams, run_workload, PrefetcherKind, SimConfig};
use pv_trace::{
    encode_records, record_generator, Provenance, ReplayStream, TraceError, TraceHeader, VERSION,
};
use pv_workloads::{workloads, AccessStream, MemOp, TraceGenerator, TraceRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where the golden trace lives (committed binary artifact).
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/data/golden_qry1.pvtrace");
/// What the golden trace contains: the first `GOLDEN_RECORDS` records of
/// Qry1 at the default simulator seed, core 0.
const GOLDEN_SEED: u64 = 0x5EED_0001;
const GOLDEN_RECORDS: usize = 1_000;

fn golden_records() -> Vec<TraceRecord> {
    TraceGenerator::new(&workloads::qry1(), GOLDEN_SEED, 0)
        .take(GOLDEN_RECORDS)
        .collect()
}

fn golden_bytes() -> Vec<u8> {
    encode_records(
        &golden_records(),
        Provenance {
            core: 0,
            seed: GOLDEN_SEED,
        },
    )
}

/// Regenerates the golden trace. Run explicitly after an *intentional*
/// format change (which must also bump `VERSION`):
/// `cargo test -p pv-tests --test trace_roundtrip regenerate -- --ignored`
#[test]
#[ignore = "writes the golden artifact; run only on intentional format changes"]
fn regenerate_golden_trace() {
    std::fs::write(GOLDEN_PATH, golden_bytes()).expect("write golden trace");
}

/// The format's field widths: pc, address, op, instruction count.
const WIDTHS: [u32; 4] = [48, 48, 2, 14];

/// `count` seeded records whose fields fill the format's widths.
fn random_records(rng: &mut StdRng, count: usize) -> Vec<TraceRecord> {
    let mask = |bits: u32| (1u64 << bits) - 1;
    (0..count)
        .map(|_| TraceRecord {
            pc: rng.gen::<u64>() & mask(WIDTHS[0]),
            address: rng.gen::<u64>() & mask(WIDTHS[1]),
            op: match rng.gen_range(0..3u32) {
                0 => MemOp::Load,
                1 => MemOp::Store,
                _ => MemOp::InstructionFetch,
            },
            non_mem_instructions: (rng.gen::<u64>() & mask(WIDTHS[3])) as u32,
        })
        .collect()
}

#[test]
fn random_records_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for trial in 0..40 {
        let count = rng.gen_range(1..200usize);
        let records = random_records(&mut rng, count);
        let bytes = encode_records(&records, Provenance::default());
        let decoded: Vec<TraceRecord> =
            ReplayStream::new(bytes).expect("encoded trace must parse").collect();
        assert_eq!(
            decoded, records,
            "trial {trial}: {count} records must round-trip"
        );
    }
}

/// Bit offset in a trace of the first bit of record `index`, worked out
/// from the format's definition rather than the codec's helpers.
fn oracle_record_bit(index: usize) -> usize {
    let record_bits: u32 = WIDTHS.iter().sum();
    let per_block = 64 * 8 / record_bits as usize;
    8 * (32 + index / per_block * 64) + index % per_block * record_bits as usize
}

/// ORs the low `bits` bits of `value` into `buffer` from `bit_offset` on,
/// one bit at a time, little-endian within and across bytes.
fn oracle_write_bits(buffer: &mut [u8], bit_offset: usize, value: u64, bits: u32) {
    for i in 0..bits as usize {
        if (value >> i) & 1 == 1 {
            let position = bit_offset + i;
            buffer[position / 8] |= 1 << (position % 8);
        }
    }
}

/// Reads `bits` bits from `bit_offset` on, one bit at a time: the inverse
/// of [`oracle_write_bits`].
fn oracle_read_bits(buffer: &[u8], bit_offset: usize, bits: u32) -> u64 {
    (0..bits as usize)
        .filter(|i| {
            let position = bit_offset + i;
            buffer[position / 8] & (1 << (position % 8)) != 0
        })
        .fold(0, |value, i| value | 1 << i)
}

/// A trace of `records` records, written one bit at a time with
/// [`oracle_write_bits`]: the header field by field, then each record's
/// four fields at the offset the format defines.
fn oracle_encode(records: &[TraceRecord], provenance: Provenance) -> Vec<u8> {
    let blocks = records.len().div_ceil(4);
    let mut bytes = vec![0u8; 32 + 64 * blocks];
    bytes[0..4].copy_from_slice(b"PVTR");
    bytes[4..6].copy_from_slice(&VERSION.to_le_bytes());
    bytes[6] = WIDTHS[0] as u8;
    bytes[7] = WIDTHS[1] as u8;
    bytes[8] = WIDTHS[3] as u8;
    bytes[10..12].copy_from_slice(&64u16.to_le_bytes());
    bytes[12..20].copy_from_slice(&(records.len() as u64).to_le_bytes());
    bytes[20..24].copy_from_slice(&provenance.core.to_le_bytes());
    bytes[24..32].copy_from_slice(&provenance.seed.to_le_bytes());
    for (index, record) in records.iter().enumerate() {
        let op = match record.op {
            MemOp::Load => 0,
            MemOp::Store => 1,
            MemOp::InstructionFetch => 2,
        };
        let mut bit = oracle_record_bit(index);
        let values = [
            record.pc,
            record.address,
            op,
            u64::from(record.non_mem_instructions),
        ];
        for (value, bits) in values.into_iter().zip(WIDTHS) {
            oracle_write_bits(&mut bytes, bit, value, bits);
            bit += bits as usize;
        }
    }
    bytes
}

/// Record `index` of a trace, read one bit at a time with
/// [`oracle_read_bits`].
fn oracle_decode(bytes: &[u8], index: usize) -> TraceRecord {
    let mut bit = oracle_record_bit(index);
    let [pc, address, op, count] = WIDTHS.map(|bits| {
        let value = oracle_read_bits(bytes, bit, bits);
        bit += bits as usize;
        value
    });
    TraceRecord {
        pc,
        address,
        op: match op {
            0 => MemOp::Load,
            1 => MemOp::Store,
            2 => MemOp::InstructionFetch,
            code => panic!("op code {code} in a trace the decoder accepted"),
        },
        non_mem_instructions: count as u32,
    }
}

/// The encoder against a bit-at-a-time oracle, byte for byte: a codec bug
/// mirrored in the decoder passes every round trip, but not this. Besides
/// random records, every slot of full and partial blocks carries a record
/// whose pc, address and count fields are all ones, beside each op.
#[test]
fn encoding_matches_the_bit_at_a_time_oracle_byte_for_byte() {
    let mut rng = StdRng::seed_from_u64(0xB17E);
    let provenance = Provenance {
        core: 7,
        seed: 0x5EED_0042,
    };
    for count in [0, 1, 4, 11, 12, 199] {
        let records = random_records(&mut rng, count);
        assert_eq!(
            encode_records(&records, provenance),
            oracle_encode(&records, provenance),
            "{count} random records"
        );
    }
    let ones = |op| TraceRecord {
        pc: (1 << 48) - 1,
        address: (1 << 48) - 1,
        op,
        non_mem_instructions: (1 << 14) - 1,
    };
    let ops = [MemOp::Load, MemOp::Store, MemOp::InstructionFetch];
    for count in [4, 9, 12] {
        let records: Vec<_> = (0..count).map(|i| ones(ops[i % 3])).collect();
        assert_eq!(
            encode_records(&records, provenance),
            oracle_encode(&records, provenance),
            "{count} all-ones records"
        );
    }
}

/// The decoder against the bit-at-a-time oracle on bodies of random bits,
/// so every trailer and every neighbouring field holds ones and zeroes the
/// decoder must mask off. Only op code 3 is cleared, since it is rejected.
#[test]
fn decoding_matches_the_bit_at_a_time_oracle_on_random_bodies() {
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    for count in [1, 4, 11, 12, 199] {
        let zeroes = vec![TraceRecord::load(0, 0, 0); count];
        let mut bytes = oracle_encode(&zeroes, Provenance::default());
        bytes[32..].fill_with(|| rng.gen::<u64>() as u8);
        for index in 0..count {
            let op_bit = oracle_record_bit(index) + (WIDTHS[0] + WIDTHS[1]) as usize;
            if oracle_read_bits(&bytes, op_bit, 2) == 3 {
                bytes[(op_bit + 1) / 8] &= !(1 << ((op_bit + 1) % 8));
            }
        }
        let decoded: Vec<TraceRecord> = ReplayStream::new(bytes.clone())
            .expect("a body with valid op codes parses")
            .collect();
        assert_eq!(decoded.len(), count);
        for (index, record) in decoded.iter().enumerate() {
            assert_eq!(
                *record,
                oracle_decode(&bytes, index),
                "record {index} of {count}"
            );
        }
    }
}

#[test]
fn golden_trace_bytes_are_pinned() {
    let on_disk = std::fs::read(GOLDEN_PATH).expect(
        "golden trace missing; run `cargo test -p pv-tests --test trace_roundtrip \
         regenerate -- --ignored` once and commit the artifact",
    );
    assert_eq!(
        on_disk,
        golden_bytes(),
        "the encoder no longer reproduces the committed golden trace — the on-disk format \
         drifted (an intentional change must bump VERSION and regenerate the artifact)"
    );
}

#[test]
fn golden_trace_decodes_to_the_generator_stream() {
    let on_disk = std::fs::read(GOLDEN_PATH).expect("golden trace present");
    assert_eq!(on_disk[6..9], [48, 48, 14], "field widths");
    let replay = ReplayStream::new(on_disk).expect("golden trace parses");
    let header = *replay.header();
    assert_eq!(header.version, VERSION);
    assert_eq!(header.records, GOLDEN_RECORDS as u64);
    assert_eq!(header.provenance.seed, GOLDEN_SEED);
    let decoded: Vec<TraceRecord> = replay.collect();
    assert_eq!(
        decoded,
        golden_records(),
        "the decoder no longer reproduces the golden records"
    );
}

#[test]
fn unknown_versions_and_corruption_are_rejected() {
    let bytes = std::fs::read(GOLDEN_PATH).expect("golden trace present");
    // A future version must be rejected, not half-decoded.
    let mut future = bytes.clone();
    future[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
    assert_eq!(
        ReplayStream::new(future).unwrap_err(),
        TraceError::UnsupportedVersion(VERSION + 1)
    );
    // Bad magic.
    let mut magic = bytes.clone();
    magic[0..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        TraceHeader::parse(&magic),
        Err(TraceError::BadMagic(_))
    ));
    // A truncated body must be caught by the header's record count.
    assert!(matches!(
        ReplayStream::new(bytes[..bytes.len() - 1].to_vec()),
        Err(TraceError::Truncated { .. })
    ));
}

/// Smoke-scale windows (the perfbench/engine-refactor configuration).
fn smoke_config(kind: PrefetcherKind, contention: ContentionModel) -> SimConfig {
    let mut config = SimConfig::quick(kind);
    config.warmup_records = 20_000;
    config.measure_records = 30_000;
    config.hierarchy = config.hierarchy.with_contention(contention);
    config
}

/// Records the per-core streams a live run would consume and replays them
/// through the simulator, returning (live digest, replay digest).
fn record_then_replay(contention: ContentionModel) -> (String, String) {
    let config = smoke_config(PrefetcherKind::sms_pv8(), contention);
    let workload = workloads::qry1();
    let live = run_workload(&config, &workload);

    // The simulator consumes exactly warmup + measure records per core, and
    // per-core streams are interleaving-independent, so recording that many
    // records per core captures the run in full.
    let per_core = config.warmup_records + config.measure_records;
    let streams: Vec<Box<dyn AccessStream>> = (0..config.cores)
        .map(|core| {
            let bytes = record_generator(&workload, config.seed, core as u32, per_core)
                .expect("generated records fit the trace format");
            Box::new(ReplayStream::new(bytes).expect("recorded trace parses"))
                as Box<dyn AccessStream>
        })
        .collect();
    let replayed = run_streams(&config, streams);
    (live.digest(), replayed.digest())
}

/// Digest pins for the record→replay round trip (smoke scale, SMS-PV8,
/// Qry1). Recorded when the trace format was introduced; a change here
/// means the simulated outcome moved, which a record/replay PR must not do.
const PINNED_DIGEST_IDEAL: &str =
    "cycles=958661|instr=381112|l2req=52918+10981|l2miss=38766+1101|l2wb=35+0|dram=39867r35w|cov=21579c15712u4268o|pf=27087";
const PINNED_DIGEST_QUEUED: &str =
    "cycles=1294996|instr=381112|l2req=52918+10981|l2miss=38768+1101|l2wb=35+0|dram=39869r35w|cov=21579c15712u4268o|pf=27087";

#[test]
fn replay_reproduces_live_digest_ideal() {
    let (live, replayed) = record_then_replay(ContentionModel::Ideal);
    assert_eq!(
        live, replayed,
        "replay must be bit-identical to the live run"
    );
    assert_eq!(live, PINNED_DIGEST_IDEAL, "pinned Ideal digest moved");
}

#[test]
fn replay_reproduces_live_digest_queued() {
    let (live, replayed) = record_then_replay(ContentionModel::Queued);
    assert_eq!(
        live, replayed,
        "replay must be bit-identical to the live run"
    );
    assert_eq!(live, PINNED_DIGEST_QUEUED, "pinned Queued digest moved");
}

#[test]
fn partial_replay_covers_a_prefix_of_the_live_run() {
    // A trace shorter than the run's demand ends the core's stream early —
    // here all four cores run out mid-measurement and the run still
    // produces coherent (smaller) totals.
    let config = smoke_config(PrefetcherKind::None, ContentionModel::Ideal);
    let workload = workloads::qry17();
    let per_core = config.warmup_records + config.measure_records / 2;
    let streams: Vec<Box<dyn AccessStream>> = (0..config.cores)
        .map(|core| {
            let bytes = record_generator(&workload, config.seed, core as u32, per_core)
                .expect("records fit");
            Box::new(ReplayStream::new(bytes).expect("valid trace")) as Box<dyn AccessStream>
        })
        .collect();
    let full = run_workload(&config, &workload);
    let partial = run_streams(&config, streams);
    assert!(partial.total_instructions > 0);
    assert!(
        partial.total_instructions < full.total_instructions,
        "a truncated trace must simulate fewer instructions ({} vs {})",
        partial.total_instructions,
        full.total_instructions
    );
}
