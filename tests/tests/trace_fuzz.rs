//! Seeded mutation fuzzing of the trace format.
//!
//! Trace bytes are input, so no byte string may make the decoder panic or
//! run silently wrong. Each case mutates the committed golden trace
//! (`tests/data/golden_qry1.pvtrace`) with one of three operators — bit
//! flips, truncation, or splices of chosen values into the 32-byte header —
//! and requires either an `Err` from `ReplayStream::new` or a stream that
//! yields exactly `records()` records without panicking. Case `i` is drawn
//! from its own seed, so a failure names a case that reproduces alone.

use pv_trace::{ReplayStream, TraceError, BLOCK_BYTES, HEADER_BYTES, RECORDS_PER_BLOCK};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/data/golden_qry1.pvtrace");
const CASES: u64 = 12_000;
const SEED: u64 = 0xF022_7ACE;

/// Byte values that sit on the edges of the header's fields: zero widths,
/// the format's 48-bit width, the 64-bit word and 32-bit count limits of
/// wider records, the block size.
const EDGE_VALUES: [u8; 12] = [0, 1, 2, 3, 31, 32, 33, 48, 63, 64, 65, 255];

#[derive(Debug, Clone, Copy)]
enum Mutation {
    BitFlips,
    Truncate,
    HeaderSplice,
}

/// Flips one to eight bits; a quarter of them land in the header.
fn flip_bits(rng: &mut StdRng, bytes: &mut [u8]) {
    for _ in 0..rng.gen_range(1..=8u32) {
        let span = if rng.gen_bool(0.25) {
            HEADER_BYTES
        } else {
            bytes.len()
        };
        let bit = rng.gen_range(0..span * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Rewrites the record count so the body length is valid again. Without
/// this nearly every mutated header fails the length check, and the checks
/// behind it — field widths, op codes — would rarely be reached.
fn fix_record_count(rng: &mut StdRng, bytes: &mut [u8]) {
    let blocks = (bytes.len() - HEADER_BYTES) / BLOCK_BYTES;
    if blocks == 0 {
        return;
    }
    let per_block = RECORDS_PER_BLOCK as u64;
    let last = blocks as u64 * per_block;
    let records = rng.gen_range(last - per_block + 1..=last);
    bytes[12..20].copy_from_slice(&records.to_le_bytes());
}

/// Cuts the trace short. Half the cuts land on a block boundary with the
/// record count rewritten to match, which must give a valid shorter stream.
fn truncate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    if rng.gen_bool(0.5) {
        bytes.truncate(rng.gen_range(0..bytes.len()));
    } else {
        let blocks = (bytes.len() - HEADER_BYTES) / BLOCK_BYTES;
        bytes.truncate(HEADER_BYTES + rng.gen_range(0..blocks) * BLOCK_BYTES);
        fix_record_count(rng, bytes);
    }
}

/// Writes edge or random values into one to four header bytes, then, half
/// the time, makes the record count consistent with the body length.
fn splice_header(rng: &mut StdRng, bytes: &mut [u8]) {
    for _ in 0..rng.gen_range(1..=4u32) {
        let at = rng.gen_range(0..HEADER_BYTES);
        bytes[at] = if rng.gen_bool(0.75) {
            EDGE_VALUES[rng.gen_range(0..EDGE_VALUES.len())]
        } else {
            rng.gen_range(0..=u8::MAX)
        };
    }
    if rng.gen_bool(0.5) {
        fix_record_count(rng, bytes);
    }
}

/// What one case did, when it did not panic.
enum Outcome {
    Rejected(TraceError),
    Replayed { claimed: u64, yielded: u64 },
}

#[test]
fn mutated_traces_are_rejected_or_replay_exactly_their_record_count() {
    let golden = std::fs::read(GOLDEN_PATH).expect("golden trace present");
    let (mut rejected, mut bad_ops, mut bad_layouts, mut replayed) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(SEED ^ case);
        let mut bytes = golden.clone();
        let mutation = match case % 3 {
            0 => Mutation::BitFlips,
            1 => Mutation::Truncate,
            _ => Mutation::HeaderSplice,
        };
        match mutation {
            Mutation::BitFlips => flip_bits(&mut rng, &mut bytes),
            Mutation::Truncate => truncate(&mut rng, &mut bytes),
            Mutation::HeaderSplice => splice_header(&mut rng, &mut bytes),
        }
        let layout_changed = bytes.len() >= 9 && bytes[6..9] != golden[6..9];
        let outcome = panic::catch_unwind(move || match ReplayStream::new(bytes) {
            Err(error) => Outcome::Rejected(error),
            Ok(stream) => Outcome::Replayed {
                claimed: stream.records(),
                yielded: stream.count() as u64,
            },
        });
        match outcome {
            Err(_) => panic!("case {case} ({mutation:?}) panicked"),
            Ok(Outcome::Rejected(error)) => {
                rejected += 1;
                bad_ops += u32::from(matches!(error, TraceError::BadOp(_)));
                bad_layouts +=
                    u32::from(layout_changed && matches!(error, TraceError::BadLayout(_)));
            }
            Ok(Outcome::Replayed { claimed, yielded }) => {
                assert_eq!(
                    yielded, claimed,
                    "case {case} ({mutation:?}): the stream must yield exactly records()"
                );
                assert!(
                    !layout_changed,
                    "case {case} ({mutation:?}): a trace with spliced field widths was accepted"
                );
                replayed += 1;
            }
        }
    }
    // The operators must reach both outcomes, the body's op check, and the
    // header's width check with a body length that passes, or the fuzz
    // proves little.
    assert!(
        rejected > 1_000 && replayed > 1_000 && bad_ops > 0 && bad_layouts > 0,
        "weak coverage: {rejected} rejected ({bad_ops} bad ops, \
         {bad_layouts} spliced widths), {replayed} replayed"
    );
}
