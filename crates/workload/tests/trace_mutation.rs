//! Mutation fuzzing of the UGTR decoder: seeded byte flips, truncations
//! and header-field overwrites of a valid trace must make
//! `Trace::from_bytes` return `Ok` or `Err` — never panic, and never
//! abort on an allocation a hostile count asks for. A trace that still
//! decodes must re-encode to exactly the mutated bytes.

use emb_workload::Trace;
use proptest::prelude::*;

fn valid_trace() -> Vec<u8> {
    let records = (0..4u32)
        .map(|r| {
            (0..3u32)
                .map(|g| {
                    (0..5 + r + g)
                        .map(|i| (i * 37 + r * 11 + g) % 1000)
                        .collect()
                })
                .collect()
        })
        .collect();
    Trace {
        seed: 0x5EED,
        num_gpus: 3,
        num_keys: 1000,
        scenario: "dlr/cr@server_a".to_string(),
        records,
    }
    .to_bytes()
}

/// Header fields as `(offset, width)`: version, seed, num_gpus,
/// num_keys, record_count, name_len, then the first record's
/// payload_len and first key count (after the 15-byte name).
const FIELDS: [(usize, usize); 8] = [
    (4, 4),
    (8, 8),
    (16, 4),
    (20, 8),
    (28, 4),
    (32, 4),
    (51, 4),
    (55, 4),
];

/// Overwrites one header field with an extreme or random value.
fn overwrite(bytes: &mut [u8], field: usize, pick: usize, random: u64) {
    let (at, width) = FIELDS[field];
    let value = [0, 1, u64::MAX, 1 << 31, 1 << 32, 1 << 40, random][pick];
    bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    fn mutated_traces_decode_or_error(
        kind in 0u8..4,
        flip_at in prop::collection::vec(0usize..1 << 16, 1..6),
        flip_mask in prop::collection::vec(1u8..255, 6),
        cut in 0usize..1 << 16,
        field in 0usize..FIELDS.len(),
        pick in 0usize..7,
        random in 0u64..u64::MAX,
    ) {
        let mut bytes = valid_trace();
        if kind == 0 || kind == 3 {
            overwrite(&mut bytes, field, pick, random);
        }
        if kind == 1 || kind == 3 {
            for (&at, &mask) in flip_at.iter().zip(&flip_mask) {
                let n = bytes.len();
                bytes[at % n] ^= mask;
            }
        }
        if kind == 2 || kind == 3 {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        if let Ok(trace) = Trace::from_bytes(&bytes) {
            prop_assert_eq!(trace.to_bytes(), bytes);
        }
    }
}

#[test]
fn unmutated_trace_round_trips() {
    let bytes = valid_trace();
    assert_eq!(bytes.len(), 36 + 15 + 4 * 4 + 12 * 4 + 90 * 4);
    assert_eq!(Trace::from_bytes(&bytes).unwrap().to_bytes(), bytes);
}
