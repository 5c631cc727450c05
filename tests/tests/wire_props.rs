//! Property tests for the wire encoding in `prochlo_core::wire`: writers
//! and readers round-trip exactly, and no malformed or truncated input ever
//! panics — the reader path faces attacker-controlled bytes at the
//! collector boundary, so "worst case is an error" is a hard requirement.

use prochlo_core::wire::{
    pad_payload, put_bytes, put_u32, put_u64, put_u8, unpad_payload, Reader, WireError,
};
use prochlo_core::PipelineError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Deterministic filler bytes for a case.
fn bytes_from_seed(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prop_primitive_sequences_roundtrip(seed in any::<u64>(), fields in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Write a random sequence of typed fields, then read it back.
        let mut expect: Vec<(u8, u64, Vec<u8>)> = Vec::new();
        let mut wire = Vec::new();
        for _ in 0..fields {
            match rng.gen_range(0..4u8) {
                0 => {
                    let v: u8 = rng.gen();
                    put_u8(&mut wire, v);
                    expect.push((0, v as u64, Vec::new()));
                }
                1 => {
                    let v: u32 = rng.gen();
                    put_u32(&mut wire, v);
                    expect.push((1, v as u64, Vec::new()));
                }
                2 => {
                    let v: u64 = rng.gen();
                    put_u64(&mut wire, v);
                    expect.push((2, v, Vec::new()));
                }
                _ => {
                    let len = rng.gen_range(0..48usize);
                    let mut v = vec![0u8; len];
                    rng.fill_bytes(&mut v);
                    put_bytes(&mut wire, &v);
                    expect.push((3, 0, v));
                }
            }
        }
        let mut reader = Reader::new(&wire);
        for (kind, num, blob) in expect {
            match kind {
                0 => prop_assert_eq!(u64::from(reader.get_u8("u8").unwrap()), num),
                1 => prop_assert_eq!(reader.get_u32::<u64>("u32").unwrap(), num),
                2 => prop_assert_eq!(reader.get_u64::<u64>("u64").unwrap(), num),
                _ => prop_assert_eq!(reader.get_bytes("bytes").unwrap(), blob),
            }
        }
        prop_assert_eq!(reader.finish("trailing"), Ok(()));
    }

    #[test]
    fn prop_arbitrary_bytes_never_panic_the_reader(
        data_seed in any::<u64>(),
        len in 0usize..256,
        script_seed in any::<u64>(),
    ) {
        // Feed attacker-controlled bytes through a random sequence of reads;
        // every outcome must be Ok or Err, never a panic or an overrun.
        let data = bytes_from_seed(data_seed, len);
        let mut script = StdRng::seed_from_u64(script_seed);
        let mut reader = Reader::new(&data);
        for _ in 0..32 {
            let before = reader.remaining();
            match script.gen_range(0..9u8) {
                0 => { let _ = reader.get_u8("u8"); }
                1 => { let _ = reader.get_u32::<u16>("u32"); }
                2 => { let _ = reader.get_u64::<u64>("u64"); }
                3 => { let _ = reader.get_bytes("bytes"); }
                4 => { let _ = reader.get_slice("slice"); }
                5 => { let _ = reader.get_fixed::<16>("fixed"); }
                6 => { let _ = reader.get_fixed::<64>("fixed"); }
                7 => { let _ = reader.expect_tag(script.gen(), "tag"); }
                _ => { let _ = reader.get_count(script.gen_range(1..80), "count", "exceeds"); }
            }
            prop_assert!(reader.remaining() <= before);
        }
    }

    #[test]
    fn prop_truncated_length_prefixed_fields_error(
        seed in any::<u64>(),
        len in 1usize..64,
    ) {
        let data = bytes_from_seed(seed, len);
        let mut wire = Vec::new();
        put_bytes(&mut wire, &data);
        // Any strict truncation of a single length-prefixed field must fail
        // under the field's label (and must not panic).
        let cut = StdRng::seed_from_u64(seed ^ 1).gen_range(0..wire.len());
        let mut reader = Reader::new(&wire[..cut]);
        prop_assert_eq!(reader.get_bytes("field"), Err(WireError("field")));
    }

    #[test]
    fn prop_padding_roundtrips_and_hides_length(
        seed in any::<u64>(),
        data_len in 0usize..96,
        slack in 0usize..32,
    ) {
        let data = bytes_from_seed(seed, data_len);
        let target = data_len + slack;
        let padded = pad_payload(&data, target).unwrap();
        // Fixed total size regardless of content length, and exact recovery.
        prop_assert_eq!(padded.len(), 4 + target);
        prop_assert_eq!(unpad_payload(&padded).unwrap(), data);
        // Oversized payloads are refused.
        let oversized = bytes_from_seed(seed, target + 1);
        prop_assert!(matches!(
            pad_payload(&oversized, target),
            Err(PipelineError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn prop_unpad_never_panics_on_arbitrary_input(
        seed in any::<u64>(),
        len in 0usize..128,
    ) {
        let bytes = bytes_from_seed(seed, len);
        // Arbitrary bytes either unpad to something shorter or error out.
        match unpad_payload(&bytes) {
            Ok(data) => prop_assert!(data.len() <= bytes.len().saturating_sub(4)),
            Err(PipelineError::MalformedReport(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }
}
