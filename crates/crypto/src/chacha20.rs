//! The ChaCha20 stream cipher (RFC 8439 flavour: 256-bit key, 96-bit nonce,
//! 32-bit block counter).

use crate::util::load_u32_le;

/// Key length in bytes.
pub(crate) const KEY_LEN: usize = 32;
/// Nonce length in bytes (RFC 8439 uses a 96-bit nonce).
pub(crate) const NONCE_LEN: usize = 12;
/// Size of one keystream block.
pub(crate) const BLOCK_LEN: usize = 64;

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Computes one 64-byte ChaCha20 keystream block.
pub(crate) fn block(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; BLOCK_LEN] {
    // "expand 32-byte k" constants.
    let mut state: [u32; 16] = [
        0x6170_7865,
        0x3320_646e,
        0x7962_2d32,
        0x6b20_6574,
        load_u32_le(&key[0..4]),
        load_u32_le(&key[4..8]),
        load_u32_le(&key[8..12]),
        load_u32_le(&key[12..16]),
        load_u32_le(&key[16..20]),
        load_u32_le(&key[20..24]),
        load_u32_le(&key[24..28]),
        load_u32_le(&key[28..32]),
        counter,
        load_u32_le(&nonce[0..4]),
        load_u32_le(&nonce[4..8]),
        load_u32_le(&nonce[8..12]),
    ];
    let initial = state;

    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }

    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let word = state[i].wrapping_add(initial[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XORs the ChaCha20 keystream (starting at `counter`) into `data` in place.
///
/// Applying the same call twice restores the original data, so this is both
/// the encryption and decryption primitive.
pub(crate) fn xor_stream(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    counter: u32,
    data: &mut [u8],
) {
    let mut ctr = counter;
    for chunk in data.chunks_mut(BLOCK_LEN) {
        let ks = block(key, nonce, ctr);
        for (byte, k) in chunk.iter_mut().zip(ks.iter()) {
            *byte ^= k;
        }
        ctr = ctr.wrapping_add(1);
    }
}

/// Encrypts (or decrypts) `data`, returning a new vector.
pub(crate) fn apply(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    counter: u32,
    data: &[u8],
) -> Vec<u8> {
    let mut out = data.to_vec();
    xor_stream(key, nonce, counter, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::to_hex;

    fn test_key() -> [u8; KEY_LEN] {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        key
    }

    #[test]
    fn rfc8439_block_function_vector() {
        // RFC 8439 §2.3.2: key 00..1f, nonce 000000090000004a00000000, counter 1.
        let key = test_key();
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let ks = block(&key, &nonce, 1);
        assert_eq!(
            to_hex(&ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 §2.4.2: the "sunscreen" plaintext, counter starts at 1.
        let key = test_key();
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let ct = apply(&key, &nonce, 1, plaintext);
        assert_eq!(
            to_hex(&ct[..64]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
        );
        assert_eq!(
            to_hex(&ct[64..]),
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    #[test]
    fn xor_roundtrip() {
        let key = test_key();
        let nonce = [7u8; NONCE_LEN];
        let original: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut data = original.clone();
        xor_stream(&key, &nonce, 0, &mut data);
        assert_ne!(data, original);
        xor_stream(&key, &nonce, 0, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn counter_offsets_are_consistent() {
        // Encrypting block-by-block with incrementing counters must match one call.
        let key = test_key();
        let nonce = [3u8; NONCE_LEN];
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let whole = apply(&key, &nonce, 5, &data);
        let mut pieces = Vec::new();
        for (i, chunk) in data.chunks(BLOCK_LEN).enumerate() {
            pieces.extend_from_slice(&apply(&key, &nonce, 5 + i as u32, chunk));
        }
        assert_eq!(whole, pieces);
    }

    #[test]
    fn distinct_nonces_give_distinct_keystreams() {
        let key = test_key();
        let a = block(&key, &[0u8; NONCE_LEN], 0);
        let b = block(&key, &[1u8; NONCE_LEN], 0);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_input_is_noop() {
        let key = test_key();
        let nonce = [0u8; NONCE_LEN];
        assert!(apply(&key, &nonce, 0, &[]).is_empty());
    }
}
