//! Message sealing: every intermediate message is one AEAD message of
//! flagged slots, sealed under a nonce that is a function of its position
//! in the intermediate array — `(input bucket, output bucket)` for a chunk,
//! a disjoint range for the drains — and compression recomputes that nonce
//! from the position it reads: a host that swaps, replays, appends,
//! removes or truncates a message fails the shuffle instead of silently
//! changing which records come out.

use prochlo_crypto::aead::{self, AeadKey};

use crate::error::ShuffleError;

/// Associated data of every intermediate message.
const MESSAGE_AAD: &[u8] = b"stash-chunk";

/// Seals one intermediate message of exactly `slots` flagged slots — the
/// `records` (at most `slots`, each `inner_len` bytes), then dummies — with
/// the ephemeral key, straight into its nonce-prefixed buffer. `index` is
/// the message's position in the intermediate array — a pure function of
/// (input bucket, output bucket) for a chunk — so parallel sealing needs no
/// shared counter and nonces never collide under one key.
pub(super) fn seal_message(
    key: &AeadKey,
    index: u64,
    records: &[&[u8]],
    slots: usize,
    inner_len: usize,
) -> Vec<u8> {
    let nonce = message_nonce(index);
    let plain_end = aead::NONCE_LEN + slots * (1 + inner_len);
    let mut sealed = Vec::with_capacity(plain_end + aead::TAG_LEN);
    sealed.extend_from_slice(&nonce);
    for record in records {
        sealed.push(1);
        sealed.extend_from_slice(record);
    }
    sealed.resize(plain_end, 0);
    aead::seal_in_place(key, &nonce, MESSAGE_AAD, &mut sealed, aead::NONCE_LEN);
    sealed
}

/// Opens the intermediate message read from global position `index` and
/// returns its real records, dummies dropped. The nonce stored beside the
/// ciphertext lives in untrusted memory, so it is only checked against the
/// one `index` implies: a message the host moved or copied from elsewhere
/// fails here.
pub(super) fn open_message(
    key: &AeadKey,
    sealed: &[u8],
    index: u64,
    slot_plain_len: usize,
) -> Result<Vec<Vec<u8>>, ShuffleError> {
    let nonce = message_nonce(index);
    if !sealed.starts_with(&nonce) {
        return Err(ShuffleError::IngressFailed(
            "intermediate message is not at the position it was sealed for",
        ));
    }
    let plain = aead::open(key, &nonce, MESSAGE_AAD, &sealed[aead::NONCE_LEN..])
        .map_err(|_| ShuffleError::IngressFailed("intermediate message authentication"))?;
    Ok(plain
        .chunks_exact(slot_plain_len)
        .filter(|slot| slot[0] == 1)
        .map(|slot| slot[1..].to_vec())
        .collect())
}

fn message_nonce(index: u64) -> [u8; aead::NONCE_LEN] {
    let mut nonce = [0u8; aead::NONCE_LEN];
    nonce[..8].copy_from_slice(&index.to_le_bytes());
    nonce[8..].copy_from_slice(b"stsh");
    nonce
}
