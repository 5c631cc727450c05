//! The sizes one attempt runs at: the paper's `N, B, D, C, S, K, W`
//! clamped to the input, the sealed length of every intermediate message,
//! the nonce index of every position, and how compression strips a bucket.

use prochlo_crypto::aead;

use super::StashShuffleParams;

/// Slots of one compression strip: an imported bucket is read in strips of
/// as many whole chunks as fit (at least one), so its plaintext residency
/// is a constant instead of the `B·C + K` slots of a bucket (25 k slots,
/// 8 MB, at N = 10 M).
pub(super) const IMPORT_STRIP_SLOTS: usize = 1024;

/// How compression strips an imported bucket: messages per strip (whole
/// `C`-slot chunks, at least one), and the plaintext slots of the largest
/// strip. The `K`-slot drain rides in the last strip, after the `B mod
/// strip` chunks left over from the full strips.
pub(super) fn import_strip(b: usize, c: usize, k: usize) -> (usize, usize) {
    let messages = (IMPORT_STRIP_SLOTS / c).max(1);
    let full = if b >= messages { messages * c } else { 0 };
    (messages, full.max((b % messages) * c + k))
}

/// The sizes one attempt runs at — the paper's `N, B, D, C, S, K, W` after
/// clamping to the input — plus the inner record length and the queue
/// bound, worked out once and shared by both phases.
#[derive(Debug, Clone, Copy)]
pub(super) struct Layout {
    pub(super) n: usize,
    pub(super) b: usize,
    pub(super) d: usize,
    pub(super) c: usize,
    pub(super) s: usize,
    pub(super) k: usize,
    pub(super) w: usize,
    pub(super) inner_len: usize,
    pub(super) queue_capacity: usize,
}

impl Layout {
    pub(super) fn new(params: &StashShuffleParams, n: usize, inner_len: usize) -> Self {
        let (b, d, w) = params.geometry(n);
        Self {
            n,
            b,
            d,
            c: params.chunk_cap,
            s: params.stash_capacity,
            k: params.stash_capacity.div_ceil(b).max(1),
            w,
            inner_len,
            queue_capacity: params.queue_capacity(n),
        }
    }

    /// One flag byte distinguishes real records from dummies after
    /// decryption.
    pub(super) fn slot_plain_len(&self) -> usize {
        1 + self.inner_len
    }

    /// Slots in the message at `position` of an intermediate bucket: `B`
    /// chunks of `C`, then the `K`-slot drain.
    pub(super) fn slots_at(&self, position: usize) -> usize {
        if position < self.b {
            self.c
        } else {
            self.k
        }
    }

    /// The length of a sealed message of `slots` slots: the nonce, the
    /// flagged slots and the tag.
    pub(super) fn sealed_len(&self, slots: usize) -> usize {
        aead::NONCE_LEN + slots * self.slot_plain_len() + aead::TAG_LEN
    }

    /// Nonce index of the chunk input bucket `in_idx` writes for output
    /// bucket `out_idx`.
    pub(super) fn chunk_message(&self, in_idx: usize, out_idx: usize) -> u64 {
        (in_idx * self.b + out_idx) as u64
    }

    /// Nonce index of output bucket `out_idx`'s stash drain; the drains
    /// follow all `B²` chunks.
    pub(super) fn drain_message(&self, out_idx: usize) -> u64 {
        (self.b * self.b + out_idx) as u64
    }

    /// The nonce index the message at `position` of intermediate bucket
    /// `out_idx` was sealed under.
    pub(super) fn message_at(&self, out_idx: usize, position: usize) -> u64 {
        if position < self.b {
            self.chunk_message(position, out_idx)
        } else {
            self.drain_message(out_idx)
        }
    }
}
