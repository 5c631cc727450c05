//! The compression phase: intermediate buckets are imported one at a time
//! into a sliding window of `W` buckets. A bucket that is not exactly `B`
//! chunks and one drain of the expected sealed lengths is refused before
//! anything is opened. Its messages are opened in a fixed order on the
//! same workers — a strip of `⌊1024/C⌋` chunks at a time, so the plaintext
//! held beside the queue does not grow with `N` — dummies are discarded,
//! and real records join a queue bounded by
//! [`queue_capacity`](super::StashShuffleParams::queue_capacity) (`W·D`
//! plus ≈ 5.27·√N of slack for the wander of the running bucket loads). The records the bucket
//! added are then permuted in private memory (Algorithm 4's in-enclave
//! shuffle, the phase's only draw), and exactly `D` records are emitted
//! per output bucket. Enqueueing is sequential in message order and the
//! queue only grows during an import, so worker count changes neither the
//! output nor the point at which a doomed attempt fails.

use std::collections::VecDeque;

use rand::seq::SliceRandom;
use rand::Rng;

use prochlo_crypto::aead::AeadKey;

use super::layout::{import_strip, Layout};
use super::message::open_message;
use super::{AttemptFailure, Intermediate, ReservedPrivate, StashShuffle};
use crate::error::ShuffleError;
use crate::exec;
use crate::Records;

impl StashShuffle {
    /// The compression phase: imports the intermediate buckets through a
    /// window of `W` and emits the `N` real records, `D` per output bucket.
    /// It takes the intermediate array by value and frees each bucket once
    /// it has read it, so the array shrinks as the output grows.
    pub(super) fn compress<R: Rng + ?Sized>(
        &self,
        mut mid: Intermediate,
        layout: &Layout,
        ephemeral_key: &AeadKey,
        rng: &mut R,
    ) -> Result<Records, AttemptFailure> {
        let Layout { n, b, d, w, .. } = *layout;
        let mut queue: VecDeque<Vec<u8>> = VecDeque::with_capacity(layout.queue_capacity);
        let mut output: Records = Vec::with_capacity(n);
        let (strip_messages, strip_slots) = import_strip(b, layout.c, layout.k);

        let mut import = |bucket_idx: usize,
                          queue: &mut VecDeque<Vec<u8>>,
                          rng: &mut R|
         -> Result<(), AttemptFailure> {
            let messages = std::mem::take(&mut mid[bucket_idx]);
            // Nothing is opened from a bucket of the wrong shape: an extra
            // message would authenticate under the position it claims (a
            // replayed drain, or another bucket's), and its records would
            // come out twice while the last drain dropped others.
            let well_formed = messages.len() == b + 1
                && messages.iter().enumerate().all(|(position, message)| {
                    message.len() == layout.sealed_len(layout.slots_at(position))
                });
            if !well_formed {
                return Err(AttemptFailure::Fatal(ShuffleError::IngressFailed(
                    "intermediate bucket has the wrong length",
                )));
            }
            self.enclave.copy_in(
                "read-intermediate-bucket",
                bucket_idx,
                messages.iter().map(Vec::len).sum(),
            );
            // One strip of plaintext messages is resident at a time.
            let strip_bytes = strip_slots * layout.slot_plain_len();
            self.charge(strip_bytes)?;
            let _strip = ReservedPrivate {
                enclave: &self.enclave,
                bytes: strip_bytes,
            };
            // Opening a message is a pure function of its bytes and
            // position, so the workers share a strip; the queue is then fed
            // sequentially in message order, which keeps the output and the
            // failure point those of the one-thread run.
            let imported_from = queue.len();
            for (strip_idx, strip) in messages.chunks(strip_messages).enumerate() {
                let opened = exec::par_chunks(strip, self.num_threads, 1, |offset, message| {
                    let position = strip_idx * strip_messages + offset;
                    open_message(
                        ephemeral_key,
                        &message[0],
                        layout.message_at(bucket_idx, position),
                        layout.slot_plain_len(),
                    )
                });
                for reals in opened {
                    for real in reals.map_err(AttemptFailure::Fatal)? {
                        if queue.len() >= layout.queue_capacity {
                            return Err(AttemptFailure::QueueOverflow);
                        }
                        self.charge(real.len())?;
                        queue.push_back(real);
                    }
                }
            }
            // Shuffle the records this bucket added inside private memory
            // (Algorithm 4) — the phase's only draw.
            queue.make_contiguous()[imported_from..].shuffle(rng);
            Ok(())
        };

        let drain = |bucket_idx: usize,
                     queue: &mut VecDeque<Vec<u8>>,
                     output: &mut Records,
                     allow_partial: bool|
         -> Result<(), AttemptFailure> {
            let want = d.min(n - output.len());
            if queue.len() < want && !allow_partial {
                return Err(AttemptFailure::WindowUnderflow);
            }
            let take = want.min(queue.len());
            let mut bytes = 0usize;
            for _ in 0..take {
                let item = queue.pop_front().expect("queue length checked");
                self.release(item.len());
                bytes += item.len();
                output.push(item);
            }
            self.enclave
                .copy_out("write-output-bucket", bucket_idx, bytes);
            Ok(())
        };

        let result: Result<(), AttemptFailure> = (|| {
            for bucket_idx in 0..w {
                import(bucket_idx, &mut queue, rng)?;
            }
            for bucket_idx in w..b {
                drain(bucket_idx - w, &mut queue, &mut output, false)?;
                import(bucket_idx, &mut queue, rng)?;
            }
            for bucket_idx in (b - w)..b {
                drain(bucket_idx, &mut queue, &mut output, true)?;
            }
            Ok(())
        })();

        // Release anything still queued before returning (success or failure).
        for item in queue.drain(..) {
            self.release(item.len());
        }
        result?;

        if output.len() != n {
            // Should be impossible: every real record was enqueued exactly once.
            return Err(AttemptFailure::Fatal(ShuffleError::InvalidParameters(
                "lost records during compression",
            )));
        }
        Ok(output)
    }
}
