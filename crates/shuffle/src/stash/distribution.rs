//! The distribution phase: the input is processed one bucket of
//! `D = ⌈N/B⌉` records at a time. Each record draws its output bucket
//! **independently and uniformly** from the bucket's derived generator —
//! the distribution [`params`](super::params) models (pair load
//! Binomial(D, 1/B), standard deviation ≈ `√(D/B)`) and the only one
//! under which the paper's Table 1 values are
//! reproducible; at most `C` records per (input, output) bucket pair are
//! written out immediately as one *chunk* — exactly `C` flagged slots,
//! real records padded with dummies, sealed as one AEAD message under an
//! ephemeral key, so the host learns nothing from sizes — and any
//! overflow waits in a private *stash*, draining opportunistically into
//! later chunks. A final drain writes one more message of `K = ⌈S/B⌉`
//! slots per output bucket, so an intermediate bucket is `B + 1`
//! fixed-length messages holding `B·C + K` slots.
//!
//! Distribution models a **multi-threaded enclave**: buckets are
//! pipelined in worker-sized groups, and the expensive per-bucket work —
//! the AEAD sealing of the output chunks — runs on scoped workers, each
//! charging a private-memory sub-budget carved from the enclave's
//! remaining budget ([`prochlo_sgx::WorkerPool::split`]) after the
//! stash's worst case is reserved up front; a bucket stays charged to its
//! worker from the moment it is read until it is sealed, so the budget
//! honestly bounds plaintext residency. The dummy-only chunks of empty
//! trailing buckets and the drain messages are sealed on the workers too.
//! Target assignment and the stash bookkeeping ahead of the sealing pass
//! are sequential in bucket order (the stash threads state from bucket to
//! bucket by construction, and neither does any cryptography). Each
//! bucket derives its own RNG from `(attempt seed, bucket index)` and
//! boundary crossings are buffered per bucket and committed in bucket
//! order, so the output, the boundary counters *and the access trace* are
//! byte-identical at any worker count.

use std::collections::VecDeque;

use rand::Rng;

use prochlo_crypto::aead::AeadKey;
use prochlo_sgx::{BoundaryLog, WorkerPool};

use super::layout::Layout;
use super::message::seal_message;
use super::{AttemptFailure, Intermediate, ReservedPrivate, StashShuffle};
use crate::exec;

/// One input bucket ready for sealing: `chunks[out_idx]` is the plaintext
/// chunk (≤ `C` records, borrowed from the input) bound for output bucket
/// `out_idx`, and `log` is the bucket's boundary history so far (its
/// `copy_in`; the sealing pass appends the `copy_out`s and the merged log
/// commits once, in bucket order).
struct BucketPlan<'a> {
    chunks: Vec<Vec<&'a [u8]>>,
    log: BoundaryLog,
}

/// One input bucket's sealed output: `chunks[out_idx]` is the sealed chunk
/// message for output bucket `out_idx`, and `log` is the bucket's complete
/// boundary history (read + chunk writes).
struct SealedBucket {
    chunks: Vec<Vec<u8>>,
    log: BoundaryLog,
}

impl StashShuffle {
    /// The distribution phase.
    pub(super) fn distribute(
        &self,
        input: &[Vec<u8>],
        layout: &Layout,
        ephemeral_key: &AeadKey,
        attempt_seed: u64,
    ) -> Result<Intermediate, AttemptFailure> {
        let Layout {
            n,
            b,
            d,
            c,
            s,
            k,
            inner_len,
            ..
        } = *layout;
        let slot_plain_len = layout.slot_plain_len();

        // Modelled as a multi-threaded enclave. The stash's worst case is
        // reserved up front, so worker sub-budgets are carved from what is
        // genuinely left: a worker that stays within its sub-budget can
        // never fail the global budget check, which keeps out-of-memory
        // outcomes a pure function of the configuration — never of how
        // worker charges happened to overlap in time.
        //
        // Buckets are processed in groups of `workers`, each group in two
        // steps:
        //
        //   A. (sequential, bucket order) read each bucket into its worker
        //      — charged to that worker's sub-budget until step B seals
        //      it, so the budget honestly bounds plaintext residency: at
        //      most `workers` buckets plus the reserved stash, never the
        //      whole batch — draw every record's target, and run the stash
        //      discipline: drain stashed records into chunks with room,
        //      overflow new records into the stash. It threads state from
        //      bucket to bucket by construction and does no cryptography;
        //   B. (parallel) per-bucket AEAD sealing and dummy padding of the
        //      B output chunks, then release of the bucket's charges.
        //
        // Within a group, bucket `i` always uses worker `i % workers`, so
        // the step B release meets the step A charge on the same worker.
        // Each bucket's boundary crossings accumulate in one log (copy_in
        // from step A, copy_outs from step B) committed in bucket order,
        // so output, boundary counters and the access trace are all
        // byte-identical at any worker count — and identical to the
        // sequential algorithm's trace.
        let workers = self.num_threads;
        self.charge(s * inner_len)?;
        let stash_reservation = ReservedPrivate {
            enclave: &self.enclave,
            bytes: s * inner_len,
        };
        let pool = WorkerPool::split(&self.enclave, workers);

        let real_buckets = n.div_ceil(d);
        let mut mid: Intermediate = vec![Vec::with_capacity(b + 1); b];
        // Stashed records are covered by the up-front reservation
        // (`stash_total` never exceeds S).
        let mut stash: Vec<VecDeque<&[u8]>> = vec![VecDeque::new(); b];
        let mut stash_total = 0usize;

        for group_start in (0..real_buckets).step_by(workers) {
            let group_end = (group_start + workers).min(real_buckets);
            let group_records = &input[group_start * d..(group_end * d).min(n)];

            // Step A.
            let mut plans: Vec<BucketPlan<'_>> = Vec::with_capacity(group_end - group_start);
            for (rel_idx, bucket) in group_records.chunks(d).enumerate() {
                let bucket_idx = group_start + rel_idx;
                let mut log = BoundaryLog::new();
                log.copy_in("read-input-bucket", bucket_idx, bucket.len() * inner_len);
                // The bucket, held until step B seals it. If the attempt
                // ends before that, the worker's Drop releases it.
                pool.with_exact(rel_idx, |worker| worker.charge_private(d * inner_len))
                    .map_err(|e| AttemptFailure::Fatal(e.into()))?;
                let mut chunks: Vec<Vec<&[u8]>> = vec![Vec::with_capacity(c); b];

                // Drain stashed records into chunks with room.
                for (out_idx, chunk) in chunks.iter_mut().enumerate() {
                    while chunk.len() < c {
                        match stash[out_idx].pop_front() {
                            Some(item) => {
                                stash_total -= 1;
                                chunk.push(item);
                            }
                            None => break,
                        }
                    }
                }

                // Distribute this bucket's records: every record draws its
                // output bucket from this bucket's derived generator.
                let mut bucket_rng = exec::chunk_rng(attempt_seed, bucket_idx as u64);
                let targets = uniform_targets(bucket.len(), b, &mut bucket_rng);
                for (record, target) in bucket.iter().zip(targets) {
                    if chunks[target].len() < c {
                        chunks[target].push(record);
                    } else if stash_total < s {
                        stash_total += 1;
                        stash[target].push_back(record);
                    } else {
                        return Err(AttemptFailure::StashOverflow);
                    }
                }
                plans.push(BucketPlan { chunks, log });
            }

            // Step B: seal and pad each bucket's B chunks on the worker
            // that holds its step A charge, then release both working
            // sets. Chunk nonces derive from the chunk's position — a pure
            // function of (bucket, output bucket) — instead of a shared
            // counter, so sealing parallelizes without coordination and
            // nonces stay unique.
            let sealed: Vec<Result<SealedBucket, AttemptFailure>> =
                exec::par_chunks(&plans, workers, 1, |rel_idx, plan| {
                    let bucket_idx = group_start + rel_idx;
                    let BucketPlan { chunks: plan, log } = &plan[0];
                    let mut log = log.clone();
                    pool.with_exact(rel_idx, |worker| {
                        // The B output chunks of C slots each.
                        let sealing_bytes = b * c * slot_plain_len;
                        worker
                            .charge_private(sealing_bytes)
                            .map_err(|e| AttemptFailure::Fatal(e.into()))?;
                        let chunks = plan
                            .iter()
                            .enumerate()
                            .map(|(out_idx, items)| {
                                let index = layout.chunk_message(bucket_idx, out_idx);
                                let chunk = seal_message(ephemeral_key, index, items, c, inner_len);
                                log.copy_out("write-intermediate-chunk", out_idx, chunk.len());
                                chunk
                            })
                            .collect();
                        worker
                            .release_private(sealing_bytes + d * inner_len)
                            .expect("charges and releases are balanced");
                        Ok(SealedBucket { chunks, log })
                    })
                });

            // Merge: the intermediate array (in untrusted memory), chunks
            // appended — and logs committed — in bucket order.
            for bucket in sealed {
                let SealedBucket { chunks, log } = bucket?;
                log.commit(&self.enclave);
                for (out_bucket, chunk) in mid.iter_mut().zip(chunks) {
                    out_bucket.push(chunk);
                }
            }
        }

        // Empty trailing buckets still write dummy-only chunks (no stash
        // drain, and outside any charged working set, exactly as the
        // sequential algorithm) so the access pattern only depends on N
        // and the parameters.
        let empty_buckets: Vec<usize> = (real_buckets..b).collect();
        let empty_chunks = exec::par_chunks(&empty_buckets, workers, 1, |_, bucket| {
            (0..b)
                .map(|out_idx| {
                    let index = layout.chunk_message(bucket[0], out_idx);
                    seal_message(ephemeral_key, index, &[], c, inner_len)
                })
                .collect::<Vec<_>>()
        });
        for chunks in empty_chunks {
            for (out_idx, (out_bucket, chunk)) in mid.iter_mut().zip(chunks).enumerate() {
                self.enclave
                    .copy_out("write-intermediate-chunk", out_idx, chunk.len());
                out_bucket.push(chunk);
            }
        }

        // Final stash drain: one K-slot message per output bucket
        // (Algorithm 1, line 5), its records still covered by the stash
        // reservation while they are sealed.
        let drains: Vec<Vec<&[u8]>> = stash
            .iter_mut()
            .map(|items| {
                let take = items.len().min(k);
                stash_total -= take;
                items.drain(..take).collect()
            })
            .collect();
        let sealed_drains = exec::par_chunks(&drains, workers, 1, |out_idx, items| {
            seal_message(
                ephemeral_key,
                layout.drain_message(out_idx),
                &items[0],
                k,
                inner_len,
            )
        });
        for (out_idx, (out_bucket, drain)) in mid.iter_mut().zip(sealed_drains).enumerate() {
            self.enclave
                .copy_out("write-stash-drain", out_idx, drain.len());
            out_bucket.push(drain);
        }
        // The stash is drained (or the attempt restarts): hand its
        // reservation back before the compression phase charges its own
        // working sets.
        drop(stash_reservation);
        if stash_total > 0 {
            return Err(AttemptFailure::StashUndrained);
        }
        Ok(mid)
    }
}

/// Draws the output bucket of each of `items` records independently and
/// uniformly from `0..buckets`: the load of a bucket is Binomial(items,
/// 1/buckets), the distribution [`StashShuffleParams::derive`] sizes `C`
/// for and [`StashShuffleParams::log2_epsilon`] bounds.
pub(super) fn uniform_targets<R: Rng + ?Sized>(
    items: usize,
    buckets: usize,
    rng: &mut R,
) -> Vec<usize> {
    (0..items).map(|_| rng.gen_range(0..buckets)).collect()
}
