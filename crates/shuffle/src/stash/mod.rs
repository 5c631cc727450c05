//! The Stash Shuffle (§4.1.4, Algorithms 1–4 of the paper).
//!
//! The algorithm shuffles `N` equal-sized records using only a small amount
//! of private (enclave) memory, in two phases:
//!
//! * **Distribution** — the input is processed one bucket of `D = ⌈N/B⌉`
//!   records at a time. Each record draws its output bucket **independently
//!   and uniformly** from the bucket's derived generator — the distribution
//!   [`params`] models (pair load Binomial(D, 1/B), standard deviation
//!   ≈ `√(D/B)`) and the only one under which the paper's Table 1 values are
//!   reproducible; at most `C` records per (input, output) bucket pair are
//!   written out immediately as one *chunk* — exactly `C` flagged slots,
//!   real records padded with dummies, sealed as one AEAD message under an
//!   ephemeral key, so the host learns nothing from sizes — and any
//!   overflow waits in a private *stash*, draining opportunistically into
//!   later chunks. A final drain writes one more message of `K = ⌈S/B⌉`
//!   slots per output bucket, so an intermediate bucket is `B + 1`
//!   fixed-length messages holding `B·C + K` slots.
//!
//!   Distribution models a **multi-threaded enclave**: buckets are
//!   pipelined in worker-sized groups, and the expensive per-bucket work —
//!   the AEAD sealing of the output chunks — runs on scoped workers, each
//!   charging a private-memory sub-budget carved from the enclave's
//!   remaining budget ([`prochlo_sgx::WorkerPool::split`]) after the
//!   stash's worst case is reserved up front; a bucket stays charged to its
//!   worker from the moment it is read until it is sealed, so the budget
//!   honestly bounds plaintext residency. The dummy-only chunks of empty
//!   trailing buckets and the drain messages are sealed on the workers too.
//!   Target assignment and the stash bookkeeping ahead of the sealing pass
//!   are sequential in bucket order (the stash threads state from bucket to
//!   bucket by construction, and neither does any cryptography). Each
//!   bucket derives its own RNG from `(attempt seed, bucket index)` and
//!   boundary crossings are buffered per bucket and committed in bucket
//!   order, so the output, the boundary counters *and the access trace* are
//!   byte-identical at any worker count.
//! * **Compression** — intermediate buckets are imported one at a time into a
//!   sliding window of `W` buckets. A bucket that is not exactly `B` chunks
//!   and one drain of the expected sealed lengths is refused before
//!   anything is opened. Its messages are opened in a fixed order on the
//!   same workers — a strip of `⌊1024/C⌋` chunks at a time, so the plaintext
//!   held beside the queue does not grow with `N` — dummies are discarded,
//!   and real records join a queue bounded by
//!   [`StashShuffleParams::queue_capacity`] (`W·D` plus ≈ 5.27·√N of slack
//!   for the wander of the running bucket loads). The records the bucket
//!   added are then permuted in private memory (Algorithm 4's in-enclave
//!   shuffle, the phase's only draw), and exactly `D` records are emitted
//!   per output bucket. Enqueueing is sequential in message order and the
//!   queue only grows during an import, so worker count changes neither the
//!   output nor the point at which a doomed attempt fails.
//!
//! Every message is sealed under a nonce that is a function of its position
//! in the intermediate array — `(input bucket, output bucket)` for a chunk, a
//! disjoint range for the drains — and compression recomputes that nonce
//! from the position it reads: a host that swaps, replays, appends, removes
//! or truncates a message fails the shuffle instead of silently changing
//! which records come out.
//!
//! An attempt can fail four ways — the stash fills during distribution, the
//! final drain leaves records in it, the compression queue outgrows its
//! bound, or the window runs dry — and then the shuffle restarts with fresh
//! randomness, exactly as in the paper; intermediate data is useless to an
//! observer because each attempt uses a fresh ephemeral key. Each kind is
//! counted on [`StashShuffleOutput::failures`] (on
//! [`ShuffleError::AttemptsExhausted`] when no attempt succeeds) and on the
//! `shuffle.stash.fail.*` obs counters; [`StashShuffleParams::log2_epsilon`]
//! bounds their union, and at derived parameters it is below 2⁻⁶⁴.
//!
//! The records arrive already peeled — the ESA shuffler removes the outer
//! encryption layer in one batched pass before any engine runs — so the
//! shuffle borrows them and copies a record only into the chunk it seals.
//! The implementation performs the real cryptography (intermediate chunks
//! are sealed with an AEAD under an ephemeral key) and charges every
//! boundary crossing and private-memory allocation to a
//! [`prochlo_sgx::Enclave`], so tests can assert both the memory budget and
//! the obliviousness of the access trace.

pub mod params;

use std::collections::VecDeque;

use rand::seq::SliceRandom;
use rand::Rng;

use prochlo_crypto::aead::{self, AeadKey};
use prochlo_sgx::{BoundaryLog, Enclave, EnclaveMetrics, WorkerPool};

use crate::error::ShuffleError;
use crate::exec;
use crate::{uniform_record_len, Records};

pub use params::{StashShuffleParams, Table1Scenario};

/// Slots of one compression strip: an imported bucket is read in strips of
/// as many whole chunks as fit (at least one), so its plaintext residency
/// is a constant instead of the `B·C + K` slots of a bucket (25 k slots,
/// 8 MB, at N = 10 M).
const IMPORT_STRIP_SLOTS: usize = 1024;

/// Associated data of every intermediate message.
const MESSAGE_AAD: &[u8] = b"stash-chunk";

/// How compression strips an imported bucket: messages per strip (whole
/// `C`-slot chunks, at least one), and the plaintext slots of the largest
/// strip. The `K`-slot drain rides in the last strip, after the `B mod
/// strip` chunks left over from the full strips.
fn import_strip(b: usize, c: usize, k: usize) -> (usize, usize) {
    let messages = (IMPORT_STRIP_SLOTS / c).max(1);
    let full = if b >= messages { messages * c } else { 0 };
    (messages, full.max((b % messages) * c + k))
}

/// Result of a successful Stash Shuffle run.
#[derive(Debug, Clone)]
// prochlo-lint: allow(uncalled-pub, "the return type of StashShuffle::shuffle; callers read its fields without naming it")
pub struct StashShuffleOutput {
    /// The shuffled records.
    pub records: Records,
    /// Enclave accounting accumulated over all attempts.
    pub metrics: EnclaveMetrics,
    /// Number of attempts made (1 = no restart was needed).
    pub attempts: usize,
    /// Why the `attempts − 1` restarted attempts failed.
    pub failures: StashFailures,
    /// Number of intermediate slots written during distribution (per
    /// attempt), i.e. `B·(B·C + K)`.
    pub intermediate_slots: usize,
}

/// Failed attempts of one shuffle, by what actually happened. The same four
/// counts accumulate on the `shuffle.stash.fail.*` obs counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StashFailures {
    /// A record overflowed its chunk during distribution and the stash
    /// already held `S` records.
    pub stash_overflow: usize,
    /// The final `K`-per-bucket drain left records in the stash.
    pub stash_undrained: usize,
    /// The compression queue would have outgrown
    /// [`StashShuffleParams::queue_capacity`].
    pub queue_overflow: usize,
    /// An output bucket was due and the queue held fewer than `D` records.
    pub window_underflow: usize,
}

impl StashFailures {
    /// Total failed attempts.
    pub fn total(&self) -> usize {
        self.stash_overflow + self.stash_undrained + self.queue_overflow + self.window_underflow
    }

    /// Each kind's name (the suffix of its obs counter) and count.
    pub(crate) fn by_kind(&self) -> [(&'static str, usize); 4] {
        [
            ("stash_overflow", self.stash_overflow),
            ("stash_undrained", self.stash_undrained),
            ("queue_overflow", self.queue_overflow),
            ("window_underflow", self.window_underflow),
        ]
    }

    /// Adds the counts to the global obs registry (which also registers the
    /// four names, so a snapshot shows the zeros).
    fn publish(&self) {
        for (kind, count) in self.by_kind() {
            prochlo_obs::counter(&format!("shuffle.stash.fail.{kind}")).add(count as u64);
        }
    }
}

/// A configured Stash Shuffle instance bound to an enclave.
#[derive(Debug, Clone)]
pub struct StashShuffle {
    params: StashShuffleParams,
    enclave: Enclave,
    max_attempts: usize,
    num_threads: usize,
}

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

/// The intermediate array in untrusted memory: per output bucket, its
/// `B + 1` sealed messages — one chunk from each input bucket, in input
/// bucket order, then its stash drain.
type Intermediate = Vec<Vec<Vec<u8>>>;

/// Why an attempt ended early: one of the four restartable failures, or an
/// error no retry can cure.
#[derive(Debug, PartialEq)]
enum AttemptFailure {
    StashOverflow,
    StashUndrained,
    QueueOverflow,
    WindowUnderflow,
    Fatal(ShuffleError),
}

/// The sizes one attempt runs at — the paper's `N, B, D, C, S, K, W` after
/// clamping to the input — plus the inner record length and the queue
/// bound, worked out once and shared by both phases.
#[derive(Debug, Clone, Copy)]
struct Layout {
    n: usize,
    b: usize,
    d: usize,
    c: usize,
    s: usize,
    k: usize,
    w: usize,
    inner_len: usize,
    queue_capacity: usize,
}

impl Layout {
    fn new(params: &StashShuffleParams, n: usize, inner_len: usize) -> Self {
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
    fn slot_plain_len(&self) -> usize {
        1 + self.inner_len
    }

    /// Slots in the message at `position` of an intermediate bucket: `B`
    /// chunks of `C`, then the `K`-slot drain.
    fn slots_at(&self, position: usize) -> usize {
        if position < self.b {
            self.c
        } else {
            self.k
        }
    }

    /// The length of a sealed message of `slots` slots: the nonce, the
    /// flagged slots and the tag.
    fn sealed_len(&self, slots: usize) -> usize {
        aead::NONCE_LEN + slots * self.slot_plain_len() + aead::TAG_LEN
    }

    /// Nonce index of the chunk input bucket `in_idx` writes for output
    /// bucket `out_idx`.
    fn chunk_message(&self, in_idx: usize, out_idx: usize) -> u64 {
        (in_idx * self.b + out_idx) as u64
    }

    /// Nonce index of output bucket `out_idx`'s stash drain; the drains
    /// follow all `B²` chunks.
    fn drain_message(&self, out_idx: usize) -> u64 {
        (self.b * self.b + out_idx) as u64
    }

    /// The nonce index the message at `position` of intermediate bucket
    /// `out_idx` was sealed under.
    fn message_at(&self, out_idx: usize, position: usize) -> u64 {
        if position < self.b {
            self.chunk_message(position, out_idx)
        } else {
            self.drain_message(out_idx)
        }
    }
}

impl StashShuffle {
    /// Creates a shuffler with explicit parameters.
    pub fn new(params: StashShuffleParams, enclave: Enclave) -> Self {
        Self {
            params,
            enclave,
            max_attempts: 10,
            num_threads: 1,
        }
    }

    /// Sets the number of enclave worker threads both phases shard their
    /// per-bucket cryptography over (a resolved count; default 1). The
    /// enclave budget is split into equal per-worker sub-budgets, and the
    /// output is byte-identical at any worker count.
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads.max(1);
        self
    }

    /// The parameters in use.
    pub fn params(&self) -> &StashShuffleParams {
        &self.params
    }

    /// The enclave used for accounting.
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// Shuffles `input`, restarting with fresh randomness when an attempt
    /// fails.
    pub fn shuffle<R: Rng + ?Sized>(
        &self,
        input: &[Vec<u8>],
        rng: &mut R,
    ) -> Result<StashShuffleOutput, ShuffleError> {
        let record_len = uniform_record_len(input)?;
        if input.is_empty() {
            return Ok(StashShuffleOutput {
                records: Vec::new(),
                metrics: self.enclave.metrics(),
                attempts: 1,
                failures: StashFailures::default(),
                intermediate_slots: 0,
            });
        }

        let mut failures = StashFailures::default();
        let mut outcome = None;
        for attempt in 1..=self.max_attempts {
            match self.attempt(input, record_len, rng) {
                Ok((records, intermediate_slots)) => {
                    outcome = Some(Ok((records, intermediate_slots, attempt)));
                    break;
                }
                Err(AttemptFailure::Fatal(e)) => {
                    outcome = Some(Err(e));
                    break;
                }
                // Anything else restarts with fresh randomness (and a fresh
                // ephemeral key, implicitly, on the next attempt).
                Err(AttemptFailure::StashOverflow) => failures.stash_overflow += 1,
                Err(AttemptFailure::StashUndrained) => failures.stash_undrained += 1,
                Err(AttemptFailure::QueueOverflow) => failures.queue_overflow += 1,
                Err(AttemptFailure::WindowUnderflow) => failures.window_underflow += 1,
            }
        }
        failures.publish();
        let (records, intermediate_slots, attempts) =
            outcome.unwrap_or(Err(ShuffleError::AttemptsExhausted { failures }))?;
        Ok(StashShuffleOutput {
            records,
            metrics: self.enclave.metrics(),
            attempts,
            failures,
            intermediate_slots,
        })
    }

    /// One full attempt: distribution then compression.
    fn attempt<R: Rng + ?Sized>(
        &self,
        input: &[Vec<u8>],
        record_len: usize,
        rng: &mut R,
    ) -> Result<(Records, usize), AttemptFailure> {
        // Ephemeral key protecting the intermediate array; a new key per
        // attempt means failed attempts leak nothing about the final order.
        let ephemeral_key = AeadKey::random(rng);
        // Seed for the per-bucket generators of the distribution phase:
        // every bucket's randomness is a pure function of (attempt seed,
        // bucket index).
        let attempt_seed = rng.next_u64();
        let layout = Layout::new(&self.params, input.len(), record_len);

        let mid = self.distribute(input, &layout, &ephemeral_key, attempt_seed)?;
        let output = self.compress(mid, &layout, &ephemeral_key, rng)?;
        Ok((output, layout.b * (layout.b * layout.c + layout.k)))
    }

    fn charge(&self, bytes: usize) -> Result<(), AttemptFailure> {
        self.enclave
            .charge_private(bytes)
            .map_err(|e| AttemptFailure::Fatal(e.into()))
    }

    fn release(&self, bytes: usize) {
        self.enclave
            .release_private(bytes)
            .expect("charges and releases are balanced");
    }

    /// The distribution phase.
    fn distribute(
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

    /// The compression phase: imports the intermediate buckets through a
    /// window of `W` and emits the `N` real records, `D` per output bucket.
    /// It takes the intermediate array by value and frees each bucket once
    /// it has read it, so the array shrinks as the output grows.
    fn compress<R: Rng + ?Sized>(
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

/// A private-memory charge released on every exit path — success, restart
/// or fatal error alike.
struct ReservedPrivate<'a> {
    enclave: &'a Enclave,
    bytes: usize,
}

impl Drop for ReservedPrivate<'_> {
    fn drop(&mut self) {
        self.enclave
            .release_private(self.bytes)
            .expect("reservation release cannot underflow");
    }
}

/// Draws the output bucket of each of `items` records independently and
/// uniformly from `0..buckets`: the load of a bucket is Binomial(items,
/// 1/buckets), the distribution [`StashShuffleParams::derive`] sizes `C`
/// for and [`StashShuffleParams::log2_epsilon`] bounds.
fn uniform_targets<R: Rng + ?Sized>(items: usize, buckets: usize, rng: &mut R) -> Vec<usize> {
    (0..items).map(|_| rng.gen_range(0..buckets)).collect()
}

/// Seals one intermediate message of exactly `slots` flagged slots — the
/// `records` (at most `slots`, each `inner_len` bytes), then dummies — with
/// the ephemeral key, straight into its nonce-prefixed buffer. `index` is
/// the message's position in the intermediate array — a pure function of
/// (input bucket, output bucket) for a chunk — so parallel sealing needs no
/// shared counter and nonces never collide under one key.
fn seal_message(
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
fn open_message(
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

#[cfg(test)]
mod tests {
    use super::*;
    use prochlo_sgx::EnclaveConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn records(n: usize, len: usize) -> Records {
        (0..n)
            .map(|i| {
                let mut r = vec![0u8; len];
                r[..8].copy_from_slice(&(i as u64).to_le_bytes());
                r
            })
            .collect()
    }

    fn test_shuffler(n: usize) -> StashShuffle {
        let params = StashShuffleParams::derive(n);
        let enclave = Enclave::new(EnclaveConfig {
            private_memory_bytes: 8 * 1024 * 1024,
            record_trace: true,
            code_identity: "test-stash".into(),
        });
        StashShuffle::new(params, enclave)
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let input = records(2_000, 32);
        let out = test_shuffler(input.len())
            .shuffle(&input, &mut rng)
            .unwrap();
        assert_eq!(out.records.len(), input.len());
        let in_set: HashSet<_> = input.iter().cloned().collect();
        let out_set: HashSet<_> = out.records.iter().cloned().collect();
        assert_eq!(in_set, out_set);
    }

    #[test]
    fn shuffle_changes_order() {
        let mut rng = StdRng::seed_from_u64(2);
        let input = records(1_000, 16);
        let out = test_shuffler(input.len())
            .shuffle(&input, &mut rng)
            .unwrap();
        assert_ne!(
            out.records, input,
            "order should change with overwhelming probability"
        );
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let mut rng = StdRng::seed_from_u64(3);
        let out = test_shuffler(16).shuffle(&[], &mut rng).unwrap();
        assert!(out.records.is_empty());

        let input = records(1, 8);
        let out = test_shuffler(1).shuffle(&input, &mut rng).unwrap();
        assert_eq!(out.records, input);

        let input = records(7, 8);
        let out = test_shuffler(7).shuffle(&input, &mut rng).unwrap();
        assert_eq!(out.records.len(), 7);
    }

    #[test]
    fn non_uniform_records_are_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut input = records(10, 16);
        input[3] = vec![0u8; 7];
        assert!(matches!(
            test_shuffler(10).shuffle(&input, &mut rng),
            Err(ShuffleError::NonUniformRecords)
        ));
    }

    #[test]
    fn intermediate_slot_count_matches_formula() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 1_100;
        let params = StashShuffleParams::new(10, 20, 400, 3).unwrap();
        let enclave = Enclave::new(EnclaveConfig {
            private_memory_bytes: 4 * 1024 * 1024,
            record_trace: false,
            code_identity: "t".into(),
        });
        let shuffler = StashShuffle::new(params, enclave);
        let input = records(n, 24);
        let out = shuffler.shuffle(&input, &mut rng).unwrap();
        // B·(B·C + K) with B = 10, C = 20, K = 40.
        assert_eq!(out.intermediate_slots, 10 * (10 * 20 + 40));
        // Overhead factor from the params must agree with the slot count.
        let expected_overhead = 1.0 + out.intermediate_slots as f64 / n as f64;
        assert!((params.overhead_factor(n) - expected_overhead).abs() < 1e-9);
    }

    #[test]
    fn tight_parameters_cause_stash_overflow() {
        let mut rng = StdRng::seed_from_u64(8);
        // C below the mean load and no stash: the shuffle cannot succeed.
        let params = StashShuffleParams::new(10, 1, 0, 2).unwrap();
        let enclave = Enclave::new(EnclaveConfig {
            private_memory_bytes: 4 * 1024 * 1024,
            record_trace: false,
            code_identity: "t".into(),
        });
        let mut shuffler = StashShuffle::new(params, enclave);
        shuffler.max_attempts = 3;
        let input = records(1_000, 16);
        // Every attempt dies the same way: the first chunk overflow finds
        // the zero-capacity stash full.
        assert_eq!(
            shuffler.shuffle(&input, &mut rng).unwrap_err(),
            ShuffleError::AttemptsExhausted {
                failures: StashFailures {
                    stash_overflow: 3,
                    ..StashFailures::default()
                }
            }
        );
    }

    #[test]
    fn enclave_budget_is_enforced() {
        let mut rng = StdRng::seed_from_u64(9);
        let params = StashShuffleParams::derive(5_000);
        let enclave = Enclave::new(EnclaveConfig {
            private_memory_bytes: 10 * 1024, // 10 KB: far too small
            record_trace: false,
            code_identity: "t".into(),
        });
        let shuffler = StashShuffle::new(params, enclave);
        let input = records(5_000, 64);
        assert!(matches!(
            shuffler.shuffle(&input, &mut rng),
            Err(ShuffleError::Enclave(_))
        ));
    }

    #[test]
    fn private_memory_is_fully_released() {
        let mut rng = StdRng::seed_from_u64(10);
        let shuffler = test_shuffler(3_000);
        let input = records(3_000, 32);
        let out = shuffler.shuffle(&input, &mut rng).unwrap();
        assert_eq!(out.metrics.private_in_use, 0);
        assert!(out.metrics.private_peak > 0);
        assert!(out.metrics.private_peak <= 8 * 1024 * 1024);
    }

    #[test]
    fn output_and_trace_are_thread_count_invariant() {
        // The distribution phase must be a pure function of (input, rng),
        // no matter how many enclave workers shard it: records, metrics and
        // the access trace all byte-identical.
        let input = records(2_500, 24);
        let run = |threads: usize| {
            let params = StashShuffleParams::derive(input.len());
            let enclave = Enclave::new(EnclaveConfig {
                private_memory_bytes: 8 * 1024 * 1024,
                record_trace: true,
                code_identity: "threads-test".into(),
            });
            let shuffler = StashShuffle::new(params, enclave).with_threads(threads);
            let mut rng = StdRng::seed_from_u64(77);
            let out = shuffler.shuffle(&input, &mut rng).unwrap();
            (out.records, out.attempts, shuffler.enclave().trace())
        };
        let sequential = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), sequential, "{threads} workers");
        }
    }

    #[test]
    fn worker_sub_budgets_sum_to_the_enclave_budget() {
        // Each distribution worker gets budget/threads; a bucket working
        // set that fits the whole budget but not a sub-budget must fail.
        let input = records(2_000, 64);
        let params = StashShuffleParams::derive(input.len());
        let budget_needed = params.items_per_bucket(input.len()) * 64;
        let enclave = Enclave::new(EnclaveConfig {
            // Room for one bucket on one worker, but not for an eighth of
            // the budget per worker at 8 workers.
            private_memory_bytes: budget_needed * 4,
            record_trace: false,
            code_identity: "sub-budget".into(),
        });
        let mut rng = StdRng::seed_from_u64(5);
        let err = StashShuffle::new(params, enclave)
            .with_threads(8)
            .shuffle(&input, &mut rng)
            .unwrap_err();
        assert!(matches!(err, ShuffleError::Enclave(_)), "{err:?}");
    }

    #[test]
    fn access_trace_is_data_independent() {
        // Two completely different datasets of the same size and record
        // length must produce identical access traces when the shuffler uses
        // the same randomness: the host learns nothing about the data.
        let n = 1_500;
        let a = records(n, 24);
        let b: Records = (0..n)
            .map(|i| {
                let mut r = vec![0xabu8; 24];
                r[..8].copy_from_slice(&((i * 7 + 3) as u64).to_le_bytes());
                r
            })
            .collect();

        let run = |input: &Records| {
            let params = StashShuffleParams::derive(n);
            let enclave = Enclave::new(EnclaveConfig {
                private_memory_bytes: 8 * 1024 * 1024,
                record_trace: true,
                code_identity: "trace-test".into(),
            });
            let shuffler = StashShuffle::new(params, enclave);
            let mut rng = StdRng::seed_from_u64(42);
            let _ = shuffler.shuffle(input, &mut rng).unwrap();
            shuffler.enclave().trace()
        };

        assert_eq!(run(&a), run(&b));
    }

    #[test]
    fn boundary_traffic_reflects_overhead_factor() {
        // Bytes entering the enclave: the input once, then every
        // intermediate bucket once — B chunks of C flagged slots and one
        // drain of K, each message carrying one nonce and one tag (28
        // bytes). Bytes leaving it: the same intermediate array, then the
        // output once.
        let len = 64;
        for n in [1_000usize, 4_800, 20_000] {
            let params = StashShuffleParams::derive(n);
            let (b, c) = (params.num_buckets, params.chunk_cap);
            let k = params.stash_drain_per_bucket();
            let intermediate = b * (b * (c * (len + 1) + 28) + k * (len + 1) + 28);
            let input = records(n, len);
            for threads in [1, 2] {
                let shuffler = StashShuffle::new(
                    params,
                    Enclave::new(EnclaveConfig {
                        private_memory_bytes: 16 * 1024 * 1024,
                        record_trace: false,
                        code_identity: "boundary".into(),
                    }),
                )
                .with_threads(threads);
                let mut rng = StdRng::seed_from_u64(11);
                let out = shuffler.shuffle(&input, &mut rng).unwrap();
                assert_eq!(out.attempts, 1);
                assert_eq!(out.intermediate_slots, b * (b * c + k));
                let expected = (n * len + intermediate) as u64;
                assert_eq!(
                    (out.metrics.bytes_in, out.metrics.bytes_out),
                    (expected, expected),
                    "N = {n} at {threads} workers"
                );
            }
        }
    }

    #[test]
    fn uniform_targets_load_buckets_binomially() {
        // The sampler must be the distribution the parameter model assumes:
        // a bucket's load is Binomial(D, 1/B). (A uniformly random
        // composition — records shuffled with B − 1 separators — has the
        // right mean but a deviation of ≈ D/B and sends 7.65 % of the
        // (229, 21) loads past the five-sigma cap.)
        for (items, buckets, draws) in [(10_000usize, 16usize, 200usize), (229, 21, 2_000)] {
            let mut rng = StdRng::seed_from_u64(12);
            let mean = items as f64 / buckets as f64;
            let cap = mean + 5.0 * mean.sqrt();
            let (mut sum_sq, mut over) = (0.0f64, 0usize);
            for _ in 0..draws {
                let targets = uniform_targets(items, buckets, &mut rng);
                assert_eq!(targets.len(), items);
                let mut loads = vec![0usize; buckets];
                for target in targets {
                    loads[target] += 1;
                }
                for load in loads {
                    sum_sq += (load as f64 - mean).powi(2);
                    over += usize::from(load as f64 > cap);
                }
            }
            let samples = (draws * buckets) as f64;
            let sd = (sum_sq / samples).sqrt();
            let model_sd = (mean * (1.0 - 1.0 / buckets as f64)).sqrt();
            assert!(
                (sd / model_sd - 1.0).abs() < 0.10,
                "({items}, {buckets}): load sd {sd:.2} vs binomial {model_sd:.2}"
            );
            assert!(
                (over as f64) < 1e-3 * samples,
                "({items}, {buckets}): {over} of {samples} loads above mean + 5 sigma"
            );
        }
        // Single bucket edge case.
        let mut rng = StdRng::seed_from_u64(12);
        assert_eq!(uniform_targets(5, 1, &mut rng), vec![0; 5]);
    }

    #[test]
    fn derived_parameters_take_one_attempt() {
        // Table 1 sizes the parameters so that an attempt all but never
        // fails; a restart is an extra observable access pattern. With the
        // composition sampler and a queue slack of W·K these counts read
        // 100 / ≈75 / ≈1 successes.
        for (n, shuffles) in [(1_000usize, 100usize), (5_000, 100), (50_000, 10)] {
            let input = records(n, 16);
            let mut shuffler = StashShuffle::new(
                StashShuffleParams::derive(n),
                Enclave::new(EnclaveConfig {
                    private_memory_bytes: 8 * 1024 * 1024,
                    record_trace: false,
                    code_identity: "one-attempt".into(),
                }),
            );
            shuffler.max_attempts = 1;
            let mut rng = StdRng::seed_from_u64(0x5ea5 + n as u64);
            for shuffle in 0..shuffles {
                let out = shuffler
                    .shuffle(&input, &mut rng)
                    .unwrap_or_else(|e| panic!("N = {n}, shuffle {shuffle}: {e}"));
                assert_eq!(out.attempts, 1);
                assert_eq!(out.failures, StashFailures::default());
            }
        }
    }

    /// A distribution-phase run the tamper and failure-kind tests pick up
    /// from: the shuffler, the layout, the ephemeral key and the
    /// intermediate array.
    fn distributed(
        n: usize,
        tweak: impl FnOnce(&mut Layout),
    ) -> (
        StashShuffle,
        Layout,
        AeadKey,
        Result<Intermediate, AttemptFailure>,
    ) {
        let shuffler = test_shuffler(n);
        let mut layout = Layout::new(shuffler.params(), n, 16);
        tweak(&mut layout);
        let key = AeadKey::random(&mut StdRng::seed_from_u64(14));
        let mid = shuffler.distribute(&records(n, 16), &layout, &key, 15);
        (shuffler, layout, key, mid)
    }

    /// The real records the message at `position` of intermediate bucket
    /// `bucket_idx` carries.
    fn reals_at(
        layout: &Layout,
        key: &AeadKey,
        mid: &Intermediate,
        bucket_idx: usize,
        position: usize,
    ) -> usize {
        open_message(
            key,
            &mid[bucket_idx][position],
            layout.message_at(bucket_idx, position),
            layout.slot_plain_len(),
        )
        .unwrap()
        .len()
    }

    const OUT_OF_POSITION: AttemptFailure = AttemptFailure::Fatal(ShuffleError::IngressFailed(
        "intermediate message is not at the position it was sealed for",
    ));

    const WRONG_LENGTH: AttemptFailure = AttemptFailure::Fatal(ShuffleError::IngressFailed(
        "intermediate bucket has the wrong length",
    ));

    #[test]
    fn a_swapped_message_fails_the_shuffle() {
        let (shuffler, layout, key, mid) = distributed(1_000, |_| {});
        let mut mid = mid.unwrap();
        let mut rng = StdRng::seed_from_u64(16);
        // Untouched, the intermediate array compresses to a permutation.
        let out = shuffler
            .compress(mid.clone(), &layout, &key, &mut rng)
            .unwrap();
        assert_eq!(out.len(), 1_000);
        // Two authentic chunks of one bucket trade places.
        mid[0].swap(0, 1);
        assert_eq!(
            shuffler.compress(mid.clone(), &layout, &key, &mut rng),
            Err(OUT_OF_POSITION)
        );
        assert_eq!(shuffler.enclave().metrics().private_in_use, 0);
        // So do two chunks of different buckets.
        mid[0].swap(0, 1);
        let (first, second) = mid.split_at_mut(1);
        std::mem::swap(&mut first[0][0], &mut second[0][0]);
        assert_eq!(
            shuffler.compress(mid, &layout, &key, &mut rng),
            Err(OUT_OF_POSITION)
        );
        assert_eq!(shuffler.enclave().metrics().private_in_use, 0);
    }

    #[test]
    fn a_replayed_message_fails_the_shuffle() {
        // A chunk copied over another authenticates under its stored nonce;
        // trusting that nonce would enqueue its records twice and the last
        // drain would then silently drop different ones.
        let (shuffler, layout, key, mid) = distributed(1_000, |_| {});
        let mut mid = mid.unwrap();
        assert!(reals_at(&layout, &key, &mid, 0, 1) > 0);
        mid[0][0] = mid[0][1].clone();
        let mut rng = StdRng::seed_from_u64(17);
        assert_eq!(
            shuffler.compress(mid, &layout, &key, &mut rng),
            Err(OUT_OF_POSITION)
        );
        assert_eq!(shuffler.enclave().metrics().private_in_use, 0);
    }

    #[test]
    fn a_bucket_of_the_wrong_shape_fails_the_shuffle() {
        // Tight chunks and a deep drain, so the drains carry real records:
        // an appended drain that authenticated would duplicate them.
        let (shuffler, layout, key, mid) = distributed(1_000, |layout| {
            layout.c = 8;
            layout.s = 1_000;
            layout.k = 100;
        });
        let mid = mid.unwrap();
        let b = layout.b;
        assert!(reals_at(&layout, &key, &mid, 1, b) > 0);
        assert_ne!(layout.c, layout.k);
        type Tamper = fn(&mut Intermediate, usize);
        let tampered: [(&str, Tamper); 5] = [
            ("another bucket's drain appended", |mid, b| {
                let drain = mid[1][b].clone();
                mid[0].push(drain);
            }),
            ("its own drain replayed", |mid, b| {
                let drain = mid[0][b].clone();
                mid[0].push(drain);
            }),
            ("a chunk removed", |mid, _| {
                mid[0].remove(3);
            }),
            ("a chunk truncated", |mid, _| {
                mid[0][3].pop();
            }),
            ("the drain swapped with a chunk", |mid, b| mid[0].swap(0, b)),
        ];
        for (case, tamper) in tampered {
            let mut mid = mid.clone();
            tamper(&mut mid, b);
            let mut rng = StdRng::seed_from_u64(18);
            assert_eq!(
                shuffler.compress(mid, &layout, &key, &mut rng),
                Err(WRONG_LENGTH),
                "{case}"
            );
            assert_eq!(shuffler.enclave().metrics().private_in_use, 0, "{case}");
        }
        // Untampered, the same array compresses.
        let mut rng = StdRng::seed_from_u64(18);
        assert_eq!(
            shuffler
                .compress(mid, &layout, &key, &mut rng)
                .unwrap()
                .len(),
            1_000
        );
    }

    #[test]
    fn each_failure_kind_is_reported_as_what_happened() {
        // Distribution: no stash at all, then a stash that holds everything
        // but drains one record per bucket.
        let (_, _, _, mid) = distributed(1_000, |layout| {
            layout.c = 5;
            layout.s = 0;
        });
        assert_eq!(mid, Err(AttemptFailure::StashOverflow));
        let (_, _, _, mid) = distributed(1_000, |layout| {
            layout.c = 5;
            layout.s = 1_000;
            layout.k = 1;
        });
        assert_eq!(mid, Err(AttemptFailure::StashUndrained));

        // Compression: a queue with no room beyond one bucket, then a
        // window of one bucket (the first output bucket is due before a
        // second bucket is imported). Both leave the enclave balanced, and
        // the failure point does not move with the worker count.
        for (tweak, expected) in [
            (
                (|layout| layout.queue_capacity = layout.d) as fn(&mut Layout),
                AttemptFailure::QueueOverflow,
            ),
            (|layout| layout.w = 1, AttemptFailure::WindowUnderflow),
        ] {
            let run = |threads: usize| {
                let (shuffler, mut layout, key, mid) = distributed(1_000, |_| {});
                tweak(&mut layout);
                let shuffler = shuffler.with_threads(threads);
                let before = shuffler.enclave().trace().len();
                let mut rng = StdRng::seed_from_u64(18);
                let result = shuffler.compress(mid.unwrap(), &layout, &key, &mut rng);
                assert_eq!(shuffler.enclave().metrics().private_in_use, 0);
                (result, shuffler.enclave().trace()[before..].to_vec())
            };
            let sequential = run(1);
            assert_eq!(sequential.0, Err(expected));
            assert_eq!(run(4), sequential);
        }
    }

    #[test]
    fn restarts_are_counted_by_kind() {
        // Parameters tight enough that some attempts fail: every restart
        // shows up under exactly one kind.
        let params = StashShuffleParams::new(10, 13, 30, 3).unwrap();
        let input = records(1_000, 16);
        let mut restarted = 0;
        for seed in 0..20 {
            let enclave = Enclave::new(EnclaveConfig {
                private_memory_bytes: 4 * 1024 * 1024,
                record_trace: false,
                code_identity: "t".into(),
            });
            let mut shuffler = StashShuffle::new(params, enclave);
            shuffler.max_attempts = 50;
            let out = shuffler
                .shuffle(&input, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            assert_eq!(out.failures.total(), out.attempts - 1);
            restarted += out.failures.total();
        }
        assert!(restarted > 0, "the parameters were meant to be tight");
    }

    #[test]
    fn import_strips_hold_a_constant_number_of_slots() {
        // The benchmark's batch (B = 21, C = 28, K = 40): one strip.
        assert_eq!(import_strip(21, 28, 40), (36, 21 * 28 + 40));
        // Table 1's first row: 25 strips of 40 chunks; the drain rides alone.
        assert_eq!(import_strip(1_000, 25, 40), (40, 1_000));
        // A chunk wider than a strip is still read whole.
        assert_eq!(import_strip(3, 2_000, 10), (1, 2_000));
        for b in [1usize, 7, 100, 4_400] {
            for c in [1usize, 24, 30, 500] {
                let (messages, slots) = import_strip(b, c, 43);
                assert!(messages * c <= IMPORT_STRIP_SLOTS);
                assert!(slots <= IMPORT_STRIP_SLOTS + 43, "B = {b}, C = {c}");
            }
        }
    }

    #[test]
    fn message_seal_open_roundtrip_and_dummy_flag() {
        let mut rng = StdRng::seed_from_u64(13);
        let key = AeadKey::random(&mut rng);
        let records: [&[u8]; 2] = [b"hello-world-1234", b"second-record-56"];
        let sealed_real = seal_message(&key, 0, &records, 5, 16);
        let sealed_dummy = seal_message(&key, 1, &[], 5, 16);
        assert_eq!(sealed_real.len(), aead::NONCE_LEN + 5 * 17 + aead::TAG_LEN);
        assert_eq!(sealed_real.len(), sealed_dummy.len());
        assert_eq!(open_message(&key, &sealed_real, 0, 17).unwrap(), records);
        assert!(open_message(&key, &sealed_dummy, 1, 17).unwrap().is_empty());
        // A message only opens at the position it was sealed for.
        assert!(open_message(&key, &sealed_real, 1, 17).is_err());
        // Tampering is detected.
        let mut tampered = sealed_real.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 1;
        assert!(open_message(&key, &tampered, 0, 17).is_err());
    }
}
