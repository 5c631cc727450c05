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
//!   written out immediately (re-encrypted under an ephemeral key, padded
//!   with dummies up to exactly `C` so the host learns nothing from chunk
//!   sizes), and any overflow waits in a private *stash*, draining
//!   opportunistically into later chunks. A final drain writes `K = ⌈S/B⌉`
//!   more slots per output bucket.
//!
//!   Distribution models a **multi-threaded enclave**: buckets are
//!   pipelined in worker-sized groups, and the expensive per-bucket work —
//!   the AEAD sealing of the output chunks — runs on scoped workers, each
//!   charging a private-memory sub-budget carved from the enclave's
//!   remaining budget ([`prochlo_sgx::Enclave::split_budget`]) after the
//!   stash's worst case is reserved up front; a bucket stays charged to its
//!   worker from the moment it is read until it is sealed, so the budget
//!   honestly bounds plaintext residency. Target assignment and the stash
//!   bookkeeping ahead of the sealing pass are sequential in bucket order
//!   (the stash threads state from bucket to bucket by construction, and
//!   neither does any cryptography). Each bucket derives its own RNG from
//!   `(attempt seed, bucket index)` and boundary crossings are buffered per
//!   bucket and committed in bucket order, so the output, the boundary
//!   counters *and the access trace* are byte-identical at any worker count.
//! * **Compression** — intermediate buckets are imported one at a time into a
//!   sliding window of `W` buckets: the bucket's slot order is shuffled (the
//!   phase's only draw), its slots are opened in that order on the same
//!   workers — a strip of 1 024 slots at a time, so the plaintext held
//!   beside the queue does not grow with `N` — dummies are discarded, real
//!   records join a queue bounded by [`StashShuffleParams::queue_capacity`]
//!   (`W·D` plus ≈ 5.27·√N of slack for the wander of the running bucket
//!   loads), and exactly `D` records are emitted per output bucket.
//!   Enqueueing is sequential in the shuffled order, so worker count
//!   changes neither the output nor the point at which a doomed attempt
//!   fails.
//!
//! Every slot is sealed under a nonce that is a function of its position in
//! the intermediate array, and compression recomputes that nonce from the
//! position it reads: a host that swaps two slots, or copies a real slot
//! over a dummy, fails the shuffle instead of silently changing which
//! records come out.
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
//! shuffle borrows them and copies a record only into the slot it seals.
//! The implementation performs the real cryptography (intermediate slots are
//! sealed with an AEAD under an ephemeral key) and charges every boundary
//! crossing and private-memory allocation to a [`prochlo_sgx::Enclave`], so
//! tests can assert both the memory budget and the obliviousness of the
//! access trace.

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

/// Intermediate slots the compression phase holds opened at a time: an
/// imported bucket is read in strips of this many slots, so its plaintext
/// residency is a constant instead of the `B·C + K` slots of a bucket
/// (25 k slots, 8 MB, at N = 10 M).
const IMPORT_STRIP_SLOTS: usize = 1024;

/// Slots per work unit when a strip is opened on the workers. Fixed, like
/// every chunk size handed to [`exec::par_chunks`], so the split never
/// depends on the worker count.
const IMPORT_CHUNK_SLOTS: usize = 64;

/// Result of a successful Stash Shuffle run.
#[derive(Debug, Clone)]
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

/// One input bucket's sealed output: `chunks[out_idx]` holds exactly `C`
/// sealed slots for output bucket `out_idx`, and `log` is the bucket's
/// complete boundary history (read + chunk writes).
struct SealedBucket {
    chunks: Vec<Vec<Vec<u8>>>,
    log: BoundaryLog,
}

/// The intermediate array in untrusted memory: per output bucket, its
/// `B·C + K` sealed slots.
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

    /// Sealed slots all have identical length.
    fn sealed_slot_len(&self) -> usize {
        self.slot_plain_len() + aead::NONCE_LEN + aead::TAG_LEN
    }

    /// Nonce index of slot `j` of the chunk input bucket `in_idx` writes
    /// for output bucket `out_idx`.
    fn chunk_slot(&self, in_idx: usize, out_idx: usize, j: usize) -> u64 {
        ((in_idx * self.b + out_idx) * self.c + j) as u64
    }

    /// Nonce index of slot `j` of output bucket `out_idx`'s final stash
    /// drain; the drain slots follow all `B²·C` chunk slots.
    fn drain_slot(&self, out_idx: usize, j: usize) -> u64 {
        (self.b * self.b * self.c + out_idx * self.k + j) as u64
    }

    /// The nonce index the slot at `position` of intermediate bucket
    /// `out_idx` was sealed under: `B` chunks of `C` slots in input-bucket
    /// order, then the `K` drain slots.
    fn slot_at(&self, out_idx: usize, position: usize) -> u64 {
        let chunk_slots = self.b * self.c;
        if position < chunk_slots {
            self.chunk_slot(position / self.c, out_idx, position % self.c)
        } else {
            self.drain_slot(out_idx, position - chunk_slots)
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

    /// Overrides the maximum number of restart attempts.
    pub fn with_max_attempts(mut self, attempts: usize) -> Self {
        self.max_attempts = attempts.max(1);
        self
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
        let intermediate_slots: usize = mid.iter().map(Vec::len).sum();
        let output = self.compress(&mid, &layout, &ephemeral_key, rng)?;
        Ok((output, intermediate_slots))
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
        let sealed_slot_len = layout.sealed_slot_len();

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
        let mut mid: Intermediate = vec![Vec::with_capacity(b * c + k); b];
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
            // sets. Slot nonces derive from the global slot position — a
            // pure function of (bucket, output bucket, slot) — instead of
            // a shared counter, so sealing parallelizes without
            // coordination and nonces stay unique.
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
                        let mut chunks = Vec::with_capacity(b);
                        for (out_idx, items) in plan.iter().enumerate() {
                            let mut slots = Vec::with_capacity(c);
                            for j in 0..c {
                                slots.push(seal_slot(
                                    ephemeral_key,
                                    layout.chunk_slot(bucket_idx, out_idx, j),
                                    items.get(j).copied(),
                                    inner_len,
                                ));
                            }
                            log.copy_out("write-intermediate-chunk", out_idx, c * sealed_slot_len);
                            chunks.push(slots);
                        }
                        worker
                            .release_private(sealing_bytes + d * inner_len)
                            .expect("charges and releases are balanced");
                        Ok(SealedBucket { chunks, log })
                    })
                });

            // Merge: the intermediate array (in untrusted memory), chunk
            // lists appended — and logs committed — in bucket order.
            for bucket in sealed {
                let SealedBucket { chunks, log } = bucket?;
                log.commit(&self.enclave);
                for (out_idx, slots) in chunks.into_iter().enumerate() {
                    mid[out_idx].extend(slots);
                }
            }
        }

        // Empty trailing buckets still write dummy-only chunks (no stash
        // drain, and outside any charged working set, exactly as the
        // sequential algorithm) so the access pattern only depends on N
        // and the parameters.
        for bucket_idx in real_buckets..b {
            for (out_idx, out_bucket) in mid.iter_mut().enumerate() {
                for j in 0..c {
                    out_bucket.push(seal_slot(
                        ephemeral_key,
                        layout.chunk_slot(bucket_idx, out_idx, j),
                        None,
                        inner_len,
                    ));
                }
                self.enclave
                    .copy_out("write-intermediate-chunk", out_idx, c * sealed_slot_len);
            }
        }

        // Final stash drain: K slots per output bucket (Algorithm 1, line 5).
        for (out_idx, out_bucket) in mid.iter_mut().enumerate() {
            for j in 0..k {
                let item = stash[out_idx].pop_front();
                stash_total -= usize::from(item.is_some());
                out_bucket.push(seal_slot(
                    ephemeral_key,
                    layout.drain_slot(out_idx, j),
                    item,
                    inner_len,
                ));
            }
            self.enclave
                .copy_out("write-stash-drain", out_idx, k * sealed_slot_len);
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
    fn compress<R: Rng + ?Sized>(
        &self,
        mid: &Intermediate,
        layout: &Layout,
        ephemeral_key: &AeadKey,
        rng: &mut R,
    ) -> Result<Records, AttemptFailure> {
        let Layout { n, b, d, w, .. } = *layout;
        let mut queue: VecDeque<Vec<u8>> = VecDeque::with_capacity(layout.queue_capacity);
        let mut output: Records = Vec::with_capacity(n);

        let import = |bucket_idx: usize,
                      queue: &mut VecDeque<Vec<u8>>,
                      rng: &mut R|
         -> Result<(), AttemptFailure> {
            let slots = &mid[bucket_idx];
            self.enclave.copy_in(
                "read-intermediate-bucket",
                bucket_idx,
                slots.len() * layout.sealed_slot_len(),
            );
            // One strip of plaintext slots is resident at a time.
            let strip_bytes = slots.len().min(IMPORT_STRIP_SLOTS) * layout.slot_plain_len();
            self.charge(strip_bytes)?;
            let _strip = ReservedPrivate {
                enclave: &self.enclave,
                bytes: strip_bytes,
            };
            // Shuffle the slot order inside private memory before enqueueing
            // real records (Algorithm 4) — the phase's only draw.
            let mut order: Vec<usize> = (0..slots.len()).collect();
            order.shuffle(rng);
            // Opening a slot is a pure function of its bytes and position,
            // so the workers share it; the queue is then fed sequentially
            // in `order`, which keeps the output and the failure point
            // those of the one-thread run.
            for strip in order.chunks(IMPORT_STRIP_SLOTS) {
                let opened = exec::par_chunks(
                    strip,
                    self.num_threads,
                    IMPORT_CHUNK_SLOTS,
                    |_, positions| {
                        positions
                            .iter()
                            .map(|&position| {
                                open_slot(
                                    ephemeral_key,
                                    &slots[position],
                                    layout.slot_at(bucket_idx, position),
                                )
                            })
                            .collect::<Vec<_>>()
                    },
                );
                for plain in opened.into_iter().flatten() {
                    if let Some(real) = plain.map_err(AttemptFailure::Fatal)? {
                        if queue.len() >= layout.queue_capacity {
                            return Err(AttemptFailure::QueueOverflow);
                        }
                        self.charge(real.len())?;
                        queue.push_back(real);
                    }
                }
            }
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

/// Seals one intermediate slot (real record or dummy) with the ephemeral
/// key. `index` is the slot's global position in the intermediate array — a
/// pure function of (input bucket, output bucket, slot offset), so parallel
/// sealing needs no shared counter and nonces never collide under one key.
fn seal_slot(key: &AeadKey, index: u64, record: Option<&[u8]>, inner_len: usize) -> Vec<u8> {
    let mut plain = Vec::with_capacity(1 + inner_len);
    match record {
        Some(bytes) => {
            plain.push(1);
            plain.extend_from_slice(bytes);
        }
        None => plain.resize(1 + inner_len, 0),
    }
    let nonce = slot_nonce(index);
    let mut sealed = Vec::with_capacity(aead::NONCE_LEN + plain.len() + aead::TAG_LEN);
    sealed.extend_from_slice(&nonce);
    sealed.extend_from_slice(&aead::seal(key, &nonce, b"stash-slot", &plain));
    sealed
}

/// Opens the intermediate slot read from global position `index`; returns
/// `None` for dummies. The nonce stored beside the ciphertext lives in
/// untrusted memory, so it is only checked against the one `index` implies:
/// a slot the host moved or copied from elsewhere fails here.
fn open_slot(key: &AeadKey, sealed: &[u8], index: u64) -> Result<Option<Vec<u8>>, ShuffleError> {
    if sealed.len() < aead::NONCE_LEN + aead::TAG_LEN + 1 {
        return Err(ShuffleError::IngressFailed("intermediate slot too short"));
    }
    let nonce = slot_nonce(index);
    if sealed[..aead::NONCE_LEN] != nonce {
        return Err(ShuffleError::IngressFailed(
            "intermediate slot is not at the position it was sealed for",
        ));
    }
    let plain = aead::open(key, &nonce, b"stash-slot", &sealed[aead::NONCE_LEN..])
        .map_err(|_| ShuffleError::IngressFailed("intermediate slot authentication"))?;
    if plain.is_empty() {
        return Err(ShuffleError::IngressFailed("empty intermediate slot"));
    }
    if plain[0] == 1 {
        Ok(Some(plain[1..].to_vec()))
    } else {
        Ok(None)
    }
}

fn slot_nonce(index: u64) -> [u8; aead::NONCE_LEN] {
    let mut nonce = [0u8; aead::NONCE_LEN];
    nonce[..8].copy_from_slice(&index.to_le_bytes());
    nonce[8..].copy_from_slice(b"slot");
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
        // B·(B·C + K) with B=10, C=16, K=10.
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
        let shuffler = StashShuffle::new(params, enclave).with_max_attempts(3);
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
        let mut rng = StdRng::seed_from_u64(11);
        let n = 4_000;
        let shuffler = test_shuffler(n);
        let input = records(n, 64);
        let out = shuffler.shuffle(&input, &mut rng).unwrap();
        // Bytes entering the enclave: the input once plus every intermediate
        // slot once (sealed size). The ratio to the input size should be in
        // the same ballpark as the analytic overhead factor.
        let input_bytes = (n * 64) as f64;
        let ratio = out.metrics.bytes_in as f64 / input_bytes;
        let analytic = shuffler.params().overhead_factor(n);
        assert!(
            ratio > 0.8 * analytic && ratio < 2.0 * analytic,
            "measured ratio {ratio:.2} vs analytic {analytic:.2}"
        );
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
            let shuffler = StashShuffle::new(
                StashShuffleParams::derive(n),
                Enclave::new(EnclaveConfig {
                    private_memory_bytes: 8 * 1024 * 1024,
                    record_trace: false,
                    code_identity: "one-attempt".into(),
                }),
            )
            .with_max_attempts(1);
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

    /// Positions of one real and one dummy slot in `bucket`.
    fn real_and_dummy(layout: &Layout, key: &AeadKey, bucket: &[Vec<u8>]) -> (usize, usize) {
        let is_real = |position: usize| {
            open_slot(key, &bucket[position], layout.slot_at(0, position))
                .unwrap()
                .is_some()
        };
        let real = (0..bucket.len()).find(|&p| is_real(p)).unwrap();
        let dummy = (0..bucket.len()).find(|&p| !is_real(p)).unwrap();
        (real, dummy)
    }

    const OUT_OF_POSITION: AttemptFailure = AttemptFailure::Fatal(ShuffleError::IngressFailed(
        "intermediate slot is not at the position it was sealed for",
    ));

    #[test]
    fn a_swapped_slot_fails_the_shuffle() {
        let (shuffler, layout, key, mid) = distributed(1_000, |_| {});
        let mut mid = mid.unwrap();
        let mut rng = StdRng::seed_from_u64(16);
        // Untouched, the intermediate array compresses to a permutation.
        let out = shuffler.compress(&mid, &layout, &key, &mut rng).unwrap();
        assert_eq!(out.len(), 1_000);
        // Two authentic slots of one bucket trade places.
        let (real, dummy) = real_and_dummy(&layout, &key, &mid[0]);
        mid[0].swap(real, dummy);
        assert_eq!(
            shuffler.compress(&mid, &layout, &key, &mut rng),
            Err(OUT_OF_POSITION)
        );
        assert_eq!(shuffler.enclave().metrics().private_in_use, 0);
        // So do two slots of different buckets.
        mid[0].swap(real, dummy);
        let (first, second) = mid.split_at_mut(1);
        std::mem::swap(&mut first[0][real], &mut second[0][0]);
        assert_eq!(
            shuffler.compress(&mid, &layout, &key, &mut rng),
            Err(OUT_OF_POSITION)
        );
    }

    #[test]
    fn a_replayed_slot_fails_the_shuffle() {
        // A real slot copied over a dummy authenticates under its stored
        // nonce; trusting that nonce would enqueue the record twice and the
        // last drain would then silently drop a different one.
        let (shuffler, layout, key, mid) = distributed(1_000, |_| {});
        let mut mid = mid.unwrap();
        let (real, dummy) = real_and_dummy(&layout, &key, &mid[0]);
        mid[0][dummy] = mid[0][real].clone();
        let mut rng = StdRng::seed_from_u64(17);
        assert_eq!(
            shuffler.compress(&mid, &layout, &key, &mut rng),
            Err(OUT_OF_POSITION)
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
                let result = shuffler.compress(&mid.unwrap(), &layout, &key, &mut rng);
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
            let shuffler = StashShuffle::new(params, enclave).with_max_attempts(50);
            let out = shuffler
                .shuffle(&input, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            assert_eq!(out.failures.total(), out.attempts - 1);
            restarted += out.failures.total();
        }
        assert!(restarted > 0, "the parameters were meant to be tight");
    }

    #[test]
    fn slot_seal_open_roundtrip_and_dummy_flag() {
        let mut rng = StdRng::seed_from_u64(13);
        let key = AeadKey::random(&mut rng);
        let sealed_real = seal_slot(&key, 0, Some(b"hello-world-1234"), 16);
        let sealed_dummy = seal_slot(&key, 1, None, 16);
        assert_eq!(sealed_real.len(), sealed_dummy.len());
        assert_eq!(
            open_slot(&key, &sealed_real, 0).unwrap().unwrap(),
            b"hello-world-1234"
        );
        assert!(open_slot(&key, &sealed_dummy, 1).unwrap().is_none());
        // A slot only opens at the position it was sealed for.
        assert!(open_slot(&key, &sealed_real, 1).is_err());
        // Tampering is detected.
        let mut tampered = sealed_real.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 1;
        assert!(open_slot(&key, &tampered, 0).is_err());
    }
}
