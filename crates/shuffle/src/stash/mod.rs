//! The Stash Shuffle (§4.1.4, Algorithms 1–4 of the paper).
//!
//! The algorithm shuffles `N` equal-sized records using only a small amount
//! of private (enclave) memory, in two phases:
//!
//! * **Distribution** (`distribution`) — the input is processed one bucket
//!   of `D = ⌈N/B⌉` records at a time: each record draws its output bucket
//!   uniformly, at most `C` records per (input, output) bucket pair leave
//!   at once as one sealed *chunk*, and any overflow waits in a private
//!   *stash*. An intermediate bucket is `B + 1` fixed-length messages.
//! * **Compression** (`compression`) — intermediate buckets are imported
//!   through a sliding window of `W`, opened, permuted in private memory,
//!   and emitted `D` records per output bucket.
//!
//! `layout` works out the sizes an attempt runs at, and `message` seals
//! every intermediate message under the nonce of its position.
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

mod compression;
mod distribution;
mod layout;
mod message;
pub mod params;

use rand::Rng;

use prochlo_crypto::aead::AeadKey;
use prochlo_sgx::{Enclave, EnclaveMetrics};

use crate::error::ShuffleError;
use crate::{uniform_record_len, Records};
use layout::Layout;

pub use params::StashShuffleParams;

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
    /// `StashShuffleParams::queue_capacity`.
    pub queue_overflow: usize,
    /// An output bucket was due and the queue held fewer than `D` records.
    pub window_underflow: usize,
}

impl StashFailures {
    /// Total failed attempts.
    pub(crate) fn total(&self) -> usize {
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

#[cfg(test)]
mod tests {
    use super::distribution::uniform_targets;
    use super::layout::{import_strip, IMPORT_STRIP_SLOTS};
    use super::message::{open_message, seal_message};
    use super::*;
    use prochlo_crypto::aead;
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
        let mut layout = Layout::new(&shuffler.params, n, 16);
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
