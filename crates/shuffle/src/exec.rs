//! A chunked, deterministic fork-join executor for the parallel batch
//! phases — shared by the shuffle engines in this crate and by the ESA
//! pipeline in `prochlo-core` (outer-layer peeling, trusted-engine tag
//! distribution, analyzer decryption).
//!
//! The phases the paper calls out as embarrassingly parallel are sharded
//! here across plain `std::thread::scope` workers (no runtime, no new
//! dependencies). Two rules make the parallel output byte-identical to the
//! sequential one:
//!
//! 1. **Fixed chunking.** Work is split into fixed-size chunks of
//!    [`CHUNK_RECORDS`] items where a chunk derives a generator, and of
//!    [`DRAW_FREE_CHUNK_RECORDS`] where it draws nothing — either way
//!    *independent of the worker count*. Thread
//!    count only changes which worker claims which chunk, never the chunk
//!    boundaries, so a chunk's result is the same at 1 thread and at 64.
//!    (Bucketed algorithms pass their own bucket size instead — the same
//!    rule holds because bucket boundaries are a function of the input
//!    size alone.)
//! 2. **Derived randomness and a canonical merge.** A chunk that needs
//!    randomness derives its own generator from `(phase seed, chunk index)`
//!    via [`mix_seed`] — the same SplitMix64 mix `prochlo-core` uses to
//!    derive per-epoch RNGs — and results are merged in chunk-index order
//!    after the parallel region.
//!
//! The `PROCHLO_SHUFFLE_THREADS` environment knob is parsed in exactly one
//! place ([`shuffle_threads_from_env`]); `0` or an absent value means "use
//! every available core". A value that is set but unparseable is a hard
//! error ([`ShuffleError::InvalidThreads`]) — an operator who set the knob
//! asked for a specific count, and silently substituting another one would
//! hand them the opposite of what they wanted.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::ShuffleError;

/// Records per chunk of a phase that derives a generator per chunk. Fixed so
/// that chunk boundaries — and therefore every per-chunk RNG stream — do not
/// depend on the worker count; changing it changes seeded output.
pub const CHUNK_RECORDS: usize = 1024;

/// Records per chunk of a phase that draws nothing (peeling, blinding,
/// unblinding, point encoding, analyzer decryption), where chunk boundaries
/// cannot change the output. Small enough that two workers finish an
/// epoch's few thousand records together — at 1 024 a 4.8 k-record batch is
/// five chunks, three on one worker and two on the other — and large enough
/// that the one batched field inversion a chunk pays (≈ 4 µs) stays small
/// beside its 128 opens.
pub const DRAW_FREE_CHUNK_RECORDS: usize = 128;

/// SplitMix64-style mix of a seed and a stream index, shared by the per-epoch
/// and per-chunk RNG derivations: nearby indices yield unrelated states, and
/// any stream can be re-derived in isolation.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG a parallel phase uses for one chunk: a pure function of the phase
/// seed and the chunk index, so output never depends on thread scheduling.
pub fn chunk_rng(phase_seed: u64, chunk_idx: u64) -> StdRng {
    StdRng::seed_from_u64(mix_seed(phase_seed, chunk_idx))
}

/// The number of hardware threads available to this process.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Interprets one `PROCHLO_SHUFFLE_THREADS`-style value: `0` or absent mean
/// "every available core". An unparseable value is a hard error naming the
/// knob and the expected format — the same policy `PROCHLO_SHUFFLE_BACKEND`
/// follows — because an operator who set the knob made a selection, and
/// quietly replacing a typo with a different thread count is worse than
/// refusing to start.
pub fn threads_from_value(value: Option<&str>) -> Result<usize, ShuffleError> {
    match value {
        None => Ok(available_threads()),
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(0) => Ok(available_threads()),
            Ok(n) => Ok(n),
            Err(_) => Err(ShuffleError::InvalidThreads {
                value: raw.to_string(),
            }),
        },
    }
}

/// The single place the `PROCHLO_SHUFFLE_THREADS` environment knob is read.
/// A set-but-undecodable (non-Unicode) value is a selection the operator
/// made, so it errors exactly like an unparseable one instead of being
/// treated as unset.
pub fn shuffle_threads_from_env() -> Result<usize, ShuffleError> {
    let raw = prochlo_obs::knobs::read("PROCHLO_SHUFFLE_THREADS")
        .map_err(|e| ShuffleError::InvalidThreads { value: e.value })?;
    threads_from_value(raw.as_deref())
}

/// Resolves a configured worker count: `0` defers to the environment knob
/// (which in turn defaults to every available core).
pub fn resolve_threads(requested: usize) -> Result<usize, ShuffleError> {
    if requested == 0 {
        shuffle_threads_from_env()
    } else {
        Ok(requested)
    }
}

/// Runs `f` over fixed-size chunks of `items` on up to `num_threads` scoped
/// workers and returns the per-chunk results **in chunk order** — the
/// canonical deterministic merge. With one worker (or one chunk) the chunks
/// run inline on the caller's thread; the results are identical either way
/// because chunk boundaries and indices never depend on the worker count.
pub fn par_chunks<T, U, F>(items: &[T], num_threads: usize, chunk_size: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T]) -> U + Sync,
{
    let chunk_size = chunk_size.max(1);
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    let workers = num_threads.max(1).min(chunks.len());
    if workers <= 1 {
        return chunks
            .into_iter()
            .enumerate()
            .map(|(idx, chunk)| f(idx, chunk))
            .collect();
    }

    // Workers claim chunk indices from a shared dispenser, so a slow chunk
    // never stalls the others. Each index has exactly one writer; the
    // per-slot Mutex (rather than OnceLock, which would demand `U: Sync`)
    // is only what makes that single write visible to the collecting thread.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = (0..chunks.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= chunks.len() {
                    break;
                }
                let result = f(idx, chunks[idx]);
                *slots[idx].lock().expect("chunk slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("chunk slot lock")
                .expect("every chunk index was claimed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn chunk_rngs_are_stable_and_distinct() {
        assert_eq!(chunk_rng(5, 9).next_u64(), chunk_rng(5, 9).next_u64());
        assert_ne!(chunk_rng(5, 9).next_u64(), chunk_rng(5, 10).next_u64());
        assert_ne!(chunk_rng(5, 9).next_u64(), chunk_rng(6, 9).next_u64());
    }

    #[test]
    fn threads_from_value_defaults_and_parses() {
        assert_eq!(threads_from_value(Some("3")), Ok(3));
        assert_eq!(threads_from_value(Some(" 8 ")), Ok(8));
        let auto = available_threads();
        assert_eq!(threads_from_value(None), Ok(auto));
        assert_eq!(threads_from_value(Some("0")), Ok(auto));
        assert_eq!(resolve_threads(5), Ok(5));
        assert!(resolve_threads(0).unwrap() >= 1);
    }

    #[test]
    fn unparseable_thread_counts_are_hard_errors_naming_the_knob() {
        for bad in ["not-a-number", "-1", "3.5", "4 cores", ""] {
            let err = threads_from_value(Some(bad)).unwrap_err();
            assert_eq!(
                err,
                ShuffleError::InvalidThreads {
                    value: bad.to_string()
                }
            );
            // The message must let an operator fix the knob without reading
            // source: it names the variable, echoes the value and states
            // the expected format.
            let message = err.to_string();
            assert!(message.contains("PROCHLO_SHUFFLE_THREADS"), "{message}");
            assert!(message.contains(bad), "{message}");
            assert!(message.contains("0 = all available cores"), "{message}");
        }
    }

    #[test]
    fn par_chunks_merges_in_chunk_order_for_any_worker_count() {
        let items: Vec<u32> = (0..10_000).collect();
        let run = |threads: usize| -> Vec<u64> {
            par_chunks(&items, threads, 64, |idx, chunk| {
                chunk.iter().map(|&v| v as u64).sum::<u64>() + idx as u64
            })
        };
        let sequential = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), sequential, "{threads} workers");
        }
        assert_eq!(sequential.len(), 10_000usize.div_ceil(64));
    }

    #[test]
    fn par_chunks_handles_empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_chunks(&empty, 4, 16, |_, c| c.len()).is_empty());
        let tiny = vec![1u8, 2, 3];
        assert_eq!(par_chunks(&tiny, 4, 16, |_, c| c.len()), vec![3]);
    }

    #[test]
    fn par_chunks_with_derived_rngs_is_thread_count_invariant() {
        // The pattern the shuffler uses: each chunk draws from its own
        // derived generator; the merged stream must not depend on workers.
        let items: Vec<u8> = vec![0; 5000];
        let run = |threads: usize| -> Vec<u64> {
            par_chunks(&items, threads, CHUNK_RECORDS, |idx, chunk| {
                let mut rng = chunk_rng(0xabc, idx as u64);
                chunk.iter().fold(0u64, |acc, _| acc ^ rng.next_u64())
            })
        };
        assert_eq!(run(1), run(8));
    }
}
