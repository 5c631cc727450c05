//! The chunked, deterministic fork-join executor for the batch hot path.
//!
//! The executor itself lives in [`prochlo_shuffle::exec`] so the Stash
//! Shuffle can shard its bucket passes on the same primitives the pipeline
//! uses for peeling, trusted-engine tag distribution and analyzer
//! decryption; this module re-exports
//! it unchanged so `prochlo_core::exec` remains the path pipeline code and
//! callers use.
//!
//! See the source module for the two rules that make parallel output
//! byte-identical to sequential (fixed chunking and derived randomness with
//! a canonical in-order merge), and for the `PROCHLO_SHUFFLE_THREADS`
//! parsing policy (parsed in one place; unparseable values are hard
//! errors).

pub use prochlo_shuffle::exec::{
    available_threads, chunk_rng, mix_seed, par_chunks, resolve_threads, shuffle_threads_from_env,
    threads_from_value, CHUNK_RECORDS, DRAW_FREE_CHUNK_RECORDS,
};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn mix_seed_matches_the_epoch_rng_derivation() {
        // The per-chunk and per-epoch RNG derivations must stay the same
        // mix: any stream can then be re-derived in isolation from either
        // side of the crate boundary.
        let mut direct = crate::deployment::epoch_rng(42, 7);
        let mut via_mix = StdRng::seed_from_u64(mix_seed(42, 7));
        assert_eq!(direct.next_u64(), via_mix.next_u64());
    }
}
