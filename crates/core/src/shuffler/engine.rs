//! The shuffle backends: naming and costing a [`ShuffleBackend`].
//!
//! [`ShuffleBackend`] is the *configuration* of a backend — a small, clonable
//! value that code chooses. The shuffler matches on it once per batch:
//! `Trusted` runs one Fisher–Yates pass, `Sgx` runs the Stash Shuffle of
//! `prochlo_shuffle` on the shuffler's enclave.

use prochlo_shuffle::{CostReport, StashShuffleParams, PAPER_RECORD_BYTES};

use crate::shuffler::{BackendKind, ShuffleBackend};

impl ShuffleBackend {
    /// The engine this backend runs, as [`crate::ShufflerStats`] names it.
    pub fn kind(&self) -> BackendKind {
        match self {
            ShuffleBackend::Trusted => BackendKind::Trusted,
            ShuffleBackend::Sgx { .. } => BackendKind::Stash,
        }
    }

    /// The stable name of [`Self::kind`], for spans and logging.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Every selectable backend, in presentation order.
    pub fn all() -> Vec<Self> {
        vec![
            ShuffleBackend::Trusted,
            ShuffleBackend::Sgx { params: None },
        ]
    }

    /// The analytic cost of shuffling `records` items at the paper's
    /// 318-byte record size (§4.1.3's comparison metric, the configuration
    /// of Table 1), so deployments can surface the price of the selected
    /// backend at their actual batch size. Neither backend's cost depends on
    /// the enclave's private memory.
    pub fn paper_cost_report(&self, records: usize) -> CostReport {
        let record_bytes = PAPER_RECORD_BYTES;
        match self {
            // One pass over the data in ordinary memory: no enclave, no
            // oblivious overhead (and no protection from the host).
            ShuffleBackend::Trusted => CostReport::new(
                "trusted in-memory",
                records,
                record_bytes,
                (records as u128) * (record_bytes as u128),
                None,
                1,
            ),
            ShuffleBackend::Sgx { params } => {
                let params = params.unwrap_or_else(|| StashShuffleParams::derive(records));
                let touched = records as u128 + params.intermediate_items(records);
                CostReport::new(
                    "Stash Shuffle",
                    records,
                    record_bytes,
                    touched * record_bytes as u128,
                    None,
                    2,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffler::{EngineConfig, Shuffler, ShufflerConfig, ShufflerStats};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::HashSet;

    fn records(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| (i as u64).to_le_bytes().to_vec()).collect()
    }

    #[test]
    fn trusted_engine_is_a_permutation_and_thread_count_invariant() {
        let input = records(5_000);
        let shuffler = Shuffler::new(ShufflerConfig::default(), &mut StdRng::seed_from_u64(1));
        let run = |threads: usize| {
            let engine = EngineConfig {
                backend: ShuffleBackend::Trusted,
                num_threads: threads,
            };
            let mut stats = ShufflerStats::default();
            let mut rng = StdRng::seed_from_u64(11);
            shuffler
                .shuffle_survivors(&engine, threads, input.clone(), &mut stats, &mut rng)
                .expect("the trusted shuffle cannot fail")
        };
        let sequential = run(1);
        assert_eq!(sequential.len(), input.len());
        assert_ne!(sequential, input);
        let a: HashSet<_> = input.iter().cloned().collect();
        let b: HashSet<_> = sequential.iter().cloned().collect();
        assert_eq!(a, b);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), sequential, "{threads} threads");
        }
    }

    /// Runs `items` through the shuffler's one dispatch point on `backend`
    /// under an RNG seeded with `seed`; returns the output, the batch's stats
    /// and the RNG's next draw.
    fn dispatch(
        backend: ShuffleBackend,
        items: Vec<Vec<u8>>,
        seed: u64,
    ) -> (Vec<Vec<u8>>, ShufflerStats, u64) {
        let shuffler = Shuffler::new(ShufflerConfig::default(), &mut StdRng::seed_from_u64(1));
        let engine = EngineConfig {
            backend,
            num_threads: 2,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = ShufflerStats::default();
        let out = shuffler
            .shuffle_survivors(&engine, engine.num_threads, items, &mut stats, &mut rng)
            .unwrap_or_else(|e| panic!("{} failed: {e}", engine.backend.name()));
        (out, stats, rng.next_u64())
    }

    /// 24-byte records: the Stash Shuffle seals each one to the enclave.
    fn wide_records(n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|i| [i.to_le_bytes(); 3].concat()).collect()
    }

    #[test]
    fn every_backend_permutes_through_the_dispatch() {
        let input = wide_records(600);
        let expected: HashSet<Vec<u8>> = input.iter().cloned().collect();
        for backend in ShuffleBackend::all() {
            let name = backend.name();
            let (out, stats, _) = dispatch(backend, input.clone(), 1);
            assert_eq!(out.len(), input.len(), "{name}");
            assert_ne!(out, input, "{name} left arrival order intact");
            assert_eq!(out.into_iter().collect::<HashSet<_>>(), expected, "{name}");
            assert!(stats.shuffle_attempts >= 1, "{name}");
        }
    }

    #[test]
    fn engines_are_deterministic_under_a_seeded_rng() {
        let input = wide_records(400);
        for backend in ShuffleBackend::all() {
            let name = backend.name();
            let out = dispatch(backend.clone(), input.clone(), 7).0;
            assert_eq!(
                dispatch(backend.clone(), input.clone(), 7).0,
                out,
                "{name} must replay"
            );
            assert_ne!(
                dispatch(backend, input.clone(), 8).0,
                out,
                "{name} must follow the seed"
            );
        }
    }

    /// Each engine takes exactly one value off the master stream, whatever
    /// the batch size: a backend that shuffled on the master stream itself
    /// would take none for one record and hundreds for 600.
    #[test]
    fn every_engine_draws_once_from_the_master_stream() {
        let mut master = StdRng::seed_from_u64(3);
        master.next_u64();
        let after_one_draw = master.next_u64();
        for backend in ShuffleBackend::all() {
            let name = backend.name();
            for n in [0, 1, 2, 40, 600] {
                let (_, _, next) = dispatch(backend.clone(), wide_records(n), 3);
                assert_eq!(next, after_one_draw, "{name} at {n} records");
            }
        }
    }

    /// Shuffles `n` records `trials` times on `backend` and scores the
    /// output as z = (χ² − df) / √(2·df) for two statistics: the n × n
    /// item-by-position counts, and the output distance between items `i`
    /// and `i + 1` over the pairs `adjacent` admits. Under a uniform
    /// permutation each χ² has mean df and variance ≈ 2·df, so z has a
    /// standard deviation near 1 (25 seeds read 0.8–1.7 per statistic).
    fn uniformity_z(
        backend: &ShuffleBackend,
        n: usize,
        trials: usize,
        adjacent: impl Fn(usize) -> bool,
    ) -> (f64, f64) {
        let shuffler = Shuffler::new(ShufflerConfig::default(), &mut StdRng::seed_from_u64(1));
        let engine = EngineConfig {
            backend: backend.clone(),
            num_threads: 1,
        };
        let pairs: Vec<usize> = (0..n - 1).filter(|&i| adjacent(i)).collect();
        let mut at_position = vec![0u64; n * n];
        let mut at_distance = vec![0u64; n];
        let mut rng = StdRng::seed_from_u64(0x005e_ed0f + n as u64);
        for _ in 0..trials {
            let out = shuffler
                .shuffle_survivors(
                    &engine,
                    1,
                    wide_records(n as u64),
                    &mut ShufflerStats::default(),
                    &mut rng,
                )
                .expect("shuffle");
            let mut position = vec![0usize; n];
            for (at, record) in out.iter().enumerate() {
                let item = u64::from_le_bytes(record[..8].try_into().expect("8 bytes")) as usize;
                position[item] = at;
                at_position[item * n + at] += 1;
            }
            for &i in &pairs {
                at_distance[position[i].abs_diff(position[i + 1])] += 1;
            }
        }
        let z = |chi2: f64, df: usize| (chi2 - df as f64) / (2.0 * df as f64).sqrt();
        let expected = trials as f64 / n as f64;
        let position_chi2: f64 = at_position
            .iter()
            .map(|&seen| (seen as f64 - expected).powi(2) / expected)
            .sum();
        // Two fixed items of a uniform permutation sit d apart with
        // probability 2(n − d) / (n(n − 1)).
        let draws = (pairs.len() * trials) as f64;
        let adjacency_chi2: f64 = (1..n)
            .map(|d| {
                let expected = draws * 2.0 * (n - d) as f64 / (n * (n - 1)) as f64;
                (at_distance[d] as f64 - expected).powi(2) / expected
            })
            .sum();
        (
            z(position_chi2, (n - 1) * (n - 1)),
            z(adjacency_chi2, n - 2),
        )
    }

    /// Input-adjacent items for `backend`: consecutive arrivals for
    /// Fisher–Yates; consecutive arrivals in the same input bucket for the Stash
    /// Shuffle, whose distribution phase reads the input bucket by bucket.
    fn adjacent_in(backend: &ShuffleBackend, n: usize) -> impl Fn(usize) -> bool {
        let bucket = match backend {
            ShuffleBackend::Trusted => n,
            ShuffleBackend::Sgx { .. } => StashShuffleParams::derive(n).items_per_bucket(n),
        };
        move |i| i / bucket == (i + 1) / bucket
    }

    fn assert_uniform(n: usize, trials: usize) {
        for backend in ShuffleBackend::all() {
            let (position, adjacency) = uniformity_z(&backend, n, trials, adjacent_in(&backend, n));
            let name = backend.name();
            println!("{name} n={n} trials={trials}: position z {position:+.2}, adjacency z {adjacency:+.2}");
            assert!(
                position.abs() < 5.0,
                "{name} n={n}: position z {position:.2}"
            );
            assert!(
                adjacency.abs() < 5.0,
                "{name} n={n}: adjacency z {adjacency:.2}"
            );
        }
    }

    #[test]
    fn every_backend_shuffles_uniformly_at_derived_parameters() {
        // 40 records derive two Stash buckets, 72 derive three; 32·n trials
        // put 32 expected counts in every item-by-position cell, enough for
        // one biased Fisher–Yates draw in the Stash's bucket shuffle to
        // read z ≈ 7.
        for n in [40, 72] {
            assert_uniform(n, 32 * n);
        }
    }

    #[test]
    #[ignore = "≈ 10 s on the dev profile; run with --ignored"]
    fn every_backend_shuffles_uniformly_at_a_larger_size() {
        assert_uniform(200, 32 * 200);
    }

    #[test]
    fn every_backend_reports_attempts_and_handles_empty_batches() {
        for backend in ShuffleBackend::all() {
            let name = backend.name();
            let (out, stats, _) = dispatch(backend, Vec::new(), 3);
            assert!(out.is_empty(), "{name}");
            assert_eq!(stats.shuffle_attempts, 1, "{name}");
        }
    }

    #[test]
    fn engine_names_are_stable() {
        let names: Vec<&str> = ShuffleBackend::all().iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["trusted", "stash"]);
    }

    #[test]
    fn engines_report_their_backend_names() {
        for backend in ShuffleBackend::all() {
            let kind = backend.kind();
            assert_eq!(dispatch(backend, records(50), 5).1.backend, kind);
        }
    }

    #[test]
    fn cost_reports_match_the_paper_narrative() {
        let trusted = ShuffleBackend::Trusted.paper_cost_report(10_000_000);
        assert!((trusted.overhead_factor - 1.0).abs() < 1e-9);
        let stash = ShuffleBackend::Sgx { params: None }.paper_cost_report(10_000_000);
        assert!(
            stash.overhead_factor > 2.0 && stash.overhead_factor < 6.0,
            "{}",
            stash.overhead_factor
        );
    }
}
