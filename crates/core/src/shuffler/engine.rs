//! Engine construction for the shuffler's pluggable backends, plus the
//! trusted in-memory engine with core-saturating parallel tag distribution.
//!
//! [`ShuffleBackend`] is the *configuration* of a backend — a small, clonable
//! value that can be parsed from a string at runtime. [`ShuffleBackend::engine`]
//! turns it into a live [`ShuffleEngine`] trait object bound to the
//! shuffler's enclave; the enum never appears in the batch hot path.

use rand::RngCore;

use prochlo_sgx::Enclave;
use prochlo_shuffle::engine::{EngineStats, ShuffleEngine, StashEngine};
use prochlo_shuffle::{CostReport, ShuffleError, StashShuffleParams, PAPER_RECORD_BYTES};

use crate::exec;
use crate::shuffler::ShuffleBackend;

/// The trusted in-memory engine (a shuffler hosted by an independent third
/// party, §3.3): every record is tagged with a pseudorandom 128-bit key and
/// the batch is sorted by tag — a uniform permutation, like Fisher–Yates,
/// but with a *distribution* phase (tag assignment) that shards across
/// cores. Tags are drawn from per-chunk generators derived from one seed
/// pulled off the caller's stream, so the output is a pure function of
/// `(items, rng)` no matter how many workers run.
#[derive(Debug, Clone)]
pub struct TrustedEngine {
    num_threads: usize,
}

impl TrustedEngine {
    /// Creates a trusted engine using `num_threads` workers (a resolved
    /// count; see [`crate::exec::resolve_threads`]).
    pub fn new(num_threads: usize) -> Self {
        Self {
            num_threads: num_threads.max(1),
        }
    }
}

impl ShuffleEngine for TrustedEngine {
    fn name(&self) -> &'static str {
        "trusted"
    }

    fn shuffle(
        &self,
        mut items: Vec<Vec<u8>>,
        rng: &mut dyn RngCore,
        stats: &mut EngineStats,
    ) -> Result<Vec<Vec<u8>>, ShuffleError> {
        stats.attempts = 1;
        let n = items.len();
        if n <= 1 {
            return Ok(items);
        }
        let tag_seed = rng.next_u64();
        let chunk_tags: Vec<Vec<u128>> = exec::par_chunks(
            &items,
            self.num_threads,
            exec::CHUNK_RECORDS,
            |chunk_idx, chunk| {
                let mut rng = exec::chunk_rng(tag_seed, chunk_idx as u64);
                chunk
                    .iter()
                    .map(|_| ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128)
                    .collect()
            },
        );
        // Canonical merge: tags in chunk order are tags in arrival order;
        // ties (probability ~2^-128) break on the arrival index.
        let mut order: Vec<(u128, usize)> = Vec::with_capacity(n);
        for tag in chunk_tags.into_iter().flatten() {
            order.push((tag, order.len()));
        }
        order.sort_unstable();
        Ok(order
            .into_iter()
            .map(|(_, idx)| std::mem::take(&mut items[idx]))
            .collect())
    }
}

impl ShuffleBackend {
    /// The stable name used for selection, stats and logging.
    pub fn name(&self) -> &'static str {
        match self {
            ShuffleBackend::Trusted => "trusted",
            ShuffleBackend::Sgx { .. } => "stash",
        }
    }

    /// Parses a backend name (case-insensitive): `trusted` or `stash` (alias
    /// `sgx`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "trusted" => Some(ShuffleBackend::Trusted),
            "stash" | "sgx" => Some(ShuffleBackend::Sgx { params: None }),
            _ => None,
        }
    }

    /// Every selectable backend, in presentation order.
    pub fn all() -> Vec<Self> {
        vec![
            ShuffleBackend::Trusted,
            ShuffleBackend::Sgx { params: None },
        ]
    }

    /// Builds the live engine for this backend, bound to the shuffler's
    /// enclave. `num_threads` is a resolved worker count and both backends
    /// honor it: the trusted engine shards its tag distribution, and the
    /// Stash Shuffle models a multi-threaded enclave — its bucket passes run
    /// on scoped workers whose private-memory sub-budgets are carved from
    /// the enclave's budget ([`Enclave::split_budget`]), with output
    /// byte-identical at any count.
    pub fn engine(&self, enclave: Enclave, num_threads: usize) -> Box<dyn ShuffleEngine> {
        match self {
            ShuffleBackend::Trusted => Box::new(TrustedEngine::new(num_threads)),
            ShuffleBackend::Sgx { params } => {
                Box::new(StashEngine::new(*params, enclave).with_threads(num_threads))
            }
        }
    }

    /// The analytic cost of shuffling `records` items of `record_bytes`
    /// bytes (§4.1.3's comparison metric), so deployments can surface the
    /// price of the selected backend at their actual batch size. Neither
    /// backend's cost depends on the enclave's private memory.
    pub fn cost_report(&self, records: usize, record_bytes: usize) -> CostReport {
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

    /// [`Self::cost_report`] at the paper's 318-byte record size — the
    /// configuration of Table 1 and §4.1.3.
    pub fn paper_cost_report(&self, records: usize) -> CostReport {
        self.cost_report(records, PAPER_RECORD_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn records(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| (i as u64).to_le_bytes().to_vec()).collect()
    }

    #[test]
    fn trusted_engine_is_a_permutation_and_thread_count_invariant() {
        let input = records(5_000);
        let run = |threads: usize| {
            let engine = TrustedEngine::new(threads);
            let mut rng = StdRng::seed_from_u64(11);
            let mut stats = EngineStats::default();
            engine.shuffle(input.clone(), &mut rng, &mut stats).unwrap()
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

    #[test]
    fn trusted_engine_consumes_exactly_one_draw() {
        use rand::RngCore;
        let engine = TrustedEngine::new(2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut expected = StdRng::seed_from_u64(3);
        expected.next_u64();
        let mut stats = EngineStats::default();
        engine.shuffle(records(100), &mut rng, &mut stats).unwrap();
        assert_eq!(rng.next_u64(), expected.next_u64());
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in ShuffleBackend::all() {
            let parsed = ShuffleBackend::from_name(backend.name()).unwrap();
            assert_eq!(parsed.name(), backend.name());
        }
        assert_eq!(ShuffleBackend::from_name("SGX").unwrap().name(), "stash");
        assert_eq!(
            ShuffleBackend::from_name(" Trusted ").unwrap().name(),
            "trusted"
        );
        assert!(ShuffleBackend::from_name("fisher-yates").is_none());
    }

    #[test]
    fn engines_report_their_backend_names() {
        let enclave = Enclave::with_default_config();
        for backend in ShuffleBackend::all() {
            let engine = backend.engine(enclave.clone(), 1);
            assert_eq!(engine.name(), backend.name());
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
