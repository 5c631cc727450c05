//! The enclave memory / boundary model.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use prochlo_crypto::sha256::sha256;

/// Configuration of a simulated enclave.
#[derive(Debug, Clone)]
pub struct EnclaveConfig {
    /// Usable private memory in bytes (the EPC budget).
    pub private_memory_bytes: usize,
    /// Whether to record a full access trace (one event per boundary
    /// crossing). Traces are what the obliviousness tests inspect; large
    /// production-sized runs can disable them to save memory.
    pub record_trace: bool,
    /// Human-readable identity of the code "loaded" into the enclave; its
    /// hash becomes the measurement reported in attestation quotes.
    pub code_identity: String,
}

impl Default for EnclaveConfig {
    fn default() -> Self {
        Self {
            private_memory_bytes: crate::DEFAULT_EPC_BYTES,
            record_trace: false,
            code_identity: "prochlo-shuffler".to_string(),
        }
    }
}

/// Errors surfaced by the enclave simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnclaveError {
    /// A private-memory allocation would exceed the EPC budget.
    OutOfPrivateMemory {
        /// Bytes requested by the failing allocation.
        requested: usize,
        /// Bytes still available inside the budget.
        available: usize,
    },
    /// A release did not match an earlier charge.
    ReleaseUnderflow,
}

impl fmt::Display for EnclaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnclaveError::OutOfPrivateMemory {
                requested,
                available,
            } => write!(
                f,
                "enclave out of private memory: requested {requested} bytes, {available} available"
            ),
            EnclaveError::ReleaseUnderflow => {
                write!(f, "released more private memory than was charged")
            }
        }
    }
}

impl std::error::Error for EnclaveError {}

/// One observable boundary event (what the untrusted host can see).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// A label describing the operation (e.g. "read-input-bucket").
    pub(crate) label: &'static str,
    /// Index of the untrusted-memory object touched (bucket number, array
    /// index, ...). This is exactly the information an observer gets.
    pub(crate) index: usize,
    /// Number of bytes crossing the boundary.
    pub(crate) bytes: usize,
    /// Direction: `true` for data entering the enclave.
    pub(crate) into_enclave: bool,
}

/// Counters describing the work an enclave performed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnclaveMetrics {
    /// Bytes copied from untrusted memory into the enclave (decrypted by the
    /// memory-encryption engine).
    pub bytes_in: u64,
    /// Bytes copied from the enclave out to untrusted memory (encrypted by
    /// the memory-encryption engine).
    pub bytes_out: u64,
    /// Current private-memory usage in bytes.
    pub private_in_use: usize,
    /// High-water mark of private-memory usage in bytes.
    pub private_peak: usize,
}

struct EnclaveState {
    metrics: EnclaveMetrics,
    trace: Vec<TraceEvent>,
}

/// The EPC gauges one enclave mirrors into the global obs registry. Worker
/// charges roll up into their enclave, so these are cross-worker totals.
/// Handles are resolved once at construction so the private-memory hot
/// path never touches the registry's name table.
#[derive(Clone)]
struct EpcGauges {
    in_use: prochlo_obs::Gauge,
    peak: prochlo_obs::Gauge,
    available: prochlo_obs::Gauge,
}

impl EpcGauges {
    fn new(identity: &str) -> Self {
        EpcGauges {
            in_use: prochlo_obs::gauge(&format!("sgx.enclave.{identity}.private_in_use")),
            peak: prochlo_obs::gauge(&format!("sgx.enclave.{identity}.private_peak")),
            available: prochlo_obs::gauge(&format!("sgx.enclave.{identity}.private_available")),
        }
    }

    /// Mirror one accounting step: current usage, remaining budget, and a
    /// ratcheting peak (a process-level high-water mark over every enclave
    /// launched with this identity).
    fn update(&self, in_use: usize, budget: usize) {
        self.in_use.set(in_use as i64);
        self.available.set(budget.saturating_sub(in_use) as i64);
        self.peak.set_max(in_use as i64);
    }
}

/// A simulated SGX enclave: a private-memory budget, boundary accounting and
/// an access trace, plus an identity (measurement) for attestation.
#[derive(Clone)]
pub struct Enclave {
    config: EnclaveConfig,
    measurement: [u8; 32],
    state: Arc<Mutex<EnclaveState>>,
    gauges: EpcGauges,
}

impl fmt::Debug for Enclave {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Enclave")
            .field("code_identity", &self.config.code_identity)
            .field("private_memory_bytes", &self.config.private_memory_bytes)
            .finish()
    }
}

impl Enclave {
    /// Launches an enclave with the given configuration.
    pub fn new(config: EnclaveConfig) -> Self {
        let measurement = sha256(config.code_identity.as_bytes());
        let gauges = EpcGauges::new(&config.code_identity);
        Self {
            config,
            measurement,
            state: Arc::new(Mutex::new(EnclaveState {
                metrics: EnclaveMetrics::default(),
                trace: Vec::new(),
            })),
            gauges,
        }
    }

    /// Launches an enclave with the default (92 MB) budget.
    pub fn with_default_config() -> Self {
        Self::new(EnclaveConfig::default())
    }

    /// The enclave measurement (hash of the loaded code identity).
    pub fn measurement(&self) -> [u8; 32] {
        self.measurement
    }

    /// Charges `bytes` of private memory, failing if the budget would be
    /// exceeded.
    pub fn charge_private(&self, bytes: usize) -> Result<(), EnclaveError> {
        let mut state = self.state.lock();
        let available = self
            .config
            .private_memory_bytes
            .saturating_sub(state.metrics.private_in_use);
        if bytes > available {
            return Err(EnclaveError::OutOfPrivateMemory {
                requested: bytes,
                available,
            });
        }
        state.metrics.private_in_use += bytes;
        state.metrics.private_peak = state.metrics.private_peak.max(state.metrics.private_in_use);
        self.gauges.update(
            state.metrics.private_in_use,
            self.config.private_memory_bytes,
        );
        Ok(())
    }

    /// Releases `bytes` of private memory charged earlier.
    pub fn release_private(&self, bytes: usize) -> Result<(), EnclaveError> {
        let mut state = self.state.lock();
        if bytes > state.metrics.private_in_use {
            return Err(EnclaveError::ReleaseUnderflow);
        }
        state.metrics.private_in_use -= bytes;
        self.gauges.update(
            state.metrics.private_in_use,
            self.config.private_memory_bytes,
        );
        Ok(())
    }

    /// Records `bytes` entering the enclave from untrusted object `index`.
    pub fn copy_in(&self, label: &'static str, index: usize, bytes: usize) {
        self.record(TraceEvent {
            label,
            index,
            bytes,
            into_enclave: true,
        });
    }

    /// Records `bytes` leaving the enclave to untrusted object `index`.
    pub fn copy_out(&self, label: &'static str, index: usize, bytes: usize) {
        self.record(TraceEvent {
            label,
            index,
            bytes,
            into_enclave: false,
        });
    }

    /// Counts one boundary crossing, and traces it when enabled.
    fn record(&self, event: TraceEvent) {
        let mut state = self.state.lock();
        if event.into_enclave {
            state.metrics.bytes_in += event.bytes as u64;
        } else {
            state.metrics.bytes_out += event.bytes as u64;
        }
        if self.config.record_trace {
            state.trace.push(event);
        }
    }

    /// A snapshot of the current metrics.
    pub fn metrics(&self) -> EnclaveMetrics {
        self.state.lock().metrics.clone()
    }

    /// A copy of the recorded access trace (empty unless
    /// [`EnclaveConfig::record_trace`] is set).
    pub fn trace(&self) -> Vec<TraceEvent> {
        self.state.lock().trace.clone()
    }

    /// Remaining private memory.
    fn private_available(&self) -> usize {
        let state = self.state.lock();
        self.config
            .private_memory_bytes
            .saturating_sub(state.metrics.private_in_use)
    }

    /// Splits the *remaining* private-memory budget across `workers`
    /// concurrent enclave threads, modelling a multi-threaded enclave: each
    /// returned [`EnclaveWorker`] may charge at most
    /// `private_available() / workers` on its own, so the sub-budgets plus
    /// whatever the parent already holds (the stash's up-front reservation)
    /// sum to at most the whole budget — a worker that stays within its
    /// sub-budget can therefore never fail the global check, and
    /// out-of-memory outcomes depend only on the configuration, never on
    /// how worker charges happen to overlap in time. Every charge still
    /// rolls up into this enclave's shared [`EnclaveMetrics`], so
    /// `private_peak` is the true peak *across* all workers.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    fn split_budget(&self, workers: usize) -> Vec<EnclaveWorker> {
        assert!(workers > 0, "an enclave needs at least one worker");
        let sub_budget = self.private_available() / workers;
        (0..workers)
            .map(|_| EnclaveWorker {
                enclave: self.clone(),
                budget: sub_budget,
                in_use: 0,
            })
            .collect()
    }
}

/// One worker thread of a multi-threaded enclave, created by
/// [`WorkerPool::split`]: a private-memory sub-budget whose charges and
/// releases roll up into the parent enclave's shared metrics.
///
/// A charge must fit both the worker's own sub-budget *and* the parent
/// budget; a release is validated against the worker's own outstanding
/// charges, so an unbalanced worker is caught even while other workers hold
/// memory. Dropping a worker releases whatever it still holds, so a failed
/// parallel phase cannot leak accounting.
#[derive(Debug)]
pub struct EnclaveWorker {
    enclave: Enclave,
    budget: usize,
    in_use: usize,
}

impl EnclaveWorker {
    /// This worker's private-memory sub-budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Charges `bytes` against this worker's sub-budget and the parent
    /// enclave's shared budget.
    pub fn charge_private(&mut self, bytes: usize) -> Result<(), EnclaveError> {
        let available = self.budget.saturating_sub(self.in_use);
        if bytes > available {
            return Err(EnclaveError::OutOfPrivateMemory {
                requested: bytes,
                available,
            });
        }
        self.enclave.charge_private(bytes)?;
        self.in_use += bytes;
        Ok(())
    }

    /// Releases `bytes` charged earlier *by this worker*.
    pub fn release_private(&mut self, bytes: usize) -> Result<(), EnclaveError> {
        if bytes > self.in_use {
            return Err(EnclaveError::ReleaseUnderflow);
        }
        self.enclave.release_private(bytes)?;
        self.in_use -= bytes;
        Ok(())
    }
}

impl Drop for EnclaveWorker {
    fn drop(&mut self) {
        if self.in_use > 0 {
            // Best-effort: the parent holds at least what this worker does.
            let _ = self.enclave.release_private(self.in_use);
            self.in_use = 0;
        }
    }
}

/// A pool of [`EnclaveWorker`]s for a parallel phase: work unit `idx` runs on
/// worker `idx % len`, so a single-threaded run always uses worker 0 and a
/// phase that charges in one pass and releases in a later one finds its
/// charge on the same worker.
///
/// Which worker a unit lands on only moves charges between equal sub-budgets;
/// it never affects a shuffle's output, which is what keeps parallel runs
/// byte-identical while the accounting stays honest.
#[derive(Debug)]
pub struct WorkerPool {
    workers: Vec<Mutex<EnclaveWorker>>,
}

impl WorkerPool {
    /// Splits the *remaining* budget of `enclave` into `workers` equal
    /// sub-budgets, so a worker within its sub-budget can never fail the
    /// parent's check.
    pub fn split(enclave: &Enclave, workers: usize) -> Self {
        Self {
            workers: enclave
                .split_budget(workers)
                .into_iter()
                .map(Mutex::new)
                .collect(),
        }
    }

    /// Runs `f` holding worker `idx % len` *specifically* (blocking if it
    /// is busy). For phases that charge in one pass and release in a later
    /// one: both passes index the same worker, so the release is validated
    /// against the worker that actually holds the charge.
    pub fn with_exact<T>(&self, idx: usize, f: impl FnOnce(&mut EnclaveWorker) -> T) -> T {
        let mut worker = self.workers[idx % self.workers.len()].lock();
        f(&mut worker)
    }
}

/// A buffer of boundary crossings made by one parallel work unit, committed
/// to the shared [`Enclave`] later in a canonical order.
///
/// Concurrent workers writing `copy_in`/`copy_out` directly would interleave
/// the access trace by scheduling order, making the trace — the artifact the
/// obliviousness tests diff — nondeterministic. Instead each work unit
/// records its crossings here and the sequential merge commits the logs in
/// work-unit order, so the trace is identical at any thread count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoundaryLog {
    events: Vec<TraceEvent>,
}

impl BoundaryLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` entering the enclave from untrusted object `index`.
    pub fn copy_in(&mut self, label: &'static str, index: usize, bytes: usize) {
        self.events.push(TraceEvent {
            label,
            index,
            bytes,
            into_enclave: true,
        });
    }

    /// Records `bytes` leaving the enclave to untrusted object `index`.
    pub fn copy_out(&mut self, label: &'static str, index: usize, bytes: usize) {
        self.events.push(TraceEvent {
            label,
            index,
            bytes,
            into_enclave: false,
        });
    }

    /// Replays the buffered operations, in recording order, against the
    /// enclave's live accounting (and trace, when enabled).
    pub fn commit(self, enclave: &Enclave) {
        for event in self.events {
            enclave.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_enclave(bytes: usize) -> Enclave {
        Enclave::new(EnclaveConfig {
            private_memory_bytes: bytes,
            record_trace: true,
            code_identity: "test-enclave".into(),
        })
    }

    #[test]
    fn default_budget_matches_paper() {
        let e = Enclave::with_default_config();
        assert_eq!(e.config.private_memory_bytes, 92 * 1024 * 1024);
    }

    #[test]
    fn measurement_depends_on_code_identity() {
        let a = small_enclave(100);
        let b = Enclave::new(EnclaveConfig {
            code_identity: "other-code".into(),
            ..EnclaveConfig::default()
        });
        assert_ne!(a.measurement(), b.measurement());
        // Same code => same measurement (reproducible builds assumption).
        assert_eq!(a.measurement(), small_enclave(200).measurement());
    }

    #[test]
    fn charge_and_release_track_peak() {
        let e = small_enclave(1000);
        e.charge_private(400).unwrap();
        e.charge_private(500).unwrap();
        assert_eq!(e.metrics().private_in_use, 900);
        assert_eq!(e.private_available(), 100);
        e.release_private(500).unwrap();
        e.charge_private(50).unwrap();
        let m = e.metrics();
        assert_eq!(m.private_in_use, 450);
        assert_eq!(m.private_peak, 900);
    }

    #[test]
    fn over_budget_allocation_fails() {
        let e = small_enclave(1000);
        e.charge_private(800).unwrap();
        let err = e.charge_private(300).unwrap_err();
        assert_eq!(
            err,
            EnclaveError::OutOfPrivateMemory {
                requested: 300,
                available: 200
            }
        );
        // The failed charge must not corrupt accounting.
        assert_eq!(e.metrics().private_in_use, 800);
    }

    #[test]
    fn release_underflow_is_detected() {
        let e = small_enclave(1000);
        e.charge_private(10).unwrap();
        assert_eq!(e.release_private(11), Err(EnclaveError::ReleaseUnderflow));
    }

    #[test]
    fn boundary_accounting_and_trace() {
        let e = small_enclave(1000);
        e.copy_in("read-bucket", 3, 128);
        e.copy_out("write-bucket", 7, 256);
        let m = e.metrics();
        assert_eq!(m.bytes_in, 128);
        assert_eq!(m.bytes_out, 256);
        let trace = e.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].label, "read-bucket");
        assert_eq!(trace[0].index, 3);
        assert!(trace[0].into_enclave);
        assert!(!trace[1].into_enclave);
    }

    #[test]
    fn trace_disabled_by_default_config() {
        let e = Enclave::with_default_config();
        e.copy_in("x", 0, 10);
        assert!(e.trace().is_empty());
        assert_eq!(e.metrics().bytes_in, 10);
    }

    #[test]
    fn clones_share_accounting() {
        let e = small_enclave(1000);
        let e2 = e.clone();
        e2.copy_in("x", 0, 7);
        assert_eq!(e.metrics().bytes_in, 7);
    }

    #[test]
    fn split_budget_sub_budgets_sum_to_at_most_the_parent_budget() {
        let e = small_enclave(1000);
        for workers in [1usize, 2, 3, 7] {
            let split = e.split_budget(workers);
            assert_eq!(split.len(), workers);
            let total: usize = split.iter().map(EnclaveWorker::budget).sum();
            assert!(total <= 1000, "{workers} workers: {total}");
        }
        assert_eq!(e.split_budget(1)[0].budget(), 1000);
    }

    #[test]
    fn split_budget_carves_from_the_remaining_budget() {
        // With 400 bytes already held by the parent (e.g. a permutation or
        // stash reservation), the sub-budgets must split the remaining 600:
        // workers maxing out their sub-budgets then cannot fail the global
        // check, so out-of-memory never depends on charge overlap timing.
        let e = small_enclave(1000);
        e.charge_private(400).unwrap();
        let mut workers = e.split_budget(3);
        assert!(workers.iter().map(EnclaveWorker::budget).sum::<usize>() <= 600);
        for w in &mut workers {
            w.charge_private(w.budget()).unwrap();
        }
        assert!(e.metrics().private_in_use <= 1000);
        for w in &mut workers {
            w.release_private(w.in_use).unwrap();
        }
        e.release_private(400).unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn split_budget_rejects_zero_workers() {
        let _ = small_enclave(1000).split_budget(0);
    }

    #[test]
    fn worker_charges_roll_up_and_respect_the_sub_budget() {
        let e = small_enclave(1000);
        let mut workers = e.split_budget(2); // 500 bytes each
        workers[0].charge_private(400).unwrap();
        workers[1].charge_private(500).unwrap();
        assert_eq!(e.metrics().private_in_use, 900);
        assert_eq!(e.metrics().private_peak, 900);
        // Worker 0 has 100 bytes of sub-budget left even though the parent
        // has 100 available too; the smaller bound is its own.
        assert_eq!(
            workers[0].charge_private(101),
            Err(EnclaveError::OutOfPrivateMemory {
                requested: 101,
                available: 100
            })
        );
        workers[0].release_private(400).unwrap();
        workers[1].release_private(500).unwrap();
        assert_eq!(e.metrics().private_in_use, 0);
        assert_eq!(e.metrics().private_peak, 900);
    }

    #[test]
    fn worker_release_underflow_is_detected_per_worker() {
        let e = small_enclave(1000);
        let mut workers = e.split_budget(2);
        workers[0].charge_private(300).unwrap();
        // The parent holds 300 bytes, but worker 1 charged none of them:
        // releasing through worker 1 must fail rather than corrupt worker
        // 0's accounting.
        assert_eq!(
            workers[1].release_private(1),
            Err(EnclaveError::ReleaseUnderflow)
        );
        assert_eq!(e.metrics().private_in_use, 300);
        workers[0].release_private(300).unwrap();
    }

    #[test]
    fn worker_drop_releases_outstanding_charges() {
        let e = small_enclave(1000);
        {
            let mut workers = e.split_budget(4);
            workers[2].charge_private(100).unwrap();
            assert_eq!(e.metrics().private_in_use, 100);
        }
        assert_eq!(e.metrics().private_in_use, 0);
        assert_eq!(e.metrics().private_peak, 100);
    }

    #[test]
    fn concurrent_workers_never_exceed_the_parent_budget() {
        // Hammer the shared accounting from real threads: each worker
        // repeatedly charges up to its whole sub-budget and releases it.
        // Every successful charge kept the global usage within the parent
        // budget (charge_private enforces it), the final usage is zero, and
        // the recorded peak is a true cross-worker peak: above any single
        // sub-budget when the workers overlapped, never above the parent
        // budget.
        let e = small_enclave(4 * 256);
        let workers = e.split_budget(4);
        std::thread::scope(|scope| {
            for mut worker in workers {
                scope.spawn(move || {
                    for round in 0..200usize {
                        let bytes = 1 + (round * 37) % worker.budget();
                        worker.charge_private(bytes).unwrap();
                        std::hint::black_box(&worker);
                        worker.release_private(bytes).unwrap();
                    }
                });
            }
        });
        let m = e.metrics();
        assert_eq!(m.private_in_use, 0);
        assert!(m.private_peak <= 4 * 256, "peak {}", m.private_peak);
        assert!(m.private_peak > 0);
    }

    #[test]
    fn cross_worker_peak_is_the_sum_of_overlapping_charges() {
        let e = small_enclave(900);
        let mut workers = e.split_budget(3); // 300 each
        workers[0].charge_private(300).unwrap();
        workers[1].charge_private(200).unwrap();
        workers[2].charge_private(250).unwrap();
        workers[1].release_private(200).unwrap();
        workers[0].release_private(300).unwrap();
        workers[2].release_private(250).unwrap();
        // No single worker went above 300, but together they reached 750.
        assert_eq!(e.metrics().private_peak, 750);
        assert_eq!(e.metrics().private_in_use, 0);
    }

    #[test]
    fn worker_pool_hands_out_workers_and_prefers_the_hint() {
        let e = small_enclave(1000);
        let pool = WorkerPool::split(&e, 2);
        // Unit 3 lands on worker 1, which still holds the charge when unit 1
        // comes back to release it.
        let budget = pool.with_exact(3, |w| {
            w.charge_private(100).unwrap();
            w.budget()
        });
        assert_eq!(budget, 500);
        pool.with_exact(1, |w| w.release_private(100)).unwrap();
        assert_eq!(
            pool.with_exact(0, |w| w.release_private(1)),
            Err(EnclaveError::ReleaseUnderflow)
        );
        assert_eq!(e.metrics().private_peak, 100);
        assert_eq!(e.metrics().private_in_use, 0);
    }

    #[test]
    fn epc_gauges_are_the_enclave_totals_and_no_worker_has_its_own() {
        // Every worker charge rolls up into its enclave, so the enclave's
        // gauge set already carries the cross-worker figures; a per-worker
        // set shared by every worker would only say which one wrote last.
        let identity = "epc-gauge-rollup";
        let e = Enclave::new(EnclaveConfig {
            private_memory_bytes: 4 * 256,
            record_trace: false,
            code_identity: identity.into(),
        });
        let pool = WorkerPool::split(&e, 4);
        std::thread::scope(|scope| {
            for unit in 0..4usize {
                let pool = &pool;
                scope.spawn(move || {
                    pool.with_exact(unit, |worker| {
                        for round in 0..50usize {
                            let bytes = 1 + (round * 37 + unit) % worker.budget();
                            worker.charge_private(bytes).unwrap();
                            worker.release_private(bytes).unwrap();
                        }
                    });
                });
            }
        });
        if prochlo_obs::global().is_enabled() {
            let snapshot = prochlo_obs::snapshot();
            assert!(
                snapshot
                    .entries
                    .iter()
                    .all(|entry| !entry.name.starts_with("sgx.worker.")),
                "no per-worker gauge set"
            );
            assert_eq!(
                snapshot.get(&format!("sgx.enclave.{identity}.private_peak")),
                Some(e.metrics().private_peak as f64)
            );
        }
    }

    #[test]
    fn boundary_log_commits_in_recording_order() {
        let e = small_enclave(1000);
        let mut log = BoundaryLog::new();
        assert!(log.events.is_empty());
        log.copy_in("read", 3, 10);
        log.copy_out("write", 4, 20);
        assert_eq!(log.events.len(), 2);
        log.commit(&e);
        let m = e.metrics();
        assert_eq!((m.bytes_in, m.bytes_out), (10, 20));
        let trace = e.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].label, "read");
        assert!(trace[0].into_enclave);
        assert_eq!(trace[1].label, "write");
        assert!(!trace[1].into_enclave);
    }
}
