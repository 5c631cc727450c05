//! Collector ingestion throughput: sealed-report frames per second through
//! the socket-free parse + dedup + enqueue path ([`IngestCore::ingest`]).
//!
//! This isolates the per-report CPU cost of the serving layer (ciphertext
//! parse, replay-filter probe, bounded-queue push) from socket and syscall
//! noise, and reports it single-threaded and with a worker pool. Scale with
//! `PROCHLO_INGEST_REPORTS` (default 200_000) and
//! `PROCHLO_INGEST_THREADS` (default 4).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use prochlo_bench::{emit_metric, env_usize, fmt_records, print_header, timed};
use prochlo_collector::{IngestConfig, IngestCore, Response, NONCE_LEN};
use prochlo_crypto::hybrid::{HybridCiphertext, HybridKeypair};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let reports = env_usize("PROCHLO_INGEST_REPORTS", 200_000);
    let threads = env_usize("PROCHLO_INGEST_THREADS", 4).max(1);
    let mut rng = StdRng::seed_from_u64(0xc011ec7);

    // One representative sealed report (outer layer over a 32-byte padded
    // payload plus envelope) cloned per submission; nonces are distinct so
    // the dedup filter takes its insert path every time.
    let recipient = HybridKeypair::generate(&mut rng);
    let frame = HybridCiphertext::seal(
        &mut rng,
        recipient.public_key(),
        b"prochlo-layer-shuffler",
        &[0u8; 128],
    )
    .expect("seal")
    .to_bytes();
    let peer: SocketAddr = "127.0.0.1:40000".parse().expect("addr");

    print_header(
        "Collector ingestion (parse + dedup + enqueue, no socket)",
        &["threads", "reports", "time (s)", "reports/sec"],
    );

    for workers in [1usize, threads] {
        let core = Arc::new(IngestCore::new(IngestConfig {
            queue_capacity: reports + 1,
            dedup_capacity: reports + 1,
            ..IngestConfig::default()
        }));
        let per_worker = reports / workers;
        let (accepted, seconds) = timed(|| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let core = Arc::clone(&core);
                    let frame = frame.clone();
                    std::thread::spawn(move || {
                        let mut accepted = 0u64;
                        for i in 0..per_worker {
                            let mut nonce = [0u8; NONCE_LEN];
                            nonce[..8]
                                .copy_from_slice(&((w * per_worker + i) as u64).to_le_bytes());
                            nonce[8] = (w as u8).wrapping_add(1);
                            if matches!(core.ingest(&nonce, &frame, peer), Response::Ack { .. }) {
                                accepted += 1;
                            }
                        }
                        accepted
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .sum::<u64>()
        });
        assert_eq!(
            accepted as usize,
            per_worker * workers,
            "all frames accepted"
        );
        println!(
            "{:>7} | {:>8} | {:>8.3} | {:>12.0}",
            workers,
            fmt_records(per_worker * workers),
            seconds,
            accepted as f64 / seconds,
        );
        emit_metric(
            "collector_ingest",
            &format!("reports_per_sec_t{workers}"),
            accepted as f64 / seconds,
        );
        // Keep the queue from outliving the measurement with gigabytes of
        // reports at large scales.
        core.queue().close();
        while !core.queue().drain_when(1 << 16, Duration::ZERO).is_empty() {}
    }
}
