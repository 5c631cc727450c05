//! Tier-1 tests of the harness itself: every workload at test scale with
//! every oracle on, the emitted names against `BENCHMARK.json`, and the
//! accounting that turns a lost report into a failed run.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use crate::spec::Spec;
use crate::trace::Tracer;
use crate::workloads::{self, Kind, Outcome, Params, Sizes};
use crate::{quartiles, result_json};

const TEST_SEED: u64 = 0x7E57;

/// A fixed count over one connection into a queue that never refuses:
/// epoch membership is deterministic, so the byte-identity oracles apply.
fn test_params(kind: Kind, tracer: Option<Arc<Tracer>>) -> Params {
    Params {
        seed: TEST_SEED,
        measure: None,
        connections: 1,
        reference: true,
        sizes: Sizes::test(kind),
        tracer,
    }
}

fn names<'a>(names: impl IntoIterator<Item = &'a str>) -> BTreeSet<String> {
    names.into_iter().map(str::to_string).collect()
}

#[test]
fn every_workload_passes_its_oracles_and_emits_exactly_the_declared_names() {
    let spec = Spec::load().expect("BENCHMARK.json parses");
    assert_eq!(
        names(spec.workloads.iter().map(String::as_str)),
        names(Kind::ALL.map(Kind::name)),
        "workload names drifted from BENCHMARK.json"
    );
    let declared_end_to_end = names(spec.end_to_end.iter().map(|m| m.name.as_str()));
    let declared_per_layer = names(spec.per_layer.iter().map(|m| m.name.as_str()));
    for name in declared_end_to_end.iter().chain(&declared_per_layer) {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name `{name}` uses a character outside [A-Za-z0-9_.-]"
        );
    }
    // The per-layer names a run emits are the file's own rows; what can
    // drift is code setting a name the file lacks, which panics below.
    assert_eq!(declared_per_layer.len(), spec.per_layer.len());
    assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));

    for kind in Kind::ALL {
        // The end-to-end configuration, then the traced one.
        let run = |tracer| {
            workloads::run(kind, &test_params(kind, tracer))
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()))
        };
        let plain = run(None);
        let tracer = Arc::new(Tracer::new(true));
        let traced = run(Some(Arc::clone(&tracer)));
        for outcome in [&plain, &traced] {
            assert!(
                outcome.correct(),
                "{}: {:?} (attempted {}, counted {})",
                kind.name(),
                outcome.failures,
                outcome.attempted,
                outcome.counted
            );
            assert_eq!(
                names(outcome.end_to_end.iter().map(|(name, _)| *name)),
                declared_end_to_end,
                "{}: end-to-end names drifted from BENCHMARK.json",
                kind.name()
            );
        }
        assert_eq!(
            plain.attempted,
            Sizes::test(kind).submissions,
            "{}",
            kind.name()
        );
        assert!(plain.per_layer.is_none());
        let layers = traced
            .per_layer
            .as_ref()
            .expect("traced runs fill the layers");
        assert_eq!(
            names(layers.rows().iter().map(|(name, _)| *name)),
            declared_per_layer,
            "{}: per-layer names drifted from BENCHMARK.json",
            kind.name()
        );
        // Exact counts: a seed fixes the result.
        assert!(!plain.repeatable.is_empty());
        assert_eq!(plain.repeatable, traced.repeatable, "{}", kind.name());
        assert_eq!(
            layers.get("core.shuffler.received") > 0.0,
            kind.opens_reports()
        );
        assert!(result_json(spec, &traced, &layers.rows()).is_ok());
        // Spans exist exactly where the harness owns the pipeline calls.
        let spans = tracer.records();
        let owns_pipeline = matches!(
            kind,
            Kind::LiveSaturate | Kind::LivePaced | Kind::BatchVocab
        );
        assert_eq!(
            spans.iter().any(|s| s.name == "core.shuffler.process"),
            owns_pipeline,
            "{}",
            kind.name()
        );
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
    }
}

/// What the pipeline measures: stopped by the clock, several connections
/// claiming positions from one counter, a two-epoch queue that refuses, and
/// the same-nonce retries that follow.
#[test]
fn a_time_driven_run_over_two_connections_accounts_for_every_report() {
    for kind in [Kind::LiveSaturate, Kind::LivePaced, Kind::RoutedServe] {
        let outcome = workloads::run(
            kind,
            &Params {
                seed: TEST_SEED,
                measure: Some(Duration::from_millis(200)),
                connections: 2,
                reference: false,
                sizes: Sizes::test(kind),
                tracer: None,
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert!(
            outcome.correct(),
            "{}: {:?} (attempted {}, counted {})",
            kind.name(),
            outcome.failures,
            outcome.attempted,
            outcome.counted
        );
        assert!(outcome.attempted > 0, "{}", kind.name());
        assert!(outcome.repeatable.is_empty(), "{}", kind.name());
        if kind == Kind::LiveSaturate {
            // 128 submissions in flight against a queue of 328.
            assert!(outcome.refused > 0, "the queue never pushed back");
        }
    }
}

#[test]
fn a_short_counted_result_fails_the_run() {
    let spec = Spec::load().expect("BENCHMARK.json parses");
    let mut outcome = Outcome {
        attempted: 1000,
        counted: 1000,
        end_to_end: vec![("setup_s", 0.5)],
        ..Outcome::default()
    };
    assert!(outcome.correct());
    // One acknowledged report that never reached the histogram...
    outcome.counted = 999;
    assert_eq!(outcome.failed(), 1);
    assert!(!outcome.correct());
    let json = result_json(spec, &outcome, &outcome.end_to_end).unwrap();
    assert!(json.starts_with("{\"correct\": false, \"attempted\": 1000, \"failed\": 1,"));
    // ...and one counted twice fail the same way.
    outcome.counted = 1001;
    assert_eq!(outcome.failed(), 1);
    assert!(!outcome.correct());
    // So does an oracle failure with every report accounted for.
    outcome.counted = 1000;
    outcome
        .failures
        .push("epoch 0: rejected: 1 != 0".to_string());
    assert!(!outcome.correct());
    // A metric BENCHMARK.json does not declare cannot be reported.
    assert!(result_json(spec, &outcome, &[("not_a_metric", 1.0)]).is_err());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
}
