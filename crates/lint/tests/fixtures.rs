//! Per-rule fixture coverage: every rule has a firing fixture (the invariant
//! violation is reported at the expected line), a clean fixture (the idiomatic
//! alternative passes), and a suppressed fixture (a justified
//! `// prochlo-lint: allow(...)` directive silences exactly that finding
//! without going stale). The fixtures live as real `.rs` files under
//! `tests/fixtures/` and are linted under synthetic workspace-relative paths,
//! since path decides which rules are in scope.

use prochlo_lint::{lint_source, Finding};

const HASH_FIRING: &str = include_str!("fixtures/hash_iter_firing.rs");
const HASH_CLEAN: &str = include_str!("fixtures/hash_iter_clean.rs");
const HASH_SUPPRESSED: &str = include_str!("fixtures/hash_iter_suppressed.rs");
const ENV_FIRING: &str = include_str!("fixtures/env_knob_firing.rs");
const ENV_CLEAN: &str = include_str!("fixtures/env_knob_clean.rs");
const ENV_SUPPRESSED: &str = include_str!("fixtures/env_knob_suppressed.rs");
const SECRET_FIRING: &str = include_str!("fixtures/secret_eq_firing.rs");
const SECRET_CLEAN: &str = include_str!("fixtures/secret_eq_clean.rs");
const SECRET_SUPPRESSED: &str = include_str!("fixtures/secret_eq_suppressed.rs");
const PANIC_FIRING: &str = include_str!("fixtures/panic_on_wire_firing.rs");
const PANIC_CLEAN: &str = include_str!("fixtures/panic_on_wire_clean.rs");
const PANIC_SUPPRESSED: &str = include_str!("fixtures/panic_on_wire_suppressed.rs");
const WALLCLOCK_FIRING: &str = include_str!("fixtures/wallclock_firing.rs");
const WALLCLOCK_CLEAN: &str = include_str!("fixtures/wallclock_clean.rs");
const WALLCLOCK_SUPPRESSED: &str = include_str!("fixtures/wallclock_suppressed.rs");
const THREAD_FIRING: &str = include_str!("fixtures/thread_spawn_firing.rs");
const THREAD_CLEAN: &str = include_str!("fixtures/thread_spawn_clean.rs");
const THREAD_SUPPRESSED: &str = include_str!("fixtures/thread_spawn_suppressed.rs");
/// `(rule, line)` pairs, in reporting order, for readable assertions.
fn shape(findings: &[Finding]) -> Vec<(&str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

fn assert_clean(path: &str, source: &str) {
    let findings = lint_source(path, source);
    assert!(
        findings.is_empty(),
        "{path}: expected clean, got {findings:?}"
    );
}

/// The firing fixture wrapped in a `#[cfg(test)]` module — every rule's
/// production invariant is exempt in test code.
fn in_test_module(source: &str) -> String {
    format!("#[cfg(test)]\nmod tests {{\n{source}}}\n")
}

#[test]
fn determinism_hash_iter_fires_in_seeded_crate() {
    let findings = lint_source("crates/core/src/fixture.rs", HASH_FIRING);
    assert_eq!(shape(&findings), [("determinism-hash-iter", 2)]);
}

#[test]
fn determinism_hash_iter_is_scoped_to_seeded_crates() {
    // The same source is fine in a non-seeded crate (the collector holds no
    // seeded state) and in test code of a seeded crate.
    assert_clean("crates/collector/src/fixture.rs", HASH_FIRING);
    assert_clean("crates/core/src/fixture.rs", &in_test_module(HASH_FIRING));
}

#[test]
fn determinism_hash_iter_clean_and_suppressed() {
    assert_clean("crates/core/src/fixture.rs", HASH_CLEAN);
    assert_clean("crates/core/src/fixture.rs", HASH_SUPPRESSED);
}

#[test]
fn env_knob_discipline_fires_outside_knob_modules() {
    let findings = lint_source("crates/collector/src/fixture.rs", ENV_FIRING);
    assert_eq!(shape(&findings), [("env-knob-discipline", 2)]);
}

#[test]
fn env_knob_discipline_sanctions_knob_modules() {
    // The identical read is legal inside the workspace's one knob reader.
    assert_clean("crates/obs/src/knobs.rs", ENV_FIRING);
}

#[test]
fn env_knob_discipline_covers_the_collector_and_example_knob_modules() {
    // The per-crate knob modules name and validate their knobs on top of
    // the shared reader; they no longer touch the environment themselves,
    // so the same read there fires like anywhere else.
    for path in [
        "crates/shuffle/src/exec.rs",
        "crates/bench/src/lib.rs",
        "examples/src/knobs.rs",
        "examples/src/fixture.rs",
    ] {
        let findings = lint_source(path, ENV_FIRING);
        assert_eq!(shape(&findings), [("env-knob-discipline", 2)], "{path}");
    }
}

#[test]
fn env_knob_discipline_clean_and_suppressed() {
    assert_clean("crates/collector/src/fixture.rs", ENV_CLEAN);
    assert_clean("crates/collector/src/fixture.rs", ENV_SUPPRESSED);
}

#[test]
fn secret_eq_fires_on_derived_partial_eq() {
    let findings = lint_source("crates/crypto/src/fixture.rs", SECRET_FIRING);
    assert_eq!(shape(&findings), [("secret-eq", 1)]);
    assert!(findings[0].message.contains("AeadKey"), "{findings:?}");
}

#[test]
fn secret_eq_clean_and_suppressed() {
    // Manual ct_eq-backed impls pass, as does deriving PartialEq on a
    // type that holds no key material.
    assert_clean("crates/crypto/src/fixture.rs", SECRET_CLEAN);
    assert_clean("crates/crypto/src/fixture.rs", SECRET_SUPPRESSED);
}

#[test]
fn panic_on_wire_fires_on_index_unwrap_and_panic() {
    let findings = lint_source("crates/collector/src/protocol.rs", PANIC_FIRING);
    assert_eq!(
        shape(&findings),
        [
            ("panic-on-wire", 2), // bytes[0]
            ("panic-on-wire", 3), // .unwrap()
            ("panic-on-wire", 5), // panic!
        ]
    );
}

#[test]
fn panic_on_wire_is_scoped_to_wire_decode_files() {
    // Outside the wire decode surface the same source carries no
    // peer-controlled bytes.
    assert_clean("crates/collector/src/fixture.rs", PANIC_FIRING);
}

#[test]
fn panic_on_wire_covers_the_frame_accumulator() {
    // `Conn` parses length prefixes a peer controls, so it sits on the wire
    // decode surface; the reactor next door never touches peer bytes.
    let findings = lint_source("crates/net/src/conn.rs", PANIC_FIRING);
    assert_eq!(shape(&findings).len(), 3, "{findings:?}");
    assert_clean("crates/net/src/reactor.rs", PANIC_FIRING);
}

#[test]
fn panic_on_wire_clean_and_suppressed() {
    assert_clean("crates/collector/src/protocol.rs", PANIC_CLEAN);
    assert_clean("crates/collector/src/protocol.rs", PANIC_SUPPRESSED);
}

#[test]
fn wallclock_discipline_fires_outside_obs() {
    let findings = lint_source("crates/core/src/fixture.rs", WALLCLOCK_FIRING);
    assert_eq!(shape(&findings), [("wallclock-discipline", 2)]);
}

#[test]
fn wallclock_discipline_sanctions_obs_and_bench() {
    // Telemetry owns the clock, and benches exist to measure time.
    assert_clean("crates/obs/src/fixture.rs", WALLCLOCK_FIRING);
    assert_clean("crates/bench/benches/fixture.rs", WALLCLOCK_FIRING);
}

#[test]
fn wallclock_discipline_sanctions_the_reactor_clock() {
    // Deadline sweeps *are* a clock mechanism, so the reactor may read time
    // directly...
    assert_clean("crates/net/src/reactor.rs", WALLCLOCK_FIRING);
    // ...but the frame accumulator next door gets no such license.
    let findings = lint_source("crates/net/src/conn.rs", WALLCLOCK_FIRING);
    assert_eq!(shape(&findings), [("wallclock-discipline", 2)]);
}

#[test]
fn wallclock_discipline_clean_and_suppressed() {
    assert_clean("crates/core/src/fixture.rs", WALLCLOCK_CLEAN);
    assert_clean("crates/core/src/fixture.rs", WALLCLOCK_SUPPRESSED);
}

#[test]
fn thread_spawn_discipline_fires_outside_executor() {
    let findings = lint_source("crates/core/src/fixture.rs", THREAD_FIRING);
    assert_eq!(shape(&findings), [("thread-spawn-discipline", 2)]);
}

#[test]
fn thread_spawn_discipline_sanctions_executor_and_service() {
    assert_clean("crates/shuffle/src/exec.rs", THREAD_FIRING);
    // The serving harness owns the event-loop threads and the frame pump
    // its demux thread; the services on top and the reactor next door must
    // not spawn.
    assert_clean("crates/net/src/server.rs", THREAD_FIRING);
    assert_clean("crates/net/src/pump.rs", THREAD_FIRING);
    for path in [
        "crates/net/src/reactor.rs",
        "crates/collector/src/service.rs",
        "crates/fabric/src/router.rs",
    ] {
        let findings = lint_source(path, THREAD_FIRING);
        assert_eq!(shape(&findings), [("thread-spawn-discipline", 2)], "{path}");
    }
}

#[test]
fn thread_spawn_discipline_clean_and_suppressed() {
    assert_clean("crates/core/src/fixture.rs", THREAD_CLEAN);
    assert_clean("crates/core/src/fixture.rs", THREAD_SUPPRESSED);
}

#[test]
fn suppression_covers_only_its_own_and_next_line() {
    // Two violations, one directive: the uncovered line still fires.
    let source = "pub fn f(a: &[u64], b: &[u64]) -> usize {\n\
                  // prochlo-lint: allow(determinism-hash-iter, \"membership only\")\n\
                  let x: std::collections::HashSet<u64> = a.iter().copied().collect();\n\
                  let y: std::collections::HashSet<u64> = b.iter().copied().collect();\n\
                  x.len() + y.len()\n\
                  }\n";
    let findings = lint_source("crates/core/src/fixture.rs", source);
    assert_eq!(shape(&findings), [("determinism-hash-iter", 4)]);
}

#[test]
fn stale_suppression_is_reported() {
    // A directive that matches nothing is itself a finding, so allows
    // cannot silently outlive the code they justified.
    let source = "// prochlo-lint: allow(determinism-hash-iter, \"nothing here anymore\")\n\
                  pub fn f() {}\n";
    let findings = lint_source("crates/core/src/fixture.rs", source);
    assert_eq!(shape(&findings), [("lint-directive", 1)]);
    assert!(findings[0].message.contains("stale"), "{findings:?}");
}

#[test]
fn unknown_rule_and_missing_reason_are_reported() {
    let unknown = lint_source(
        "crates/core/src/fixture.rs",
        "// prochlo-lint: allow(no-such-rule, \"reason\")\npub fn f() {}\n",
    );
    assert_eq!(shape(&unknown), [("lint-directive", 1)]);

    let unreasoned = lint_source(
        "crates/core/src/fixture.rs",
        "// prochlo-lint: allow(determinism-hash-iter)\npub fn f() {}\n",
    );
    assert_eq!(shape(&unreasoned), [("lint-directive", 1)]);
}

#[test]
fn committed_workspace_is_finding_free() {
    // The repo must hold itself to its own rules: every remaining firing
    // site carries a reviewed allow, so the tool reports nothing.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = prochlo_lint::lint_workspace(&root).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "committed workspace has lint findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
