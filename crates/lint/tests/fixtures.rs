//! Per-rule fixture coverage: every rule has a firing fixture (the invariant
//! violation is reported at the expected line), a clean fixture (the idiomatic
//! alternative passes), and a suppressed fixture (a justified
//! `// prochlo-lint: allow(...)` directive silences exactly that finding
//! without going stale). The fixtures live as real `.rs` files under
//! `tests/fixtures/` and are linted under synthetic workspace-relative paths,
//! since path decides which rules are in scope.

use prochlo_lint::{lint_files, lint_source, Finding};

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
const UNCALLED_FIRING: &str = include_str!("fixtures/uncalled_pub_firing.rs");
const UNCALLED_CLEAN: &str = include_str!("fixtures/uncalled_pub_clean.rs");
const UNCALLED_SUPPRESSED: &str = include_str!("fixtures/uncalled_pub_suppressed.rs");
const USE_ONLY_FIRING: &str = include_str!("fixtures/uncalled_pub_use_firing.rs");
const USE_ONLY_CLEAN: &str = include_str!("fixtures/uncalled_pub_use_clean.rs");
const USE_ONLY_SUPPRESSED: &str = include_str!("fixtures/uncalled_pub_use_suppressed.rs");
const CALL_FIRING: &str = include_str!("fixtures/uncalled_pub_call_firing.rs");
const CALL_CLEAN: &str = include_str!("fixtures/uncalled_pub_call_clean.rs");
const CALL_SUPPRESSED: &str = include_str!("fixtures/uncalled_pub_call_suppressed.rs");
const UNIT_TEST_FIRING: &str = include_str!("fixtures/uncalled_pub_unit_test_firing.rs");
const UNIT_TEST_CLEAN: &str = include_str!("fixtures/uncalled_pub_unit_test_clean.rs");
const UNIT_TEST_SUPPRESSED: &str = include_str!("fixtures/uncalled_pub_unit_test_suppressed.rs");
const IMPL_FIRING: &str = include_str!("fixtures/uncalled_pub_impl_firing.rs");
const IMPL_CLEAN: &str = include_str!("fixtures/uncalled_pub_impl_clean.rs");
const IMPL_SUPPRESSED: &str = include_str!("fixtures/uncalled_pub_impl_suppressed.rs");
const VALUE_CLEAN: &str = include_str!("fixtures/uncalled_pub_value_clean.rs");

/// An integration test naming the clean fixture's public items: a caller in
/// another file is what keeps a `pub` item alive.
const UNCALLED_CALLER: &str = "fn t() { let w: Wrapper = called_helper(); }\n";

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
    // Deadline sweeps and token-bucket refills *are* clock mechanisms, so
    // the reactor and bucket may read time directly...
    assert_clean("crates/net/src/reactor.rs", WALLCLOCK_FIRING);
    assert_clean("crates/net/src/bucket.rs", WALLCLOCK_FIRING);
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
fn uncalled_pub_fires_on_every_item_kind() {
    let findings = lint_files(&[("crates/core/src/fixture.rs", UNCALLED_FIRING)]);
    assert_eq!(
        shape(&findings),
        [
            ("uncalled-pub", 1),  // fn
            ("uncalled-pub", 5),  // const
            ("uncalled-pub", 7),  // const unsafe fn
            ("uncalled-pub", 9),  // struct
            ("uncalled-pub", 13), // type
            ("uncalled-pub", 14), // trait
            ("uncalled-pub", 15), // enum
        ]
    );
    assert!(
        findings[0].message.contains("orphan_helper"),
        "{findings:?}"
    );
    // The examples crate's library is a library target too.
    let findings = lint_files(&[("examples/src/lib.rs", UNCALLED_FIRING)]);
    assert_eq!(findings.len(), 7, "{findings:?}");
}

#[test]
fn uncalled_pub_is_scoped_to_library_targets() {
    // Binaries, benches and tests are not libraries: nothing else can call
    // their items. Test code inside a library is exempt like everywhere.
    for path in [
        "crates/core/src/main.rs",
        "crates/bench/src/bin/tool/main.rs",
        "crates/bench/benches/fixture.rs",
        "crates/core/tests/fixture.rs",
        "examples/src/bin/demo.rs",
    ] {
        let findings = lint_files(&[(path, UNCALLED_FIRING)]);
        assert!(findings.is_empty(), "{path}: {findings:?}");
    }
    let in_tests = in_test_module(UNCALLED_FIRING);
    assert!(lint_files(&[("crates/core/src/fixture.rs", in_tests.as_str())]).is_empty());
    // The rule needs the other files, so linting one file alone skips it.
    assert_clean("crates/core/src/fixture.rs", UNCALLED_FIRING);
}

#[test]
fn uncalled_pub_clean_and_suppressed() {
    // Restricted visibility, fields, modules, statics and test helpers are
    // not counted; the public items have a caller in another file.
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", UNCALLED_CLEAN),
        ("crates/core/tests/caller.rs", UNCALLED_CALLER),
    ]);
    assert!(findings.is_empty(), "{findings:?}");
    let findings = lint_files(&[("crates/core/src/fixture.rs", UNCALLED_SUPPRESSED)]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn uncalled_pub_ignores_names_in_comments_and_strings() {
    // A mention is not a call: another file that names the items only in a
    // comment and a string leaves both uncalled.
    let mention = "// called_helper builds one\nconst S: &str = \"Wrapper\";\n";
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", UNCALLED_CLEAN),
        ("crates/core/tests/caller.rs", mention),
    ]);
    assert_eq!(
        shape(&findings),
        [("uncalled-pub", 1), ("uncalled-pub", 6)],
        "{findings:?}"
    );
}

#[test]
fn uncalled_pub_does_not_count_use_items_as_callers() {
    // A crate root that re-exports both items calls neither of them.
    let root = "pub use crate::fixture::{\n    imported_helper,\n    Reexported,\n};\n";
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", USE_ONLY_FIRING),
        ("crates/core/src/lib.rs", root),
    ]);
    assert_eq!(
        shape(&findings),
        [("uncalled-pub", 1), ("uncalled-pub", 5)],
        "{findings:?}"
    );
    // One mention outside a `use` item, in any file, is a caller.
    let caller =
        "use crate::fixture::imported_helper;\nfn t() -> u32 { imported_helper().field }\n";
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", USE_ONLY_FIRING),
        ("crates/core/src/lib.rs", root),
        ("crates/core/tests/caller.rs", caller),
    ]);
    assert_eq!(shape(&findings), [("uncalled-pub", 1)], "{findings:?}");
}

#[test]
fn uncalled_pub_use_items_clean_and_suppressed() {
    // A trait imported for its methods is called where the methods are:
    // its name need appear only in the `use` line.
    let caller = "use crate::fixture::{Counted, Describe};\n\
                  fn t() -> String { Counted.describe() }\n";
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", USE_ONLY_CLEAN),
        ("crates/core/tests/caller.rs", caller),
    ]);
    assert!(findings.is_empty(), "{findings:?}");
    let root = "pub use crate::fixture::Reexported;\n";
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", USE_ONLY_SUPPRESSED),
        ("crates/core/src/lib.rs", root),
    ]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn uncalled_pub_counts_only_call_shaped_mentions_of_a_fn() {
    // The other file holds both fn names, so a name index would count
    // them: `history` as a field read and a variable, `perms` as another
    // type's fn. Neither is a call of these fns.
    let caller = "fn t(config: &Config) -> usize {\n\
                  let history = config.history;\n\
                  let _ = Privacy::perms();\n\
                  summarize(config) + history\n\
                  }\n";
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", CALL_FIRING),
        ("crates/core/tests/caller.rs", caller),
    ]);
    assert_eq!(
        shape(&findings),
        [("uncalled-pub", 6), ("uncalled-pub", 10)],
        "{findings:?}"
    );
    assert!(
        findings[0].message.contains("`history` is called"),
        "{findings:?}"
    );
    // A method call, and a path qualified by the fn's own type, call them.
    let caller = "fn t(config: &Config) -> usize {\n\
                  Config::perms().history() + summarize(config)\n\
                  }\n";
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", CALL_FIRING),
        ("crates/core/tests/caller.rs", caller),
    ]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn uncalled_pub_call_shapes_clean_and_suppressed() {
    // A path to the fn taken as a value, a method call, and a bare call
    // after a `use` all call; the `Display` impl's `fmt` is not public.
    let caller = "use crate::fixture::total;\n\
                  fn t() -> u32 {\n\
                  let make: fn() -> Registry = Registry::empty;\n\
                  let registry = make();\n\
                  registry.entries().len() as u32 + total(&registry)\n\
                  }\n";
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", CALL_CLEAN),
        ("crates/core/tests/caller.rs", caller),
    ]);
    assert!(findings.is_empty(), "{findings:?}");
    let caller = "fn t(config: &Config) -> usize { config.history }\n";
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", CALL_SUPPRESSED),
        ("crates/core/tests/caller.rs", caller),
    ]);
    assert!(findings.is_empty(), "{findings:?}");
}

/// Another library file whose unit tests call both of the unit-test
/// fixtures' fns.
const UNIT_TEST_CALLER: &str = "#[cfg(test)]\n\
                                mod tests {\n\
                                use crate::fixture::{checksum, encode};\n\
                                #[test]\n\
                                fn appends_the_checksum() {\n\
                                assert_eq!(encode(b\"a\").len(), 5);\n\
                                assert_eq!(checksum(b\"ab\"), 195);\n\
                                }\n\
                                }\n";

/// A binary: production code, and a caller of `encode`.
const ENCODE_BIN: &str = "fn main() {\n\
                          println!(\"{:?}\", prochlo_core::fixture::encode(b\"x\"));\n\
                          }\n";

#[test]
fn uncalled_pub_does_not_count_unit_tests_as_callers() {
    // A unit test can reach private items, so its call never makes a fn
    // public: `checksum` fires although another file's tests call it.
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", UNIT_TEST_FIRING),
        ("crates/core/src/other.rs", UNIT_TEST_CALLER),
        ("crates/core/src/bin/tool.rs", ENCODE_BIN),
    ]);
    assert_eq!(shape(&findings), [("uncalled-pub", 1)], "{findings:?}");
    assert!(findings[0].message.contains("checksum"), "{findings:?}");
}

#[test]
fn uncalled_pub_unit_tests_clean_and_suppressed() {
    // The same test in a tests/ tree is an integration test: another
    // crate's view of the library, and a caller.
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", UNIT_TEST_FIRING),
        ("crates/core/tests/caller.rs", UNIT_TEST_CALLER),
        ("crates/core/src/bin/tool.rs", ENCODE_BIN),
    ]);
    assert!(findings.is_empty(), "{findings:?}");
    // A helper only unit tests call is `pub(crate)`.
    for fixture in [UNIT_TEST_CLEAN, UNIT_TEST_SUPPRESSED] {
        let findings = lint_files(&[
            ("crates/core/src/fixture.rs", fixture),
            ("crates/core/src/other.rs", UNIT_TEST_CALLER),
            ("crates/core/src/bin/tool.rs", ENCODE_BIN),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}

/// Another library file holding `impl` blocks of `Ledger`, which name it
/// nowhere else.
const LEDGER_IMPLS: &str = "use crate::fixture::Ledger;\n\
                            impl Ledger {\n\
                            pub(crate) fn push(&mut self, entry: u64) {\n\
                            self.entries.push(entry);\n\
                            }\n\
                            }\n\
                            impl Default for Ledger {\n\
                            fn default() -> Self {\n\
                            crate::fixture::ledger()\n\
                            }\n\
                            }\n";

#[test]
fn uncalled_pub_does_not_count_impl_headers_as_mentions() {
    // A type's own `impl` blocks, inherent or of a trait, do not use it.
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", IMPL_FIRING),
        ("crates/core/src/ledger.rs", LEDGER_IMPLS),
    ]);
    assert_eq!(shape(&findings), [("uncalled-pub", 1)], "{findings:?}");
    assert!(findings[0].message.contains("`Ledger`"), "{findings:?}");
}

#[test]
fn uncalled_pub_impl_headers_clean_and_suppressed() {
    // A signature that names the type is a mention.
    let caller = "fn t(ledger: &prochlo_core::fixture::Ledger) -> u64 {\n\
                  prochlo_core::fixture::total(ledger)\n\
                  }\n";
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", IMPL_CLEAN),
        ("crates/core/src/ledger.rs", LEDGER_IMPLS),
        ("crates/core/tests/caller.rs", caller),
    ]);
    assert!(findings.is_empty(), "{findings:?}");
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", IMPL_SUPPRESSED),
        ("crates/core/src/ledger.rs", LEDGER_IMPLS),
    ]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn uncalled_pub_counts_an_imported_fn_passed_as_a_value() {
    // `filter_map(parse_line)` calls nothing itself, but a fn imported by
    // name and named outside the `use` is called or passed there.
    let caller = "use prochlo_core::fixture::parse_line;\n\
                  fn main() {\n\
                  let total: u32 = \"metric 1\".lines().filter_map(parse_line).sum();\n\
                  println!(\"{total}\");\n\
                  }\n";
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", VALUE_CLEAN),
        ("crates/bench/src/bin/compare.rs", caller),
    ]);
    assert!(findings.is_empty(), "{findings:?}");
    // Not imported, the same spelling is a variable: no caller.
    let shadow = "fn main() {\n\
                  let parse_line = 3;\n\
                  println!(\"{}\", parse_line);\n\
                  }\n";
    let findings = lint_files(&[
        ("crates/core/src/fixture.rs", VALUE_CLEAN),
        ("crates/bench/src/bin/compare.rs", shadow),
    ]);
    assert_eq!(shape(&findings), [("uncalled-pub", 1)], "{findings:?}");
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
