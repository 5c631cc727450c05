//! The six project-specific rules.
//!
//! Each rule is a pure function from a lexed file (plus its
//! workspace-relative path and per-token test-context flags) to findings.
//! Rules are deliberately syntactic: they fire on the token shapes that
//! violate an invariant, and the per-line
//! `// prochlo-lint: allow(<rule>, "<reason>")` escape hatch is how code
//! that is *deliberately* shaped that way justifies itself in place.

use crate::engine::{matching, Finding};
use crate::lexer::{Token, TokenKind};

/// A rule's identity and documentation, used by `--list-rules`, the README
/// table, and directive validation.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The rule name used in findings and `allow(...)` directives.
    pub name: &'static str,
    /// One-line description of the invariant the rule protects.
    pub summary: &'static str,
}

/// Every rule the engine runs, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "determinism-hash-iter",
        summary: "HashMap/HashSet in non-test code of seeded crates \
                  (core, shuffle, crypto, bench's data generators and \
                  cost models): \
                  process-random iteration order silently corrupts seeded \
                  replay",
    },
    RuleInfo {
        name: "env-knob-discipline",
        summary: "std::env::var/var_os outside prochlo_obs::knobs, the \
                  workspace's one knob reader: unset picks the default, \
                  set-but-unusable is a hard error, written exactly once",
    },
    RuleInfo {
        name: "secret-eq",
        summary: "derived PartialEq on secret-bearing types: comparisons \
                  must go through crypto::util::ct_eq so timing never \
                  depends on where secrets first differ",
    },
    RuleInfo {
        name: "panic-on-wire",
        summary: "unwrap/expect/panic!/slice-indexing in wire decode paths: \
                  attacker-controlled bytes must never abort the process",
    },
    RuleInfo {
        name: "wallclock-discipline",
        summary: "Instant::now/SystemTime::now outside prochlo-obs and the \
                  reactor's deadline internals: clock reads belong to the \
                  telemetry layer (or carry a local justification)",
    },
    RuleInfo {
        name: "thread-spawn-discipline",
        summary: "thread::spawn/scope outside prochlo_shuffle::exec, the \
                  net serving harness, and the net pump: ad-hoc threading \
                  bypasses the deterministic chunked executor",
    },
];

/// True when `name` names a rule (or the directive pseudo-rule).
pub(crate) fn is_known_rule(name: &str) -> bool {
    name == crate::engine::DIRECTIVE_RULE || RULES.iter().any(|r| r.name == name)
}

/// The seeded crates whose non-test code must not use hash containers.
const SEEDED_CRATE_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/shuffle/src/",
    "crates/crypto/src/",
    "crates/bench/src/data/",
    "crates/bench/src/baselines/",
];

/// Files allowed to read the process environment: the one reader every
/// crate's knobs go through. The unset / undecodable / unparseable match
/// written in two places will eventually be written two ways.
const SANCTIONED_KNOB_FILES: &[&str] = &["crates/obs/src/knobs.rs"];

/// Types that hold key material. Deriving `PartialEq` on these compares
/// limb-by-limb with early exit; equality must route through `ct_eq`.
const SECRET_TYPES: &[&str] = &[
    "Scalar",
    "StaticSecret",
    "EphemeralSecret",
    "AeadKey",
    "BlindingSecret",
    "SigningKey",
    "ElGamalKeypair",
    "HybridKeypair",
    "HmacSha256",
    "CpuKey",
];

/// The wire decode surface: every file that parses bytes a peer controls.
const WIRE_DECODE_FILES: &[&str] = &[
    "crates/collector/src/protocol.rs",
    "crates/fabric/src/link.rs",
    "crates/fabric/src/messages.rs",
    "crates/fabric/src/tcp.rs",
    "crates/fabric/src/transport.rs",
    "crates/core/src/wire.rs",
    "crates/core/src/record.rs",
    "crates/core/src/framing.rs",
    "crates/net/src/conn.rs",
];

/// Files whose whole job is spawning worker threads.
const SANCTIONED_THREAD_FILES: &[&str] = &[
    "crates/shuffle/src/exec.rs",
    "crates/net/src/server.rs",
    "crates/net/src/pump.rs",
];

/// Files whose whole job is turning clock readings into readiness
/// decisions — the reactor's deadline sweep. Their clock reads are the
/// mechanism itself, not telemetry, and they sit strictly on the serving
/// side: nothing downstream of a seeded replay consumes them.
const SANCTIONED_CLOCK_FILES: &[&str] = &["crates/net/src/reactor.rs"];

fn in_crate_src(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/")
}

fn under_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Runs every applicable rule over one file's token stream. `test_ctx[i]`
/// is true when token `i` sits in test-only code (`#[cfg(test)]` /
/// `#[test]` regions); the invariants are production invariants, so test
/// code is exempt.
pub(crate) fn run_rules(
    path: &str,
    tokens: &[Token],
    test_ctx: &[bool],
    findings: &mut Vec<Finding>,
) {
    debug_assert_eq!(tokens.len(), test_ctx.len());
    let live = |i: usize| !test_ctx[i];

    if under_any(path, SEEDED_CRATE_PREFIXES) {
        determinism_hash_iter(path, tokens, &live, findings);
    }
    if !SANCTIONED_KNOB_FILES.contains(&path) {
        env_knob_discipline(path, tokens, &live, findings);
    }
    secret_eq(path, tokens, &live, findings);
    if WIRE_DECODE_FILES.contains(&path) {
        panic_on_wire(path, tokens, &live, findings);
    }
    if in_crate_src(path)
        && !path.starts_with("crates/obs/src/")
        && !path.starts_with("crates/bench/")
        && !SANCTIONED_CLOCK_FILES.contains(&path)
    {
        wallclock_discipline(path, tokens, &live, findings);
    }
    if (in_crate_src(path) || path.starts_with("examples/src/"))
        && !SANCTIONED_THREAD_FILES.contains(&path)
    {
        thread_spawn_discipline(path, tokens, &live, findings);
    }
}

fn finding(path: &str, line: u32, rule: &'static str, message: String) -> Finding {
    Finding {
        file: path.to_string(),
        line,
        rule,
        message,
    }
}

fn determinism_hash_iter(
    path: &str,
    tokens: &[Token],
    live: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (i, tok) in tokens.iter().enumerate() {
        if !live(i) {
            continue;
        }
        if tok.is_ident("HashMap") || tok.is_ident("HashSet") {
            findings.push(finding(
                path,
                tok.line,
                "determinism-hash-iter",
                format!(
                    "{} in a seeded crate: iteration order is process-random \
                     and breaks seeded replay; use BTreeMap/BTreeSet, or \
                     justify a non-iterated use with an allow",
                    tok.text
                ),
            ));
        }
    }
}

/// Matches `env :: var` / `env :: var_os` (covers `std::env::var(...)` and
/// `use std::env; env::var(...)` alike).
fn env_knob_discipline(
    path: &str,
    tokens: &[Token],
    live: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for i in 0..tokens.len().saturating_sub(3) {
        if !live(i) {
            continue;
        }
        if tokens[i].is_ident("env")
            && tokens[i + 1].is_punct(':')
            && tokens[i + 2].is_punct(':')
            && (tokens[i + 3].is_ident("var") || tokens[i + 3].is_ident("var_os"))
        {
            findings.push(finding(
                path,
                tokens[i + 3].line,
                "env-knob-discipline",
                format!(
                    "env::{} outside prochlo_obs::knobs; read the knob \
                     through its read/parse so an unusable value is a hard \
                     error, never a silent default",
                    tokens[i + 3].text
                ),
            ));
        }
    }
}

/// Matches `#[derive(.., PartialEq, ..)]` (possibly alongside other
/// attributes) on a `struct`/`enum` whose name is a known secret-bearing
/// type.
fn secret_eq(
    path: &str,
    tokens: &[Token],
    live: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let mut i = 0;
    while i + 1 < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        // Scan the whole attribute stack ahead of the item, remembering
        // where a `derive(...PartialEq...)` was seen.
        let mut cursor = i;
        let mut derive_eq_line: Option<u32> = None;
        while cursor + 1 < tokens.len()
            && tokens[cursor].is_punct('#')
            && tokens[cursor + 1].is_punct('[')
        {
            let close = match matching(tokens, cursor + 1, '[', ']') {
                Some(c) => c,
                None => return,
            };
            if tokens.get(cursor + 2).is_some_and(|t| t.is_ident("derive")) {
                for tok in &tokens[cursor + 2..close] {
                    if tok.is_ident("PartialEq") {
                        derive_eq_line = Some(tok.line);
                    }
                }
            }
            cursor = close + 1;
        }
        // Skip visibility (`pub`, `pub(crate)`, ...) to the item keyword.
        while cursor < tokens.len()
            && (tokens[cursor].is_ident("pub")
                || tokens[cursor].is_punct('(')
                || tokens[cursor].is_punct(')')
                || tokens[cursor].is_ident("crate")
                || tokens[cursor].is_ident("super")
                || tokens[cursor].is_ident("in"))
        {
            cursor += 1;
        }
        if let (Some(line), Some(kw), Some(name)) =
            (derive_eq_line, tokens.get(cursor), tokens.get(cursor + 1))
        {
            if (kw.is_ident("struct") || kw.is_ident("enum"))
                && name.kind == TokenKind::Ident
                && SECRET_TYPES.contains(&name.text.as_str())
                && live(cursor)
            {
                findings.push(finding(
                    path,
                    line,
                    "secret-eq",
                    format!(
                        "derived PartialEq on secret-bearing type `{}` \
                         short-circuits at the first differing limb; \
                         implement it via crypto::util::ct_eq over a \
                         canonical encoding",
                        name.text
                    ),
                ));
            }
        }
        i = cursor.max(i + 1);
    }
}

fn panic_on_wire(
    path: &str,
    tokens: &[Token],
    live: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    const PANIC_MACROS: &[&str] = &[
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ];
    for (i, tok) in tokens.iter().enumerate() {
        if !live(i) {
            continue;
        }
        // `.unwrap()` / `.expect(` — method position only, so local
        // helpers named e.g. `expect_tag` don't fire.
        if (tok.is_ident("unwrap") || tok.is_ident("expect"))
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            findings.push(finding(
                path,
                tok.line,
                "panic-on-wire",
                format!(
                    ".{}() in a wire decode path can abort on bytes a peer \
                     controls; propagate a protocol error instead",
                    tok.text
                ),
            ));
            continue;
        }
        if PANIC_MACROS.contains(&tok.text.as_str())
            && tok.kind == TokenKind::Ident
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            findings.push(finding(
                path,
                tok.line,
                "panic-on-wire",
                format!(
                    "{}! in a wire decode path can abort on bytes a peer \
                     controls; propagate a protocol error instead",
                    tok.text
                ),
            ));
            continue;
        }
        // Indexing: `expr[...]`. An opening bracket is an index when it
        // directly follows an expression tail (identifier, `)`, `]`, `?`);
        // attribute/type brackets follow punctuation instead, and an array
        // literal follows a keyword (`for x in [..]`, `let [a, b] = ..`).
        const EXPR_KEYWORDS: &[&str] = &[
            "in", "return", "break", "continue", "else", "match", "if", "while", "loop", "let",
            "mut", "ref", "move", "as", "const", "static", "await", "yield",
        ];
        if tok.is_punct('[')
            && i > 0
            && (tokens[i - 1].kind == TokenKind::Ident
                && !EXPR_KEYWORDS.contains(&tokens[i - 1].text.as_str())
                || tokens[i - 1].is_punct(')')
                || tokens[i - 1].is_punct(']')
                || tokens[i - 1].is_punct('?'))
        {
            findings.push(finding(
                path,
                tok.line,
                "panic-on-wire",
                "slice indexing in a wire decode path panics when \
                 attacker-controlled lengths lie; use a checked accessor or \
                 justify the bounds proof with an allow"
                    .to_string(),
            ));
        }
    }
}

fn wallclock_discipline(
    path: &str,
    tokens: &[Token],
    live: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for i in 0..tokens.len().saturating_sub(3) {
        if !live(i) {
            continue;
        }
        if (tokens[i].is_ident("Instant") || tokens[i].is_ident("SystemTime"))
            && tokens[i + 1].is_punct(':')
            && tokens[i + 2].is_punct(':')
            && tokens[i + 3].is_ident("now")
        {
            findings.push(finding(
                path,
                tokens[i].line,
                "wallclock-discipline",
                format!(
                    "{}::now() outside prochlo-obs: clock reads belong in \
                     the telemetry layer (obs spans) so they provably never \
                     steer seeded replay; functional deadlines must justify \
                     themselves with an allow",
                    tokens[i].text
                ),
            ));
        }
    }
}

fn thread_spawn_discipline(
    path: &str,
    tokens: &[Token],
    live: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for i in 0..tokens.len().saturating_sub(3) {
        if !live(i) {
            continue;
        }
        if tokens[i].is_ident("thread")
            && tokens[i + 1].is_punct(':')
            && tokens[i + 2].is_punct(':')
            && (tokens[i + 3].is_ident("spawn") || tokens[i + 3].is_ident("scope"))
        {
            findings.push(finding(
                path,
                tokens[i + 3].line,
                "thread-spawn-discipline",
                format!(
                    "thread::{} outside prochlo_shuffle::exec / the net \
                     serving harness: route parallel work through the \
                     chunked executor (deterministic at any thread count) \
                     or justify the seam with an allow",
                    tokens[i + 3].text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scope_entry_names_a_path_that_exists() {
        // Deleting or moving a file must take its scope entry with it, or
        // the rule silently stops covering (or sanctioning) anything.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let scopes = [
            SEEDED_CRATE_PREFIXES,
            SANCTIONED_KNOB_FILES,
            SANCTIONED_THREAD_FILES,
            SANCTIONED_CLOCK_FILES,
            WIRE_DECODE_FILES,
        ];
        for path in scopes.into_iter().flatten() {
            assert!(root.join(path).exists(), "{path} does not exist");
        }
    }
}
