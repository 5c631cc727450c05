//! The seven project-specific rules.
//!
//! Each rule is a pure function from a lexed file (plus its
//! workspace-relative path and per-token test-context flags) to findings;
//! `uncalled-pub` also asks the engine's workspace name index.
//! Rules are deliberately syntactic: they fire on the token shapes that
//! violate an invariant, and the per-line
//! `// prochlo-lint: allow(<rule>, "<reason>")` escape hatch is how code
//! that is *deliberately* shaped that way justifies itself in place.

use crate::engine::{matching, Finding, Mention, NameIndex};
use crate::lexer::{Token, TokenKind};

/// A rule's identity and documentation, used by `--list-rules`, the README
/// table, and directive validation.
#[derive(Debug, Clone, Copy)]
// prochlo-lint: allow(uncalled-pub, "the element type of RULES; the binary prints its fields without naming it")
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
    RuleInfo {
        name: "uncalled-pub",
        summary: "pub fn/struct/enum/trait/const/type in a library target \
                  that no production code or integration test in another \
                  file calls (a fn: `.f(`, `Type::f`, `f(`, or imported and \
                  passed as a value) or names (the rest; a type's own \
                  `impl` header does not count): public surface nothing \
                  calls is code nobody audits against the invariants",
    },
];

/// True when `name` names a rule (or the directive pseudo-rule).
pub fn is_known_rule(name: &str) -> bool {
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
/// decisions — the reactor's deadline sweep and the token-bucket refill.
/// Their clock reads are the mechanism itself, not telemetry, and they sit
/// strictly on the serving side: nothing downstream of a seeded replay
/// consumes them.
const SANCTIONED_CLOCK_FILES: &[&str] = &["crates/net/src/reactor.rs", "crates/net/src/bucket.rs"];

fn in_crate_src(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/")
}

/// Library targets: crate and example `src/` trees less their binaries.
fn in_library(path: &str) -> bool {
    (in_crate_src(path) || path.starts_with("examples/src/"))
        && !path.ends_with("/src/main.rs")
        && !path.contains("/src/bin/")
}

fn under_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// The engine's workspace name index, seen from one file (`file`, its
/// position in the index).
#[derive(Clone, Copy)]
pub(crate) struct Callers<'a> {
    pub(crate) index: &'a NameIndex<'a>,
    pub(crate) file: usize,
}

/// Whether the identifier at `i` is call-shaped, and as what: a method
/// call `.name(` / `.name::<`, a path `Q::name`, or a bare `name(` that
/// does not declare it (`fn name(`). The key is `(Some(Q), name)` when a
/// type `Q` (capitalized, not `Self`) qualifies the path — that names one
/// type's fn — and `(None, name)` otherwise. A field read (`.name`
/// without a call) is not call-shaped, so a field or variable that shares
/// a fn's spelling does not keep the fn alive.
pub(crate) fn call_shaped(tokens: &[Token], i: usize) -> Option<(Option<&str>, &str)> {
    let name = tokens[i].text.as_str();
    let at = |j: usize| tokens.get(j);
    let punct = |j: usize, c: char| at(j).is_some_and(|t| t.is_punct(c));
    let called_next = punct(i + 1, '(') || punct(i + 1, ':') && punct(i + 2, ':');
    let before = |back: usize| i.checked_sub(back).and_then(at);
    if before(1).is_some_and(|t| t.is_punct('.')) {
        return Some((None, name)).filter(|_| called_next);
    }
    if before(1).is_some_and(|t| t.is_punct(':')) && before(2).is_some_and(|t| t.is_punct(':')) {
        let qualifier = before(3).filter(|q| {
            q.kind == TokenKind::Ident && q.text != "Self" && q.text.starts_with(char::is_uppercase)
        });
        return Some((qualifier.map(|q| q.text.as_str()), name));
    }
    let declares = before(1).is_some_and(|t| t.is_ident("fn"));
    Some((None, name)).filter(|_| punct(i + 1, '(') && !declares)
}

/// Runs every applicable rule over one file's token stream. `test_ctx[i]`
/// is true when token `i` sits in test-only code (`#[cfg(test)]` /
/// `#[test]` regions); the invariants are production invariants, so test
/// code is exempt. `uncalled-pub` runs when the engine supplies `callers`,
/// its workspace name index.
pub(crate) fn run_rules(
    path: &str,
    tokens: &[Token],
    test_ctx: &[bool],
    callers: Option<Callers<'_>>,
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
    if let Some(callers) = callers.filter(|_| in_library(path)) {
        uncalled_pub(path, tokens, &live, callers, findings);
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

/// The item `pub` at `at` declares, as `(kind, name)`: `fn`, `struct`,
/// `enum`, `trait`, `const` or `type` after any `const` / `unsafe` /
/// `async` / `extern "abi"` qualifiers. Restricted visibility
/// (`pub(crate)`, `pub(super)`) and fields, modules, uses and statics are
/// not items this rule counts.
fn declared_item(tokens: &[Token], at: usize) -> Option<(&str, &Token)> {
    const KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "type"];
    const QUALIFIERS: &[&str] = &["fn", "const", "unsafe", "async", "extern"];
    let mut i = at + 1;
    loop {
        let (tok, next) = (tokens.get(i)?, tokens.get(i + 1)?);
        let named = next.kind == TokenKind::Ident && !QUALIFIERS.contains(&next.text.as_str());
        if tok.kind == TokenKind::Ident && KINDS.contains(&tok.text.as_str()) && named {
            return Some((tok.text.as_str(), next)).filter(|_| next.text != "_");
        }
        let qualifier = tok.kind == TokenKind::Ident && QUALIFIERS.contains(&tok.text.as_str());
        if !(qualifier || tok.kind == TokenKind::Literal) {
            return None;
        }
        i += 1;
    }
}

/// Each `impl` block as `(self type, body)`: the self type is the token
/// of the last identifier outside angle brackets in the header
/// (`impl<T> Foo<T>` and `impl fmt::Display for Foo` are both `Foo`), and
/// the body runs from the block's `{` to its `}`. An `impl` in argument or
/// return position opens no block.
pub(crate) fn impl_blocks(tokens: &[Token]) -> Vec<(Option<usize>, usize, usize)> {
    let mut blocks = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        let at_item =
            i == 0 || ["}", ";", "]", "{", "unsafe"].contains(&tokens[i - 1].text.as_str());
        if !(tok.is_ident("impl") && at_item) {
            continue;
        }
        let (mut depth, mut self_ty, mut in_where, mut j) = (0, None, false, i + 1);
        while let Some(t) = tokens.get(j).filter(|t| depth > 0 || !t.is_punct('{')) {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" if !tokens[j - 1].is_punct('-') => depth -= 1,
                "where" => in_where = true,
                "for" => {}
                _ if depth == 0 && !in_where && t.kind == TokenKind::Ident => self_ty = Some(j),
                _ => {}
            }
            j += 1;
        }
        if let Some(close) = matching(tokens, j, '{', '}') {
            blocks.push((self_ty, j, close));
        }
    }
    blocks
}

/// Per token, the self type of the innermost `impl` block it sits in
/// ([`impl_blocks`]).
fn impl_types(tokens: &[Token]) -> Vec<Option<&str>> {
    let mut types = vec![None; tokens.len()];
    for (self_ty, open, close) in impl_blocks(tokens) {
        types[open..close].fill(self_ty.map(|t| tokens[t].text.as_str()));
    }
    types
}

/// A `pub fn` counts as called only where another file calls it
/// ([`call_shaped`], qualified by its `impl`'s type or by none) or imports
/// it and names it outside the `use`; the other item kinds count wherever
/// another file names them. Unit tests and `impl` headers mention nothing
/// ([`NameIndex`]).
fn uncalled_pub(
    path: &str,
    tokens: &[Token],
    live: &dyn Fn(usize) -> bool,
    callers: Callers<'_>,
    findings: &mut Vec<Finding>,
) {
    let impl_types = impl_types(tokens);
    for (i, tok) in tokens.iter().enumerate() {
        if !(tok.is_ident("pub") && live(i)) {
            continue;
        }
        let Some((kind, name)) = declared_item(tokens, i) else {
            continue;
        };
        let n = name.text.as_str();
        let qualified = Mention::Called(impl_types[i], n);
        // A `use` line (a `pub use` re-export included) calls nothing,
        // except for a trait: importing one is how its methods are called.
        let mentions = match kind {
            "fn" => [Mention::Called(None, n), qualified],
            "trait" => [Mention::Named(n), Mention::Use(n)],
            _ => [Mention::Named(n); 2],
        };
        let imported = kind == "fn" && callers.index.imported_elsewhere(callers.file, n);
        if !(imported || callers.index.elsewhere(callers.file, &mentions)) {
            let shape = if kind == "fn" { "called" } else { "named" };
            findings.push(finding(
                path,
                name.line,
                "uncalled-pub",
                format!(
                    "pub {kind} `{}` is {shape} in no other first-party file: \
                     delete it, demote it, or state why it must stay public \
                     with an allow",
                    name.text
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
