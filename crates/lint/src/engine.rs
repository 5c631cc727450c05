//! The rule engine: walks the workspace, lexes each first-party source
//! file once, indexes the names they hold, computes test-context, runs the
//! rules on the production files, and applies per-line suppression
//! directives.
//!
//! # Suppressions
//!
//! A finding is suppressed by a comment on the same line as the offending
//! code, or on the line directly above it:
//!
//! ```text
//! // prochlo-lint: allow(determinism-hash-iter, "membership set, never iterated")
//! let keep: HashSet<usize> = keep.into_iter().collect();
//! ```
//!
//! The rule name must match and the reason must be non-empty — a
//! suppression without a justification, naming an unknown rule, or
//! suppressing nothing at all is itself reported (rule `lint-directive`),
//! so stale allows cannot accumulate.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};
use crate::rules::{self, Callers};

/// The pseudo-rule under which malformed or stale suppression directives
/// are reported. Not suppressible.
pub const DIRECTIVE_RULE: &str = "lint-directive";

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// The rule that fired.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed `prochlo-lint: allow(rule, "reason")` directive.
struct Suppression {
    /// Line the directive comment starts on.
    line: u32,
    /// The rule it suppresses.
    rule: String,
}

/// Parses suppression directives out of the file's comments. Malformed
/// directives become `lint-directive` findings.
fn parse_directives(
    path: &str,
    comments: &[Comment],
    findings: &mut Vec<Finding>,
) -> Vec<Suppression> {
    const MARKER: &str = "prochlo-lint:";
    let mut out = Vec::new();
    for comment in comments {
        // Doc comments are prose *about* the linter, not directives to it
        // (the suppression syntax is documented in several rustdoc pages).
        if comment.text.starts_with("///")
            || comment.text.starts_with("//!")
            || comment.text.starts_with("/**")
            || comment.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = comment.text.find(MARKER) else {
            continue;
        };
        let directive = comment.text[at + MARKER.len()..].trim();
        match parse_allow(directive) {
            Ok((rule, reason)) => {
                if !rules::is_known_rule(&rule) {
                    findings.push(Finding {
                        file: path.to_string(),
                        line: comment.line,
                        rule: DIRECTIVE_RULE,
                        message: format!("allow names unknown rule `{rule}` (see --list-rules)"),
                    });
                } else if reason.trim().is_empty() {
                    findings.push(Finding {
                        file: path.to_string(),
                        line: comment.line,
                        rule: DIRECTIVE_RULE,
                        message: format!("allow({rule}) must state a non-empty reason"),
                    });
                } else {
                    out.push(Suppression {
                        line: comment.line,
                        rule,
                    });
                }
            }
            Err(why) => findings.push(Finding {
                file: path.to_string(),
                line: comment.line,
                rule: DIRECTIVE_RULE,
                message: format!(
                    "malformed directive (expected `prochlo-lint: \
                     allow(<rule>, \"<reason>\")`): {why}"
                ),
            }),
        }
    }
    out
}

/// Parses `allow(<rule>, "<reason>")`.
fn parse_allow(directive: &str) -> Result<(String, String), &'static str> {
    let rest = directive
        .strip_prefix("allow")
        .ok_or("directive must start with `allow`")?
        .trim_start();
    let rest = rest.strip_prefix('(').ok_or("missing `(`")?;
    let rest = rest.strip_suffix(')').ok_or("missing closing `)`")?;
    let (rule, reason) = rest.split_once(',').ok_or("missing `,` before reason")?;
    let reason = reason.trim();
    let reason = reason
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or("reason must be a \"quoted string\"")?;
    Ok((rule.trim().to_string(), reason.to_string()))
}

/// Flags each token that sits in test-only code: the body (and attribute
/// stack) of any item annotated `#[test]` or `#[cfg(test)]` (including
/// `#[cfg(all(test, ...))]`; `#[cfg(not(test))]` is production code).
fn test_context(tokens: &[Token]) -> Vec<bool> {
    let mut flags = vec![false; tokens.len()];
    let mut i = 0;
    while i + 1 < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let mut is_test = false;
        // Walk the contiguous attribute stack.
        let mut cursor = i;
        while cursor + 1 < tokens.len()
            && tokens[cursor].is_punct('#')
            && tokens[cursor + 1].is_punct('[')
        {
            let Some(close) = matching(tokens, cursor + 1, '[', ']') else {
                return flags;
            };
            let attr = &tokens[cursor + 2..close];
            let head_is_test = attr.first().is_some_and(|t| t.is_ident("test"));
            let head_is_cfg = attr.first().is_some_and(|t| t.is_ident("cfg"));
            let mentions_test = attr.iter().any(|t| t.is_ident("test"));
            let negated = attr.iter().any(|t| t.is_ident("not"));
            if head_is_test || (head_is_cfg && mentions_test && !negated) {
                is_test = true;
            }
            cursor = close + 1;
        }
        if !is_test {
            i = cursor;
            continue;
        }
        // The annotated item runs to the matching `}` of its first body
        // brace, or to a top-level `;` for brace-less items.
        let mut end = cursor;
        while end < tokens.len() {
            if tokens[end].is_punct('{') {
                end = matching(tokens, end, '{', '}').unwrap_or(tokens.len() - 1);
                break;
            }
            if tokens[end].is_punct(';') {
                break;
            }
            end += 1;
        }
        let end = end.min(tokens.len() - 1);
        for flag in &mut flags[attr_start..=end] {
            *flag = true;
        }
        i = end + 1;
    }
    flags
}

/// Flags each token of a `use` item, from the `use` keyword to its `;`.
fn use_items(tokens: &[Token]) -> Vec<bool> {
    let mut inside = false;
    tokens
        .iter()
        .map(|tok| {
            inside |= tok.is_ident("use");
            let flag = inside;
            inside &= !tok.is_punct(';');
            flag
        })
        .collect()
}

/// Index of the `close_c` matching the `open_c` at `open`, if any.
pub(crate) fn matching(
    tokens: &[Token],
    open: usize,
    open_c: char,
    close_c: char,
) -> Option<usize> {
    let mut depth = 0usize;
    for (i, tok) in tokens.iter().enumerate().skip(open) {
        if tok.is_punct(open_c) {
            depth += 1;
        } else if tok.is_punct(close_c) {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Lints one lexed file. Without `callers`, the workspace name index, the
/// cross-file `uncalled-pub` rule does not run.
fn lint_lexed(path: &str, lexed: &Lexed, callers: Option<Callers<'_>>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let suppressions = parse_directives(path, &lexed.comments, &mut findings);
    let flags = test_context(&lexed.tokens);

    let mut raw = Vec::new();
    rules::run_rules(path, &lexed.tokens, &flags, callers, &mut raw);
    // One finding per (line, rule): four indexing expressions on one line
    // are one violation, and one allow should cover them.
    raw.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);

    // A suppression covers its own line and the line directly below it
    // (trailing comment / comment-above styles); each must suppress at
    // least one finding or it is stale and reported itself.
    let mut used = vec![false; suppressions.len()];
    'findings: for f in raw {
        for (idx, s) in suppressions.iter().enumerate() {
            if s.rule == f.rule && (f.line == s.line || f.line == s.line + 1) {
                used[idx] = true;
                continue 'findings;
            }
        }
        findings.push(f);
    }
    for (idx, s) in suppressions.iter().enumerate() {
        if !used[idx] {
            findings.push(Finding {
                file: path.to_string(),
                line: s.line,
                rule: DIRECTIVE_RULE,
                message: format!(
                    "stale allow({}) suppresses nothing on this or the next \
                     line; remove it",
                    s.rule
                ),
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Lints one file's source text on its own. `path` is the
/// workspace-relative path (forward slashes) the rules use to decide
/// applicability. `uncalled-pub` needs the other files and runs only in
/// [`lint_files`].
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    lint_lexed(path, &lex(source), None)
}

/// Production code: every crate's `src/` and `benches/` trees and the
/// examples. Tests, integration-test crates and fixtures are read only as
/// callers.
fn is_production(path: &str) -> bool {
    let mut parts = path.split('/');
    matches!(
        (parts.next(), parts.next(), parts.next()),
        (Some("crates"), Some(_), Some("src" | "benches")) | (Some("examples"), Some("src"), _)
    )
}

/// What a first-party file holds of a name, as [`NameIndex`] keys it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Mention<'a> {
    /// The name inside a `use` item.
    Use(&'a str),
    /// The name anywhere else outside comments and strings.
    Named(&'a str),
    /// A call of the name ([`rules::call_shaped`]), qualified by a type or
    /// not.
    Called(Option<&'a str>, &'a str),
}

/// Whether `path` sits in a `tests/` tree: an integration test, whose
/// `#[test]` functions call the library the way any other crate does.
fn in_tests_tree(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

/// The workspace name index `uncalled-pub` checks against: per mention,
/// the files that hold it, in file order. Two kinds of token mention
/// nothing: unit-test code (`#[cfg(test)]`/`#[test]` outside a `tests/`
/// tree), since a unit test can see private items and never needs `pub`,
/// and an `impl` header's self type, since a type's own `impl` is not a
/// use of it.
pub(crate) struct NameIndex<'a>(HashMap<Mention<'a>, Vec<usize>>);

impl<'a> NameIndex<'a> {
    fn new(files: &'a [(&str, Lexed)]) -> Self {
        let mut index: HashMap<Mention<'a>, Vec<usize>> = HashMap::new();
        for (file, (path, lexed)) in files.iter().enumerate() {
            let tokens = &lexed.tokens;
            let in_use = use_items(tokens);
            let mut silent = if in_tests_tree(path) {
                vec![false; tokens.len()]
            } else {
                test_context(tokens)
            };
            for (self_ty, _, _) in rules::impl_blocks(tokens) {
                if let Some(t) = self_ty {
                    silent[t] = true;
                }
            }
            for (i, tok) in tokens.iter().enumerate() {
                if tok.kind != TokenKind::Ident || silent[i] {
                    continue;
                }
                let named = if in_use[i] {
                    Mention::Use(&tok.text)
                } else {
                    Mention::Named(&tok.text)
                };
                let called = rules::call_shaped(tokens, i)
                    .filter(|_| !in_use[i])
                    .map(|(qualifier, name)| Mention::Called(qualifier, name));
                for mention in std::iter::once(named).chain(called) {
                    let holders = index.entry(mention).or_default();
                    if holders.last() != Some(&file) {
                        holders.push(file);
                    }
                }
            }
        }
        Self(index)
    }

    /// The files that hold `mention`.
    fn holders<'s>(&'s self, mention: Mention<'s>) -> &'s [usize] {
        // The keys borrow every file's tokens; look them up at the
        // mention's shorter lifetime.
        let index: &HashMap<Mention<'s>, Vec<usize>> = &self.0;
        index.get(&mention).map_or(&[], Vec::as_slice)
    }

    /// Whether a file other than `file` holds any of `mentions`.
    pub(crate) fn elsewhere(&self, file: usize, mentions: &[Mention<'_>]) -> bool {
        mentions
            .iter()
            .any(|&m| self.holders(m).iter().any(|&f| f != file))
    }

    /// Whether a file other than `file` imports `name` in a `use` item and
    /// names it outside one: a fn imported by name is called there, or
    /// passed as a value (`filter_map(parse)`).
    pub(crate) fn imported_elsewhere(&self, file: usize, name: &str) -> bool {
        let named = self.holders(Mention::Named(name));
        self.holders(Mention::Use(name))
            .iter()
            .any(|f| *f != file && named.contains(f))
    }
}

/// Lints a set of first-party files, given as `(workspace-relative path,
/// source)`, in one pass: each file is lexed once, the identifiers of all
/// of them (outside comments and strings) form the name index
/// `uncalled-pub` checks against, and every rule runs on the production
/// files among them. Findings come in file order, then line.
pub fn lint_files<P: AsRef<str>, S: AsRef<str>>(files: &[(P, S)]) -> Vec<Finding> {
    let lexed: Vec<(&str, Lexed)> = files
        .iter()
        .map(|(path, source)| (path.as_ref(), lex(source.as_ref())))
        .collect();
    let index = NameIndex::new(&lexed);
    lexed
        .iter()
        .enumerate()
        .filter(|(_, (path, _))| is_production(path))
        .flat_map(|(file, (path, lexed))| {
            lint_lexed(
                path,
                lexed,
                Some(Callers {
                    index: &index,
                    file,
                }),
            )
        })
        .collect()
}

/// Every first-party source file: the `src/`, `benches/` and `tests/` trees
/// of each crate, the examples, and the integration-test crate. `vendor/`
/// and `target/` are third-party or generated, and the lint fixtures are
/// lint input, never compiled.
fn workspace_files(root: &Path) -> std::io::Result<BTreeMap<String, PathBuf>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        for sub in ["src", "benches", "tests"] {
            collect_rs(root, &entry.path().join(sub), &mut files)?;
        }
    }
    collect_rs(root, &root.join("examples").join("src"), &mut files)?;
    collect_rs(root, &root.join("tests"), &mut files)?;
    Ok(files)
}

fn collect_rs(
    root: &Path,
    dir: &Path,
    files: &mut BTreeMap<String, PathBuf>,
) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            if !matches!(entry.file_name().to_str(), Some("target" | "fixtures")) {
                collect_rs(root, &path, files)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked paths sit under the root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.insert(rel, path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root` (see [`lint_files`]).
/// Findings are sorted by path, then line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut sources = Vec::new();
    for (rel, path) in workspace_files(root)? {
        sources.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(lint_files(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_context_marks_cfg_test_modules() {
        let src = "fn prod() { a(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { b(); }\n}\n\
                   fn prod2() { c(); }";
        let lexed = lex(src);
        let flags = test_context(&lexed.tokens);
        let flagged: Vec<&str> = lexed
            .tokens
            .iter()
            .zip(&flags)
            .filter(|(_, f)| **f)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(flagged.contains(&"tests"));
        assert!(flagged.contains(&"b"));
        assert!(!flagged.contains(&"a"));
        assert!(!flagged.contains(&"c"));
    }

    #[test]
    fn test_context_marks_test_fns_and_attribute_stacks() {
        let src = "#[test]\n#[ignore]\nfn t() { x(); }\nfn prod() { y(); }";
        let lexed = lex(src);
        let flags = test_context(&lexed.tokens);
        let is_flagged = |name: &str| {
            lexed
                .tokens
                .iter()
                .zip(&flags)
                .any(|(t, f)| t.text == name && *f)
        };
        assert!(is_flagged("x"));
        assert!(is_flagged("ignore"), "the whole attribute stack is test");
        assert!(!is_flagged("y"));
    }

    #[test]
    fn cfg_not_test_is_production() {
        let src = "#[cfg(not(test))]\nfn prod() { x(); }";
        let lexed = lex(src);
        let flags = test_context(&lexed.tokens);
        assert!(flags.iter().all(|f| !f));
    }

    #[test]
    fn cfg_test_use_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn prod() { y(); }";
        let lexed = lex(src);
        let flags = test_context(&lexed.tokens);
        let hashmap_flagged = lexed
            .tokens
            .iter()
            .zip(&flags)
            .any(|(t, f)| t.text == "HashMap" && *f);
        let y_flagged = lexed
            .tokens
            .iter()
            .zip(&flags)
            .any(|(t, f)| t.text == "y" && *f);
        assert!(hashmap_flagged);
        assert!(!y_flagged);
    }

    #[test]
    fn use_items_run_from_the_keyword_to_the_semicolon() {
        let src = "pub use a::{\n    B,\n    c::D,\n};\nfn f() { use e::F; g(); }";
        let lexed = lex(src);
        let in_use: Vec<&str> = lexed
            .tokens
            .iter()
            .zip(use_items(&lexed.tokens))
            .filter(|(_, in_use)| *in_use)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert_eq!(
            in_use,
            ["use", "a", ":", ":", "{", "B", ",", "c", ":", ":", "D", ",", "}", ";"]
                .into_iter()
                .chain(["use", "e", ":", ":", "F", ";"])
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn directives_parse_and_validate() {
        let mut findings = Vec::new();
        let comments = lex(
            "// prochlo-lint: allow(secret-eq, \"test vector equality\")\n\
             // prochlo-lint: allow(secret-eq, \"\")\n\
             // prochlo-lint: allow(no-such-rule, \"x\")\n\
             // prochlo-lint: deny(everything)\n\
             // an ordinary comment\n",
        )
        .comments;
        let sups = parse_directives("crates/x/src/lib.rs", &comments, &mut findings);
        assert_eq!(sups.len(), 1);
        assert_eq!(sups[0].rule, "secret-eq");
        assert_eq!(findings.len(), 3);
        assert!(findings.iter().all(|f| f.rule == DIRECTIVE_RULE));
        assert!(findings[0].message.contains("non-empty reason"));
        assert!(findings[1].message.contains("unknown rule"));
        assert!(findings[2].message.contains("malformed"));
    }

    #[test]
    fn display_is_machine_readable() {
        let f = Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            rule: "secret-eq",
            message: "msg".into(),
        };
        assert_eq!(f.to_string(), "crates/x/src/lib.rs:7 secret-eq msg");
    }
}
