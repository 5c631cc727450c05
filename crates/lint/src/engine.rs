//! The rule engine: walks the workspace's production sources, lexes each
//! file once, computes test-context, runs the rules, and applies per-line
//! suppression directives.
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

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Comment, Token};
use crate::rules;

/// The pseudo-rule under which malformed or stale suppression directives
/// are reported. Not suppressible.
pub(crate) const DIRECTIVE_RULE: &str = "lint-directive";

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub(crate) file: String,
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

/// Lints one file's source text. `path` is the workspace-relative path
/// (forward slashes) the rules use to decide applicability.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let mut findings = Vec::new();
    let suppressions = parse_directives(path, &lexed.comments, &mut findings);
    let flags = test_context(&lexed.tokens);

    let mut raw = Vec::new();
    rules::run_rules(path, &lexed.tokens, &flags, &mut raw);
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

/// Production code: the `src/` and `benches/` trees of each crate and the
/// examples. Tests, `vendor/` and `target/` are not linted.
fn workspace_files(root: &Path) -> std::io::Result<BTreeMap<String, PathBuf>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        for sub in ["src", "benches"] {
            collect_rs(root, &entry.path().join(sub), &mut files)?;
        }
    }
    collect_rs(root, &root.join("examples").join("src"), &mut files)?;
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
            if entry.file_name() != "target" {
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

/// Lints the whole workspace rooted at `root`. Findings are sorted by
/// path, then line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for (rel, path) in workspace_files(root)? {
        findings.extend(lint_source(&rel, &std::fs::read_to_string(&path)?));
    }
    Ok(findings)
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
