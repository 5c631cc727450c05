//! `prochlo-lint`: workspace static analysis for the invariants the
//! privacy guarantees ride on.
//!
//! Prochlo's end-to-end properties — seeded determinism, constant-time
//! secret handling, and never panicking on attacker-controlled wire
//! bytes — are invariants of the *source*, not of any one test vector.
//! This crate enforces them mechanically: a hand-rolled,
//! comment/string-aware Rust [`lexer`], a set of six project-specific
//! [`rules`], and an [`engine`] that walks the workspace's production
//! sources, applies per-line
//! `// prochlo-lint: allow(<rule>, "<reason>")` suppressions, and emits
//! machine-readable `file:line rule message` findings.
//!
//! Which `pub` items another crate needs is not a rule here: rustc knows
//! the types, so `crates/bench/scripts/surface.sh` asks it.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p prochlo-lint -- --deny
//! ```
//!
//! See the README's "Static analysis" section for the rule table and the
//! procedure for adding a rule.

#![warn(missing_docs)]

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{lint_source, lint_workspace, Finding};
pub use rules::{RuleInfo, RULES};
