//! `fifoms-lint` — workspace-aware static analysis for the FIFOMS
//! reproduction.
//!
//! The simulator's headline guarantees are *source-level disciplines*:
//! bit-identical replay when observability is off (DESIGN.md §8) assumes
//! nothing in a result-bearing crate reads a clock or iterates a hash
//! map; Theorem 1's starvation-freedom (§9) assumes no code path mints a
//! fresh arrival stamp after admission; fault-isolated sweeps (§7)
//! assume the hot path does not panic where it could return structure.
//! None of those were mechanically checked — this crate checks them, in
//! CI, on every change.
//!
//! Layers (bottom to top):
//!
//! * [`lexer`] — a hand-rolled, dependency-free Rust lexer (raw strings,
//!   nested block comments, byte/char literals, lifetimes). Total: every
//!   byte lands in a token, so lex → re-emit is byte-identical — the
//!   property the round-trip tests pin.
//! * [`matcher`] — a token-tree matcher: balanced-delimiter spans,
//!   top-level argument splitting, `#[cfg(test)]` / `debug_assert!` span
//!   exclusion, and the `// fifoms-lint: allow(Rk) reason` escape hatch.
//! * [`rules`] — the disciplines (see [`rules::RULES`] and DESIGN.md
//!   §11): the per-file token rules, including the R10 guarded-index
//!   dataflow pass, and the R4/R9 vocabulary and schema-drift checks.
//!   R7 and R8 are retired; the type system now enforces what they
//!   checked (DESIGN.md §16).
//! * [`engine`] — the workspace walker, the baseline ratchet
//!   (grandfathered findings fail only when they *grow*; shrinks are
//!   celebrated), and the `fifoms-lint-v1` JSON report consumed by
//!   `schemas/lint.schema.json` validation.
//!
//! The user-facing entry point is `fifoms-repro lint` in the CLI crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod lexer;
pub mod matcher;
pub mod rules;

pub use engine::{
    gate, key_counts, lint_root, parse_baseline, render_baseline, render_json, Gate, Report,
};
pub use rules::{Finding, RULES, RULE_DOCS};
