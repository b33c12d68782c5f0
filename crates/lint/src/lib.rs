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
//! * [`parser`] + [`ast`] — a recursive-descent, total (never-panicking)
//!   item-level parser over the token stream: structs with fields and
//!   impl blocks with per-method body spans.
//! * [`model`] — the cross-file [`model::Program`]: every workspace
//!   file's AST, with struct lookup across crate boundaries.
//! * [`rules`] — the token-level disciplines (see [`rules::RULES`] and
//!   DESIGN.md §11), including the R10 guarded-index dataflow pass.
//! * [`structural`] — the program-model disciplines: R8 checkpoint
//!   field coverage + state fingerprints, R9 schema drift.
//! * [`engine`] — the workspace walker, the baseline ratchet
//!   (grandfathered findings fail only when they *grow*; shrinks are
//!   celebrated), and the `fifoms-lint-v1` JSON report consumed by
//!   `schemas/lint.schema.json` validation.
//!
//! The user-facing entry point is `fifoms-repro lint` in the CLI crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod engine;
pub mod lexer;
pub mod matcher;
pub mod model;
pub mod parser;
pub mod rules;
pub mod structural;

pub use engine::{
    gate, key_counts, lint_root, parse_baseline, render_baseline, render_json, Gate, Report,
};
pub use model::Program;
pub use rules::{Finding, RULES, RULE_DOCS};
pub use structural::{render_state_manifest, state_entries, StateEntry};
