//! soe-lint: a workspace-aware static-analysis pass enforcing the
//! reproduction's simulator determinism and panic-safety invariants.
//!
//! The simulator's headline claim — bit-identical results for identical
//! `(config, seed)` regardless of parallelism, sharding or resume — is
//! only as strong as the code's discipline about three things:
//!
//! 1. **Determinism**: no unordered collections or wall-clock reads in
//!    code that feeds simulated state ([`rules`]: `unordered-collections`,
//!    `unordered-iteration`, `wall-clock`).
//! 2. **Panic safety**: a panic inside a sweep kills a worker and takes
//!    the whole run's wall-time with it; simulator and policy code must
//!    return typed errors (`panic-unwrap`, `panic-macro`, `slice-index`).
//! 3. **Artifact hygiene**: result files must be written atomically and
//!    every config knob must be validated before a sweep consumes it
//!    (`raw-fs-write`, `config-fields-validated`).
//!
//! On top of the per-file rules, a set of workspace [`passes`] analyzes
//! the cross-file structure: an [`items`] parser (built on the same
//! lexer) feeds a [`workspace`] symbol table and over-approximate call
//! graph, from which `panic-reachability` closes over the simulator hot
//! path, `determinism-taint` tracks nondeterminism sources into
//! serialization sinks, and `trace-schema-coverage` keeps every
//! exporter/validator match total over the trace/protocol enums.
//!
//! Design constraints: std-only and registry-free (no syn/proc-macro2 —
//! the gate must build offline), a small hand-rolled lexer rather than a
//! full parser, inline `// soe-lint: allow(rule): reason` suppressions,
//! and a checked-in ratcheting baseline for grandfathered findings.
//!
//! See `LINTS.md` at the workspace root for the rule catalog.

pub mod baseline;
pub mod diag;
pub mod engine;
pub mod items;
pub mod lexer;
pub mod passes;
pub mod rules;
pub mod source;
pub mod suppress;
pub mod workspace;

pub use baseline::Baseline;
pub use diag::{summarize, Finding, Severity, Summary, TrailStep, Waiver};
pub use engine::{analyze_files, analyze_workspace_filtered, build_workspace, Analysis};
pub use passes::{all_passes, Pass, HOT_PATH_ROOTS, SCHEMA_ENUMS, SERIALIZATION_SINKS};
pub use rules::{all_rules, Rule};
pub use source::SourceFile;
pub use workspace::Workspace;
