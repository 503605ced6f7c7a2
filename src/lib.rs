//! # ses — Sequenced Event Set Pattern Matching
//!
//! A complete Rust implementation of *Cadonna, Gamper, Böhlen: Sequenced
//! Event Set Pattern Matching (EDBT 2011)*: match a time-ordered stream of
//! events against a pattern that is a *sequence of sets* of event
//! variables. Events matching the same set may occur in **any
//! permutation** (the SQL change proposal's `PERMUTE` operator); events
//! matching different sets must follow the set order; Kleene-plus group
//! variables bind one or more events; a window `τ` bounds the whole match.
//!
//! This crate is an umbrella re-exporting the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`event`] | `ses-event` | values, schemas, timestamps, relations |
//! | [`pattern`] | `ses-pattern` | SES patterns, conditions, builder, analysis |
//! | [`core`] | `ses-core` | SES automaton, engine, match semantics |
//! | [`baseline`] | `ses-baseline` | brute-force permutation bank (§5.2) |
//! | [`store`] | `ses-store` | CSV event store, binary event log, checkpoints, exactly-once recovery |
//! | [`workload`] | `ses-workload` | paper data + chemo/finance/RFID generators |
//! | [`query`] | `ses-query` | `PATTERN … PERMUTE(…) … WITHIN` text language |
//! | [`metrics`] | `ses-metrics` | counting probe, stopwatch, report tables |
//!
//! # Quickstart
//!
//! ```
//! use ses::prelude::*;
//!
//! // The paper's Figure 1 relation and Query Q1.
//! let relation = ses::workload::paper::figure1();
//! let pattern = ses::workload::paper::query_q1();
//!
//! let matcher = Matcher::compile(&pattern, relation.schema()).unwrap();
//! let matches = matcher.find(&relation);
//!
//! assert_eq!(matches.len(), 2);
//! assert_eq!(
//!     matches[0].display_with(&pattern),
//!     "{c/e1, d/e3, p+/e4, p+/e9, b/e12}" // patient 1
//! );
//! assert_eq!(
//!     matches[1].display_with(&pattern),
//!     "{p+/e6, d/e7, c/e8, p+/e10, p+/e11, b/e13}" // patient 2
//! );
//! ```
//!
//! Or with the textual query language:
//!
//! ```
//! use ses::prelude::*;
//!
//! let pattern = ses::query::parse_pattern(
//!     "PATTERN PERMUTE(c, p+, d) THEN b
//!      WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B'
//!        AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID
//!      WITHIN 264 HOURS",
//!     TickUnit::Hour,
//! )
//! .unwrap();
//! let relation = ses::workload::paper::figure1();
//! let matcher = Matcher::compile(&pattern, relation.schema()).unwrap();
//! assert_eq!(matcher.find(&relation).len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ses_baseline as baseline;
pub use ses_core as core;
pub use ses_event as event;
pub use ses_metrics as metrics;
pub use ses_pattern as pattern;
pub use ses_query as query;
pub use ses_store as store;
pub use ses_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use ses_baseline::BruteForce;
    pub use ses_core::{
        CoreError, EventSelection, Match, MatchSemantics, Matcher, MatcherOptions, MatcherSnapshot,
        NoProbe, PartitionMode, PartitionStrategy, PatternBank, PatternBankBuilder, PatternStats,
        Probe, StreamMatcher,
    };
    pub use ses_event::{
        AttrType, CmpOp, Duration, Event, EventId, Relation, Schema, Timestamp, Value,
    };
    pub use ses_metrics::CountingProbe;
    pub use ses_pattern::{
        analyze, Analysis, Diagnostic, DiagnosticCode, Diagnostics, IndexClass, Pattern,
        PatternIndex, Quantifier, Severity, VarId,
    };
    pub use ses_query::TickUnit;
    pub use ses_store::{CheckpointStore, EventLog, EventStore, LogConfig, MatchLog};
}
