//! SES automaton construction and execution — the primary contribution of
//! *Cadonna, Gamper, Böhlen: Sequenced Event Set Pattern Matching
//! (EDBT 2011)*.
//!
//! # Architecture
//!
//! | module | paper section | role |
//! |---|---|---|
//! | [`state`](StateSet) | Def. 3 | states as variable bitsets |
//! | [`automaton`](Automaton) | §4.1–4.2 | powerset construction + concatenation |
//! | [`buffer`](NodeLog) | §4.1 | O(1)-fork match buffers in a time-ordered node log |
//! | [`engine`](execute) | §4.3, Alg. 1–2 | `SESExec` / `ConsumeEvent` |
//! | [`columnar`](AdmittedLog) | §4.5 | admission: the per-variable constant mask is the event filter — a scan takes the lane pass, a push takes the predicate index's mask |
//! | [`semantics`](select) | Def. 2 (cond. 4–5) | skip-till-next-match + maximality |
//! | [`matcher`](Matcher) | — | one-call high-level API |
//! | [`probe`](Probe) | §5 | zero-cost instrumentation for the experiments |
//!
//! # Quick start
//!
//! ```
//! use ses_event::{AttrType, CmpOp, Duration, Relation, Schema, Timestamp, Value};
//! use ses_pattern::Pattern;
//! use ses_core::Matcher;
//!
//! // Events (L, T); pattern: an A and a B in any order, then a C,
//! // all within 10 ticks.
//! let schema = Schema::builder().attr("L", AttrType::Str).build().unwrap();
//! let pattern = Pattern::builder()
//!     .set(|s| s.var("a").var("b"))
//!     .set(|s| s.var("c"))
//!     .cond_const("a", "L", CmpOp::Eq, "A")
//!     .cond_const("b", "L", CmpOp::Eq, "B")
//!     .cond_const("c", "L", CmpOp::Eq, "C")
//!     .within(Duration::ticks(10))
//!     .build()
//!     .unwrap();
//!
//! let matcher = Matcher::compile(&pattern, &schema).unwrap();
//!
//! let mut rel = Relation::new(schema);
//! for (t, l) in [(0, "B"), (1, "A"), (2, "C")] {
//!     rel.push_values(Timestamp::new(t), [Value::from(l)]).unwrap();
//! }
//! let matches = matcher.find(&rel);
//! assert_eq!(matches.len(), 1);
//! assert_eq!(matches[0].display_with(&pattern), "{b/e1, a/e2, c/e3}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjudicate;
mod automaton;
mod bank;
mod buffer;
mod columnar;
mod dot;
mod engine;
mod error;
mod matcher;
mod matches;
mod measures;
mod negation;
mod occupancy;
mod parallel;
mod probe;
mod reference;
mod semantics;
mod snapshot;
mod state;
mod stream;
mod symmetry;
mod trace;

pub use automaton::{Automaton, State, TransCond, Transition, DEFAULT_MAX_STATES};
pub use bank::{PatternBank, PatternBankBuilder, PatternStats};
pub use buffer::{Binding, Buffer, NodeLog};
pub use engine::{execute, scan, AdmittedLog, EventSelection, Execution, Instance, RawMatch};
pub use error::CoreError;
pub use matcher::{Matcher, MatcherOptions, PartitionMode, PartitionStrategy};
pub use matches::Match;
pub use measures::{aggregate, Aggregate};
pub use negation::{filter_negations, passes_negations};
pub use probe::{NoProbe, Probe};
pub use reference::{
    algorithm1, enumerate_candidates, paper_filter, satisfies_conditions_1_3, select_pairwise,
};
pub use semantics::{select, MatchSemantics};
pub use snapshot::{
    BankPatternSnapshot, BankSnapshot, InstanceSnapshot, MatcherSnapshot, StreamSnapshot,
};
pub use state::{StateId, StateSet};
pub use stream::StreamMatcher;
pub use trace::{trace_execution, ExecutionTrace, TraceStep};
