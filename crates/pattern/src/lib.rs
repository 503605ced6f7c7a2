//! Sequenced event set (SES) patterns.
//!
//! Implements Definition 1 of *Cadonna, Gamper, Böhlen: Sequenced Event Set
//! Pattern Matching (EDBT 2011)*: a pattern
//!
//! ```text
//! P = (⟨V1, …, Vm⟩, Θ, τ)
//! ```
//!
//! where each `Vi` is a set of pairwise distinct **event variables**
//! (singleton `v` or group `v+` with Kleene plus), `Θ` is a set of
//! comparison **conditions** over variable attributes, and `τ` is the
//! maximal duration between the first and last matching event.
//!
//! A [`Pattern`] is schema-independent: conditions reference attributes by
//! name. [`Pattern::compile`] resolves names against a
//! [`ses_event::Schema`], type-checks every condition, and produces a
//! [`CompiledPattern`] — the input of the automaton construction in
//! `ses-core`.
//!
//! # Example: the paper's Query Q1
//!
//! ```
//! use ses_event::{AttrType, CmpOp, Duration, Schema};
//! use ses_pattern::Pattern;
//!
//! let pattern = Pattern::builder()
//!     .set(|s| s.var("c").plus("p").var("d"))
//!     .set(|s| s.var("b"))
//!     .cond_const("c", "L", CmpOp::Eq, "C")
//!     .cond_const("d", "L", CmpOp::Eq, "D")
//!     .cond_const("p", "L", CmpOp::Eq, "P")
//!     .cond_const("b", "L", CmpOp::Eq, "B")
//!     .cond_vars("c", "ID", CmpOp::Eq, "p", "ID")
//!     .cond_vars("c", "ID", CmpOp::Eq, "d", "ID")
//!     .cond_vars("d", "ID", CmpOp::Eq, "b", "ID")
//!     .within(Duration::hours(264))
//!     .build()
//!     .unwrap();
//!
//! assert_eq!(pattern.num_sets(), 2);
//! assert_eq!(pattern.num_vars(), 4);
//!
//! let schema = Schema::builder()
//!     .attr("ID", AttrType::Int)
//!     .attr("L", AttrType::Str)
//!     .build()
//!     .unwrap();
//! let compiled = pattern.compile(&schema).unwrap();
//! assert!(compiled.analysis().all_pairwise_mutually_exclusive(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod analyzer;
mod builder;
mod closure;
mod compiled;
mod condition;
mod diagnostics;
mod domain;
mod error;
mod index;
mod lanes;
mod negation;
mod pattern;
mod propagate;
mod relate;
mod symmetry;
mod variable;

pub use analysis::{ComplexityClass, PatternAnalysis};
pub use analyzer::{analyze, provably_unsatisfiable, Analysis};
pub use builder::{PatternBuilder, SetBuilder};
pub use closure::equality_closure;
pub use compiled::{CompiledCondition, CompiledPattern, CompiledRhs};
pub use condition::{AttrRef, Condition, Rhs};
pub use diagnostics::{Diagnostic, DiagnosticCode, Diagnostics, Severity, Span};
pub use domain::{Bound, Domain};
pub use error::PatternError;
pub use index::{IndexClass, PatternIndex};
pub use lanes::{AdmissionGroup, AdmissionLanes, ConstLane, LaneOwner};
pub use negation::{
    CompiledNegCondition, CompiledNegRhs, CompiledNegation, NegCondition, Negation,
};
pub use pattern::Pattern;
pub use propagate::{propagate, Propagation};
pub use relate::{relate, PatternRelation};
pub use symmetry::interchangeable_classes;
pub use variable::{Quantifier, VarId, Variable};
