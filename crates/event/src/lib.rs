//! Event model for sequenced event set (SES) pattern matching.
//!
//! This crate implements the event model of Section 3.1 of *Cadonna, Gamper,
//! Böhlen: Sequenced Event Set Pattern Matching (EDBT 2011)*:
//!
//! * An **event** is a tuple with schema `E = (A1, …, Al, T)` where
//!   `A1, …, Al` are non-temporal attributes and `T` is a temporal attribute
//!   holding the occurrence time drawn from a discrete, ordered time domain.
//! * An **event relation** is a set of events totally ordered by `T`
//!   (ties are broken by insertion order, which matters for the duplicated
//!   data sets D2–D5 of the paper's evaluation).
//!
//! The model is deliberately engine-agnostic: the pattern compiler
//! (`ses-pattern`) resolves attribute *names* against a [`Schema`] once, and
//! the matching engine (`ses-core`) then works with dense [`AttrId`]s and
//! borrowed [`Event`]s only.
//!
//! # Example
//!
//! ```
//! use ses_event::{Schema, AttrType, Relation, Value, Timestamp};
//!
//! let schema = Schema::builder()
//!     .attr("ID", AttrType::Int)
//!     .attr("L", AttrType::Str)
//!     .attr("V", AttrType::Float)
//!     .build()
//!     .unwrap();
//!
//! let mut rel = Relation::new(schema);
//! rel.push_values(Timestamp::new(9), [Value::from(1), Value::from("C"), Value::from(1672.5)])
//!     .unwrap();
//! assert_eq!(rel.len(), 1);
//! assert_eq!(rel.event(0u32.into()).value_by_name("L", rel.schema()), Some(&Value::from("C")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod column;
mod error;
mod event;
mod relation;
mod schema;
mod time;
mod value;
mod view;

pub use column::{BuildBytesHasher, BytesHasher, StrCodes, StrColumn};
pub use error::EventError;
pub use event::{Event, EventId};
pub use relation::{Relation, RelationBuilder};
pub use schema::{AttrDef, AttrId, AttrType, Schema, SchemaBuilder};
pub use time::{Duration, Timestamp};
pub use value::{CmpOp, Value};
pub use view::{partition_views, EventSource, PartitionKey, RelationView};
