//! Event store substrate for SES pattern matching.
//!
//! The paper's evaluation reads its event relation from an Oracle 11.1
//! database over OCI, strictly in timestamp order. This crate provides the
//! equivalent tuple-source contract without the external dependency:
//!
//! * [`EventStore`] — a named, in-memory, time-ordered event relation with
//!   CSV persistence ([`read_csv`]/[`write_csv`] use a typed header, no
//!   third-party CSV crate); the paper's D1…D5 duplication is
//!   [`ses_event::Relation::duplicate`], on the relation itself;
//! * [`EventLog`] — an append-only, segmented, checksummed binary log
//!   with torn-tail recovery and time-range pruning, for workloads that
//!   outgrow CSV;
//! * [`CheckpointStore`] + [`MatchLog`] — the durability subsystem's
//!   files: atomic, checksummed matcher checkpoints and a crash-tolerant
//!   match sink;
//! * [`codec`] — the one byte dialect all binary files above are written
//!   in: its `Encoder` / `Decoder` frame the log's records and the
//!   checkpoints' headers and serialize the snapshot payload;
//! * [`replace_file`] — the atomic whole-file rewrite (temp file, fsync,
//!   rename, directory fsync) checkpoints and the server's subscription
//!   registry are saved with;
//! * [`DurableBank`] — the exactly-once recovery protocol over those
//!   files and [`EventLog`] replay, written once: what is synced before
//!   a checkpoint, where a restart's replay begins, how many
//!   regenerated matches each sink suppresses. `ses-cli stream
//!   --checkpoint`, `ses-server --checkpoint` and the crash suite all
//!   drive this type (see `docs/durability.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
pub mod codec;
mod csv;
mod durable;
mod error;
mod files;
mod log;
mod store;

pub use checkpoint::{CheckpointInfo, CheckpointStore, LoadedCheckpoint, MatchLog};
pub use codec::{decode_snapshot, encode_snapshot};
pub use csv::{parse_header, read_csv, write_csv};
pub use durable::{Checkpoints, DurableBank, MatchSinks, Recovery};
pub use error::{Retired, StoreError};
pub use files::replace_file;
pub use log::{EventLog, LogConfig};
pub use store::{EventStore, StoreStats};
