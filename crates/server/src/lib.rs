//! # ses-server — long-running sequenced-event-set match server
//!
//! A std-only TCP server that keeps a [`ses_core::PatternBank`] alive
//! across many producer and subscriber connections:
//!
//! * **Wire protocol** — line-delimited JSON, one request or reply per
//!   line ([`protocol`]). Verbs: `ingest`, `batch`, `sync`, `subscribe`,
//!   `stats`, `ping`, `shutdown`.
//! * **Backpressure** — every queue is bounded ([`queue::BoundedQueue`]).
//!   Producers either block (the default) or are shed with counters
//!   under the `reject` policy; slow subscribers are disconnected when
//!   their outbound queue fills and resume via their durable cursor.
//! * **Durable subscriptions** — with `--checkpoint DIR` the server
//!   journals events ([`ses_store::EventLog`]), registers
//!   subscriptions in a crash-safe registry ([`registry::Registry`]),
//!   appends each finalized match to a per-subscription
//!   [`ses_store::MatchLog`], and snapshots the bank. A killed and
//!   restarted server replays the log suffix and suppresses matches
//!   already durable, so every subscriber sees each match exactly once.
//! * **Graceful shutdown** — SIGINT/SIGTERM or the `shutdown` verb
//!   drain the queue, sync every sink, and write a final checkpoint
//!   ([`signal`]).
//!
//! See `docs/server.md` for the protocol reference and the
//! exactly-once argument.

pub mod client;
pub mod protocol;
pub mod queue;
pub mod registry;
mod router;
pub mod server;
pub mod signal;

pub use client::Client;
pub use queue::{BoundedQueue, OverflowPolicy, QueueStats, Waited};
pub use registry::{Registry, SubSpec};
pub use server::{Server, ServerConfig};
