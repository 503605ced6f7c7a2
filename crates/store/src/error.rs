//! Store errors.

use std::fmt;

/// Errors raised by the event store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// CSV syntax or value parse failure.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// The file's header schema does not match the expected schema.
    SchemaMismatch {
        /// Expected schema rendering.
        expected: String,
        /// Schema found in the file.
        found: String,
    },
    /// A snapshot or checkpoint payload failed validation.
    Corrupt {
        /// Explanation.
        message: String,
    },
    /// A structurally plausible checkpoint this release no longer
    /// reads, and what it records that this release does not execute.
    /// Unlike [`StoreError::Corrupt`] this is not skipped on load —
    /// silently cold-starting would hide the format break.
    RetiredSnapshot {
        /// The payload's kind byte.
        kind: u8,
        /// The retired executor the payload was written by.
        what: Retired,
    },
    /// Event-model violation while assembling the relation.
    Event(ses_event::EventError),
    /// The pattern bank refused to be built, restored from a checkpoint,
    /// or extended by a subscription — its own words.
    Bank {
        /// The bank's explanation.
        reason: String,
    },
}

/// An executor of an earlier release whose checkpoints this release
/// refuses by name ([`StoreError::RetiredSnapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retired {
    /// The single-query `stream` before it became a pattern bank:
    /// payload kinds 0 (global) and 1 (sharded).
    SingleQueryStream,
    /// A kind-3 bank running shared-prefix pools.
    PrefixPools,
    /// A kind-3 bank running a pattern on hash lanes (`--shards`).
    HashLanes,
    /// A kind-3 bank in which a pattern re-emitted the matches of an
    /// evaluation-identical one instead of running a matcher.
    Deduplication,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Parse { line, message } => write!(f, "line {line}: {message}"),
            StoreError::SchemaMismatch { expected, found } => {
                write!(f, "schema mismatch: expected {expected}, found {found}")
            }
            StoreError::Corrupt { message } => write!(f, "corrupt snapshot: {message}"),
            StoreError::RetiredSnapshot { kind, what } => {
                let executor = match what {
                    Retired::SingleQueryStream => {
                        return write!(
                            f,
                            "snapshot kind {kind} was written by a single-query `stream` of an \
                             earlier release; this release checkpoints pattern banks only — \
                             move the checkpoint directory away to cold-start from the event log"
                        )
                    }
                    Retired::PrefixPools => "shared-prefix pools",
                    Retired::HashLanes => "hash lanes",
                    Retired::Deduplication => "deduplicated twins",
                };
                write!(
                    f,
                    "snapshot kind {kind} was written by a pattern bank running {executor}, \
                     which this release does not execute — move the checkpoint directory away \
                     to replay from the event log"
                )
            }
            StoreError::Event(e) => write!(f, "event error: {e}"),
            StoreError::Bank { reason } => write!(f, "{reason}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Event(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<ses_event::EventError> for StoreError {
    fn from(e: ses_event::EventError) -> Self {
        StoreError::Event(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = StoreError::Parse {
            line: 3,
            message: "bad int".into(),
        };
        assert_eq!(e.to_string(), "line 3: bad int");
        let retired = |kind, what| StoreError::RetiredSnapshot { kind, what }.to_string();
        assert!(retired(1, Retired::SingleQueryStream).contains("earlier release"));
        assert!(retired(3, Retired::PrefixPools).contains("shared-prefix pools"));
        assert!(retired(3, Retired::HashLanes).contains("running hash lanes"));
        assert!(retired(3, Retired::Deduplication).contains("running deduplicated twins"));
    }
}
