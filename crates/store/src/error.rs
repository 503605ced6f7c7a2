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
    /// reads: kinds 0 (global) and 1 (sharded) were written by the
    /// single-query `stream` before it became a pattern bank, and a
    /// kind-3 bank is refused — with this kind — when it records
    /// shared-prefix pools, an executor this release does not have.
    /// Unlike [`StoreError::Corrupt`] this is not skipped on load —
    /// silently cold-starting would hide the format break.
    RetiredSnapshot {
        /// The payload's kind byte.
        kind: u8,
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

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Parse { line, message } => write!(f, "line {line}: {message}"),
            StoreError::SchemaMismatch { expected, found } => {
                write!(f, "schema mismatch: expected {expected}, found {found}")
            }
            StoreError::Corrupt { message } => write!(f, "corrupt snapshot: {message}"),
            StoreError::RetiredSnapshot {
                kind: kind @ (0 | 1),
            } => write!(
                f,
                "snapshot kind {kind} was written by a single-query `stream` of an earlier \
                 release; this release checkpoints pattern banks only — move the checkpoint \
                 directory away to cold-start from the event log"
            ),
            StoreError::RetiredSnapshot { kind } => write!(
                f,
                "snapshot kind {kind} was written by a pattern bank running shared-prefix \
                 pools, which this release does not execute — move the checkpoint directory \
                 away to replay from the event log"
            ),
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
        let retired = |kind| StoreError::RetiredSnapshot { kind }.to_string();
        assert!(retired(1).contains("earlier release"));
        assert!(retired(3).contains("shared-prefix pools"));
    }
}
