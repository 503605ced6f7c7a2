//! Errors of the automaton construction and execution engine.

use std::fmt;

/// Errors raised by `ses-core`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The powerset construction would exceed the configured state budget
    /// (`Σi 2^|Vi|` states; an event set pattern with dozens of variables
    /// is almost certainly a mistake).
    TooManyStates {
        /// States the pattern requires.
        required: usize,
        /// Configured maximum.
        limit: usize,
    },
    /// A pattern failed to compile against the schema.
    Pattern(ses_pattern::PatternError),
    /// An explicitly requested partition key could not be proven sound
    /// for the pattern — splitting by it could lose cross-partition
    /// matches, so the matcher refuses rather than silently mis-answer.
    /// Use `PartitionMode::Auto` to partition only when provable.
    UnprovenPartitionKey {
        /// The requested attribute's name.
        attr: String,
        /// Why the proof failed.
        reason: String,
    },
    /// A snapshot could not be applied to this matcher: its fingerprint
    /// disagrees with the matcher's pattern/schema/options, or its
    /// payload is internally inconsistent. Restoring anyway would
    /// silently corrupt matching, so the matcher refuses.
    SnapshotMismatch {
        /// What disagreed.
        reason: String,
    },
    /// A dynamic subscription could not be registered on a running
    /// pattern bank (duplicate name).
    Subscription {
        /// Why the registration was refused.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::TooManyStates { required, limit } => write!(
                f,
                "automaton would need {required} states, exceeding the limit of {limit}"
            ),
            CoreError::Pattern(e) => write!(f, "pattern error: {e}"),
            CoreError::UnprovenPartitionKey { attr, reason } => write!(
                f,
                "`{attr}` is not a proven partition key: {reason} \
                 (use `Auto` to partition only when provable)"
            ),
            CoreError::SnapshotMismatch { reason } => {
                write!(f, "snapshot cannot be restored: {reason}")
            }
            CoreError::Subscription { reason } => {
                write!(f, "subscription rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Pattern(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ses_pattern::PatternError> for CoreError {
    fn from(e: ses_pattern::PatternError) -> Self {
        CoreError::Pattern(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = CoreError::TooManyStates {
            required: 1 << 30,
            limit: 1 << 20,
        };
        assert!(e.to_string().contains("exceeding"));
        let p = CoreError::Pattern(ses_pattern::PatternError::NoSets);
        assert!(p.to_string().starts_with("pattern error:"));
    }
}
