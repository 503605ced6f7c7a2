//! Snapshot data types for the durability subsystem.
//!
//! A [`StreamSnapshot`] captures the *dynamic* state of a
//! [`crate::StreamMatcher`] — the retained relation window, the active
//! instance set Ω with match buffers, the pending adjudication groups,
//! the maximality killers (retained finals), the watermark, and the
//! emitted-match high-water mark. The *static* state (automaton, filter,
//! options) is deliberately **not** serialized: recovery recompiles it
//! from the pattern and options, and a fingerprint stored in the
//! snapshot rejects restores against a different pattern, schema, or
//! semantics (see [`CoreError::SnapshotMismatch`]).
//!
//! [`BankSnapshot`] composes per-pattern (and per-lane) stream snapshots
//! plus the bank's routing bookkeeping (global id counter, id maps,
//! clock) under a single manifest, and [`MatcherSnapshot`] is the unit
//! `ses-store`'s `CheckpointStore` serializes with a versioned,
//! checksummed binary codec.
//!
//! The snapshot types hold plain values with public fields so the codec
//! lives outside `ses-core` (the dependency points `ses-store →
//! ses-core`, matching the existing `EventLog` layering).
//!
//! [`CoreError::SnapshotMismatch`]: crate::CoreError::SnapshotMismatch

use ses_event::{AttrId, Event, EventId, Timestamp};
use ses_pattern::VarId;

use crate::automaton::Automaton;
use crate::matcher::MatcherOptions;

/// One automaton instance `Ñ = (qc, β)`: its state index and its match
/// buffer's bindings in **oldest-first** order. A stream snapshot lists
/// its instances in Ω's first-binding order, and a restore refuses any
/// other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceSnapshot {
    /// The instance's current state, as an index into the automaton's
    /// state table.
    pub state: u32,
    /// The buffer's bindings, oldest first: `(variable, event, ts)`.
    pub bindings: Vec<(VarId, EventId, Timestamp)>,
}

/// Complete dynamic state of a [`crate::StreamMatcher`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSnapshot {
    /// Fingerprint of the compiled pattern, schema, and
    /// behavior-relevant options the snapshot was taken under. Restoring
    /// against a matcher with a different fingerprint fails.
    pub fingerprint: u64,
    /// The stream's watermark (latest pushed or heartbeat timestamp).
    pub watermark: Option<Timestamp>,
    /// Events evicted from the front of the relation; the first retained
    /// event's id is this value.
    pub evicted: u64,
    /// Timestamp of the last *pushed* event — may trail the watermark
    /// (heartbeats) and survive total eviction of the window.
    pub last_ts: Option<Timestamp>,
    /// The retained relation window, in chronological order.
    pub events: Vec<Event>,
    /// Active automaton instances Ω.
    pub instances: Vec<InstanceSnapshot>,
    /// Accepting runs awaiting adjudication, as canonical sorted binding
    /// lists; regrouped by first binding on restore.
    pub pending: Vec<Vec<(VarId, EventId)>>,
    /// Emitted finals retained as maximality killers, with their `minT`,
    /// oldest first. Restore also accepts a superset whose extra entries
    /// are Definition-2 survivors that a final killed (what earlier
    /// releases wrote): a victim of such an entry is a victim of that
    /// final, which is still live when the victim is adjudicated, so
    /// every kill answer is the same.
    pub survivors: Vec<(Timestamp, Vec<(VarId, EventId)>)>,
    /// Matches already emitted by `push` — the exactly-once high-water
    /// mark recovery suppresses duplicates against.
    pub emitted: u64,
}

/// How one bank entry ran when a [`crate::PatternBank`] snapshot was
/// taken: on its own, deduplicated into another, or as a hash lane.
/// Restore rebuilds the bank in the recorded roles — the per-pattern
/// payload layout depends on the role — after checking each against the
/// registration specs: a dedup member must still be evaluation-identical
/// to its leader, and events replayed after a restore must hash to the
/// lanes that hold their keys' state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankRole {
    /// Runs its own matcher.
    Plain,
    /// Evaluation-identical to pattern `leader`; has no matcher of its
    /// own and re-emits the leader's matches.
    DedupMember {
        /// Registration index of the pattern whose matcher answers for
        /// this one.
        leader: u32,
    },
    /// Hash lane `lane` of the `of` lanes one key-sharded pattern runs
    /// on (consecutive entries carrying the pattern's name): a plain
    /// matcher that receives only the events whose `key` attribute
    /// hashes to it.
    Lane {
        /// The proven partition key events are hash-routed by.
        key: AttrId,
        /// This lane's position, `0..of`.
        lane: u32,
        /// Number of lanes the pattern was registered with.
        of: u32,
    },
}

/// One entry of a [`crate::PatternBank`] — a registered pattern, or one
/// hash lane of a key-sharded one: its stream matcher snapshot plus the
/// local→global event id map and the routing counters.
#[derive(Debug, Clone, PartialEq)]
pub struct BankPatternSnapshot {
    /// The name the pattern was registered under — restore refuses a
    /// spec list whose names disagree.
    pub name: String,
    /// The pattern's stream matcher state; `None` for a deduplicated
    /// member, which runs no matcher of its own.
    pub matcher: Option<StreamSnapshot>,
    /// Global ids of the pattern's retained events, indexed by
    /// `local_id - base`.
    pub ids: Vec<EventId>,
    /// First retained local index (the pattern relation's eviction
    /// base).
    pub base: u64,
    /// Peak `|Ω|` observed on the pattern.
    pub peak_omega: u64,
    /// Events routed into the pattern's matcher.
    pub hits: u64,
    /// Events the pattern has seen since it registered without being
    /// routed to it; with `hits`, when it registered.
    pub skips: u64,
}

/// Complete dynamic state of a [`crate::PatternBank`]: the per-pattern
/// snapshots under one manifest, plus the bank's routing bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct BankSnapshot {
    /// The bank's clock (latest pushed or heartbeat timestamp).
    pub watermark: Option<Timestamp>,
    /// Timestamp of the last pushed event — may trail the watermark.
    pub last_ts: Option<Timestamp>,
    /// Next global event id to assign (= total events consumed).
    pub next_id: u64,
    /// Events tied at `last_ts` — persisted explicitly because skipped
    /// events appear in no pattern's relation, so no relation can
    /// recover the replay-skip count.
    pub ties: u64,
    /// Matches emitted across all patterns by pushes and heartbeats.
    pub emitted: u64,
    /// The bank's entries, in registration order (a key-sharded
    /// pattern contributes one entry per lane).
    pub patterns: Vec<BankPatternSnapshot>,
    /// Per-entry roles, indexed like `patterns`. A bank whose entries
    /// are all [`BankRole::Plain`] keeps the original (kind 2)
    /// serialized layout.
    pub roles: Vec<BankRole>,
}

/// The unit the checkpoint store persists: a snapshot of the one
/// streaming executor, a [`crate::PatternBank`] (of one pattern, of
/// many, with or without hash lanes).
#[derive(Debug, Clone, PartialEq)]
pub enum MatcherSnapshot {
    /// A pattern bank.
    Bank(BankSnapshot),
}

/// The options that change matching behavior, rendered. Partitioning and
/// threading knobs are excluded — they affect *where* work runs, not what
/// a shard's state means. The literals `Paper`, `flush=true`,
/// `precheck=true` and `max_inst=None` name options that no longer exist
/// — the §4.5 filter mode, the end-of-input flush, the satisfiability
/// precheck and the instance cap, each at the value every matcher now
/// runs with; they stay in the tag so checkpoints written while the
/// options did still resume. A checkpoint written under another value of
/// any of them is refused by fingerprint.
fn options_tag(options: &MatcherOptions) -> String {
    format!(
        "Paper/{:?}/{:?}/flush=true/precheck=true/max_inst=None",
        options.selection, options.semantics,
    )
}

/// Fingerprints everything that must agree between snapshot and restore
/// for the dynamic state to be meaningful: the compiled pattern (after
/// any analyzer rewrites), the schema, and the [`options_tag`].
pub(crate) fn matcher_fingerprint(automaton: &Automaton, options: &MatcherOptions) -> u64 {
    let compiled = automaton.pattern();
    let tag = format!(
        "{}\n{}\n{}",
        compiled.pattern(),
        compiled.schema(),
        options_tag(options)
    );
    fnv1a(tag.as_bytes())
}

/// Compatibility class of a matcher's behavior-relevant options: two
/// patterns may share a matcher only when their keys agree.
pub(crate) fn options_compat(options: &MatcherOptions) -> u64 {
    fnv1a(options_tag(options).as_bytes())
}

/// FNV-1a, the same checksum the `ses-store` segment format uses.
pub(crate) fn fnv1a(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MatchSemantics, StreamMatcher};
    use ses_event::{AttrType, CmpOp, Duration, Schema};
    use ses_pattern::Pattern;

    fn schema() -> Schema {
        Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .build()
            .unwrap()
    }

    fn pattern(within: i64) -> Pattern {
        Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(within))
            .build()
            .unwrap()
    }

    fn fingerprint_of(p: &Pattern, options: MatcherOptions) -> u64 {
        let mut sm = StreamMatcher::with_options(p, &schema(), options).unwrap();
        sm.snapshot().fingerprint
    }

    #[test]
    fn fingerprint_separates_behavioral_changes() {
        let base = fingerprint_of(&pattern(5), MatcherOptions::default());
        // Same inputs → same fingerprint (stable across processes too:
        // pure FNV-1a over deterministic renderings).
        assert_eq!(base, fingerprint_of(&pattern(5), MatcherOptions::default()));
        // Different window, pattern, or semantics → different state.
        assert_ne!(base, fingerprint_of(&pattern(6), MatcherOptions::default()));
        assert_ne!(
            base,
            fingerprint_of(
                &pattern(5),
                MatcherOptions {
                    semantics: MatchSemantics::AllRuns,
                    ..MatcherOptions::default()
                }
            )
        );
    }

    #[test]
    fn default_options_tag_is_the_one_checkpoints_were_written_with() {
        // Changing this string refuses every existing checkpoint.
        assert_eq!(
            options_tag(&MatcherOptions::default()),
            "Paper/SkipTillNextMatch/Maximal/flush=true/precheck=true/max_inst=None"
        );
    }

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
