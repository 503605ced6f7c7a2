//! Differential suite: `PartitionMode::Auto` — analyzer-proven key,
//! zero-copy per-key views scanned one after another, one global
//! adjudication — returns exactly the global-scan (`PartitionMode::Off`)
//! answer, match for match, under every semantics × selection
//! combination.
//!
//! The generators are shared with `oracle.rs` and `stream_vs_batch.rs`
//! (see `common/`), so the pattern space this suite proves
//! partition-invariant is the same space those suites prove correct:
//! together they give `partitioned ≡ global ≡ stream ≡ oracle`.
//! Patterns the analyzer cannot prove a key for (uncorrelated ones, or
//! runs without the end-of-relation flush) fall back to the global scan
//! inside the same API, so the equality is trivially preserved — the
//! suite covers that path too rather than filtering it out.

mod common;

use proptest::prelude::*;

use common::{negated_pattern_strategy, pattern_strategy, relation_strategy_with, schema};
use ses::prelude::*;

const MODES: [MatchSemantics; 3] = [
    MatchSemantics::Maximal,
    MatchSemantics::Definition2,
    MatchSemantics::AllRuns,
];

const SELECTIONS: [EventSelection; 2] = [
    EventSelection::SkipTillNextMatch,
    EventSelection::SkipTillAnyMatch,
];

fn answer(pat: &Pattern, rel: &Relation, options: MatcherOptions) -> Vec<Match> {
    let mut out = Matcher::with_options(pat, &schema(), options)
        .unwrap()
        .find(rel);
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Auto` equals `Off` for every semantics × selection. Whether the
    /// generated pattern proves a key (full ID-equality clique) or not
    /// (uncorrelated / grouped), the two modes must be indistinguishable
    /// from the outside.
    #[test]
    fn auto_equals_off_under_every_mode(
        rel in relation_strategy_with(2..9, 0..4),
        pat in prop_oneof![pattern_strategy(), negated_pattern_strategy()],
    ) {
        for semantics in MODES {
            for selection in SELECTIONS {
                let base = MatcherOptions { semantics, selection, ..MatcherOptions::default() };
                let global = answer(&pat, &rel, base.clone());
                let auto = answer(&pat, &rel, MatcherOptions {
                    partition: PartitionMode::Auto,
                    ..base
                });
                prop_assert_eq!(
                    &auto, &global,
                    "{:?}/{:?} diverged from global",
                    semantics, selection
                );
            }
        }
    }

    /// A negated or grouped pattern never proves a key, and demanding
    /// one explicitly must fail loudly: `PartitionMode::Key` rejects the
    /// unproven attribute with [`CoreError::UnprovenPartitionKey`]
    /// instead of silently losing cross-partition matches, while `Auto`
    /// on the same pattern resolves to the global strategy.
    #[test]
    fn unproven_explicit_key_is_refused(
        pat in negated_pattern_strategy(),
    ) {
        let schema = schema();
        prop_assert!(pat.compile(&schema).unwrap().partition_keys().is_empty());
        let key = schema.attr_id("ID").unwrap();
        let err = Matcher::with_options(&pat, &schema, MatcherOptions {
            partition: PartitionMode::Key(key),
            ..MatcherOptions::default()
        }).unwrap_err();
        prop_assert!(
            matches!(err, CoreError::UnprovenPartitionKey { .. }),
            "expected UnprovenPartitionKey, got {:?}", err
        );
        let auto = Matcher::with_options(&pat, &schema, MatcherOptions {
            partition: PartitionMode::Auto,
            ..MatcherOptions::default()
        }).unwrap();
        prop_assert_eq!(auto.partition_strategy(), PartitionStrategy::Global);
    }

    /// The raw per-key split never clones an event payload: every event
    /// reachable through a partition view is pointer-identical to the
    /// parent relation's event.
    #[test]
    fn partition_views_are_zero_copy(
        rel in relation_strategy_with(2..9, 0..4),
    ) {
        let key = schema().attr_id("ID").unwrap();
        let mut seen = 0usize;
        for (_, view) in ses::event::partition_views(&rel, key) {
            for (local, event) in view.iter() {
                prop_assert!(
                    std::ptr::eq(event, rel.event(view.global_id(local))),
                    "partitioning must not clone events"
                );
                seen += 1;
            }
        }
        prop_assert_eq!(seen, rel.len(), "views must cover the relation exactly");
    }
}

/// The matcher of `pattern` under `partition`.
fn matcher_with(pattern: &Pattern, schema: &Schema, partition: PartitionMode) -> Matcher {
    let options = MatcherOptions {
        partition,
        ..MatcherOptions::default()
    };
    Matcher::with_options(pattern, schema, options).unwrap()
}

/// The paper's Q1 over a generated chemotherapy ward: the split by the
/// explicit key `ID` returns the global scan's answer on a realistic,
/// skewed key distribution.
#[test]
fn partitioned_equals_global_on_chemo_q1() {
    let ward = ses::workload::chemo::generate(&ses::workload::chemo::ChemoConfig::small());
    let q1 = ses::workload::paper::query_q1();
    let key = ward.schema().attr_id("ID").unwrap();

    let global = matcher_with(&q1, ward.schema(), PartitionMode::Off).find(&ward);
    let split = matcher_with(&q1, ward.schema(), PartitionMode::Key(key)).find(&ward);
    assert_eq!(split, global);
    assert!(!split.is_empty());
}

/// The split scans its views on the caller's thread with the caller's
/// probe, so every per-event hook reaches it: each event is read once,
/// in exactly one view, and the views' transitions are counted.
#[test]
fn auto_passes_every_per_event_hook_to_the_callers_probe() {
    let ward = ses::workload::chemo::generate(&ses::workload::chemo::ChemoConfig::small());
    let q1 = ses::workload::paper::query_q1();

    let mut off_probe = CountingProbe::new();
    let off =
        matcher_with(&q1, ward.schema(), PartitionMode::Off).find_with_probe(&ward, &mut off_probe);
    let mut auto_probe = CountingProbe::new();
    let auto = matcher_with(&q1, ward.schema(), PartitionMode::Auto)
        .find_with_probe(&ward, &mut auto_probe);

    assert_eq!(auto, off);
    assert!(!auto.is_empty());
    assert_eq!(off_probe.events_read, ward.len() as u64);
    assert_eq!(auto_probe.events_read, ward.len() as u64);
    assert!(auto_probe.transitions_evaluated > 0);
    assert_eq!(
        auto_probe.partition_events.iter().sum::<usize>(),
        ward.len()
    );
}

/// A `Str` partition key exercises the refcount-bump path of
/// `PartitionKey` (no per-event allocation).
#[test]
fn partitioned_equals_global_on_string_key() {
    let schema = Schema::builder()
        .attr("HOST", AttrType::Str)
        .attr("KIND", AttrType::Str)
        .build()
        .unwrap();
    let pattern = Pattern::builder()
        .set(|s| s.var("d"))
        .set(|s| s.var("e"))
        .cond_const("d", "KIND", CmpOp::Eq, "deploy")
        .cond_const("e", "KIND", CmpOp::Eq, "error")
        .cond_vars("d", "HOST", CmpOp::Eq, "e", "HOST")
        .within(Duration::ticks(10))
        .build()
        .unwrap();
    let mut rel = Relation::new(schema.clone());
    for (t, host, kind) in [
        (0, "web-1", "deploy"),
        (1, "web-2", "deploy"),
        (3, "web-1", "error"),
        (4, "web-2", "error"),
        (20, "web-1", "deploy"),
        (25, "web-1", "error"),
    ] {
        rel.push_values(Timestamp::new(t), [Value::from(host), Value::from(kind)])
            .unwrap();
    }
    let key = schema.attr_id("HOST").unwrap();

    let global = matcher_with(&pattern, &schema, PartitionMode::Off).find(&rel);
    let split = matcher_with(&pattern, &schema, PartitionMode::Key(key)).find(&rel);
    assert_eq!(split, global);
    assert_eq!(split.len(), 3);
}
