//! Differential suite: `PartitionMode::Auto` — analyzer-proven key, one
//! scan keeping one Ω per key value, one global adjudication — returns
//! the global-scan (`PartitionMode::Off`) answer, match for match, under
//! every semantics × selection combination, on the generated patterns.
//!
//! The generators are shared with `oracle.rs` and `stream_vs_batch.rs`
//! (see `common/`), so the pattern space this suite proves
//! partition-invariant is the same space those suites prove correct:
//! together they give `partitioned ≡ global ≡ stream ≡ oracle`.
//! Patterns the analyzer cannot prove a key for (uncorrelated ones, or
//! runs without the end-of-relation flush) fall back to the global scan
//! inside the same API, so the equality is trivially preserved — the
//! suite covers that path too rather than filtering it out.
//!
//! On those patterns the split and the global scan agree, so the
//! equality cannot tell a per-key Ω from a shared one. Key isolation is
//! pinned apart: on Q1 over the paper-parity ward the split must equal
//! `find` over each key's events in a relation of its own.

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

/// Each key's events, in a relation of its own, with the ward ids of its
/// events — grouped here, independently of the split under test.
fn owned_per_key(rel: &Relation, key: ses::event::AttrId) -> Vec<(Vec<EventId>, Relation)> {
    let mut parts: Vec<(Value, Vec<EventId>, Relation)> = Vec::new();
    for (id, event) in rel.iter() {
        let value = event.value(key);
        let slot = match parts.iter().position(|(v, _, _)| v == value) {
            Some(slot) => slot,
            None => {
                parts.push((
                    value.clone(),
                    Vec::new(),
                    Relation::new(rel.schema().clone()),
                ));
                parts.len() - 1
            }
        };
        parts[slot].1.push(id);
        parts[slot].2.push_event(event.clone()).unwrap();
    }
    parts
        .into_iter()
        .map(|(_, ids, part)| (ids, part))
        .collect()
}

/// Key isolation where keys interact: Q1 over the paper-parity D1 ward
/// (65 patients, ≈ 9.6 k events). The split by `ID` must equal the union
/// of `find` over each patient's events in a relation of their own,
/// mapped back to the ward's ids — runs that never share an Ω with
/// another key, so a run of the split that saw a foreign event shows.
#[test]
fn key_split_equals_owned_per_key_relations_on_d1() {
    let ward = ses::workload::chemo::generate(&ses::workload::chemo::ChemoConfig::paper_d1());
    let q1 = ses::workload::paper::query_q1();
    let key = ward.schema().attr_id("ID").unwrap();
    let off = matcher_with(&q1, ward.schema(), PartitionMode::Off);

    let mut owned: Vec<Match> = Vec::new();
    for (ids, part) in owned_per_key(&ward, key) {
        owned.extend(off.find(&part).iter().map(|m| {
            Match::from_bindings(
                m.bindings()
                    .iter()
                    .map(|&(v, e)| (v, ids[e.index()]))
                    .collect(),
            )
        }));
    }
    owned.sort();
    let split = matcher_with(&q1, ward.schema(), PartitionMode::Key(key)).find(&ward);
    assert_eq!(split, owned);
    assert!(!split.is_empty());

    // At this scale one shared Ω derails some of Q1's greedy `p+` runs on
    // other patients' events (docs/parallel.md, "Known limit"), so the
    // global scan answers differently and the equality above really
    // tells a per-key Ω from a shared one. A keyed Ω inside the global
    // scan (ROADMAP item 1) turns this into an equality.
    let global = off.find(&ward);
    assert_ne!(global, split);
}

/// The split runs on the caller's thread with the caller's probe, so
/// every per-event hook reaches it: each event is read once, by exactly
/// one key's Ω, and every Ω's transitions are counted.
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
