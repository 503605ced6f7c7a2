//! Differential suite: `PartitionMode::Auto` — analyzer-proven key,
//! zero-copy per-key shards, worker threads — returns exactly the
//! global-scan (`PartitionMode::Off`) answer, match for match, under
//! every semantics × selection combination and thread count.
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

    /// `Auto` equals `Off` for every semantics × selection × thread
    /// count. Whether the generated pattern proves a key (full
    /// ID-equality clique) or not (uncorrelated / grouped), the two
    /// modes must be indistinguishable from the outside.
    #[test]
    fn auto_equals_off_under_every_mode(
        rel in relation_strategy_with(2..9, 0..4),
        pat in prop_oneof![pattern_strategy(), negated_pattern_strategy()],
    ) {
        for semantics in MODES {
            for selection in SELECTIONS {
                let base = MatcherOptions { semantics, selection, ..MatcherOptions::default() };
                let global = answer(&pat, &rel, base.clone());
                for threads in [None, Some(1), Some(3)] {
                    let auto = answer(&pat, &rel, MatcherOptions {
                        partition: PartitionMode::Auto,
                        threads,
                        ..base.clone()
                    });
                    prop_assert_eq!(
                        &auto, &global,
                        "{:?}/{:?} threads={:?} diverged from global",
                        semantics, selection, threads
                    );
                }
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

/// The paper's Q1 over a generated chemotherapy ward: the unchecked
/// per-key primitive under `PartitionMode::Auto` returns the global
/// scan's answer on a realistic, skewed key distribution.
#[test]
fn partitioned_equals_global_on_chemo_q1() {
    let ward = ses::workload::chemo::generate(&ses::workload::chemo::ChemoConfig::small());
    let q1 = ses::workload::paper::query_q1();
    let matcher = Matcher::compile(&q1, ward.schema()).unwrap();
    let key = ward.schema().attr_id("ID").unwrap();

    let mut global = matcher.find(&ward);
    global.sort();
    let parallel = ses::parallel::find_partitioned(&matcher, &ward, key);
    assert_eq!(parallel, global);
    assert!(!parallel.is_empty());
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
    let matcher = Matcher::compile(&pattern, &schema).unwrap();
    let key = schema.attr_id("HOST").unwrap();

    let mut global = matcher.find(&rel);
    global.sort();
    let parallel = ses::parallel::find_partitioned(&matcher, &rel, key);
    assert_eq!(parallel, global);
    assert_eq!(parallel.len(), 3);
}
