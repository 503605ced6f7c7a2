//! Differential suite: time-sliced execution — τ-overlapping ranges of
//! the relation matched on worker threads, raw matches attributed to
//! the slice owning their first event, one global negation-filter +
//! selection pass — returns exactly the global-scan
//! (`PartitionMode::Off`) answer, match for match, under every
//! semantics × selection combination, slice count, and thread count.
//!
//! The relations come from `seam_relation_strategy` (see `common/`):
//! timestamps cluster around anchors so slice boundaries routinely cut
//! straight through a window, forcing matches that straddle seams. The
//! pattern space includes group variables (whose absorption loop can
//! cross a seam) and — via `negated_pattern_strategy` — negated
//! variables, which key partitioning must refuse but time slicing
//! handles because adjudication runs globally over the full relation.

mod common;

use proptest::prelude::*;

use common::{
    negated_pattern_strategy, pattern_strategy, relation_strategy_with, schema,
    seam_relation_strategy,
};
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
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `find_time_sliced` equals the global scan for every semantics ×
    /// selection × slice count, on seam-clustered data. The slice-count
    /// knob doubles as the worker count, so this also sweeps the
    /// degenerate single-slice and more-slices-than-events layouts.
    #[test]
    fn sliced_equals_global_under_every_mode(
        rel in seam_relation_strategy(),
        pat in pattern_strategy(),
    ) {
        for semantics in MODES {
            for selection in SELECTIONS {
                let matcher = Matcher::with_options(&pat, &schema(), MatcherOptions {
                    semantics,
                    selection,
                    ..MatcherOptions::default()
                }).unwrap();
                let mut global = matcher.find(&rel);
                global.sort();
                for slices in [None, Some(1), Some(2), Some(3), Some(7)] {
                    let mut sliced = ses::parallel::find_time_sliced(&matcher, &rel, slices);
                    sliced.sort();
                    prop_assert_eq!(
                        &sliced, &global,
                        "{:?}/{:?} slices={:?} diverged from global",
                        semantics, selection, slices
                    );
                }
            }
        }
    }

    /// Negated patterns prove no partition key, yet time slicing stays
    /// sound for them: the per-slice runs only collect raw matches, and
    /// the negation filter adjudicates once, globally, over the full
    /// relation — a killer event is visible no matter which slice its
    /// victims came from.
    #[test]
    fn negated_patterns_slice_soundly(
        rel in seam_relation_strategy(),
        pat in negated_pattern_strategy(),
    ) {
        prop_assert!(
            pat.compile(&schema()).unwrap().partition_keys().is_empty(),
            "negations must defeat key inference"
        );
        for semantics in MODES {
            let matcher = Matcher::with_options(&pat, &schema(), MatcherOptions {
                semantics,
                ..MatcherOptions::default()
            }).unwrap();
            let mut global = matcher.find(&rel);
            global.sort();
            for slices in [None, Some(2), Some(5)] {
                let mut sliced = ses::parallel::find_time_sliced(&matcher, &rel, slices);
                sliced.sort();
                prop_assert_eq!(
                    &sliced, &global,
                    "{:?} slices={:?} diverged from global",
                    semantics, slices
                );
            }
        }
    }

    /// The public knob: `PartitionMode::TimeAuto` equals `Off` for every
    /// semantics × selection × thread count, whatever strategy it picks
    /// underneath (proven key, time slices, or global fallback). Runs of
    /// equal timestamps (gap 0) land whole duplicate groups on slice
    /// boundaries.
    #[test]
    fn time_auto_equals_off_under_every_mode(
        rel in relation_strategy_with(2..9, 0..4),
        pat in prop_oneof![pattern_strategy(), negated_pattern_strategy()],
    ) {
        for semantics in MODES {
            for selection in SELECTIONS {
                let base = MatcherOptions { semantics, selection, ..MatcherOptions::default() };
                let global = answer(&pat, &rel, base.clone());
                for threads in [None, Some(1), Some(3)] {
                    let auto = answer(&pat, &rel, MatcherOptions {
                        partition: PartitionMode::TimeAuto,
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

}

/// Ward-wide drug-then-bloodcount with no patient correlation:
/// `partition_keys()` proves nothing, so time slicing is the only
/// parallel strategy that applies — checked on the generated
/// chemotherapy ward at several slice counts.
#[test]
fn time_sliced_equals_global_on_a_keyless_chemo_query() {
    let ward = ses::workload::chemo::generate(&ses::workload::chemo::ChemoConfig::small());
    let pattern = Pattern::builder()
        .set(|s| s.var("c"))
        .set(|s| s.var("b"))
        .cond_const("c", "L", CmpOp::Eq, "C")
        .cond_const("b", "L", CmpOp::Eq, "B")
        .within(Duration::ticks(48))
        .build()
        .unwrap();
    assert!(pattern
        .compile(ward.schema())
        .unwrap()
        .partition_keys()
        .is_empty());
    let matcher = Matcher::compile(&pattern, ward.schema()).unwrap();

    let mut global = matcher.find(&ward);
    global.sort();
    for slices in [None, Some(1), Some(3), Some(16)] {
        let mut sliced = ses::parallel::find_time_sliced(&matcher, &ward, slices);
        sliced.sort();
        assert_eq!(sliced, global, "slices={slices:?}");
    }
    assert!(!global.is_empty());
}
