//! Differential suite for the static analyzer (satellite of the
//! `ses-cli check` pipeline): rewriting a pattern through
//! [`ses::pattern::analyze`] — dropping redundant constant conditions and
//! adding propagated ones — leaves the match set of every pattern
//! sampled here unchanged. Every generated pattern is run both ways on
//! the reference matcher and the match sets must be byte-identical,
//! under all three semantics modes and both event-selection strategies.
//!
//! This is a property of the sample, not of the rewrite. Under
//! skip-till-any-match the rewrite is invisible; under greedy
//! skip-till-next-match a derived constant can keep a run from absorbing
//! an event that would derail it, and the rewritten pattern then finds
//! matches the original misses (`docs/analysis.md` "Soundness of the
//! rewrite"; `ses-core`'s
//! `propagated_constants_can_change_a_next_match_answer` pins a case
//! with a group variable). `analyzer_pattern_strategy` has none — at most
//! three plain variables — but its space still holds such cases: the
//! default case count samples none of them, while `PROPTEST_CASES=20000`
//! finds skip-till-next-match cases where the two answers differ.
//!
//! The generators live in `common/` next to the oracle and
//! stream-vs-batch suites.

mod common;

use proptest::prelude::*;

use common::{analyzer_pattern_strategy, relation_strategy_with, schema};
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

/// Runs `pat` over `rel` and renders every match against the *original*
/// pattern's variable names, sorted — the byte-level answer we compare.
fn answer(
    pat: &Pattern,
    display: &Pattern,
    rel: &Relation,
    semantics: MatchSemantics,
    selection: EventSelection,
) -> Vec<String> {
    let m = Matcher::with_options(
        pat,
        &schema(),
        MatcherOptions {
            semantics,
            selection,
            ..MatcherOptions::default()
        },
    )
    .unwrap();
    let mut out: Vec<String> = m
        .find(rel)
        .iter()
        .map(|m| m.display_with(display).to_string())
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The analyzer-rewritten pattern produces exactly the original
    /// pattern's matches. Covers satisfiable patterns (where SES002
    /// drops and propagation adds conditions) and unsatisfiable ones
    /// (where both sides must report nothing).
    #[test]
    fn rewritten_pattern_matches_identically(
        rel in relation_strategy_with(2..8, 0..4),
        pat in analyzer_pattern_strategy(),
    ) {
        let analysis = analyze(&pat, &schema());
        for semantics in MODES {
            for selection in SELECTIONS {
                let original = answer(&pat, &pat, &rel, semantics, selection);
                let rewritten = answer(&analysis.pattern, &pat, &rel, semantics, selection);
                prop_assert_eq!(
                    &original, &rewritten,
                    "semantics {:?} selection {:?} satisfiable {}",
                    semantics, selection, analysis.satisfiable
                );
                if !analysis.satisfiable {
                    prop_assert!(original.is_empty(), "unsat pattern matched");
                }
            }
        }
    }

    /// The `MatcherOptions::propagate_constants` switch (the `--propagate`
    /// CLI flag) routes compilation through the same rewrite; it must be
    /// just as invisible end to end.
    #[test]
    fn propagate_constants_option_matches_identically(
        rel in relation_strategy_with(2..8, 0..4),
        pat in analyzer_pattern_strategy(),
    ) {
        for semantics in MODES {
            let baseline = answer(&pat, &pat, &rel, semantics, EventSelection::SkipTillNextMatch);
            let m = Matcher::with_options(
                &pat,
                &schema(),
                MatcherOptions {
                    semantics,
                    propagate_constants: true,
                    ..MatcherOptions::default()
                },
            )
            .unwrap();
            let mut propagated: Vec<String> = m
                .find(&rel)
                .iter()
                .map(|m| m.display_with(&pat).to_string())
                .collect();
            propagated.sort();
            prop_assert_eq!(&baseline, &propagated, "semantics {:?}", semantics);
        }
    }
}
