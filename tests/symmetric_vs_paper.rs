//! Differential suite for the quotient by interchangeable variables.
//!
//! Every matcher runs [`Automaton::build`], which binds each class of
//! interchangeable singletons in one order, adjudicates the canonical
//! candidates and expands each final match into its images. The
//! reference runs the paper's automaton ([`Automaton::build_paper`]),
//! all `k!` orders, through the one-shot pairwise filter
//! [`select_pairwise`], which knows nothing of classes. The two must
//! agree for every semantics and selection strategy, and every executor —
//! global `find`, the key split, `StreamMatcher::push_batch`
//! and a bank of one — must return the global answer. The patterns come
//! from [`symmetric_pattern_strategy`], whose `Θ` is symmetric by
//! construction; the relations carry timestamp ties.

mod common;

use proptest::prelude::*;

use common::{relation_strategy_with, schema, symmetric_pattern_strategy};
use ses::core::{execute, filter_negations, select_pairwise, Automaton};
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

fn options(semantics: MatchSemantics, selection: EventSelection) -> MatcherOptions {
    MatcherOptions {
        semantics,
        selection,
        ..MatcherOptions::default()
    }
}

/// The paper's answer: Algorithm 1's runs on the paper's automaton,
/// negation-filtered, through the pairwise filter.
fn paper_answer(
    pat: &Pattern,
    rel: &Relation,
    semantics: MatchSemantics,
    selection: EventSelection,
) -> Vec<Match> {
    let automaton = Automaton::build_paper(pat.compile(&schema()).unwrap()).unwrap();
    let raw = execute(&automaton, rel, selection, &mut NoProbe);
    let raw = filter_negations(raw, rel, automaton.pattern());
    select_pairwise(raw, rel, automaton.pattern(), semantics)
}

/// Everything a stream matcher emits over `rel`, fed in micro-batches of
/// two, plus the finish flush, sorted.
fn stream_answer(pat: &Pattern, rel: &Relation, opts: MatcherOptions) -> Vec<Match> {
    let mut sm = StreamMatcher::with_options(pat, &schema(), opts).unwrap();
    let mut out = Vec::new();
    for batch in rel.events().chunks(2) {
        out.extend(sm.push_batch(batch.to_vec()).unwrap());
    }
    out.extend(sm.finish());
    out.sort();
    out
}

/// Everything a bank of one emits over `rel`, sorted.
fn bank_answer(pat: &Pattern, rel: &Relation, opts: MatcherOptions) -> Vec<Match> {
    let mut bank = PatternBank::builder(&schema())
        .register("s", pat, opts)
        .unwrap()
        .build();
    let mut out = Vec::new();
    for e in rel.events() {
        out.extend(bank.push(e.ts(), e.values().to_vec()).unwrap());
    }
    out.extend(bank.finish());
    let mut out: Vec<Match> = out.into_iter().map(|(_, m)| m).collect();
    out.sort();
    out
}

fn assert_has_a_class(pat: &Pattern) {
    let classes = pat
        .compile(&schema())
        .unwrap()
        .interchangeable_classes()
        .len();
    assert!(classes > 0, "generator emitted no class: {pat:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The quotient's `find` returns the paper's answer, match for match
    /// and in the same order, for every semantics and selection.
    #[test]
    fn quotient_equals_the_paper_automaton(
        rel in relation_strategy_with(2..9, 0..3),
        pat in symmetric_pattern_strategy(),
    ) {
        assert_has_a_class(&pat);
        for semantics in MODES {
            for selection in SELECTIONS {
                let found = Matcher::with_options(&pat, &schema(), options(semantics, selection))
                    .unwrap()
                    .find(&rel);
                let reference = paper_answer(&pat, &rel, semantics, selection);
                prop_assert_eq!(
                    &found, &reference,
                    "{:?}/{:?}: the quotient diverged from the paper's automaton",
                    semantics, selection
                );
            }
        }
    }

    /// Every executor expands: the key split (when `ID` is a proven
    /// key), a micro-batched stream and a bank of one all
    /// return the global answer. Under skip-till-next-match the key split
    /// is compared only when every transition is fully correlated (no
    /// group variable, `Θ` closed under equality): otherwise a greedy run
    /// that absorbs another key's event — into `g+`, or into a member
    /// correlated only through `t` — derails in the global scan but not
    /// in its partition, symmetric or not (the known limit of
    /// `tests/oracle.rs::next_match_misses_a_correlated_group_match`).
    #[test]
    fn every_executor_returns_the_global_answer(
        rel in relation_strategy_with(2..9, 0..3),
        pat in symmetric_pattern_strategy(),
    ) {
        assert_has_a_class(&pat);
        let id = schema().attr_id("ID").unwrap();
        let greedy_safe = pat.group_vars().next().is_none()
            && ses::pattern::equality_closure(&pat).conditions().len() == pat.conditions().len();
        for semantics in MODES {
            for selection in SELECTIONS {
                let opts = options(semantics, selection);
                let matcher = Matcher::with_options(&pat, &schema(), opts.clone()).unwrap();
                let global = matcher.find(&rel);
                let comparable = greedy_safe || selection == EventSelection::SkipTillAnyMatch;
                if matcher.automaton().pattern().is_partition_key(id) && comparable {
                    let split_opts = MatcherOptions { partition: PartitionMode::Key(id), ..opts.clone() };
                    let split = Matcher::with_options(&pat, &schema(), split_opts).unwrap().find(&rel);
                    prop_assert_eq!(&split, &global, "{:?}/{:?}: key split", semantics, selection);
                }
                let streamed = stream_answer(&pat, &rel, opts.clone());
                prop_assert_eq!(&streamed, &global, "{:?}/{:?}: push_batch", semantics, selection);
                let banked = bank_answer(&pat, &rel, opts);
                prop_assert_eq!(&banked, &global, "{:?}/{:?}: bank of one", semantics, selection);
            }
        }
    }
}

/// The condition-4 prefix test across a class. `x` then `c`, `d` (both
/// `V`, `c.ID = d.ID`) in any order; under skip-till-any-match the run
/// `{x/e1, c/e3, d/e4}` binds `d` at t = 2 although the run
/// `{x/e1, d/e2, c/e5}` agrees with it before t = 1 and binds `d` at
/// t = 1: condition 4 rejects it. The quotient holds only the canonical
/// image of that witness, `{x/e1, c/e2, d/e5}`, which binds `c` at t = 1
/// — no earlier than the victim's own `c` — so only a prefix test that
/// files both members under one class finds it.
#[test]
fn a_prefix_witness_binding_another_member_still_rejects() {
    let pat = Pattern::builder()
        .set(|s| s.var("x").var("c").var("d"))
        .cond_const("x", "L", CmpOp::Eq, "X")
        .cond_const("c", "L", CmpOp::Eq, "A")
        .cond_const("d", "L", CmpOp::Eq, "A")
        .cond_vars("c", "ID", CmpOp::Eq, "d", "ID")
        .within(Duration::ticks(10))
        .build()
        .unwrap();
    let mut rel = Relation::new(schema());
    for (t, ty, id) in [
        (0, "X", 1),
        (1, "A", 1),
        (1, "A", 2),
        (2, "A", 2),
        (3, "A", 1),
    ] {
        rel.push_values(Timestamp::new(t), [Value::from(ty), Value::from(id)])
            .unwrap();
    }
    for semantics in [MatchSemantics::Definition2, MatchSemantics::Maximal] {
        let selection = EventSelection::SkipTillAnyMatch;
        let found = Matcher::with_options(&pat, &schema(), options(semantics, selection))
            .unwrap()
            .find(&rel);
        let reference = paper_answer(&pat, &rel, semantics, selection);
        assert_eq!(found, reference, "{semantics:?}");
        let victim = Match::from_bindings(vec![
            (VarId(0), EventId(0)),
            (VarId(1), EventId(2)),
            (VarId(2), EventId(3)),
        ]);
        assert!(!found.contains(&victim), "{semantics:?}: {found:?}");
    }
}
