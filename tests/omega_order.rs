//! Ω's two orders, held after every operation that changes it.
//!
//! The engine keeps Ω sorted by each instance's first-binding timestamp
//! and never sorts it: expiry cuts a prefix, and the node log that holds
//! every buffer drops the prefix of nodes bound before the first live
//! instance's `minT`. If either order broke, a live instance could outlive
//! its window or read a node that is gone — so after every batch step,
//! push, micro-batch, heartbeat and restore, Ω must be non-decreasing in
//! first binding and every node an instance reaches must still be in the
//! log. Patterns are the shared generators of `common/`, under both event
//! selection strategies.

mod common;

use proptest::prelude::*;

use common::{pattern_strategy, relation_strategy_with, schema};
use ses::core::{EventSelection, Execution, Instance, NodeLog};
use ses::prelude::*;

const SELECTIONS: [EventSelection; 2] = [
    EventSelection::SkipTillNextMatch,
    EventSelection::SkipTillAnyMatch,
];

fn options(selection: EventSelection) -> MatcherOptions {
    MatcherOptions {
        selection,
        ..MatcherOptions::default()
    }
}

/// Ω is in first-binding order (an unbound instance counting as latest)
/// and reaches only retained nodes.
fn check(instances: &[Instance], log: &NodeLog, after: &str) -> Result<(), TestCaseError> {
    let first = |i: &Instance| i.buffer.min_ts().unwrap_or(Timestamp::MAX);
    for pair in instances.windows(2) {
        prop_assert!(
            first(&pair[0]) <= first(&pair[1]),
            "after {}: Ω is out of first-binding order",
            after
        );
    }
    for instance in instances {
        prop_assert!(
            log.retains(instance.buffer),
            "after {}: an instance reaches a trimmed node",
            after
        );
    }
    Ok(())
}

/// Every step of a batch execution over `rel`.
fn check_batch(
    pat: &Pattern,
    rel: &Relation,
    selection: EventSelection,
) -> Result<(), TestCaseError> {
    let matcher = Matcher::with_options(pat, &schema(), options(selection)).unwrap();
    let mut exec = Execution::new(matcher.automaton(), rel, selection);
    while exec.step(&mut NoProbe) {
        check(exec.instances(), exec.log(), "a batch step")?;
    }
    Ok(())
}

/// `rel` streamed in `chunks` — 0: one push; 1: a batch of three; 2: a
/// batch of twenty, long enough for the columnar pass; 3: a heartbeat at
/// the next event's timestamp, then its push — with a snapshot and
/// restore once `cut` events are in.
fn check_stream(
    pat: &Pattern,
    rel: &Relation,
    selection: EventSelection,
    chunks: &[usize],
    cut: usize,
) -> Result<(), TestCaseError> {
    let all = rel.events();
    let mut sm = StreamMatcher::with_options(pat, &schema(), options(selection)).unwrap();
    let mut restored = false;
    let mut next = 0;
    let mut chunk = chunks.iter().cycle();
    while next < all.len() {
        let kind = *chunk.next().unwrap();
        let take = [1, 3, 20, 1][kind].min(all.len() - next);
        let batch = all[next..next + take].to_vec();
        if take == 1 {
            let event = batch.into_iter().next().unwrap();
            if kind == 3 {
                sm.advance_watermark(event.ts());
                check(sm.instances(), sm.log(), "a heartbeat")?;
            }
            sm.push_event(event).unwrap();
            check(sm.instances(), sm.log(), "a push")?;
        } else {
            sm.push_batch(batch).unwrap();
            check(sm.instances(), sm.log(), "a micro-batch")?;
        }
        next += take;
        if !restored && next >= cut {
            let snap = sm.snapshot();
            sm = StreamMatcher::restore(pat, &schema(), options(selection), &snap).unwrap();
            restored = true;
            check(sm.instances(), sm.log(), "a restore")?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Long relations under skip-till-next-match, whose Ω stays small
    /// enough for windows to expire many times over; short ones under
    /// skip-till-any-match, whose Ω doubles with every matching event.
    #[test]
    fn omega_keeps_first_binding_order_and_reaches_only_retained_nodes(
        long in relation_strategy_with(2..48, 0..6),
        short in relation_strategy_with(2..10, 0..4),
        pat in pattern_strategy(),
        chunks in proptest::collection::vec(0usize..4, 1..12),
        cut in 0usize..48,
    ) {
        for (selection, rel) in SELECTIONS.into_iter().zip([&long, &short]) {
            check_batch(&pat, rel, selection)?;
            check_stream(&pat, rel, selection, &chunks, cut)?;
        }
    }
}
