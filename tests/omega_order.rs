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
//!
//! The engine also holds Ω's occupancy index (one bitset per variable over
//! Ω's positions, 64 to a word) to a rebuild after every step, in debug
//! builds. Dense relations under a wide window take Ω past two words, so
//! that assertion runs across word boundaries too.

mod common;

use proptest::prelude::*;

use std::cell::Cell;

use common::{pattern_strategy, relation_strategy_with, schema, TYPES};
use ses::core::{EventSelection, Execution, Instance, NodeLog};
use ses::prelude::*;

const SELECTIONS: [EventSelection; 2] = [
    EventSelection::SkipTillNextMatch,
    EventSelection::SkipTillAnyMatch,
];

/// Where a dense case stops stepping: a skip-till-any-match Ω doubles
/// with every matching event, and a dense relation has hundreds.
const DENSE_CAP: usize = 1024;

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

/// Every step of a batch execution over `rel`, until Ω passes `cap`;
/// returns the largest `|Ω|` seen.
fn check_batch(
    pat: &Pattern,
    rel: &Relation,
    selection: EventSelection,
    cap: usize,
) -> Result<usize, TestCaseError> {
    let matcher = Matcher::with_options(pat, &schema(), options(selection)).unwrap();
    let mut exec = Execution::new(matcher.automaton(), rel, selection);
    let mut peak = 0;
    while peak <= cap && exec.step(&mut NoProbe) {
        check(exec.instances(), exec.log(), "a batch step")?;
        peak = peak.max(exec.omega_len());
    }
    Ok(peak)
}

/// `rel` streamed in `chunks` — 0: one push; 1: a batch of three; 2: a
/// batch of twenty, long enough for the columnar pass; 3: a heartbeat at
/// the next event's timestamp, then its push — with a snapshot and
/// restore once `cut` events are in, until Ω passes `cap`.
fn check_stream(
    pat: &Pattern,
    rel: &Relation,
    selection: EventSelection,
    chunks: &[usize],
    cut: usize,
    cap: usize,
) -> Result<(), TestCaseError> {
    let all = rel.events();
    let mut sm = StreamMatcher::with_options(pat, &schema(), options(selection)).unwrap();
    let mut restored = false;
    let mut next = 0;
    let mut chunk = chunks.iter().cycle();
    while next < all.len() && sm.active_instances() <= cap {
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

/// Hundreds of events, sixteen to a tick on average: a window of the
/// shared patterns' 4–20 ticks holds 64–320 of them.
fn dense_wide_relation_strategy() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0u8..3, 1i64..3, 0u8..16), 130..200).prop_map(|rows| {
        let mut rel = Relation::new(schema());
        let mut t = 0i64;
        for (ty, id, tick) in rows {
            t += i64::from(tick == 0);
            rel.push_values(
                Timestamp::new(t),
                [Value::from(TYPES[ty as usize]), Value::from(id)],
            )
            .unwrap();
        }
        rel
    })
}

thread_local! {
    /// The largest `|Ω|` a dense case reached, per selection.
    static DENSE_PEAKS: Cell<[usize; 2]> = const { Cell::new([0; 2]) };
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
            check_batch(&pat, rel, selection, usize::MAX)?;
            check_stream(&pat, rel, selection, &chunks, cut, usize::MAX)?;
        }
    }

    /// Dense relations under both selections. A micro-batch under
    /// skip-till-any-match could double Ω twenty times past the cap
    /// before the check, so that selection pushes one event at a time.
    fn dense_omega_keeps_both_orders(
        rel in dense_wide_relation_strategy(),
        pat in pattern_strategy(),
        chunks in proptest::collection::vec(0usize..4, 1..12),
        cut in 0usize..200,
    ) {
        for (s, selection) in SELECTIONS.into_iter().enumerate() {
            let chunks: Vec<usize> = match selection {
                EventSelection::SkipTillAnyMatch => {
                    chunks.iter().map(|&k| if k == 3 { 3 } else { 0 }).collect()
                }
                EventSelection::SkipTillNextMatch => chunks.clone(),
            };
            let peak = check_batch(&pat, &rel, selection, DENSE_CAP)?;
            check_stream(&pat, &rel, selection, &chunks, cut, DENSE_CAP)?;
            DENSE_PEAKS.with(|p| {
                let mut peaks = p.get();
                peaks[s] = peaks[s].max(peak);
                p.set(peaks);
            });
        }
    }
}

/// The dense property, then proof that it reached past two words of the
/// index under each selection: a generator that stopped doing so would
/// leave the boundaries untested.
#[test]
fn omega_past_two_words_keeps_first_binding_order_and_reaches_only_retained_nodes() {
    dense_omega_keeps_both_orders();
    let peaks = DENSE_PEAKS.with(Cell::get);
    for (selection, peak) in SELECTIONS.iter().zip(peaks) {
        assert!(peak > 128, "{selection:?}: the largest Ω was {peak}");
    }
}
