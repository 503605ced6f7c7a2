//! Differential suite: the streaming matcher — eager watermark emission
//! over an evicting relation — produces exactly the batch
//! `Matcher::find` answer (which never evicts), match for match, under
//! every semantics mode.
//!
//! The generators are shared with `oracle.rs` (see `common/`), so the
//! pattern space proven correct against the brute-force oracle is the
//! same space the stream is proven equal to batch on: together the two
//! suites give `stream ≡ batch ≡ oracle`.

mod common;

use proptest::prelude::*;

use common::{pattern_strategy, relation_strategy_with, schema};
use ses::prelude::*;

/// All semantics modes a matcher can run under.
const MODES: [MatchSemantics; 3] = [
    MatchSemantics::Maximal,
    MatchSemantics::Definition2,
    MatchSemantics::AllRuns,
];

fn options(semantics: MatchSemantics) -> MatcherOptions {
    MatcherOptions {
        semantics,
        ..MatcherOptions::default()
    }
}

/// Replays `rel` through a stream matcher; returns the per-push emission
/// schedule plus the finish flush (last entry).
fn stream_schedule(pat: &Pattern, rel: &Relation, semantics: MatchSemantics) -> Vec<Vec<Match>> {
    let mut sm = StreamMatcher::with_options(pat, &schema(), options(semantics)).unwrap();
    let mut schedule = Vec::new();
    for e in rel.events() {
        schedule.push(sm.push(e.ts(), e.values().to_vec()).unwrap());
    }
    schedule.push(sm.finish());
    schedule
}

fn batch_answer(pat: &Pattern, rel: &Relation, semantics: MatchSemantics) -> Vec<Match> {
    let mut out = Matcher::with_options(pat, &schema(), options(semantics))
        .unwrap()
        .find(rel);
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Concatenated push emissions + finish equal the batch answer as a
    /// set, for every semantics. Equality with the (deduplicated) batch
    /// answer also proves exactly-once emission.
    #[test]
    fn streamed_equals_batch(
        rel in relation_strategy_with(2..8, 0..4),
        pat in pattern_strategy(),
    ) {
        for semantics in MODES {
            let batch = batch_answer(&pat, &rel, semantics);
            let mut streamed: Vec<Match> = stream_schedule(&pat, &rel, semantics)
                .into_iter()
                .flatten()
                .collect();
            streamed.sort();
            prop_assert_eq!(&streamed, &batch, "{:?} diverged from batch", semantics);
        }
    }

    /// Eviction changes *nothing observable*: not just the final set,
    /// but the push-by-push emission schedule is the batch answer —
    /// computed over the full, never evicted relation — cut at the
    /// window closes: a match leaves with the first push more than `τ`
    /// past its first binding, or with `finish`.
    #[test]
    fn emission_schedule_is_the_batch_answer_cut_at_window_closes(
        rel in relation_strategy_with(2..8, 0..4),
        pat in pattern_strategy(),
    ) {
        for semantics in MODES {
            let mut expected = vec![Vec::new(); rel.len() + 1];
            for m in batch_answer(&pat, &rel, semantics) {
                let closes = rel.event(m.first_event()).ts() + pat.within();
                let slot = rel.events().partition_point(|e| e.ts() <= closes);
                expected[slot].push(m);
            }
            let mut schedule = stream_schedule(&pat, &rel, semantics);
            schedule.iter_mut().for_each(|emitted| emitted.sort());
            prop_assert_eq!(&schedule, &expected, "{:?}: schedules diverged", semantics);
        }
    }

    /// Matches already emitted by `push` are final: everything `finish`
    /// returns is disjoint from the eager emissions, and eager emissions
    /// arrive no earlier than the event that completes them.
    #[test]
    fn eager_emissions_are_final_and_wellformed(
        rel in relation_strategy_with(2..8, 0..4),
        pat in pattern_strategy(),
    ) {
        let schedule = stream_schedule(&pat, &rel, MatchSemantics::Maximal);
        let (finish, pushes) = schedule.split_last().unwrap();
        let mut seen: Vec<&Match> = Vec::new();
        for (i, emitted) in pushes.iter().enumerate() {
            let push_ts = rel.event(EventId::from(i)).ts();
            for m in emitted {
                prop_assert!(!seen.contains(&m), "duplicate emission of {}", m);
                // A match can only be finalized once the watermark
                // passed its window.
                let last_ts = rel.event(m.last_event()).ts();
                prop_assert!(last_ts <= push_ts, "{} emitted before complete", m);
                seen.push(m);
            }
        }
        for m in finish {
            prop_assert!(!seen.contains(&m), "finish re-emitted {}", m);
        }
    }
}

/// Bounded-memory acceptance: stream 60 windows' worth of events (far
/// beyond any fixed buffer), and the retained relation must stay below a
/// small fixed multiple of the per-window event count while the matches
/// remain set-equal to batch over the full history.
#[test]
fn long_stream_memory_stays_bounded() {
    let schema = schema();
    let pattern = Pattern::builder()
        .set(|s| s.var("a"))
        .set(|s| s.var("b"))
        .cond_const("a", "L", CmpOp::Eq, "A")
        .cond_const("b", "L", CmpOp::Eq, "B")
        .within(Duration::ticks(10))
        .build()
        .unwrap();

    // One event per tick for 60× the window τ=10: alternating A/B with a
    // deterministic sprinkle of filtered X rows.
    let mut rel = Relation::new(schema.clone());
    for t in 0..600i64 {
        let l = match t % 7 {
            0 | 2 => "A",
            5 => "X",
            _ => "B",
        };
        rel.push_values(Timestamp::new(t), [Value::from(l), Value::from(t % 3)])
            .unwrap();
    }

    let mut sm = StreamMatcher::compile(&pattern, &schema).unwrap();
    let mut probe = CountingProbe::new();
    let mut streamed = Vec::new();
    for e in rel.events() {
        streamed.extend(
            sm.push_with_probe(e.ts(), e.values().to_vec(), &mut probe)
                .unwrap(),
        );
    }

    // ~11 events fit in one window; compaction hysteresis allows 2×, plus
    // slack for the watermark lag. The bound is a constant — it must not
    // scale with the 600-event stream.
    let per_window = 11;
    assert!(
        probe.retained_max <= 3 * per_window,
        "retained {} events — eviction is not bounding memory",
        probe.retained_max
    );
    assert!(
        probe.events_evicted > 500,
        "only {} evictions over 600 events",
        probe.events_evicted
    );
    assert!(
        sm.pending_candidates() < 4 * per_window,
        "pending candidates grew to {}",
        sm.pending_candidates()
    );
    assert!(
        sm.retained_killers() < 4 * per_window,
        "killer set grew to {}",
        sm.retained_killers()
    );
    // Most matches were finalized eagerly, long before end of stream.
    assert!(sm.emitted_so_far() > 0, "nothing emitted eagerly");

    streamed.extend(sm.finish());
    streamed.sort();
    let batch = batch_answer(&pattern, &rel, MatchSemantics::Maximal);
    assert_eq!(streamed, batch);
    assert!(!batch.is_empty());
}
