//! Differential suite: the columnar admission layer — batch bitmask
//! pre-evaluation of constant conditions — is invisible in the answers.
//!
//! Admission has two arms and one rule (`ses::core::runs_columnar`): a
//! relation or micro-batch of at least 16 events, under a pattern with
//! constant conditions, goes through the columnar lane pass; anything
//! shorter, and every per-event `push`, is admitted event by event. The
//! per-event `push` is therefore the reference — it never runs columnar —
//! and relation and chunk lengths are drawn from around the rule's
//! threshold and the 64-bit word boundaries, so both arms are exercised
//! and **each case asserts which arm it ran on**. Two properties, over
//! the same pattern space the oracle suite validates (`common/`):
//!
//! 1. **Batch `find`** equals the union of the per-event push schedule,
//!    across every semantics × selection combination — so together with
//!    `oracle.rs` this gives `columnar ≡ scalar ≡ oracle`.
//! 2. **Streaming `push_batch`**: replaying a stream in micro-batches
//!    emits *the same matches at the same pushes* as per-event pushes —
//!    the batch API changes admission evaluation, never emission timing.
//!
//! Plus bitmask edge cases the generators cannot force: matches on
//! either side of a word boundary, empty batches, atomically rejected
//! batches, and `Float` constant lanes (which take the generic
//! scanned-fallback kernel).

mod common;

use proptest::prelude::*;

use common::{pattern_strategy, schema, TYPES};
use ses::core::{runs_columnar, ExecOptions, Execution};
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

/// Relation and chunk lengths: one below, at and one above the rule's
/// 16-event threshold, and around the 64-bit word boundaries of the lane
/// vectors (the 65th event's admission bit lives in the second word).
const LENGTHS: [usize; 8] = [15, 16, 17, 63, 64, 65, 128, 129];

/// Inter-event gaps: ties, and gaps wide enough that a window (τ < 20)
/// holds only a handful of events — under skip-till-any-match the run
/// count is exponential in that handful.
const GAPS: [i64; 6] = [0, 0, 3, 4, 5, 6];

/// Relations of a length drawn from [`LENGTHS`].
fn relation_strategy() -> impl Strategy<Value = Relation> {
    let longest = LENGTHS[LENGTHS.len() - 1];
    (
        0usize..LENGTHS.len(),
        proptest::collection::vec((0usize..3, 1i64..3, 0usize..GAPS.len()), longest),
    )
        .prop_map(|(pick, rows)| {
            let mut rel = Relation::new(schema());
            let mut t = 0i64;
            for (ty, id, gap) in rows.into_iter().take(LENGTHS[pick]) {
                t += GAPS[gap];
                rel.push_values(Timestamp::new(t), [Value::from(TYPES[ty]), Value::from(id)])
                    .unwrap();
            }
            rel
        })
}

fn options(semantics: MatchSemantics, selection: EventSelection) -> MatcherOptions {
    MatcherOptions {
        semantics,
        selection,
        ..MatcherOptions::default()
    }
}

/// Which arm the rule sends a batch of `len` events under `pat` to. Every
/// generated pattern types each of its variables, so it has lanes and the
/// length alone decides — the suite cannot silently go all-scalar.
fn expect_columnar(pat: &Pattern, len: usize) -> bool {
    let compiled = pat.compile(&schema()).unwrap();
    let lanes = ses::pattern::AdmissionLanes::of(&compiled).lanes().len();
    assert!(lanes > 0, "generated patterns carry constant conditions");
    assert_eq!(runs_columnar(lanes, len), len >= 16);
    len >= 16
}

/// Per-push emission schedule of a per-event stream replay (always
/// admitted event by event); the finish flush is the last entry.
fn per_event_schedule(pat: &Pattern, rel: &Relation, opts: &MatcherOptions) -> Vec<Vec<Match>> {
    let mut sm = StreamMatcher::with_options(pat, &schema(), opts.clone()).unwrap();
    let mut schedule = Vec::new();
    for e in rel.events() {
        schedule.push(sm.push(e.ts(), e.values().to_vec()).unwrap());
    }
    schedule.push(sm.finish());
    schedule
}

/// Emission schedule of a micro-batched replay: one entry per
/// `push_batch` chunk, plus the finish flush.
fn batched_schedule(
    pat: &Pattern,
    rel: &Relation,
    opts: &MatcherOptions,
    batch: usize,
) -> Vec<Vec<Match>> {
    let mut sm = StreamMatcher::with_options(pat, &schema(), opts.clone()).unwrap();
    let events: Vec<Event> = rel.events().to_vec();
    let mut schedule = Vec::new();
    for chunk in events.chunks(batch) {
        schedule.push(sm.push_batch(chunk.to_vec()).unwrap());
    }
    schedule.push(sm.finish());
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Property 1: batch `find` — columnar from 16 events up, per event
    /// below — is exactly the union of what per-event pushes of the same
    /// relation emit, for every semantics × selection combination.
    #[test]
    fn columnar_find_equals_scalar(
        rel in relation_strategy(),
        pat in pattern_strategy(),
    ) {
        let columnar = expect_columnar(&pat, rel.len());
        for semantics in MODES {
            for selection in SELECTIONS {
                let opts = options(semantics, selection);
                let matcher = Matcher::with_options(&pat, &schema(), opts.clone()).unwrap();
                let exec = ExecOptions::default();
                prop_assert_eq!(
                    Execution::new(matcher.automaton(), &rel, &exec).is_columnar(),
                    columnar,
                    "{} events ran on the wrong arm", rel.len()
                );
                let mut found = matcher.find(&rel);
                found.sort();
                let mut pushed: Vec<Match> = per_event_schedule(&pat, &rel, &opts)
                    .into_iter()
                    .flatten()
                    .collect();
                pushed.sort();
                prop_assert_eq!(&found, &pushed, "{:?}/{:?}", semantics, selection);
            }
        }
    }

    /// Property 2: a micro-batched stream emits the same matches at the
    /// same pushes as a per-event stream, for every chunk length in
    /// [`LENGTHS`]. Comparing the schedule chunk-by-chunk (the batch's
    /// emission is the exact concatenation of its events' per-push
    /// emissions) proves the batch API preserves push-for-push emission
    /// timing, not just the final answer.
    #[test]
    fn columnar_push_batch_preserves_emission_timing(
        rel in relation_strategy(),
        pat in pattern_strategy(),
    ) {
        // The 15-event chunks are admitted per event; the 129-event
        // chunk size takes the relation whole, through the lane pass
        // from 16 events up.
        prop_assert!(!expect_columnar(&pat, LENGTHS[0]));
        prop_assert_eq!(expect_columnar(&pat, rel.len()), rel.len() >= 16);
        for semantics in MODES {
            let opts = options(semantics, EventSelection::SkipTillNextMatch);
            let scalar = per_event_schedule(&pat, &rel, &opts);
            let (pushes, finish) = scalar.split_at(scalar.len() - 1);
            for batch in LENGTHS {
                let batched = batched_schedule(&pat, &rel, &opts, batch);
                let (bpushes, bfinish) = batched.split_at(batched.len() - 1);
                // Finish flushes agree…
                prop_assert_eq!(
                    &bfinish[0], &finish[0],
                    "finish: {:?}/batch={}", semantics, batch
                );
                // …and each chunk's emission is the concatenation of
                // its events' per-push emissions.
                let chunked: Vec<Vec<Match>> = pushes
                    .chunks(batch)
                    .map(|c| c.iter().flatten().cloned().collect())
                    .collect();
                prop_assert_eq!(
                    bpushes, &chunked[..],
                    "schedule: {:?}/batch={}", semantics, batch
                );
            }
        }
    }
}

/// A relation of `n` events alternating types A/B with ids cycling 1–2,
/// one tick apart.
fn alternating(n: usize) -> Relation {
    let mut rel = Relation::new(schema());
    for i in 0..n {
        rel.push_values(
            Timestamp::new(i as i64),
            [
                Value::from(if i % 2 == 0 { "A" } else { "B" }),
                Value::from((i % 2 + 1) as i64),
            ],
        )
        .unwrap();
    }
    rel
}

fn ab_pattern() -> Pattern {
    Pattern::builder()
        .set(|s| s.var("a"))
        .set(|s| s.var("b"))
        .cond_const("a", "L", CmpOp::Eq, "A")
        .cond_const("b", "L", CmpOp::Eq, "B")
        .within(Duration::ticks(5))
        .build()
        .unwrap()
}

/// `find` against the per-event push union under `AllRuns`, with the
/// arm `find` ran on; the case must have matches.
fn assert_find_equals_pushes(pat: &Pattern, schema: &Schema, rel: &Relation, columnar: bool) {
    let opts = options(MatchSemantics::AllRuns, EventSelection::SkipTillNextMatch);
    let matcher = Matcher::with_options(pat, schema, opts.clone()).unwrap();
    let exec = ExecOptions::default();
    assert_eq!(
        Execution::new(matcher.automaton(), rel, &exec).is_columnar(),
        columnar
    );
    let mut found = matcher.find(rel);
    found.sort();
    let mut sm = StreamMatcher::with_options(pat, schema, opts).unwrap();
    let mut pushed = Vec::new();
    for e in rel.events() {
        pushed.extend(sm.push(e.ts(), e.values().to_vec()).unwrap());
    }
    pushed.extend(sm.finish());
    pushed.sort();
    assert_eq!(found, pushed);
    assert!(!found.is_empty());
}

/// Batch lengths at and just past the 64-bit word boundary, with
/// matches guaranteed on either side of it: the 65th event's admission
/// bit lives in the second word of every lane vector.
#[test]
fn word_boundary_batches_agree() {
    for n in [63, 64, 65, 128, 129] {
        assert_find_equals_pushes(&ab_pattern(), &schema(), &alternating(n), true);
    }
    // One event short of the rule's threshold takes the per-event arm.
    assert_find_equals_pushes(&ab_pattern(), &schema(), &alternating(15), false);
}

/// An empty batch is a no-op: no error, no matches, and the stream
/// still accepts subsequent pushes.
#[test]
fn empty_batch_is_a_noop() {
    let mut sm = StreamMatcher::compile(&ab_pattern(), &schema()).unwrap();
    assert_eq!(sm.push_batch(Vec::new()).unwrap(), Vec::new());
    let rel = alternating(32);
    let events: Vec<Event> = rel.events().to_vec();
    let out = sm.push_batch(events).unwrap();
    assert_eq!(sm.push_batch(Vec::new()).unwrap(), Vec::new());
    let total = out.len() + sm.finish().len();
    assert!(total > 0, "stream stays live around empty batches");
}

/// `Float` constant lanes run the generic scanned-fallback kernel —
/// results must still match per-event admission exactly, including the
/// `Int`-valued-attribute-vs-`Float`-constant cross-type comparisons.
#[test]
fn float_lanes_take_scanned_fallback_and_agree() {
    let schema = Schema::builder()
        .attr("L", AttrType::Str)
        .attr("V", AttrType::Float)
        .build()
        .unwrap();
    let pat = Pattern::builder()
        .set(|s| s.var("a"))
        .set(|s| s.var("b"))
        .cond_const("a", "V", CmpOp::Ge, 1.5)
        .cond_const("b", "V", CmpOp::Lt, 1.5)
        .cond_const("b", "L", CmpOp::Eq, "B")
        .within(Duration::ticks(10))
        .build()
        .unwrap();
    let mut rel = Relation::new(schema.clone());
    // Three rounds of the six rows: long enough for the lane pass.
    for round in 0..3 {
        for (t, l, v) in [
            (0, "A", 2.0),
            (1, "B", 1.0),
            (2, "A", 1.5),
            (3, "B", 1.49),
            (4, "X", 0.0),
            (5, "B", -1.0),
        ] {
            rel.push_values(
                Timestamp::new(t + 6 * round),
                [Value::from(l), Value::from(v)],
            )
            .unwrap();
        }
    }
    assert_find_equals_pushes(&pat, &schema, &rel, true);
}

/// A batch with an out-of-order timestamp (or any invalid event) is
/// rejected atomically: the error names the offender and *nothing* is
/// consumed — the stream state is exactly as before the call.
#[test]
fn invalid_batch_is_rejected_atomically() {
    let mut sm = StreamMatcher::compile(&ab_pattern(), &schema()).unwrap();
    sm.push(Timestamp::new(10), vec![Value::from("A"), Value::from(1)])
        .unwrap();
    // Long enough for the lane pass, had it been accepted.
    let mut bad: Vec<Event> = (0..16)
        .map(|_| Event::new(Timestamp::new(11), vec![Value::from("B"), Value::from(1)]))
        .collect();
    // Out of order within the batch.
    bad.push(Event::new(
        Timestamp::new(9),
        vec![Value::from("A"), Value::from(1)],
    ));
    assert!(sm.push_batch(bad).is_err());
    // Nothing was consumed: the same first event still completes a match.
    let out = sm
        .push_batch(vec![Event::new(
            Timestamp::new(11),
            vec![Value::from("B"), Value::from(1)],
        )])
        .unwrap();
    assert_eq!(out.len() + sm.finish().len(), 1);
}
