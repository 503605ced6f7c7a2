//! Differential suite: the columnar admission layer — a scan's bitmask
//! pre-evaluation of constant conditions — is invisible in the answers.
//!
//! Admission is one rule computed two ways, fixed by the executor: a scan
//! (`find`, `scan`, and so the key split) takes the columnar lane pass
//! over the whole relation — at any length, with or without constant
//! conditions, its `Str` lanes reading the relation's dictionary-coded
//! columns (a view reads its parent's) — and a push (`push`, and
//! `push_batch`, which pushes each event in turn) takes the per-event
//! mask. The per-event `push` is therefore the reference. Relation and
//! chunk lengths are drawn from short relations and around the 64-bit
//! word boundaries of the lane vectors. Three properties, the first two
//! over the same pattern space the oracle suite validates (`common/`):
//!
//! 1. **Batch `find`** equals the union of the per-event push schedule,
//!    across every semantics × selection combination, also for patterns
//!    without a constant condition (a lane pass with no lane to run) — so
//!    together with `oracle.rs` this gives `columnar ≡ scalar ≡ oracle`.
//! 2. **Streaming `push_batch`**: replaying a stream in micro-batches
//!    emits *the same matches at the same pushes* as per-event pushes —
//!    batch boundaries never change emission timing.
//! 3. **`find` ≡ `push_batch` ≡ `push`** on relations from every
//!    constructor (`push_values`, `builder`, `duplicate`, an evicted
//!    prefix, `restore`) and on key and contiguous views of them,
//!    under all six operators on `Str` constants.
//!
//! Plus bitmask edge cases the generators cannot force: matches on
//! either side of a word boundary, empty batches, atomically rejected
//! batches, `Float` constant lanes (which take the generic
//! scanned-fallback kernel), a non-`Str` value under a `Str` attribute,
//! and a relation that changes after its columns were built.

mod common;

use proptest::prelude::*;

use common::{pattern_strategy, schema, TYPES};
use ses::core::scan;
use ses::event::{partition_views, RelationView};
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

/// Relation and chunk lengths: short ones, and ones around the 64-bit
/// word boundaries of the lane vectors (the 65th event's admission bit
/// lives in the second word).
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

/// Patterns without a single constant condition: every event is
/// admitted to every variable, and a scan's lane pass has no lane to run.
/// 1–2 sets of singletons, ≤ 3 variables, optionally an ID-equality
/// clique. No group variable: one without constants absorbs every event
/// of its window, and under skip-till-any-match each of them doubles the
/// runs.
fn constant_free_pattern_strategy() -> impl Strategy<Value = Pattern> {
    (
        proptest::collection::vec(1usize..3, 1..3),
        2i64..8,
        proptest::bool::ANY,
    )
        .prop_filter("≤3 vars", |(sets, _, _)| sets.iter().sum::<usize>() <= 3)
        .prop_map(|(sets, within, correlate)| {
            let mut b = Pattern::builder();
            let mut names = Vec::new();
            for (si, &len) in sets.iter().enumerate() {
                let vars: Vec<String> = (0..len).map(|vi| format!("v{si}_{vi}")).collect();
                names.extend(vars.iter().cloned());
                b = b.set(move |s| {
                    for n in &vars {
                        s.var(n.clone());
                    }
                    s
                });
            }
            if correlate {
                for i in 1..names.len() {
                    b = b.cond_vars(names[0].clone(), "ID", CmpOp::Eq, names[i].clone(), "ID");
                }
            }
            b.within(Duration::ticks(within)).build().unwrap()
        })
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

    /// Property 1: batch `find` — the lane pass at every length, with or
    /// without a lane — is exactly the union of what per-event pushes of
    /// the same relation emit, for every semantics × selection
    /// combination.
    #[test]
    fn columnar_find_equals_scalar(
        rel in relation_strategy(),
        pat in prop_oneof![pattern_strategy(), constant_free_pattern_strategy()],
    ) {
        for semantics in MODES {
            for selection in SELECTIONS {
                let opts = options(semantics, selection);
                let matcher = Matcher::with_options(&pat, &schema(), opts.clone()).unwrap();
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
    fn push_batch_preserves_emission_timing(
        rel in relation_strategy(),
        pat in pattern_strategy(),
    ) {
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

/// `find` against the per-event push union under `AllRuns`; the case
/// must have matches.
fn assert_find_equals_pushes(pat: &Pattern, schema: &Schema, rel: &Relation) {
    let opts = options(MatchSemantics::AllRuns, EventSelection::SkipTillNextMatch);
    let matcher = Matcher::with_options(pat, schema, opts.clone()).unwrap();
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

/// Relation lengths inside the first word, and at and just past the
/// 64-bit word boundary, with matches guaranteed on either side of it:
/// the 65th event's admission bit lives in the second word of every lane
/// vector.
#[test]
fn word_boundary_batches_agree() {
    for n in [15, 63, 64, 65, 128, 129] {
        assert_find_equals_pushes(&ab_pattern(), &schema(), &alternating(n));
    }
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
    // Three rounds of the six rows.
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
    // `b.L = 'B'` reads the column, the `V` lanes the rows.
    assert_find_equals_pushes(&pat, &schema, &rel);
}

/// A batch with an out-of-order timestamp (or any invalid event) is
/// rejected atomically: the error names the offender and *nothing* is
/// consumed — the stream state is exactly as before the call.
#[test]
fn invalid_batch_is_rejected_atomically() {
    let mut sm = StreamMatcher::compile(&ab_pattern(), &schema()).unwrap();
    sm.push(Timestamp::new(10), vec![Value::from("A"), Value::from(1)])
        .unwrap();
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

// ---------------------------------------------------------------------
// Property 3: find ≡ push_batch ≡ push.
// ---------------------------------------------------------------------

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Constants for the operator patterns: the generated types, and strings
/// no event carries on either side of them in the order.
const CONSTS: [&str; 5] = ["A", "B", "X", "", "Aa"];

/// `⟨{a},{b}⟩` with `a.L φ₁ s₁` and `b.L φ₂ s₂`, any of the six operators
/// each — range operators over strings admit by lexicographic order, the
/// part of the condition algebra `pattern_strategy` (equality only) never
/// sends through a lane.
fn str_op_pattern_strategy() -> impl Strategy<Value = Pattern> {
    (
        (0usize..6, 0usize..CONSTS.len()),
        (0usize..6, 0usize..CONSTS.len()),
        proptest::bool::ANY,
        4i64..20,
    )
        .prop_map(|((op_a, s_a), (op_b, s_b), correlate, within)| {
            let mut b = Pattern::builder()
                .set(|s| s.var("a"))
                .set(|s| s.var("b"))
                .cond_const("a", "L", OPS[op_a], CONSTS[s_a])
                .cond_const("b", "L", OPS[op_b], CONSTS[s_b]);
            if correlate {
                b = b.cond_vars("a", "ID", CmpOp::Eq, "b", "ID");
            }
            b.within(Duration::ticks(within)).build().unwrap()
        })
}

/// Either pattern space: the oracle suite's (sets, groups, equality on
/// `L`) or the operator patterns.
fn either_pattern_strategy() -> impl Strategy<Value = Pattern> {
    (
        proptest::bool::ANY,
        pattern_strategy(),
        str_op_pattern_strategy(),
    )
        .prop_map(|(ops, shaped, by_op)| if ops { by_op } else { shaped })
}

/// How property 3 obtains its relation from the generated rows.
#[derive(Debug, Clone, Copy)]
enum Built {
    PushValues,
    Builder,
    Duplicate,
    Evicted,
    Restored,
}

const BUILDS: [Built; 5] = [
    Built::PushValues,
    Built::Builder,
    Built::Duplicate,
    Built::Evicted,
    Built::Restored,
];

type Row = (i64, &'static str, i64);

fn pushed(rows: &[Row]) -> Relation {
    let mut rel = Relation::new(schema());
    for &(t, l, id) in rows {
        rel.push_values(Timestamp::new(t), [Value::from(l), Value::from(id)])
            .unwrap();
    }
    rel
}

/// The relation `how` makes of chronological `rows`. Every constructor
/// yields `Value::Str`s in allocations of their own (`Value::from(&str)`
/// interns nothing), so equal strings always meet the dictionary as
/// distinct `Arc`s.
fn build(how: Built, rows: &[Row]) -> Relation {
    let mid = rows.len() / 2;
    match how {
        Built::PushValues => pushed(rows),
        Built::Builder => rows
            .iter()
            .rev()
            .fold(Relation::builder(schema()), |b, &(t, l, id)| {
                b.row(Timestamp::new(t), [Value::from(l), Value::from(id)])
                    .unwrap()
            })
            .build(),
        Built::Duplicate => pushed(&rows[..mid]).duplicate(2),
        Built::Evicted | Built::Restored => {
            let mut rel = pushed(rows);
            // More than half is evictable, so the call compacts; ties at
            // the cutoff stay.
            let cutoff = rows[mid + 1].0;
            let evicted = rel.evict_before(Timestamp::new(cutoff));
            if matches!(how, Built::Evicted) || evicted == 0 {
                return rel;
            }
            assert!(rel.first_index() > 0);
            Relation::restore(
                schema(),
                rel.evicted(),
                rel.events().to_vec(),
                rel.last_ts(),
            )
            .unwrap()
        }
    }
}

/// Rows for [`build`]: 8 to 129 of them, so that what the constructors
/// keep is short or spans several words of the lane vectors.
fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec((0usize..3, 1i64..3, 0usize..GAPS.len()), 8..130).prop_map(|draws| {
        let mut t = 0i64;
        draws
            .into_iter()
            .map(|(ty, id, gap)| {
                t += GAPS[gap];
                (t, TYPES[ty], id)
            })
            .collect()
    })
}

/// `m` with every event id moved up by `by` — a stream numbers its events
/// from 0, a relation with an evicted prefix from `first_index()`.
fn shifted(m: &Match, by: usize) -> Match {
    Match::from_bindings(
        m.bindings()
            .iter()
            .map(|&(v, e)| (v, EventId::from(e.index() + by)))
            .collect(),
    )
}

/// `find` over `rel` — its `Str` lanes reading the column, since every
/// pattern here tests the `Str` attribute `L` — against `push_batch` of
/// all of `rel` at once and against one `push` per event, in `rel`'s ids.
/// Returns what they agree on.
fn assert_executors_agree(pat: &Pattern, rel: &Relation, opts: &MatcherOptions) -> Vec<Match> {
    let matcher = Matcher::with_options(pat, &schema(), opts.clone()).unwrap();
    let mut found = matcher.find(rel);
    found.sort();
    let in_rel_ids = |schedule: Vec<Vec<Match>>| {
        let mut all: Vec<Match> = schedule
            .iter()
            .flatten()
            .map(|m| shifted(m, rel.first_index()))
            .collect();
        all.sort();
        all
    };
    let per_event = in_rel_ids(per_event_schedule(pat, rel, opts));
    assert_eq!(found, per_event, "find vs push");
    let batched = in_rel_ids(batched_schedule(pat, rel, opts, rel.len().max(1)));
    assert_eq!(found, batched, "find vs push_batch");
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Property 3 on relations: whatever built the relation, and whichever
    /// operator a `Str` lane carries, the three executors answer alike.
    #[test]
    fn find_push_batch_and_push_agree_on_every_relation(
        rows in rows_strategy(),
        how in 0usize..BUILDS.len(),
        pat in either_pattern_strategy(),
        semantics in 0usize..MODES.len(),
    ) {
        let rel = build(BUILDS[how], &rows);
        let opts = options(MODES[semantics], EventSelection::SkipTillNextMatch);
        assert_executors_agree(&pat, &rel, &opts);
    }

    /// Property 3 on views: a view reads its parent's column through its
    /// id list. Key views pick scattered positions, the contiguous view a
    /// run of them, and the parent may have evicted a prefix; each must
    /// scan exactly like a relation of its own holding the same events,
    /// with a column of its own.
    #[test]
    fn views_read_their_parents_columns(
        rows in rows_strategy(),
        evict in proptest::bool::ANY,
        pat in either_pattern_strategy(),
        from in 0usize..40,
        len in 1usize..90,
    ) {
        let parent = build(if evict { Built::Evicted } else { Built::PushValues }, &rows);
        let id_attr = schema().attr_id("ID").unwrap();
        let mut views: Vec<RelationView<'_>> = partition_views(&parent, id_attr)
            .into_iter()
            .map(|(_, view)| view)
            .collect();
        let lo = parent.first_index() + from.min(parent.len());
        let hi = (lo + len).min(parent.first_index() + parent.len());
        views.push(RelationView::new(&parent, (lo..hi).map(EventId::from).collect()));

        let matcher = Matcher::compile(&pat, &schema()).unwrap();
        for view in &views {
            let mut own = Relation::new(schema());
            for (_, event) in view.iter() {
                own.push_event(event.clone()).unwrap();
            }
            prop_assert_eq!(
                scan(matcher.automaton(), view, EventSelection::default(), &mut NoProbe),
                scan(matcher.automaton(), &own, EventSelection::default(), &mut NoProbe)
            );
        }
    }
}

/// `find` over a relation that evicted half of itself is `find` over the
/// same events numbered from 0, moved up by `first_index()` — it used to
/// address the relation by scan position and die in `Relation::event`.
/// Short and long relations, and the relation a stream holds.
#[test]
fn find_over_an_evicted_prefix_reports_global_ids() {
    for n in [20, 40] {
        let mut rel = alternating(n);
        let evicted = rel.evict_before(Timestamp::new(n as i64 / 2 + 1));
        assert_eq!((evicted, rel.first_index()), (n / 2 + 1, n / 2 + 1));
        let matcher = Matcher::compile(&ab_pattern(), &schema()).unwrap();
        let renumbered =
            Relation::restore(schema(), 0, rel.events().to_vec(), rel.last_ts()).unwrap();
        let expected: Vec<Match> = matcher
            .find(&renumbered)
            .iter()
            .map(|m| shifted(m, rel.first_index()))
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(matcher.find(&rel), expected);
    }

    let mut sm = StreamMatcher::compile(&ab_pattern(), &schema()).unwrap();
    for e in alternating(64).events() {
        sm.push(e.ts(), e.values().to_vec()).unwrap();
    }
    let held = sm.relation();
    assert!(held.first_index() > 0, "the stream evicted");
    let matcher = Matcher::compile(&ab_pattern(), &schema()).unwrap();
    let found = matcher.find(held);
    assert!(found
        .iter()
        .all(|m| m.first_event().index() >= held.first_index()));
    assert!(!found.is_empty());
}

/// A value that is not a `Str` under a `Str` attribute — only the
/// unchecked `push_event` lets one in — is coded `u32::MAX`, compares
/// with no constant under any operator (as `Value::compare` says), and so
/// scans like a string no condition admits.
#[test]
fn a_non_str_value_under_a_str_attribute_binds_nothing() {
    let pat = Pattern::builder()
        .set(|s| s.var("a"))
        .set(|s| s.var("b"))
        .cond_const("a", "L", CmpOp::Ne, "A")
        .cond_const("b", "L", CmpOp::Eq, "B")
        .within(Duration::ticks(6))
        .build()
        .unwrap();
    let label = |i: usize| ["X", "B", "A"][i % 3];
    let mut ill_typed = Relation::new(schema());
    let mut well_typed = Relation::new(schema());
    for i in 0..30usize {
        // Every fourth event carries an Int where L belongs; its twin
        // carries 'A', which neither `a.L ≠ 'A'` nor `b.L = 'B'` admits.
        let (odd, plain) = if i % 4 == 0 {
            (Value::from(i as i64), Value::from("A"))
        } else {
            (Value::from(label(i)), Value::from(label(i)))
        };
        for (rel, l) in [(&mut ill_typed, odd), (&mut well_typed, plain)] {
            rel.push_event(Event::new(
                Timestamp::new(i as i64),
                vec![l, Value::from(1)],
            ))
            .unwrap();
        }
    }
    let matcher = Matcher::compile(&pat, &schema()).unwrap();
    let found = matcher.find(&ill_typed);
    assert!(!found.is_empty());
    assert!(found.iter().all(|m| m.events().all(|e| e.index() % 4 != 0)));
    assert_eq!(found, matcher.find(&well_typed));
}

/// Equal strings held in distinct allocations share one dictionary code:
/// the dictionary is keyed by content, not by `Arc` identity.
#[test]
fn equal_strings_in_distinct_arcs_share_a_code() {
    let rel = alternating(32);
    let l = schema().attr_id("L").unwrap();
    let (Value::Str(first), Value::Str(third)) =
        (rel.events()[0].value(l), rel.events()[2].value(l))
    else {
        panic!("L is a Str attribute");
    };
    assert_eq!(first, third);
    assert!(!std::sync::Arc::ptr_eq(first, third));
    let column = rel.str_column(l).unwrap();
    assert_eq!(column.dict().len(), 2);
    assert_eq!(column.codes()[0], column.codes()[2]);
    assert_eq!(
        rel.str_column(schema().attr_id("ID").unwrap()).map(|_| ()),
        None
    );
}

/// A relation's columns are a cache of its rows: `find` builds them,
/// `push` and eviction drop them, the next `find` builds them anew. After
/// every change `find` over the changed relation equals `find` over a
/// relation built afresh from the same events, which never held a column.
#[test]
fn a_relation_changed_after_its_columns_were_built_rebuilds_them() {
    let matcher = Matcher::compile(&ab_pattern(), &schema()).unwrap();
    let l = schema().attr_id("L").unwrap();
    let afresh = |rel: &Relation| {
        Relation::restore(
            schema(),
            rel.evicted(),
            rel.events().to_vec(),
            rel.last_ts(),
        )
        .unwrap()
    };
    let check = |rel: &Relation| {
        let found = matcher.find(rel);
        assert!(!found.is_empty());
        assert_eq!(found, matcher.find(&afresh(rel)));
        assert_eq!(rel.str_column(l).unwrap().codes().len(), rel.len());
    };

    let mut rel = alternating(40);
    check(&rel);
    // Push: a new string, and a pair that completes one more match.
    for (t, label) in [(40, "C"), (41, "A"), (42, "B")] {
        rel.push_values(Timestamp::new(t), [Value::from(label), Value::from(1)])
            .unwrap();
    }
    let before = matcher.find(&afresh(&alternating(40))).len();
    check(&rel);
    assert!(matcher.find(&rel).len() > before, "the pushed pair matched");
    assert_eq!(rel.str_column(l).unwrap().dict().len(), 3);
    // Evict: positions shift under the codes.
    assert!(rel.evict_before(Timestamp::new(25)) > 0);
    check(&rel);
    // Push after evict, then once more.
    rel.push_values(Timestamp::new(43), [Value::from("A"), Value::from(2)])
        .unwrap();
    rel.push_values(Timestamp::new(44), [Value::from("B"), Value::from(2)])
        .unwrap();
    check(&rel);
}
