//! Differential suite for the adjudicator: the group-wise sweep behind
//! [`Matcher::find`] and the streaming matcher (sorted group candidates,
//! posting-list and prefix-hash indexes, bounded viable-event sweeps,
//! survivors carried across groups) must return exactly what
//! [`ses::core::select_pairwise`] returns — conditions 4–5 and
//! maximality applied as one global `O(R²)` filter over the whole
//! candidate set, every quantifier re-derived from scratch. The reference
//! shares no code with the sweep beyond the conditions-1–3 validator, and
//! is no mode of the production path.
//!
//! The batch legs assert exact ordered equality. The streaming and bank
//! legs assert that the union of the per-push emission schedule and the
//! finish flush is that same reference answer — *when* each match is
//! emitted is the business of `tests/stream_vs_batch.rs` and
//! `tests/bank_vs_independent.rs`. Coverage spans semantics × selection
//! strategy × batch/stream × the multi-pattern bank, on both the oracle-shared generators (`common/`)
//! and dense same-group workloads (group variables under
//! skip-till-any-match: nested containment chains, duplicate timestamps,
//! equal start/end intervals — routinely dozens of candidates in one
//! adjudication group).

mod common;

use proptest::prelude::*;

use common::{
    dense_pattern_strategy, dense_relation_strategy, pattern_strategy, relation_strategy_with,
    schema,
};
use ses::core::{execute, filter_negations, select_pairwise, Automaton};
use ses::prelude::*;
use ses::store::{decode_snapshot, encode_snapshot};

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

/// The reference answer, in canonical match order: Algorithm 1's raw
/// runs on the paper's automaton, negation-filtered, through the one-shot
/// pairwise filter.
fn reference_answer(
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

/// Batch answer in the matcher's own emission order — the suite asserts
/// exact (ordered) equality, not just set equality.
fn batch_answer(pat: &Pattern, rel: &Relation, opts: MatcherOptions) -> Vec<Match> {
    Matcher::with_options(pat, &schema(), opts)
        .unwrap()
        .find(rel)
}

/// Replays `rel` through a stream matcher; returns everything the pushes
/// and the finish flush emitted, in canonical match order.
fn stream_union(pat: &Pattern, rel: &Relation, opts: MatcherOptions) -> Vec<Match> {
    let mut sm = StreamMatcher::with_options(pat, &schema(), opts).unwrap();
    let mut out = Vec::new();
    for e in rel.events() {
        out.extend(sm.push(e.ts(), e.values().to_vec()).unwrap());
    }
    out.extend(sm.finish());
    out.sort();
    out
}

/// Replays `rel` through `bank`; returns, per pattern, everything the
/// pushes and the finish flush emitted, in canonical match order.
fn bank_union(mut bank: PatternBank, rel: &Relation) -> Vec<Vec<Match>> {
    let mut out = vec![Vec::new(); bank.len()];
    for e in rel.events() {
        for (i, m) in bank.push(e.ts(), e.values().to_vec()).unwrap() {
            out[i].push(m);
        }
    }
    for (i, m) in bank.finish() {
        out[i].push(m);
    }
    for matches in &mut out {
        matches.sort();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Batch `find` returns exactly the pairwise reference's answer —
    /// same matches, same order — for every semantics and selection
    /// strategy.
    #[test]
    fn batch_equals_pairwise_reference(
        rel in relation_strategy_with(2..8, 0..4),
        pat in pattern_strategy(),
    ) {
        for semantics in MODES {
            for selection in SELECTIONS {
                let found = batch_answer(&pat, &rel, options(semantics, selection));
                let reference = reference_answer(&pat, &rel, semantics, selection);
                prop_assert_eq!(
                    &found, &reference,
                    "{:?}/{:?}: find diverged from the reference", semantics, selection
                );
            }
        }
    }

    /// Dense groups, batch: group variables under skip-till-any-match
    /// flood single adjudication groups with dozens of nested /
    /// tie-heavy candidates — the regime the sweep's prefix hashes,
    /// posting lists, and duplicate-timestamp interval logic must
    /// survive. Skip-till-next-match rides along for breadth.
    #[test]
    fn dense_batch_equals_pairwise_reference(
        rel in dense_relation_strategy(),
        pat in dense_pattern_strategy(),
    ) {
        for semantics in MODES {
            for selection in SELECTIONS {
                let found = batch_answer(&pat, &rel, options(semantics, selection));
                let reference = reference_answer(&pat, &rel, semantics, selection);
                prop_assert_eq!(
                    &found, &reference,
                    "{:?}/{:?}: find diverged on a dense group", semantics, selection
                );
            }
        }
    }

    /// Streaming: what the pushes and the finish flush emit is the
    /// reference answer — the sweep may not drop, duplicate or invent a
    /// single match as groups are adjudicated one watermark crossing at
    /// a time.
    #[test]
    fn stream_equals_pairwise_reference(
        rel in relation_strategy_with(2..8, 0..4),
        pat in pattern_strategy(),
    ) {
        for semantics in MODES {
            for selection in SELECTIONS {
                let reference = reference_answer(&pat, &rel, semantics, selection);
                let streamed = stream_union(&pat, &rel, options(semantics, selection));
                prop_assert_eq!(
                    &streamed, &reference,
                    "{:?}/{:?}: stream diverged", semantics, selection
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dense groups, streaming: same workloads through the watermark
    /// pipeline — tie-heavy seams make group decidability and survivor
    /// pruning fire mid-group, exactly where an index staleness bug
    /// would surface as a missing or surplus match.
    #[test]
    fn dense_stream_equals_pairwise_reference(
        rel in dense_relation_strategy(),
        pat in dense_pattern_strategy(),
    ) {
        let selection = EventSelection::SkipTillAnyMatch;
        for semantics in [MatchSemantics::Maximal, MatchSemantics::Definition2] {
            let reference = reference_answer(&pat, &rel, semantics, selection);
            let streamed = stream_union(&pat, &rel, options(semantics, selection));
            prop_assert_eq!(&streamed, &reference, "{:?}: dense stream diverged", semantics);
        }
    }

    /// The multi-pattern bank: every pattern's output must be its own
    /// reference answer.
    #[test]
    fn bank_equals_pairwise_reference(
        rel in relation_strategy_with(2..8, 0..4),
        pats in proptest::collection::vec(pattern_strategy(), 1..3),
    ) {
        let selection = EventSelection::SkipTillNextMatch;
        for semantics in [MatchSemantics::Maximal, MatchSemantics::Definition2] {
            let mut b = PatternBank::builder(&schema());
            for (i, p) in pats.iter().enumerate() {
                b = b.register(format!("p{i}"), p, options(semantics, selection)).unwrap();
            }
            let streamed = bank_union(b.build(), &rel);
            for (i, p) in pats.iter().enumerate() {
                prop_assert_eq!(
                    &streamed[i], &reference_answer(p, &rel, semantics, selection),
                    "{:?}: pattern {} diverged", semantics, i
                );
            }
        }
    }
}

/// The dense generators keep their promise: a same-type run under a
/// group variable with skip-till-any-match really does put well over ten
/// candidates into one adjudication group — and `find` still reproduces
/// the reference answer on it.
#[test]
fn dense_groups_really_are_dense() {
    let mut rel = Relation::new(schema());
    for i in 0..9i64 {
        // Three ties per timestamp step: duplicate-timestamp city.
        rel.push_values(Timestamp::new(i / 3), [Value::from("A"), Value::from(1i64)])
            .unwrap();
    }
    let pat = Pattern::builder()
        .set(|s| s.plus("a"))
        .cond_const("a", "L", CmpOp::Eq, "A")
        .within(Duration::ticks(10))
        .build()
        .unwrap();
    let selection = EventSelection::SkipTillAnyMatch;
    let raw = batch_answer(&pat, &rel, options(MatchSemantics::AllRuns, selection));
    // All 2^8 runs share first event e1 → one group with 256 candidates.
    assert!(
        raw.len() > 10,
        "expected a dense group, got {} candidates",
        raw.len()
    );
    for semantics in [MatchSemantics::Maximal, MatchSemantics::Definition2] {
        assert_eq!(
            batch_answer(&pat, &rel, options(semantics, selection)),
            reference_answer(&pat, &rel, semantics, selection),
            "{semantics:?} diverged on the dense group"
        );
    }
}

/// Adjudicator survivors round-trip through a bank checkpoint, of one
/// pattern and of two copies of it. The snapshot is taken
/// while a Maximal survivor is still live (within `2τ` of its `minT`),
/// encoded through the binary codec, decoded, restored — and the
/// restored bank's remaining emissions must equal the uninterrupted
/// run's, which can only happen if `restore_survivors` rebuilt the
/// survivor store and its posting lists correctly. `a` is a group
/// variable: a group-free pattern keeps no survivors to round-trip.
#[test]
fn bank_checkpoint_roundtrips_survivors() {
    let pat = Pattern::builder()
        .set(|s| s.plus("a"))
        .set(|s| s.var("b"))
        .cond_const("a", "L", CmpOp::Eq, "A")
        .cond_const("b", "L", CmpOp::Eq, "B")
        .within(Duration::ticks(10))
        .build()
        .unwrap();
    // (ts, type): the X@12 push decides the A@0 group and emits {a,b};
    // its survivor (minT = 0) stays live until the watermark reaches 20.
    let rows: [(i64, &str); 6] = [
        (0, "A"),
        (1, "B"),
        (12, "X"),
        (13, "A"),
        (14, "B"),
        (30, "X"),
    ];
    let split = 3; // checkpoint after the X@12 push
                   // Registered once or twice, the pattern snapshots as kind 2:
                   // each copy runs, and checkpoints, a matcher of its own.
    for copies in [1, 2] {
        let specs: Vec<(String, Pattern, MatcherOptions)> = (0..copies)
            .map(|i| {
                (
                    format!("p{i}"),
                    pat.clone(),
                    options(MatchSemantics::Maximal, EventSelection::SkipTillNextMatch),
                )
            })
            .collect();
        let build = || {
            let mut b = PatternBank::builder(&schema());
            for (name, p, o) in &specs {
                b = b.register(name.clone(), p, o.clone()).unwrap();
            }
            b.build()
        };
        let push_rows = |bank: &mut PatternBank, rows: &[(i64, &str)]| -> Vec<(usize, Match)> {
            let mut out = Vec::new();
            for (ts, ty) in rows {
                out.extend(
                    bank.push(Timestamp::new(*ts), [Value::from(*ty), Value::from(1i64)])
                        .unwrap(),
                );
            }
            out
        };

        // Uninterrupted reference run.
        let mut whole = build();
        let mut reference = push_rows(&mut whole, &rows);
        reference.extend(whole.finish());

        // Checkpointed run: push a prefix, snapshot through the codec,
        // restore, push the suffix.
        let mut bank = build();
        let mut emissions = push_rows(&mut bank, &rows[..split]);
        let snap = bank.snapshot();
        let has_survivor = snap
            .patterns
            .iter()
            .all(|p| !p.matcher.survivors.is_empty());
        assert!(
            has_survivor,
            "copies={copies}: snapshot carries no live survivor — the round-trip is vacuous"
        );
        let bytes = encode_snapshot(&MatcherSnapshot::Bank(snap));
        assert_eq!(bytes[0], 2, "snapshot kind");
        let MatcherSnapshot::Bank(decoded) = decode_snapshot(&bytes).unwrap();
        let mut restored = PatternBank::restore(&specs, &schema(), &decoded).unwrap();
        emissions.extend(push_rows(&mut restored, &rows[split..]));
        emissions.extend(restored.finish());

        assert_eq!(
            emissions, reference,
            "copies={copies}: restored bank diverged from the uninterrupted run"
        );
    }
}

/// `p+` over the `P` events, within `tau` ticks: every first-binding
/// group's maximal candidate is the `P`s of its own window, so
/// successive groups nest.
fn chain_pattern(tau: i64) -> Pattern {
    Pattern::builder()
        .set(|s| s.plus("p"))
        .cond_const("p", "L", CmpOp::Eq, "P")
        .within(Duration::ticks(tau))
        .build()
        .unwrap()
}

fn chain_relation(rows: &[(i64, &str)]) -> Relation {
    let mut rel = Relation::new(schema());
    for &(ts, ty) in rows {
        rel.push_values(Timestamp::new(ts), [Value::from(ty), Value::from(1i64)])
            .unwrap();
    }
    rel
}

/// Cross-group containment chains: `τ` plus rows in which each chain is
/// `P` events at `t`, `t + a` and `t + b` (`0 < a < b ≤ τ`), so the
/// groups of `t`, `t + a` and `t + b` hold `o ⊋ m ⊋ x` with `m` a
/// Definition-2 survivor that `o` kills — and, when `b = τ`, `o` sits
/// exactly at the `minT(x) − τ` cutoff. Each chain is followed by a few
/// `X` events that move the clock, and the next one may start inside the
/// previous chain's windows.
fn chain_strategy() -> impl Strategy<Value = (i64, Vec<(i64, &'static str)>)> {
    let chain = (any::<u8>(), any::<u8>(), 0i64..4, any::<u8>());
    (2i64..6, proptest::collection::vec(chain, 1..5)).prop_map(|(tau, chains)| {
        let mut rows = Vec::new();
        let mut t = 0;
        for (ra, rb, xs, rgap) in chains {
            let a = 1 + i64::from(ra) % (tau - 1);
            let b = a + 1 + i64::from(rb) % (tau - a);
            rows.extend([(t, "P"), (t + a, "P"), (t + b, "P")]);
            rows.extend((1..=xs).map(|i| (t + b + i, "X")));
            t += b + xs + 1 + i64::from(rgap) % (2 * tau);
        }
        (tau, rows)
    })
}

/// Streams `rel` through a Maximal matcher and checks after every push
/// that the killer store holds exactly the live finals: the matches
/// emitted so far whose `minT` is not before `watermark − 2τ`.
fn assert_store_holds_live_finals(
    pat: &Pattern,
    rel: &Relation,
    tau: i64,
    selection: EventSelection,
) -> Result<(), TestCaseError> {
    let mut sm =
        StreamMatcher::with_options(pat, &schema(), options(MatchSemantics::Maximal, selection))
            .unwrap();
    let mut final_starts = Vec::new();
    for e in rel.events() {
        for m in sm.push(e.ts(), e.values().to_vec()).unwrap() {
            final_starts.push(rel.event(m.first_event()).ts().ticks());
        }
        let cutoff = e.ts().ticks() - 2 * tau;
        let live = final_starts.iter().filter(|&&t| t >= cutoff).count();
        prop_assert_eq!(
            sm.retained_killers(),
            live,
            "after the push at {}: the store must hold the live finals only",
            e.ts()
        );
    }
    Ok(())
}

/// Each push's emissions, then the finish flush as one last entry.
fn push_schedule(sm: &mut StreamMatcher, rows: &[(i64, &str)]) -> Vec<Vec<Match>> {
    rows.iter()
        .map(|&(ts, ty)| {
            sm.push(Timestamp::new(ts), vec![Value::from(ty), Value::from(1i64)])
                .unwrap()
        })
        .collect()
}

/// What a checkpoint of a Maximal matcher held before the store was cut
/// to finals: every Definition-2 survivor of an adjudicated group whose
/// `minT` is not before `watermark − 2τ`, in adjudication order. Read off
/// a Definition-2 matcher over the same prefix — conditions 4–5 are
/// closed within a group, so its emissions are exactly those survivors.
fn definition2_survivors(
    pat: &Pattern,
    rows: &[(i64, &str)],
    tau: i64,
    selection: EventSelection,
) -> Vec<(Timestamp, Vec<(VarId, EventId)>)> {
    let opts = options(MatchSemantics::Definition2, selection);
    let mut def2 = StreamMatcher::with_options(pat, &schema(), opts).unwrap();
    let cutoff = rows.last().map_or(i64::MIN, |&(ts, _)| ts - 2 * tau);
    push_schedule(&mut def2, rows)
        .into_iter()
        .flatten()
        .map(|m| (Timestamp::new(rows[m.first_event().0 as usize].0), m))
        .filter(|(t, _)| t.ticks() >= cutoff)
        .map(|(t, m)| (t, m.bindings().to_vec()))
        .collect()
}

/// Restores a Maximal matcher from its checkpoint at `split` with the
/// survivor list widened to what earlier releases wrote (the finals plus
/// the Definition-2 survivors they killed), pushes the rest, and returns
/// how many survivors were added; its emissions must be the
/// uninterrupted run's, push for push.
fn resume_from_parent_checkpoint(
    pat: &Pattern,
    rows: &[(i64, &str)],
    tau: i64,
    split: usize,
    selection: EventSelection,
) -> Result<usize, TestCaseError> {
    let opts = options(MatchSemantics::Maximal, selection);
    let mut whole = StreamMatcher::with_options(pat, &schema(), opts.clone()).unwrap();
    let mut reference = push_schedule(&mut whole, rows);
    reference.push(whole.finish());

    let mut sm = StreamMatcher::with_options(pat, &schema(), opts.clone()).unwrap();
    let mut schedule = push_schedule(&mut sm, &rows[..split]);
    let mut snap = sm.snapshot();
    let wider = definition2_survivors(pat, &rows[..split], tau, selection);
    for s in &snap.survivors {
        prop_assert!(
            wider.contains(s),
            "a final {:?} is no Definition-2 survivor",
            s
        );
    }
    let added = wider.len() - snap.survivors.len();
    snap.survivors = wider;
    let mut restored = StreamMatcher::restore(pat, &schema(), opts, &snap).unwrap();
    schedule.extend(push_schedule(&mut restored, &rows[split..]));
    schedule.push(restored.finish());
    prop_assert_eq!(
        schedule,
        reference,
        "split {}: resuming from the wider survivor list diverged",
        split
    );
    Ok(added)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Chains whose middle link is a Definition-2 survivor killed in a
    /// later group than it was found: batch and stream return the
    /// pairwise reference's answer, and the stream's killer store holds
    /// the live finals and nothing else.
    #[test]
    fn cross_group_chains_equal_pairwise_reference(case in chain_strategy()) {
        let (tau, rows) = case;
        let pat = chain_pattern(tau);
        let rel = chain_relation(&rows);
        for selection in SELECTIONS {
            for semantics in [MatchSemantics::Maximal, MatchSemantics::Definition2] {
                let reference = reference_answer(&pat, &rel, semantics, selection);
                let opts = options(semantics, selection);
                prop_assert_eq!(&batch_answer(&pat, &rel, opts.clone()), &reference, "{:?}/{:?}: find", semantics, selection);
                prop_assert_eq!(&stream_union(&pat, &rel, opts), &reference, "{:?}/{:?}: stream", semantics, selection);
            }
            assert_store_holds_live_finals(&pat, &rel, tau, selection)?;
        }
    }

    /// A checkpoint whose survivor list is the finals plus the
    /// Definition-2 survivors they killed — what earlier releases wrote
    /// — resumes exactly like the uninterrupted run, at every split.
    #[test]
    fn parent_checkpoint_with_definition2_survivors_resumes(case in chain_strategy()) {
        let (tau, rows) = case;
        let pat = chain_pattern(tau);
        for selection in SELECTIONS {
            for split in 0..=rows.len() {
                resume_from_parent_checkpoint(&pat, &rows, tau, split, selection)?;
            }
        }
    }
}

/// The chain at its tightest: `P` at 0, 1, 2 within τ = 2, so the killer
/// `o` of the last group starts exactly at that group's `minT − τ`.
/// Definition 2 keeps all three links, maximality only `o`; and once
/// `m` is found killed, the store still holds `o` alone.
#[test]
fn chain_killer_at_the_cutoff_kills() {
    let tau = 2;
    let pat = chain_pattern(tau);
    let rows = [(0, "P"), (1, "P"), (2, "P"), (3, "X"), (4, "X"), (5, "X")];
    let rel = chain_relation(&rows);
    let p = |events: &[u32]| {
        Match::from_bindings(events.iter().map(|&e| (VarId(0), EventId(e))).collect())
    };
    let (o, m, x) = (p(&[0, 1, 2]), p(&[1, 2]), p(&[2]));
    assert!(x.is_proper_subset_of(&m) && m.is_proper_subset_of(&o));
    for selection in SELECTIONS {
        let def2 = batch_answer(&pat, &rel, options(MatchSemantics::Definition2, selection));
        assert_eq!(def2, [o.clone(), m.clone(), x.clone()], "{selection:?}");
        let maximal = batch_answer(&pat, &rel, options(MatchSemantics::Maximal, selection));
        assert_eq!(maximal, std::slice::from_ref(&o), "{selection:?}");
        assert_eq!(
            maximal,
            reference_answer(&pat, &rel, MatchSemantics::Maximal, selection)
        );

        // X@3 emits o; X@4 finds m killed (the cutoff 4 − 2τ = 0 is
        // minT(o)), leaving o the only killer; X@5 finds x killed, then
        // prunes o.
        let opts = options(MatchSemantics::Maximal, selection);
        let mut sm = StreamMatcher::with_options(&pat, &schema(), opts).unwrap();
        let mut killers = Vec::new();
        for (ts, ty) in rows {
            sm.push(Timestamp::new(ts), vec![Value::from(ty), Value::from(1i64)])
                .unwrap();
            killers.push(sm.retained_killers());
        }
        assert_eq!(killers, [0, 0, 0, 1, 1, 0], "{selection:?}");
        assert_store_holds_live_finals(&pat, &rel, tau, selection).unwrap();
    }
}

/// The same chain checkpointed after `m`'s group is decided (X@6 with
/// τ = 4): the parent-era survivor list carries `m` beside `o`, and the
/// restored matcher still kills `x` and emits nothing else.
#[test]
fn parent_checkpoint_resumes_on_the_chain() {
    let tau = 4;
    let pat = chain_pattern(tau);
    let rows = [(0, "P"), (1, "P"), (2, "P"), (6, "X"), (7, "X"), (20, "X")];
    for selection in SELECTIONS {
        let added = resume_from_parent_checkpoint(&pat, &rows, tau, 4, selection).unwrap();
        assert!(
            added > 0,
            "{selection:?}: the parent-era list adds nothing — the test is vacuous"
        );
    }
}

/// Patterns of [`pattern_strategy`] without a group variable: every
/// candidate binds each variable once, so none is a proper subset of
/// another.
fn group_free_pattern_strategy() -> impl Strategy<Value = Pattern> {
    pattern_strategy().prop_filter("group-free", |p| p.group_vars().next().is_none())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Without a group variable no candidate can dominate another:
    /// Maximal is Definition 2, both the pairwise reference's, and
    /// neither a stream nor a one-pattern bank keeps a killer after any
    /// push.
    #[test]
    fn group_free_patterns_keep_no_killers(
        rel in relation_strategy_with(2..8, 0..4),
        pat in group_free_pattern_strategy(),
    ) {
        for selection in SELECTIONS {
            let maximal = options(MatchSemantics::Maximal, selection);
            let found = batch_answer(&pat, &rel, maximal.clone());
            let def2 = batch_answer(&pat, &rel, options(MatchSemantics::Definition2, selection));
            prop_assert_eq!(&found, &def2, "{:?}: Maximal is not Definition 2", selection);
            for semantics in [MatchSemantics::Maximal, MatchSemantics::Definition2] {
                prop_assert_eq!(
                    &found, &reference_answer(&pat, &rel, semantics, selection),
                    "{:?}/{:?}: find diverged from the reference", semantics, selection
                );
            }

            let mut sm = StreamMatcher::with_options(&pat, &schema(), maximal.clone()).unwrap();
            let mut bank = PatternBank::builder(&schema())
                .register("p", &pat, maximal)
                .unwrap()
                .build();
            let mut streamed = Vec::new();
            for e in rel.events() {
                streamed.extend(sm.push(e.ts(), e.values().to_vec()).unwrap());
                bank.push(e.ts(), e.values().to_vec()).unwrap();
                prop_assert_eq!(sm.retained_killers(), 0, "{:?}: stream at {}", selection, e.ts());
                prop_assert_eq!(
                    bank.stats()[0].retained_killers, 0,
                    "{:?}: bank at {}", selection, e.ts()
                );
            }
            streamed.extend(sm.finish());
            streamed.sort();
            prop_assert_eq!(&streamed, &found, "{:?}: stream diverged", selection);
        }
    }
}

/// A checkpoint of a group-free pattern written by a release that kept
/// its finals as killers: restore drops them, the resumed emissions are
/// the uninterrupted run's push for push, and the next snapshot carries
/// no survivors.
#[test]
fn group_free_checkpoint_with_survivors_resumes_without_them() {
    let tau = 10;
    let pat = Pattern::builder()
        .set(|s| s.var("a"))
        .set(|s| s.var("b"))
        .cond_const("a", "L", CmpOp::Eq, "A")
        .cond_const("b", "L", CmpOp::Eq, "B")
        .within(Duration::ticks(tau))
        .build()
        .unwrap();
    // X@12 decides the A@0 group: its final (minT 0) was a live killer
    // in earlier releases' checkpoints until the watermark reached 20.
    let rows = [
        (0, "A"),
        (1, "B"),
        (12, "X"),
        (13, "A"),
        (14, "B"),
        (30, "X"),
    ];
    let mut carried = 0;
    for selection in SELECTIONS {
        let opts = options(MatchSemantics::Maximal, selection);
        let mut whole = StreamMatcher::with_options(&pat, &schema(), opts.clone()).unwrap();
        let mut reference = push_schedule(&mut whole, &rows);
        reference.push(whole.finish());

        for split in 0..=rows.len() {
            let mut sm = StreamMatcher::with_options(&pat, &schema(), opts.clone()).unwrap();
            let mut schedule = push_schedule(&mut sm, &rows[..split]);
            let mut snap = sm.snapshot();
            assert!(
                snap.survivors.is_empty(),
                "split {split}: a group-free pattern wrote survivors"
            );
            // What earlier releases stored: every final whose minT is not
            // before `watermark − 2τ` (Definition 2's finals, here).
            snap.survivors = definition2_survivors(&pat, &rows[..split], tau, selection);
            carried += snap.survivors.len();
            let mut restored =
                StreamMatcher::restore(&pat, &schema(), opts.clone(), &snap).unwrap();
            assert_eq!(restored.retained_killers(), 0, "split {split}");
            assert!(
                restored.snapshot().survivors.is_empty(),
                "split {split}: the next snapshot still carries survivors"
            );
            schedule.extend(push_schedule(&mut restored, &rows[split..]));
            schedule.push(restored.finish());
            assert_eq!(
                schedule, reference,
                "{selection:?}, split {split}: resume diverged"
            );
        }
    }
    assert!(
        carried > 0,
        "no split carried a survivor — the test is vacuous"
    );
}
