//! Differential suite for the indexed adjudicator: the default
//! [`AdjudicationMode::Indexed`] backend (sorted group candidates,
//! posting-list and prefix-hash indexes, bounded viable-event sweeps)
//! must be *observably identical* to the legacy pairwise `O(R²)` scans
//! it replaced — [`AdjudicationMode::Pairwise`], retained exactly for
//! this role of brute-force oracle.
//!
//! Identical means more than equal match sets: the streaming legs
//! compare the push-for-push **emission schedule**, so the indexed
//! backend may not even reorder or delay an emission. Coverage spans
//! semantics × selection strategy × eviction × batch/stream ×
//! global/key-sharded execution × the multi-pattern bank, on both the
//! oracle-shared generators (`common/`) and dense same-group workloads
//! (group variables under skip-till-any-match: nested containment
//! chains, duplicate timestamps, equal start/end intervals — routinely
//! dozens of candidates in one adjudication group).

mod common;

use proptest::prelude::*;

use common::{
    dense_pattern_strategy, dense_relation_strategy, pattern_strategy, relation_strategy_with,
    schema,
};
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

fn options(
    semantics: MatchSemantics,
    selection: EventSelection,
    adjudication: AdjudicationMode,
) -> MatcherOptions {
    MatcherOptions {
        semantics,
        selection,
        adjudication,
        ..MatcherOptions::default()
    }
}

/// Batch answer in the matcher's own emission order — the suite asserts
/// exact (ordered) equality, not just set equality.
fn batch_answer(pat: &Pattern, rel: &Relation, opts: MatcherOptions) -> Vec<Match> {
    Matcher::with_options(pat, &schema(), opts)
        .unwrap()
        .find(rel)
}

/// Replays `rel` through a stream matcher; returns the per-push emission
/// schedule plus the finish flush (last entry).
fn stream_schedule(
    pat: &Pattern,
    rel: &Relation,
    opts: MatcherOptions,
    evict: bool,
) -> Vec<Vec<Match>> {
    let mut sm = StreamMatcher::with_options(pat, &schema(), opts)
        .unwrap()
        .with_eviction(evict);
    let mut schedule = Vec::new();
    for e in rel.events() {
        schedule.push(sm.push(e.ts(), e.values().to_vec()).unwrap());
    }
    schedule.push(sm.finish());
    schedule
}

/// As [`stream_schedule`] but through `lanes` hash lanes of a bank;
/// `None` when the pattern proves no partition key (lane registration
/// refuses).
fn lanes_schedule(
    pat: &Pattern,
    rel: &Relation,
    opts: MatcherOptions,
    lanes: usize,
) -> Option<Vec<Vec<(usize, Match)>>> {
    let opts = MatcherOptions {
        partition: PartitionMode::Auto,
        ..opts
    };
    let mut bank = PatternBank::builder(&schema())
        .register_lanes("p", pat, opts, lanes)
        .ok()?
        .build();
    let mut schedule = Vec::new();
    for e in rel.events() {
        schedule.push(bank.push(e.ts(), e.values().to_vec()).unwrap());
    }
    schedule.push(bank.finish());
    Some(schedule)
}

/// Replays `rel` through a [`PatternBank`] holding every pattern under
/// `adjudication`; returns the per-push `(pattern, match)` schedule plus
/// the finish flush.
fn bank_schedule(
    patterns: &[Pattern],
    rel: &Relation,
    semantics: MatchSemantics,
    adjudication: AdjudicationMode,
    sharing: bool,
) -> Vec<Vec<(usize, Match)>> {
    let mut b = PatternBank::builder(&schema()).with_sharing(sharing);
    for (i, p) in patterns.iter().enumerate() {
        b = b
            .register(
                format!("p{i}"),
                p,
                options(semantics, EventSelection::SkipTillNextMatch, adjudication),
            )
            .unwrap();
    }
    let mut bank = b.build();
    let mut schedule = Vec::new();
    for e in rel.events() {
        schedule.push(bank.push(e.ts(), e.values().to_vec()).unwrap());
    }
    schedule.push(bank.finish());
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Batch `find`: the indexed adjudicator returns exactly the
    /// pairwise oracle's answer — same matches, same order — for every
    /// semantics and selection strategy.
    #[test]
    fn batch_indexed_equals_pairwise(
        rel in relation_strategy_with(2..8, 0..4),
        pat in pattern_strategy(),
    ) {
        for semantics in MODES {
            for selection in SELECTIONS {
                let indexed = batch_answer(
                    &pat, &rel, options(semantics, selection, AdjudicationMode::Indexed));
                let pairwise = batch_answer(
                    &pat, &rel, options(semantics, selection, AdjudicationMode::Pairwise));
                prop_assert_eq!(
                    &indexed, &pairwise,
                    "{:?}/{:?}: indexed diverged from pairwise", semantics, selection
                );
            }
        }
    }

    /// Streaming: the per-push emission schedules (including the finish
    /// flush) are identical under both adjudicators, with eviction on
    /// and off — the indexed backend may not reorder, delay, or drop a
    /// single emission.
    #[test]
    fn stream_indexed_equals_pairwise(
        rel in relation_strategy_with(2..8, 0..4),
        pat in pattern_strategy(),
    ) {
        for semantics in MODES {
            for selection in SELECTIONS {
                for evict in [true, false] {
                    let indexed = stream_schedule(
                        &pat, &rel, options(semantics, selection, AdjudicationMode::Indexed), evict);
                    let pairwise = stream_schedule(
                        &pat, &rel, options(semantics, selection, AdjudicationMode::Pairwise), evict);
                    prop_assert_eq!(
                        &indexed, &pairwise,
                        "{:?}/{:?} evict={}: schedules diverged", semantics, selection, evict
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dense groups, batch: group variables under skip-till-any-match
    /// flood single adjudication groups with dozens of nested /
    /// tie-heavy candidates — the regime the indexed backend's prefix
    /// hashes, posting lists, and duplicate-timestamp interval logic
    /// must survive. Skip-till-next-match rides along for breadth.
    #[test]
    fn dense_batch_indexed_equals_pairwise(
        rel in dense_relation_strategy(),
        pat in dense_pattern_strategy(),
    ) {
        for semantics in MODES {
            for selection in SELECTIONS {
                let indexed = batch_answer(
                    &pat, &rel, options(semantics, selection, AdjudicationMode::Indexed));
                let pairwise = batch_answer(
                    &pat, &rel, options(semantics, selection, AdjudicationMode::Pairwise));
                prop_assert_eq!(
                    &indexed, &pairwise,
                    "{:?}/{:?}: indexed diverged on a dense group", semantics, selection
                );
            }
        }
    }

    /// Dense groups, streaming: same workloads through the watermark
    /// pipeline — tie-heavy seams make group decidability and survivor
    /// pruning fire mid-group, exactly where an index staleness bug
    /// would surface as a schedule difference.
    #[test]
    fn dense_stream_indexed_equals_pairwise(
        rel in dense_relation_strategy(),
        pat in dense_pattern_strategy(),
    ) {
        let selection = EventSelection::SkipTillAnyMatch;
        for semantics in [MatchSemantics::Maximal, MatchSemantics::Definition2] {
            for evict in [true, false] {
                let indexed = stream_schedule(
                    &pat, &rel, options(semantics, selection, AdjudicationMode::Indexed), evict);
                let pairwise = stream_schedule(
                    &pat, &rel, options(semantics, selection, AdjudicationMode::Pairwise), evict);
                prop_assert_eq!(
                    &indexed, &pairwise,
                    "{:?} evict={}: dense schedules diverged", semantics, evict
                );
            }
        }
    }

    /// Key-sharded streaming (1–3 bank lanes): every lane adjudicates
    /// its own groups indexed; the merged schedule must still reproduce
    /// the pairwise one. Patterns proving no partition key are skipped
    /// (lane registration refuses them).
    #[test]
    fn lanes_indexed_equals_pairwise(
        rel in relation_strategy_with(2..8, 0..4),
        pat in pattern_strategy(),
        lanes in 1usize..4,
    ) {
        for semantics in [MatchSemantics::Maximal, MatchSemantics::Definition2] {
            let selection = EventSelection::SkipTillNextMatch;
            let indexed = lanes_schedule(
                &pat, &rel, options(semantics, selection, AdjudicationMode::Indexed), lanes);
            let pairwise = lanes_schedule(
                &pat, &rel, options(semantics, selection, AdjudicationMode::Pairwise), lanes);
            prop_assert_eq!(
                &indexed, &pairwise,
                "{:?} lanes={}: lane schedules diverged", semantics, lanes
            );
        }
    }

    /// The multi-pattern bank: every registered pattern adjudicates
    /// through its own `MatcherOptions`, with and without structural
    /// sharing — the `(pattern, match)` schedules must agree.
    #[test]
    fn bank_indexed_equals_pairwise(
        rel in relation_strategy_with(2..8, 0..4),
        pats in proptest::collection::vec(pattern_strategy(), 1..3),
        sharing in proptest::bool::ANY,
    ) {
        for semantics in [MatchSemantics::Maximal, MatchSemantics::Definition2] {
            let indexed = bank_schedule(&pats, &rel, semantics, AdjudicationMode::Indexed, sharing);
            let pairwise = bank_schedule(&pats, &rel, semantics, AdjudicationMode::Pairwise, sharing);
            prop_assert_eq!(
                &indexed, &pairwise,
                "{:?} sharing={}: bank schedules diverged", semantics, sharing
            );
        }
    }
}

/// The dense generators keep their promise: a same-type run under a
/// group variable with skip-till-any-match really does put well over ten
/// candidates into one adjudication group — and the indexed backend
/// still reproduces the pairwise answer on it.
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
    let raw = batch_answer(
        &pat,
        &rel,
        options(
            MatchSemantics::AllRuns,
            EventSelection::SkipTillAnyMatch,
            AdjudicationMode::Indexed,
        ),
    );
    // All 2^8 runs share first event e1 → one group with 256 candidates.
    assert!(
        raw.len() > 10,
        "expected a dense group, got {} candidates",
        raw.len()
    );
    for semantics in [MatchSemantics::Maximal, MatchSemantics::Definition2] {
        let indexed = batch_answer(
            &pat,
            &rel,
            options(
                semantics,
                EventSelection::SkipTillAnyMatch,
                AdjudicationMode::Indexed,
            ),
        );
        let pairwise = batch_answer(
            &pat,
            &rel,
            options(
                semantics,
                EventSelection::SkipTillAnyMatch,
                AdjudicationMode::Pairwise,
            ),
        );
        assert_eq!(
            indexed, pairwise,
            "{semantics:?} diverged on the dense group"
        );
    }
}

/// Adjudicator survivors round-trip through a bank checkpoint: kind 2
/// (plain bank) and kind 3 (shared structure). The snapshot is taken
/// while a Maximal survivor is still live (within `2τ` of its `minT`),
/// encoded through the binary codec, decoded, restored — and the
/// restored bank's remaining emissions must equal the uninterrupted
/// run's, which can only happen if `restore_survivors` rebuilt the
/// indexed survivor store correctly.
#[test]
fn bank_checkpoint_roundtrips_survivors() {
    let pat = Pattern::builder()
        .set(|s| s.var("a"))
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
                   // Registering the same pattern twice makes the sharing planner
                   // deduplicate them → a kind-3 snapshot; sharing off keeps kind 2.
    for sharing in [false, true] {
        let specs: Vec<(String, Pattern, MatcherOptions)> = (0..2)
            .map(|i| {
                (
                    format!("p{i}"),
                    pat.clone(),
                    options(
                        MatchSemantics::Maximal,
                        EventSelection::SkipTillNextMatch,
                        AdjudicationMode::Indexed,
                    ),
                )
            })
            .collect();
        let build = |sharing: bool| {
            let mut b = PatternBank::builder(&schema()).with_sharing(sharing);
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
        let mut whole = build(sharing);
        let mut reference = push_rows(&mut whole, &rows);
        reference.extend(whole.finish());

        // Checkpointed run: push a prefix, snapshot through the codec,
        // restore, push the suffix.
        let mut bank = build(sharing);
        let mut emissions = push_rows(&mut bank, &rows[..split]);
        let snap = bank.snapshot();
        let has_survivor = snap
            .patterns
            .iter()
            .filter_map(|p| p.matcher.as_ref())
            .chain(snap.pools.iter())
            .any(|s| !s.survivors.is_empty());
        assert!(
            has_survivor,
            "sharing={sharing}: snapshot carries no live survivor — the round-trip is vacuous"
        );
        let bytes = encode_snapshot(&MatcherSnapshot::Bank(snap));
        let MatcherSnapshot::Bank(decoded) = decode_snapshot(&bytes).unwrap();
        let mut restored = PatternBank::restore(&specs, &schema(), &decoded).unwrap();
        emissions.extend(push_rows(&mut restored, &rows[split..]));
        emissions.extend(restored.finish());

        assert_eq!(
            emissions, reference,
            "sharing={sharing}: restored bank diverged from the uninterrupted run"
        );
    }
}
