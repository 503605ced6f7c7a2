//! Differential suite for the multi-pattern bank: a [`PatternBank`]
//! fed each event **once** emits, per pattern, exactly what N
//! independent [`StreamMatcher`]s fed **every** event emit — the same
//! matches, in the same order, *at the same push* — across generated
//! pattern sets, all semantics modes and both selection strategies.
//!
//! The per-push granularity matters: it proves the watermark heartbeat
//! a skipped pattern receives is observationally identical to the push
//! it didn't get (finalization timing, eviction, tie handling), not
//! merely that the totals agree at the end. A second property drives a
//! checkpoint through the binary codec mid-stream and requires the
//! restored bank to finish the stream byte-for-byte like an
//! uninterrupted twin. A third runs every key-provable pattern on 1–3
//! hash lanes and requires the same schedule again — across a codec
//! round trip — so key sharding is an execution strategy like the index
//! and deduplication are. The soundness argument for why skipping cannot
//! change any pattern's answer is in `docs/patternbank.md`; the one for
//! lanes is in `docs/parallel.md`.
//!
//! The bank withholds a skipped pattern's heartbeat until the stream's
//! clock reaches the matcher's deadline, so every property runs twice:
//! over a dense relation (gaps of 0–2 ticks) and over one *paced by the
//! patterns' own windows* (`common::paced_relation`) — ties exactly at,
//! one tick before and one after `τ` and `2τ`, idle stretches of `7τ` —
//! and the independent matchers, heartbeat by nobody but pushed every
//! event, remain the oracle. Two more properties pin what deferral must
//! not show: checkpoint bytes, and a pattern subscribed mid-stream.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use common::{
    paced_relation, paced_rows_strategy, pattern_set_strategy, pattern_set_strategy_with_overlap,
    relation_strategy_with, schema,
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

fn options(semantics: MatchSemantics, selection: EventSelection) -> MatcherOptions {
    MatcherOptions {
        semantics,
        selection,
        ..MatcherOptions::default()
    }
}

/// Emission schedule of N independent stream matchers, each fed every
/// event: `schedule[push][pattern]` is what pattern `pattern` emitted
/// while consuming push `push`; the last entry is the finish flush.
fn independent_schedule(
    patterns: &[Pattern],
    rel: &Relation,
    opts: &MatcherOptions,
) -> Vec<Vec<Vec<Match>>> {
    let mut matchers: Vec<StreamMatcher> = patterns
        .iter()
        .map(|p| StreamMatcher::with_options(p, &schema(), opts.clone()).unwrap())
        .collect();
    let mut schedule = Vec::new();
    for e in rel.events() {
        schedule.push(
            matchers
                .iter_mut()
                .map(|sm| sm.push(e.ts(), e.values().to_vec()).unwrap())
                .collect(),
        );
    }
    schedule.push(matchers.into_iter().map(|sm| sm.finish()).collect());
    schedule
}

fn build_bank(patterns: &[Pattern], opts: &MatcherOptions) -> PatternBank {
    let mut builder = PatternBank::builder(&schema());
    for (i, p) in patterns.iter().enumerate() {
        builder = builder.register(format!("p{i}"), p, opts.clone()).unwrap();
    }
    builder.build()
}

/// The specs a restore of [`build_bank`]'s bank takes.
fn specs_of(patterns: &[Pattern], opts: &MatcherOptions) -> Vec<(String, Pattern, MatcherOptions)> {
    let named = patterns.iter().enumerate();
    named
        .map(|(i, p)| (format!("p{i}"), p.clone(), opts.clone()))
        .collect()
}

/// Buckets one push's `(pattern id, match)` pairs into per-pattern
/// lists, preserving each pattern's emission order.
fn bucket(n: usize, emitted: Vec<(usize, Match)>) -> Vec<Vec<Match>> {
    let mut row = vec![Vec::new(); n];
    for (i, m) in emitted {
        row[i].push(m);
    }
    row
}

/// The bank's emission schedule, same shape as [`independent_schedule`].
fn bank_schedule(
    patterns: &[Pattern],
    rel: &Relation,
    opts: &MatcherOptions,
) -> Vec<Vec<Vec<Match>>> {
    let mut bank = build_bank(patterns, opts);
    let mut schedule = Vec::new();
    for e in rel.events() {
        let emitted = bank.push(e.ts(), e.values().to_vec()).unwrap();
        schedule.push(bucket(patterns.len(), emitted));
    }
    schedule.push(bucket(patterns.len(), bank.finish()));
    schedule
}

/// The sets [`pattern_set_strategy_with_overlap`] generates are there
/// for their twins. Called with every case's bank and the property's
/// `[cases, cases that deduplicated]`: once 64 cases have gone by
/// without a twin the generator has drifted, and the property no longer
/// tests what it says.
fn count_twins(census: &[AtomicUsize; 2], bank: &PatternBank) {
    let deduplicated = usize::from(bank.sharing_plan().deduplicated() > 0);
    let cases = census[0].fetch_add(1, Ordering::Relaxed) + 1;
    let twins = census[1].fetch_add(deduplicated, Ordering::Relaxed) + deduplicated;
    assert!(
        cases < 64 || twins > 0,
        "{cases} cases and no bank deduplicated a pattern"
    );
}

/// Every pattern of `patterns` that proves a partition key under
/// `Auto` registered on `lanes` hash lanes, the rest plain — plus the
/// specs a restore of that bank takes.
fn build_bank_lanes(
    patterns: &[Pattern],
    opts: &MatcherOptions,
    lanes: usize,
) -> (PatternBank, Vec<(String, Pattern, MatcherOptions)>) {
    let auto = MatcherOptions {
        partition: PartitionMode::Auto,
        ..opts.clone()
    };
    let mut builder = PatternBank::builder(&schema());
    let mut specs = Vec::new();
    for (i, p) in patterns.iter().enumerate() {
        let name = format!("p{i}");
        builder = if PatternBank::lane_key(p, &schema(), &auto).is_ok() {
            builder.register_lanes(name.clone(), p, auto.clone(), lanes)
        } else {
            builder.register(name.clone(), p, auto.clone())
        }
        .unwrap();
        specs.push((name, p.clone(), auto.clone()));
    }
    (builder.build(), specs)
}

/// Checkpoint/restore of the whole bank mid-stream, through the binary
/// codec as `recover` would see it: on each of `rels` the restored bank
/// must come back in the identical plan and finish the stream exactly
/// like an uninterrupted twin (and therefore like the independent
/// matchers). A dedup member — a pattern without a matcher of its own —
/// serializes as the bumped codec kind 3; a plan that shares nothing
/// keeps the legacy layout.
fn restore_is_seamless(
    patterns: &[Pattern],
    rels: [&Relation; 2],
    opts: &MatcherOptions,
    cut_pick: usize,
) -> Result<(), TestCaseError> {
    let specs = specs_of(patterns, opts);
    for rel in rels {
        let cut = cut_pick % (rel.len() + 1);
        let mut live = build_bank(patterns, opts);
        let mut twin = build_bank(patterns, opts);
        let mut live_out = Vec::new();
        let mut twin_out = Vec::new();
        for e in &rel.events()[..cut] {
            live_out.extend(live.push(e.ts(), e.values().to_vec()).unwrap());
            twin_out.extend(twin.push(e.ts(), e.values().to_vec()).unwrap());
        }

        let bytes = ses::store::encode_snapshot(&MatcherSnapshot::Bank(live.snapshot()));
        drop(live);
        let kind = if twin.sharing_plan().is_trivial() {
            2
        } else {
            3
        };
        prop_assert_eq!(bytes[0], kind);
        let MatcherSnapshot::Bank(snap) = ses::store::decode_snapshot(&bytes).unwrap();
        let mut restored = PatternBank::restore(&specs, &schema(), &snap).unwrap();
        prop_assert_eq!(restored.sharing_plan(), twin.sharing_plan());
        prop_assert_eq!(restored.emitted_so_far(), twin.emitted_so_far());
        prop_assert_eq!(restored.consumed_events(), twin.consumed_events());
        prop_assert_eq!(restored.ties_at_watermark(), twin.ties_at_watermark());

        for e in &rel.events()[cut..] {
            live_out.extend(restored.push(e.ts(), e.values().to_vec()).unwrap());
            twin_out.extend(twin.push(e.ts(), e.values().to_vec()).unwrap());
        }
        live_out.extend(restored.finish());
        twin_out.extend(twin.finish());
        prop_assert_eq!(
            live_out,
            twin_out,
            "divergence after restore at cut {}",
            cut
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tentpole property: per pattern, per push, bank ≡ independent.
    #[test]
    fn bank_equals_independent_matchers(
        patterns in pattern_set_strategy(),
        rel in relation_strategy_with(2..10, 0i64..3),
        pace in paced_rows_strategy(2..10),
        mode in 0usize..3,
        sel in 0usize..2,
    ) {
        let opts = options(MODES[mode], SELECTIONS[sel]);
        for rel in [&rel, &paced_relation(&patterns, &pace)] {
            let want = independent_schedule(&patterns, rel, &opts);
            let got = bank_schedule(&patterns, rel, &opts);
            prop_assert_eq!(&got, &want, "schedules diverged");
        }
    }

    /// Deduplication against the same oracle: over pattern sets rebuilt
    /// to overlap — twins that run one matcher between them, near-twins
    /// that part ways at the last set and share nothing, and
    /// independents, mixed — the bank emits push-for-push exactly what
    /// the independent matchers emit. Running a twin's matcher once is
    /// an execution strategy, never an answer change.
    #[test]
    fn bank_sharing_equals_independent_matchers(
        patterns in pattern_set_strategy_with_overlap(75),
        rel in relation_strategy_with(2..10, 0i64..3),
        pace in paced_rows_strategy(2..10),
        mode in 0usize..3,
        sel in 0usize..2,
    ) {
        static CENSUS: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let opts = options(MODES[mode], SELECTIONS[sel]);
        count_twins(&CENSUS, &build_bank(&patterns, &opts));
        for rel in [&rel, &paced_relation(&patterns, &pace)] {
            let want = independent_schedule(&patterns, rel, &opts);
            let got = bank_schedule(&patterns, rel, &opts);
            prop_assert_eq!(&got, &want, "deduplication diverged from independent");
        }
    }

    /// Key sharding as one more way the bank routes: with every
    /// key-provable pattern on 1–3 hash lanes, the bank still emits per
    /// pattern, per push, exactly what the independent matchers (and so
    /// the unsharded bank) emit — across a checkpoint that travels
    /// through the binary codec mid-stream and restores its lane count
    /// from the snapshot.
    #[test]
    fn bank_lanes_equal_independent_matchers(
        patterns in pattern_set_strategy(),
        rel in relation_strategy_with(2..10, 0i64..3),
        pace in paced_rows_strategy(2..10),
        mode in 0usize..3,
        lanes in 1usize..4,
        cut_pick in 0usize..1000,
    ) {
        let opts = options(MODES[mode], EventSelection::SkipTillNextMatch);
        for rel in [&rel, &paced_relation(&patterns, &pace)] {
            let cut = cut_pick % (rel.len() + 1);
            let want = independent_schedule(&patterns, rel, &opts);
            let (mut bank, specs) = build_bank_lanes(&patterns, &opts, lanes);
            let mut got = Vec::new();
            for (n, e) in rel.events().iter().enumerate() {
                if n == cut {
                    let snap = MatcherSnapshot::Bank(bank.snapshot());
                    let bytes = ses::store::encode_snapshot(&snap);
                    let MatcherSnapshot::Bank(snap) =
                        ses::store::decode_snapshot(&bytes).unwrap();
                    bank = PatternBank::restore(&specs, &schema(), &snap).unwrap();
                }
                let emitted = bank.push(e.ts(), e.values().to_vec()).unwrap();
                got.push(bucket(patterns.len(), emitted));
            }
            got.push(bucket(patterns.len(), bank.finish()));
            prop_assert_eq!(&got, &want, "lanes diverged (lanes={}, cut={})", lanes, cut);
        }
    }

    /// [`restore_is_seamless`] over the plain pattern sets. On the paced
    /// relation the cut routinely falls inside an idle stretch, with
    /// heartbeats withheld on either side of it.
    #[test]
    fn bank_checkpoint_restore_is_seamless(
        patterns in pattern_set_strategy(),
        rel in relation_strategy_with(3..10, 0i64..3),
        pace in paced_rows_strategy(3..10),
        mode in 0usize..3,
        cut_pick in 0usize..1000,
    ) {
        let opts = options(MODES[mode], EventSelection::SkipTillNextMatch);
        restore_is_seamless(&patterns, [&rel, &paced_relation(&patterns, &pace)], &opts, cut_pick)?;
    }

    /// [`restore_is_seamless`] over high-overlap pattern sets, where the
    /// snapshots routinely hold dedup members.
    #[test]
    fn shared_bank_checkpoint_restore_is_seamless(
        patterns in pattern_set_strategy_with_overlap(75),
        rel in relation_strategy_with(3..10, 0i64..3),
        pace in paced_rows_strategy(3..10),
        mode in 0usize..3,
        cut_pick in 0usize..1000,
    ) {
        static CENSUS: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let opts = options(MODES[mode], EventSelection::SkipTillNextMatch);
        count_twins(&CENSUS, &build_bank(&patterns, &opts));
        restore_is_seamless(&patterns, [&rel, &paced_relation(&patterns, &pace)], &opts, cut_pick)?;
    }

    /// Deferral leaves no trace in a checkpoint: at any cut, the bytes
    /// `encode_snapshot` writes for the bank equal those of a twin that
    /// was additionally handed `advance_watermark(ts)` after every push
    /// — every pattern and lane heartbeat to the clock every time, as
    /// the bank used to do — and restoring either and finishing the
    /// stream emits one schedule. With twins deduplicated, and on two
    /// hash lanes; dense and window-paced streams.
    #[test]
    fn checkpoint_bytes_do_not_show_deferred_heartbeats(
        patterns in pattern_set_strategy_with_overlap(50),
        rel in relation_strategy_with(3..10, 0i64..3),
        pace in paced_rows_strategy(3..10),
        mode in 0usize..3,
        on_lanes in proptest::bool::ANY,
        cut_pick in 0usize..1000,
    ) {
        static CENSUS: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let opts = options(MODES[mode], EventSelection::SkipTillNextMatch);
        let build = || {
            if on_lanes {
                return build_bank_lanes(&patterns, &opts, 2);
            }
            (build_bank(&patterns, &opts), specs_of(&patterns, &opts))
        };
        count_twins(&CENSUS, &build().0);
        for rel in [&rel, &paced_relation(&patterns, &pace)] {
            let cut = cut_pick % (rel.len() + 1);
            let (mut deferred, specs) = build();
            let (mut eager, _) = build();
            for e in &rel.events()[..cut] {
                let got = deferred.push(e.ts(), e.values().to_vec()).unwrap();
                let mut want = eager.push(e.ts(), e.values().to_vec()).unwrap();
                want.extend(eager.advance_watermark(e.ts()));
                prop_assert_eq!(got, want, "schedules diverged before the cut {}", cut);
            }
            let bytes = ses::store::encode_snapshot(&MatcherSnapshot::Bank(deferred.snapshot()));
            let eager_bytes = ses::store::encode_snapshot(&MatcherSnapshot::Bank(eager.snapshot()));
            prop_assert_eq!(&bytes, &eager_bytes, "checkpoint bytes differ at cut {}", cut);

            let MatcherSnapshot::Bank(snap) = ses::store::decode_snapshot(&bytes).unwrap();
            let mut restored = PatternBank::restore(&specs, &schema(), &snap).unwrap();
            let mut restored_out = Vec::new();
            let mut eager_out = Vec::new();
            for e in &rel.events()[cut..] {
                restored_out.extend(restored.push(e.ts(), e.values().to_vec()).unwrap());
                eager_out.extend(eager.push(e.ts(), e.values().to_vec()).unwrap());
                eager_out.extend(eager.advance_watermark(e.ts()));
            }
            restored_out.extend(restored.finish());
            eager_out.extend(eager.finish());
            prop_assert_eq!(restored_out, eager_out, "divergence after the cut {}", cut);
        }
    }

    /// `subscribe` in the middle of a stream — of idle stretches, of
    /// withheld heartbeats — starts the new patterns at the bank's
    /// clock: each emits, push for push and in global event ids, what
    /// an independent matcher started at that moment and fed every
    /// later event emits, and the patterns registered from the start are
    /// not disturbed.
    #[test]
    fn subscribed_patterns_join_at_the_clock(
        patterns in pattern_set_strategy(),
        rel in relation_strategy_with(3..10, 0i64..3),
        pace in paced_rows_strategy(3..10),
        mode in 0usize..3,
        early_pick in 0usize..1000,
        cut_pick in 0usize..1000,
    ) {
        let opts = options(MODES[mode], EventSelection::SkipTillNextMatch);
        // The first `early` patterns register up front, the rest at `cut`.
        let early = early_pick % (patterns.len() + 1);
        for rel in [&rel, &paced_relation(&patterns, &pace)] {
            let cut = cut_pick % (rel.len() + 1);
            let mut bank = build_bank(&patterns[..early], &opts);
            let mut oracle: Vec<Option<StreamMatcher>> = patterns
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    (i < early).then(|| StreamMatcher::with_options(p, &schema(), opts.clone()).unwrap())
                })
                .collect();
            // A late oracle numbers its events from 0; the bank reports
            // global ids.
            let globalize = |i: usize, m: Match| {
                let shift = if i < early { 0 } else { cut as u32 };
                Match::from_bindings(
                    m.bindings().iter().map(|&(v, e)| (v, EventId(e.0 + shift))).collect(),
                )
            };
            for (n, e) in rel.events().iter().enumerate() {
                if n == cut {
                    for (i, p) in patterns.iter().enumerate().skip(early) {
                        prop_assert_eq!(bank.subscribe(format!("p{i}"), p, opts.clone()), Ok(i));
                        oracle[i] = Some(StreamMatcher::with_options(p, &schema(), opts.clone()).unwrap());
                    }
                }
                let got = bucket(patterns.len(), bank.push(e.ts(), e.values().to_vec()).unwrap());
                for (i, sm) in oracle.iter_mut().enumerate() {
                    let want: Vec<Match> = match sm {
                        Some(sm) => sm
                            .push(e.ts(), e.values().to_vec())
                            .unwrap()
                            .into_iter()
                            .map(|m| globalize(i, m))
                            .collect(),
                        None => Vec::new(),
                    };
                    prop_assert_eq!(&got[i], &want, "pattern {} diverged at push {}", i, n);
                }
            }
            let seen = rel.len() as u64;
            for (i, s) in bank.stats().iter().enumerate() {
                let since = if i < early { 0 } else { cut as u64 };
                prop_assert_eq!(s.hits + s.skips, seen - since, "pattern {} miscounts", i);
                prop_assert!(s.heartbeats <= s.skips);
            }
            let got = bucket(patterns.len(), bank.finish());
            for (i, sm) in oracle.into_iter().enumerate() {
                let want: Vec<Match> = sm
                    .map(|sm| sm.finish().into_iter().map(|m| globalize(i, m)).collect())
                    .unwrap_or_default();
                prop_assert_eq!(&got[i], &want, "pattern {} diverged at finish", i);
            }
        }
    }
}

/// Replays the committed regression seeds' shapes directly (belt and
/// braces on top of proptest's own seed replay): a pattern skipped for
/// the whole stream must still evict and finalize on time.
#[test]
fn skipped_pattern_finalizes_on_heartbeats_alone() {
    let ab = Pattern::builder()
        .set(|s| s.var("a").var("b"))
        .cond_const("a", "L", CmpOp::Eq, "A")
        .cond_const("b", "L", CmpOp::Eq, "B")
        .within(Duration::ticks(4))
        .build()
        .unwrap();
    let x_only = Pattern::builder()
        .set(|s| s.var("x"))
        .cond_const("x", "L", CmpOp::Eq, "X")
        .within(Duration::ticks(4))
        .build()
        .unwrap();
    let opts = MatcherOptions::default();
    let mut bank = build_bank(&[ab, x_only], &opts);
    // No X ever arrives: pattern 1 lives on heartbeats only.
    let mut out = Vec::new();
    for (t, l) in [(1, "A"), (1, "B"), (1, "A"), (3, "B"), (9, "A"), (10, "B")] {
        out.extend(
            bank.push(Timestamp::new(t), [Value::from(l), Value::from(1i64)])
                .unwrap(),
        );
    }
    let stats = bank.stats();
    assert_eq!(stats[1].hits, 0, "X pattern saw an event");
    assert_eq!(stats[1].skips, 6);
    out.extend(bank.finish());
    assert!(out.iter().all(|(i, _)| *i == 0));
    assert!(!out.is_empty(), "the ab pattern should have matched");
}

/// The bank's cost model, counted not timed, on the bank workload at
/// 4 / 16 / 64 / 256 patterns: the index routes each event to fewer
/// matchers than `patterns`, and the patterns an event is *not* routed
/// to — 3 or 255 of them — cost fewer than two heartbeats per event
/// between them, and no more in all than the raw candidates the bank
/// found: a skipped matcher is heartbeat only when a candidate of its
/// own comes due, each heartbeat decides at least one, and each
/// candidate is decided once.
#[test]
fn skipped_patterns_cost_under_two_heartbeats_per_event() {
    use ses::workload::bank::{generate, patterns, schema, BankConfig};
    const EVENTS: usize = 2_000;
    for n in [4usize, 16, 64, 256] {
        let cfg = BankConfig::small().with_patterns(n).with_events(EVENTS);
        let mut builder = PatternBank::builder(&schema());
        for (name, p) in patterns(&cfg) {
            builder = builder
                .register(name, &p, MatcherOptions::default())
                .unwrap();
        }
        let mut bank = builder.build();
        let mut probe = CountingProbe::new();
        for e in generate(&cfg).events() {
            bank.push_with_probe(e.ts(), e.values().to_vec(), &mut probe)
                .unwrap();
        }
        let routed = bank.total_hits();
        assert!(
            routed < (n * EVENTS) as u64,
            "{n} patterns: {routed} routed pushes of {} — the index routed nothing away",
            n * EVENTS
        );
        let heartbeats: u64 = bank.stats().iter().map(|s| s.heartbeats).sum();
        assert!(
            heartbeats < 2 * EVENTS as u64,
            "{n} patterns executed {:.2} heartbeats per event",
            heartbeats as f64 / EVENTS as f64
        );
        assert!(probe.matches_emitted > 0, "{n} patterns found no candidate");
        assert!(
            heartbeats <= probe.matches_emitted,
            "{n} patterns executed {heartbeats} heartbeats for {} raw candidates",
            probe.matches_emitted
        );
    }
}

/// `{a, b} ; {c}` fully correlated on `ID`, which makes `ID` a proven
/// partition key.
fn keyed_pattern() -> Pattern {
    Pattern::builder()
        .set(|s| s.var("a").var("b"))
        .set(|s| s.var("c"))
        .cond_const("a", "L", CmpOp::Eq, "A")
        .cond_const("b", "L", CmpOp::Eq, "B")
        .cond_const("c", "L", CmpOp::Eq, "X")
        .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
        .cond_vars("a", "ID", CmpOp::Eq, "c", "ID")
        .within(Duration::ticks(10))
        .build()
        .unwrap()
}

/// The starvation regression: a complete match sits on one key's lane
/// while *only another key* keeps arriving. The foreign pushes must
/// heartbeat the idle lane so it emits at the push an unsharded matcher
/// emits at — not at its own next event, not at `finish`. Swept over
/// enough second keys that some share the first key's lane and some do
/// not, on 2 and 3 lanes.
#[test]
fn idle_lane_emits_on_foreign_pushes() {
    let pattern = keyed_pattern();
    let opts = MatcherOptions::default();
    for lanes in [2, 3] {
        for other in 2i64..24 {
            let mut rel = Relation::new(schema());
            for (t, l, id) in [
                (0, "A", 1),
                (1, "B", 1),
                (2, "X", 1),
                (9, "A", other),
                (50, "A", other),
                (51, "B", other),
            ] {
                rel.push_values(Timestamp::new(t), [Value::from(l), Value::from(id)])
                    .unwrap();
            }
            let patterns = [pattern.clone()];
            let want = independent_schedule(&patterns, &rel, &opts);
            assert_eq!(want[4][0].len(), 1, "key 1's match is due at the t=50 push");
            let (mut bank, _) = build_bank_lanes(&patterns, &opts, lanes);
            assert_eq!(bank.stats()[0].lanes, lanes);
            let mut got = Vec::new();
            for e in rel.events() {
                got.push(bucket(1, bank.push(e.ts(), e.values().to_vec()).unwrap()));
            }
            // The idle lane's decided window is reclaimed too.
            assert!(bank.stats()[0].evicted_events >= 3);
            got.push(bucket(1, bank.finish()));
            assert_eq!(got, want, "lanes={lanes} other={other}");
        }
    }
}

/// Key sharding keeps its measured effect, counted not timed: the
/// paper's Q1 over a four-ward chemotherapy stream evaluates at most a
/// third of the unsharded run's transitions on four lanes (per-lane
/// `|Ω|` shrinks to the lane's own patients).
///
/// The match *stream* is compared on the single-ward input only. On the
/// four-ward one Q1's correlated group variable `p+` meets greedy
/// skip-till-next-match: before `c` binds, a `p+` run also absorbs the
/// P events of whichever other patients share its matcher, and is then
/// derailed — so which runs survive depends on who shares a matcher,
/// for lanes exactly as for `find_partitioned` and for the parent
/// commit's sharded matcher (same 1 040 matches, different members).
/// What must hold there is that every match stays within one patient.
#[test]
fn four_lanes_cut_transitions_to_a_third_on_chemo_q1() {
    use ses::workload::chemo::{generate, ChemoConfig};
    let q1 = ses::workload::paper::query_q1();
    let auto = MatcherOptions {
        partition: PartitionMode::Auto,
        ..MatcherOptions::default()
    };
    let run = |ward: &Relation, lanes: Option<usize>| {
        let builder = PatternBank::builder(ward.schema());
        let mut bank = match lanes {
            Some(n) => builder.register_lanes("q1", &q1, auto.clone(), n),
            None => builder.register("q1", &q1, auto.clone()),
        }
        .unwrap()
        .build();
        let mut probe = CountingProbe::new();
        let mut matches = Vec::new();
        for e in ward.events() {
            matches.extend(
                bank.push_with_probe(e.ts(), e.values().to_vec(), &mut probe)
                    .unwrap(),
            );
        }
        matches.extend(bank.finish());
        (matches, probe.transitions_evaluated)
    };

    let small = generate(&ChemoConfig::small());
    let (global, _) = run(&small, None);
    assert!(!global.is_empty());
    assert_eq!(
        run(&small, Some(4)).0,
        global,
        "lanes changed the match stream"
    );

    let wards = generate(&ChemoConfig::paper_d1().scaled(4.0).with_seed(2011));
    let (global, global_work) = run(&wards, None);
    let (sharded, sharded_work) = run(&wards, Some(4));
    assert_eq!(sharded.len(), global.len());
    let id = wards.schema().attr_id("ID").unwrap();
    for (_, m) in &sharded {
        let mut patients = m.events().map(|e| wards.event(e).value(id));
        let first = patients.next().unwrap();
        assert!(patients.all(|p| p == first), "match spans patients: {m}");
    }
    assert!(
        sharded_work * 3 <= global_work,
        "4 lanes evaluated {sharded_work} transitions, unsharded {global_work}"
    );
}
