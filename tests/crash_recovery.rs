//! Crash-injection differential suite for the durability subsystem.
//!
//! Protocol under test (the one `ses-cli stream --checkpoint` /
//! `recover` implement): while streaming, the durable match sink is
//! synced and then a snapshot is checkpointed every N events; after a
//! crash, recovery restores the newest valid checkpoint, replays the
//! event-log suffix from the snapshot's replay timestamp (skipping the
//! already-consumed ties at that timestamp), and suppresses the first
//! `sink_lines − snapshot.emitted()` re-emitted matches. The suite
//! kills the run after *every* prefix length and asserts the recovered
//! match stream equals the uninterrupted run line for line — no loss,
//! no duplicates — for a bank of one, for 1–3 hash lanes, and for a
//! multi-pattern bank, under every semantics mode and both selection
//! strategies.
//!
//! The deterministic tests drive real `CheckpointStore`/`MatchLog`
//! files (atomicity, pruning, corrupted-checkpoint fallback, torn
//! sinks); the property tests round-trip every snapshot through the
//! binary codec in memory so thousands of (pattern, relation, kill
//! point) combinations stay fast.

mod common;

use proptest::prelude::*;

use common::{pattern_strategy, relation_strategy_with, schema};
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

/// The bank the single-pattern legs run: a bank of one, key-sharded over
/// `lanes` hash lanes when given (lane registration refuses
/// `PartitionMode::Off`, so those legs run under `Auto` — key proven by
/// the analyzer or the case is skipped).
fn build(
    pat: &Pattern,
    opts: &MatcherOptions,
    lanes: Option<usize>,
) -> Result<PatternBank, ses::core::CoreError> {
    let builder = PatternBank::builder(&schema());
    Ok(match lanes {
        None => builder.register("p", pat, opts.clone())?,
        Some(n) => builder.register_lanes("p", pat, laned_opts(opts), n)?,
    }
    .build())
}

fn laned_opts(opts: &MatcherOptions) -> MatcherOptions {
    MatcherOptions {
        partition: PartitionMode::Auto,
        ..opts.clone()
    }
}

/// Restores [`build`]'s bank; the lane count comes from the snapshot.
fn restore(pat: &Pattern, opts: &MatcherOptions, snap: &MatcherSnapshot) -> PatternBank {
    let MatcherSnapshot::Bank(snap) = snap;
    let specs = [("p".to_string(), pat.clone(), laned_opts(opts))];
    PatternBank::restore(&specs, &schema(), snap).unwrap()
}

fn push(bank: &mut PatternBank, e: &Event) -> Vec<Match> {
    bank.push(e.ts(), e.values().to_vec())
        .unwrap()
        .into_iter()
        .map(|(_, m)| m)
        .collect()
}

fn finish(bank: PatternBank) -> Vec<Match> {
    bank.finish().into_iter().map(|(_, m)| m).collect()
}

/// The uninterrupted reference: every match line the stream emits, in
/// emission order (pushes, then the finish flush).
fn uninterrupted(
    pat: &Pattern,
    rel: &Relation,
    opts: &MatcherOptions,
    lanes: Option<usize>,
) -> Vec<String> {
    let mut bank = build(pat, opts, lanes).unwrap();
    let mut lines = Vec::new();
    for (_, e) in rel.iter() {
        for m in push(&mut bank, e) {
            lines.push(m.display_with(pat).to_string());
        }
    }
    for m in finish(bank) {
        lines.push(m.display_with(pat).to_string());
    }
    lines
}

/// Runs the crash/recover protocol entirely in memory, round-tripping
/// each checkpoint through the binary codec: pushes `kill_after`
/// events with a checkpoint every `every`, "crashes", restores the
/// latest checkpoint (if any), replays the suffix with tie skipping
/// and exactly-once suppression, and returns the durable sink.
///
/// `durable_tail` controls how many post-checkpoint sink lines survive
/// the crash: `true` keeps them all (sink flushed right before the
/// kill), `false` drops back to the checkpoint's high-water mark (the
/// worst legal loss, since the sink is synced before every save).
/// Suppression must produce the identical stream either way.
fn crash_and_recover(
    pat: &Pattern,
    rel: &Relation,
    opts: &MatcherOptions,
    lanes: Option<usize>,
    kill_after: usize,
    every: usize,
    durable_tail: bool,
) -> Vec<String> {
    let events: Vec<Event> = rel.iter().map(|(_, e)| e.clone()).collect();

    // Phase 1: the run that dies after `kill_after` pushes.
    let mut sm = build(pat, opts, lanes).unwrap();
    let mut sink: Vec<String> = Vec::new();
    let mut ckpt: Option<(Vec<u8>, u64)> = None; // (encoded snapshot, sink lines at save)
    let mut since = 0usize;
    for e in &events[..kill_after] {
        for m in push(&mut sm, e) {
            sink.push(m.display_with(pat).to_string());
        }
        since += 1;
        if since >= every {
            since = 0;
            // Sink syncs before the snapshot is saved — the invariant
            // suppression relies on.
            let snap = MatcherSnapshot::Bank(sm.snapshot());
            ckpt = Some((encode_snapshot(&snap), sink.len() as u64));
        }
    }
    drop(sm); // the crash

    if !durable_tail {
        let durable = ckpt.as_ref().map_or(0, |(_, lines)| *lines) as usize;
        sink.truncate(durable);
    }

    // Phase 2: recovery.
    let (mut sm, replay, skip, emitted_at_ckpt) = match &ckpt {
        Some((bytes, _)) => {
            let snap = decode_snapshot(bytes).expect("checkpoint round-trips");
            let sm = restore(pat, opts, &snap);
            // The event-log replay: everything at or after the snapshot's
            // replay timestamp, in append order (`scan_range(from, MAX)`).
            let replay: Vec<Event> = match snap.replay_from() {
                Some(from) => events.iter().filter(|e| e.ts() >= from).cloned().collect(),
                None => events.clone(),
            };
            let skip = sm.ties_at_watermark();
            (sm, replay, skip, snap.emitted())
        }
        None => {
            // Killed before the first checkpoint: cold-start over the
            // whole log.
            let sm = build(pat, opts, lanes).unwrap();
            (sm, events.clone(), 0, 0)
        }
    };

    let mut suppress = (sink.len() as u64).saturating_sub(emitted_at_ckpt);
    let mut emit = |m: &Match, sink: &mut Vec<String>| {
        if suppress > 0 {
            suppress -= 1;
        } else {
            sink.push(m.display_with(pat).to_string());
        }
    };
    for e in replay.iter().skip(skip) {
        for m in push(&mut sm, e) {
            emit(&m, &mut sink);
        }
    }
    for m in finish(sm) {
        emit(&m, &mut sink);
    }
    sink
}

/// Every kill point, every cadence, both tail-durability outcomes:
/// recovery reproduces the uninterrupted stream exactly.
fn assert_exactly_once(pat: &Pattern, rel: &Relation, opts: &MatcherOptions, lanes: Option<usize>) {
    let reference = uninterrupted(pat, rel, opts, lanes);
    for every in [1, 2, 4] {
        for kill_after in 0..=rel.len() {
            for durable_tail in [true, false] {
                let recovered =
                    crash_and_recover(pat, rel, opts, lanes, kill_after, every, durable_tail);
                assert_eq!(
                    recovered, reference,
                    "divergence: every={every} kill_after={kill_after} \
                     durable_tail={durable_tail} lanes={lanes:?}"
                );
            }
        }
    }
}

/// A correlated two-set pattern over the shared test schema whose `ID`
/// equality clique makes `ID` a provable partition key, so the same
/// pattern runs unsharded and on lanes.
fn correlated_pattern() -> Pattern {
    Pattern::builder()
        .set(|s| {
            s.var("a");
            s.var("b")
        })
        .set(|s| s.var("c"))
        .cond_const("a", "L", CmpOp::Eq, "A")
        .cond_const("b", "L", CmpOp::Eq, "B")
        .cond_const("c", "L", CmpOp::Eq, "A")
        .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
        .cond_vars("a", "ID", CmpOp::Eq, "c", "ID")
        .cond_vars("b", "ID", CmpOp::Eq, "c", "ID")
        .within(Duration::ticks(8))
        .build()
        .unwrap()
}

/// A dense relation with timestamp ties (the watermark's hardest case):
/// ties at the replay point are exactly what `ties_at_watermark` skips.
fn tie_heavy_relation() -> Relation {
    let mut rel = Relation::new(schema());
    let rows: &[(i64, &str, i64)] = &[
        (0, "A", 1),
        (0, "B", 1),
        (1, "X", 2),
        (1, "A", 2),
        (1, "B", 2),
        (3, "A", 1),
        (3, "A", 2),
        (4, "B", 1),
        (4, "X", 1),
        (6, "A", 1),
        (6, "A", 1),
        (7, "B", 2),
        (9, "A", 2),
    ];
    for (t, l, id) in rows {
        rel.push_values(Timestamp::new(*t), [Value::from(*l), Value::from(*id)])
            .unwrap();
    }
    rel
}

#[test]
fn every_kill_point_recovers_exactly_once_global() {
    let pat = correlated_pattern();
    let rel = tie_heavy_relation();
    for semantics in MODES {
        for selection in SELECTIONS {
            assert_exactly_once(&pat, &rel, &options(semantics, selection), None);
        }
    }
}

#[test]
fn every_kill_point_recovers_exactly_once_on_lanes() {
    let pat = correlated_pattern();
    let rel = tie_heavy_relation();
    for semantics in MODES {
        let opts = options(semantics, EventSelection::SkipTillNextMatch);
        // Lanes change where work runs, never what is emitted when.
        let global = uninterrupted(&pat, &rel, &opts, None);
        for lanes in [1, 2, 3] {
            assert_eq!(uninterrupted(&pat, &rel, &opts, Some(lanes)), global);
            assert_exactly_once(&pat, &rel, &opts, Some(lanes));
        }
    }
}

/// Full on-disk protocol against real `CheckpointStore` + `MatchLog`
/// files, including pruning: kill after every prefix, recover from the
/// files alone, compare with the uninterrupted run.
#[test]
fn on_disk_checkpoints_recover_every_kill_point() {
    let pat = correlated_pattern();
    let rel = tie_heavy_relation();
    let opts = options(MatchSemantics::Maximal, EventSelection::SkipTillNextMatch);
    let reference = uninterrupted(&pat, &rel, &opts, None);
    let events: Vec<Event> = rel.iter().map(|(_, e)| e.clone()).collect();

    let base = std::env::temp_dir().join(format!(
        "ses-crash-disk-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    for kill_after in 0..=events.len() {
        let dir = base.join(format!("k{kill_after}"));
        std::fs::remove_dir_all(&dir).ok();

        // The crashing run.
        {
            let mut store = CheckpointStore::open(&dir, 2).unwrap();
            let mut sink = MatchLog::open(dir.join("matches.log")).unwrap();
            let mut sm = build(&pat, &opts, None).unwrap();
            for (i, e) in events[..kill_after].iter().enumerate() {
                for m in push(&mut sm, e) {
                    sink.append(&m.display_with(&pat).to_string()).unwrap();
                }
                if (i + 1) % 3 == 0 {
                    sink.sync().unwrap();
                    store.save(&MatcherSnapshot::Bank(sm.snapshot())).unwrap();
                }
            }
            sink.sync().unwrap();
            // Crash: both handles drop here.
        }

        // Recovery from the files alone.
        let store = CheckpointStore::open(&dir, 2).unwrap();
        let mut sink = MatchLog::open(dir.join("matches.log")).unwrap();
        let (mut sm, replay, skip, emitted_at_ckpt) = match store.load_latest().unwrap() {
            Some(l) => {
                let sm = restore(&pat, &opts, &l.snapshot);
                let replay: Vec<Event> = match l.snapshot.replay_from() {
                    Some(from) => events.iter().filter(|e| e.ts() >= from).cloned().collect(),
                    None => events.clone(),
                };
                let skip = sm.ties_at_watermark();
                (sm, replay, skip, l.snapshot.emitted())
            }
            None => (build(&pat, &opts, None).unwrap(), events.clone(), 0, 0),
        };
        let mut suppress = sink.lines().saturating_sub(emitted_at_ckpt);
        for e in replay.iter().skip(skip) {
            for m in push(&mut sm, e) {
                if suppress > 0 {
                    suppress -= 1;
                } else {
                    sink.append(&m.display_with(&pat).to_string()).unwrap();
                }
            }
        }
        for m in finish(sm) {
            if suppress > 0 {
                suppress -= 1;
            } else {
                sink.append(&m.display_with(&pat).to_string()).unwrap();
            }
        }
        sink.sync().unwrap();

        let text = std::fs::read_to_string(dir.join("matches.log")).unwrap();
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert_eq!(lines, reference, "kill_after={kill_after}");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A corrupted newest checkpoint is skipped; recovery falls back to the
/// previous valid one and replay covers the gap — still exactly-once.
#[test]
fn corrupted_checkpoint_falls_back_and_replays_the_gap() {
    let pat = correlated_pattern();
    let rel = tie_heavy_relation();
    let opts = options(MatchSemantics::Maximal, EventSelection::SkipTillNextMatch);
    let reference = uninterrupted(&pat, &rel, &opts, None);
    let events: Vec<Event> = rel.iter().map(|(_, e)| e.clone()).collect();

    let dir = std::env::temp_dir().join(format!(
        "ses-crash-corrupt-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();

    let mut store = CheckpointStore::open(&dir, 4).unwrap();
    let mut sink = MatchLog::open(dir.join("matches.log")).unwrap();
    let mut sm = build(&pat, &opts, None).unwrap();
    for (i, e) in events.iter().enumerate() {
        for m in push(&mut sm, e) {
            sink.append(&m.display_with(&pat).to_string()).unwrap();
        }
        if (i + 1) % 4 == 0 {
            sink.sync().unwrap();
            store.save(&MatcherSnapshot::Bank(sm.snapshot())).unwrap();
        }
    }
    sink.sync().unwrap();
    drop(sm); // crash mid-run, after the last checkpoint

    // Flip a payload byte in the newest checkpoint file.
    let infos = store.list().unwrap();
    assert!(infos.len() >= 2, "need a fallback checkpoint");
    let newest = infos.last().unwrap();
    let path = dir.join(format!("ckpt-{:010}.sesckpt", newest.seq));
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() - 1;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let loaded = store.load_latest().unwrap().expect("fallback exists");
    assert_eq!(loaded.skipped, 1, "exactly the corrupt one skipped");
    assert!(loaded.info.seq < newest.seq);

    let mut sm = restore(&pat, &opts, &loaded.snapshot);
    let replay: Vec<Event> = match loaded.snapshot.replay_from() {
        Some(from) => events.iter().filter(|e| e.ts() >= from).cloned().collect(),
        None => events.clone(),
    };
    let mut sink = MatchLog::open(dir.join("matches.log")).unwrap();
    let mut suppress = sink.lines().saturating_sub(loaded.snapshot.emitted());
    for e in replay.iter().skip(sm.ties_at_watermark()) {
        for m in push(&mut sm, e) {
            if suppress > 0 {
                suppress -= 1;
            } else {
                sink.append(&m.display_with(&pat).to_string()).unwrap();
            }
        }
    }
    for m in finish(sm) {
        if suppress > 0 {
            suppress -= 1;
        } else {
            sink.append(&m.display_with(&pat).to_string()).unwrap();
        }
    }
    sink.sync().unwrap();

    let text = std::fs::read_to_string(dir.join("matches.log")).unwrap();
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines, reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// A 3-pattern bank under the kill-point protocol: the whole bank is
/// checkpointed through the binary codec, the run dies after every
/// prefix, and recovery (restore + tie-skipping replay + suppression)
/// must reproduce the uninterrupted run's durable sink line for line —
/// exactly-once **per pattern**, including the pattern the predicate
/// index never routes an event to (heartbeats only).
#[test]
fn bank_kill_points_recover_exactly_once_per_pattern() {
    let opts = options(MatchSemantics::Maximal, EventSelection::SkipTillNextMatch);
    let x_only = Pattern::builder()
        .set(|s| s.var("x"))
        .cond_const("x", "L", CmpOp::Eq, "X")
        .within(Duration::ticks(3))
        .build()
        .unwrap();
    // `ID = 9` never occurs in the relation: this pattern lives on
    // watermark heartbeats alone, the recovery-sensitive skip path.
    let never = Pattern::builder()
        .set(|s| s.var("n"))
        .cond_const("n", "L", CmpOp::Eq, "A")
        .cond_const("n", "ID", CmpOp::Eq, 9)
        .within(Duration::ticks(3))
        .build()
        .unwrap();
    let specs: Vec<(String, Pattern, MatcherOptions)> = vec![
        ("clique".into(), correlated_pattern(), opts.clone()),
        ("x-only".into(), x_only, opts.clone()),
        ("never".into(), never, opts.clone()),
    ];
    let rel = tie_heavy_relation();
    let events: Vec<Event> = rel.iter().map(|(_, e)| e.clone()).collect();

    let build = || {
        let mut b = PatternBank::builder(&schema());
        for (name, pat, o) in &specs {
            b = b.register(name.clone(), pat, o.clone()).unwrap();
        }
        b.build()
    };
    let line = |i: usize, m: &Match| format!("{}: {}", specs[i].0, m.display_with(&specs[i].1));

    // The uninterrupted reference sink.
    let reference: Vec<String> = {
        let mut bank = build();
        let mut lines = Vec::new();
        for e in &events {
            for (i, m) in bank.push(e.ts(), e.values().to_vec()).unwrap() {
                lines.push(line(i, &m));
            }
        }
        for (i, m) in bank.finish() {
            lines.push(line(i, &m));
        }
        lines
    };
    assert!(
        reference.iter().any(|l| l.starts_with("clique:"))
            && reference.iter().any(|l| l.starts_with("x-only:")),
        "the workload must exercise at least two patterns: {reference:?}"
    );

    for kill_after in 0..=events.len() {
        for durable_tail in [true, false] {
            // Phase 1: the run that dies after `kill_after` pushes,
            // checkpointing every 2 events.
            let mut bank = build();
            let mut sink: Vec<String> = Vec::new();
            let mut ckpt: Option<(Vec<u8>, u64)> = None;
            for (n, e) in events[..kill_after].iter().enumerate() {
                for (i, m) in bank.push(e.ts(), e.values().to_vec()).unwrap() {
                    sink.push(line(i, &m));
                }
                if (n + 1) % 2 == 0 {
                    let bytes = encode_snapshot(&MatcherSnapshot::Bank(bank.snapshot()));
                    ckpt = Some((bytes, sink.len() as u64));
                }
            }
            drop(bank); // the crash
            if !durable_tail {
                let durable = ckpt.as_ref().map_or(0, |(_, lines)| *lines) as usize;
                sink.truncate(durable);
            }

            // Phase 2: recovery.
            let (mut bank, replay, skip, emitted_at_ckpt) = match &ckpt {
                Some((bytes, _)) => {
                    let snap = decode_snapshot(bytes).expect("checkpoint round-trips");
                    let MatcherSnapshot::Bank(ref s) = snap;
                    let bank = PatternBank::restore(&specs, &schema(), s).unwrap();
                    let replay: Vec<Event> = match snap.replay_from() {
                        Some(from) => events.iter().filter(|e| e.ts() >= from).cloned().collect(),
                        None => events.clone(),
                    };
                    let skip = bank.ties_at_watermark();
                    (bank, replay, skip, snap.emitted())
                }
                None => (build(), events.clone(), 0, 0),
            };
            let mut suppress = (sink.len() as u64).saturating_sub(emitted_at_ckpt);
            let mut emit = |i: usize, m: &Match, sink: &mut Vec<String>| {
                if suppress > 0 {
                    suppress -= 1;
                } else {
                    sink.push(line(i, m));
                }
            };
            for e in replay.iter().skip(skip) {
                for (i, m) in bank.push(e.ts(), e.values().to_vec()).unwrap() {
                    emit(i, &m, &mut sink);
                }
            }
            for (i, m) in bank.finish() {
                emit(i, &m, &mut sink);
            }

            assert_eq!(
                sink, reference,
                "divergence: kill_after={kill_after} durable_tail={durable_tail}"
            );
            // Exactly-once per pattern, explicitly.
            for (name, _, _) in &specs {
                let per = |lines: &[String]| {
                    lines
                        .iter()
                        .filter(|l| l.starts_with(&format!("{name}:")))
                        .cloned()
                        .collect::<Vec<_>>()
                };
                assert_eq!(per(&sink), per(&reference), "pattern `{name}` diverged");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generated patterns × tie-heavy relations × every kill point ×
    /// every semantics: recovery through the binary codec reproduces
    /// the uninterrupted stream exactly.
    #[test]
    fn recovered_stream_equals_uninterrupted_global(
        pat in pattern_strategy(),
        rel in relation_strategy_with(2..7, 0i64..3),
        semantics_ix in 0usize..3,
        selection_ix in 0usize..2,
    ) {
        let opts = options(MODES[semantics_ix], SELECTIONS[selection_ix]);
        let reference = uninterrupted(&pat, &rel, &opts, None);
        for kill_after in 0..=rel.len() {
            for durable_tail in [true, false] {
                let recovered = crash_and_recover(
                    &pat, &rel, &opts, None, kill_after, 2, durable_tail,
                );
                prop_assert_eq!(
                    &recovered, &reference,
                    "kill_after={} durable_tail={}", kill_after, durable_tail
                );
            }
        }
    }

    /// On 1–3 lanes, whenever the generated pattern proves a partition
    /// key (fully-correlated cliques do); unprovable patterns are
    /// skipped, not failed.
    #[test]
    fn recovered_stream_equals_uninterrupted_on_lanes(
        pat in pattern_strategy(),
        rel in relation_strategy_with(2..7, 0i64..3),
        semantics_ix in 0usize..3,
        lanes in 1usize..4,
    ) {
        let opts = options(MODES[semantics_ix], EventSelection::SkipTillNextMatch);
        // Skip (don't fail) patterns the analyzer cannot shard by key.
        if build(&pat, &opts, Some(lanes)).is_err() {
            return Ok(());
        }
        let reference = uninterrupted(&pat, &rel, &opts, Some(lanes));
        for kill_after in 0..=rel.len() {
            let recovered = crash_and_recover(
                &pat, &rel, &opts, Some(lanes), kill_after, 2, true,
            );
            prop_assert_eq!(&recovered, &reference, "kill_after={}", kill_after);
        }
    }
}
