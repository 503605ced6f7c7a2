//! Crash-injection differential suite for the durability subsystem.
//!
//! Code under test: `ses::store::DurableBank`, the one type behind
//! `ses-cli stream --checkpoint` / `recover` and `ses-server
//! --checkpoint` — the suite drives what ships, against real event-log,
//! checkpoint and match-sink files in a temp directory. A run pushes a
//! prefix of the log with a checkpoint every N events and is dropped
//! where it stands (no final checkpoint, no flush); recovery opens the
//! same directory, replays what the log still owes it, finishes, and
//! the sink file must equal the uninterrupted run line for line — no
//! loss, no duplicates — after *every* prefix length, for a bank of one
//! and for a multi-pattern bank, under every semantics mode and both
//! selection strategies.
//!
//! The reference, [`Case::uninterrupted`], is a plain `PatternBank` loop
//! that knows nothing of checkpoints.

mod common;

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use common::{pattern_strategy, relation_strategy_with, schema};
use ses::prelude::*;
use ses::store::{Checkpoints, DurableBank};

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

/// A bank under test: the registrations a recovery is given, which a
/// cold start builds.
struct Case {
    specs: Vec<(String, Pattern, MatcherOptions)>,
}

impl Case {
    /// A bank of one.
    fn one(pat: &Pattern, opts: &MatcherOptions) -> Case {
        Case {
            specs: vec![("p".to_string(), pat.clone(), opts.clone())],
        }
    }

    fn build(&self) -> Result<PatternBank, ses::core::CoreError> {
        let mut builder = PatternBank::builder(&schema());
        for (name, pat, opts) in &self.specs {
            builder = builder.register(name.clone(), pat, opts.clone())?;
        }
        Ok(builder.build())
    }

    fn line(&self, i: usize, m: &Match) -> String {
        let (name, pat, _) = &self.specs[i];
        format!("{name}: {}", m.display_with(pat))
    }

    /// The uninterrupted reference: every match line the stream emits,
    /// in emission order (pushes, then the finish flush).
    fn uninterrupted(&self, rel: &Relation) -> Vec<String> {
        let mut bank = self.build().unwrap();
        let mut lines = Vec::new();
        for (_, e) in rel.iter() {
            for (i, m) in bank.push(e.ts(), e.values().to_vec()).unwrap() {
                lines.push(self.line(i, &m));
            }
        }
        for (i, m) in bank.finish() {
            lines.push(self.line(i, &m));
        }
        lines
    }
}

/// A scratch directory of the calling test: `rel` as an event log, and
/// beside it the checkpoint directory each run starts empty.
struct Scratch {
    root: PathBuf,
    log: EventLog,
}

impl Scratch {
    fn new(tag: &str, rel: &Relation) -> Scratch {
        let root = std::env::temp_dir().join(format!("ses-crash-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let mut log =
            EventLog::create(root.join("events"), schema(), LogConfig::default()).unwrap();
        for (_, e) in rel.iter() {
            log.append(e.ts(), e.values().to_vec()).unwrap();
        }
        log.sync().unwrap();
        Scratch { root, log }
    }

    fn fresh_checkpoint_dir(&self) -> PathBuf {
        let dir = self.root.join("ckpt");
        std::fs::remove_dir_all(&dir).ok();
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

fn sink_lines(dir: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(dir.join("matches.log")).unwrap();
    text.lines().map(str::to_string).collect()
}

/// The run that dies: a cold start in `files.dir` that consumes the
/// first `kill_after` events of `log` and is dropped where it stands.
/// Returns the sink's line count at its last checkpoint.
fn crash(case: &Case, log: &EventLog, files: &Checkpoints, kill_after: usize) -> usize {
    let sinks = vec![files.dir.join("matches.log"); case.specs.len()];
    let mut bank = DurableBank::start(case.build().unwrap(), &sinks, Some(files)).unwrap();
    let events = bank.replay_suffix(log).unwrap();
    let mut probe = CountingProbe::new();
    let mut lines_at_save = 0;
    for e in &events[..kill_after] {
        for (i, m) in bank.push(e.ts(), e.values().to_vec(), &mut probe).unwrap() {
            bank.sinks().record(i, &case.line(i, &m)).unwrap();
        }
        let saved = probe.checkpoints;
        bank.checkpoint_if_due(None, &mut probe).unwrap();
        if probe.checkpoints > saved {
            lines_at_save = bank.sinks().recorded() as usize;
        }
    }
    lines_at_save
}

/// Recovery from the files alone: the newest valid checkpoint, the log
/// suffix it has not consumed, the finish flush. Returns the recovery
/// summary and the durable sink.
fn recover(case: &Case, log: &EventLog, files: &Checkpoints) -> (String, Vec<String>) {
    let sinks = vec![files.dir.join("matches.log"); case.specs.len()];
    let cold = || case.build().map_err(|e| e.to_string());
    let mut bank = DurableBank::recover(&case.specs, &sinks, &schema(), files, cold).unwrap();
    let events = bank.replay_suffix(log).unwrap();
    let summary = bank.recovery().to_string();
    for e in &events {
        for (i, m) in bank
            .push(e.ts(), e.values().to_vec(), &mut NoProbe)
            .unwrap()
        {
            bank.sinks().record(i, &case.line(i, &m)).unwrap();
        }
        bank.checkpoint_if_due(None, &mut NoProbe).unwrap();
    }
    let (flushed, mut sinks) = bank.finish(&mut NoProbe).unwrap();
    for (i, m) in flushed {
        sinks.record(i, &case.line(i, &m)).unwrap();
    }
    sinks.sync().unwrap();
    (summary, sink_lines(&files.dir))
}

/// [`crash`] after `kill_after` events with a checkpoint every `every`,
/// then [`recover`].
///
/// `durable_tail` controls how many post-checkpoint sink lines survive
/// the crash: `true` keeps them all (sink flushed right before the
/// kill), `false` truncates the sink file back to its line count at the
/// last checkpoint (the worst legal loss, since the sink is synced
/// before every save). Suppression must produce the identical stream
/// either way.
fn crash_and_recover(
    case: &Case,
    scratch: &Scratch,
    kill_after: usize,
    every: usize,
    durable_tail: bool,
) -> Vec<String> {
    let files = Checkpoints {
        dir: scratch.fresh_checkpoint_dir(),
        keep: 3,
        every,
    };
    let lines_at_save = crash(case, &scratch.log, &files, kill_after);
    if !durable_tail {
        let kept: String = sink_lines(&files.dir)[..lines_at_save]
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(files.dir.join("matches.log"), kept).unwrap();
    }
    recover(case, &scratch.log, &files).1
}

/// Every kill point, every cadence, both tail-durability outcomes:
/// recovery reproduces the uninterrupted stream exactly.
fn assert_exactly_once(case: &Case, rel: &Relation, tag: &str) {
    let reference = case.uninterrupted(rel);
    let scratch = Scratch::new(tag, rel);
    for every in [1, 2, 4] {
        for kill_after in 0..=rel.len() {
            for durable_tail in [true, false] {
                let recovered = crash_and_recover(case, &scratch, kill_after, every, durable_tail);
                assert_eq!(
                    recovered, reference,
                    "divergence: every={every} kill_after={kill_after} \
                     durable_tail={durable_tail}"
                );
            }
        }
    }
}

/// A correlated two-set pattern over the shared test schema: an `ID`
/// equality clique.
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
/// ties at the replay point are exactly what the replay has to skip.
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
            let case = Case::one(&pat, &options(semantics, selection));
            assert_exactly_once(&case, &rel, "global");
        }
    }
}

/// Pruning: with two checkpoints kept and one saved every third event,
/// every kill point still recovers from what is left on disk.
#[test]
fn on_disk_checkpoints_recover_every_kill_point() {
    let rel = tie_heavy_relation();
    let opts = options(MatchSemantics::Maximal, EventSelection::SkipTillNextMatch);
    let case = Case::one(&correlated_pattern(), &opts);
    let reference = case.uninterrupted(&rel);
    let scratch = Scratch::new("pruning", &rel);
    for kill_after in 0..=rel.len() {
        let files = Checkpoints {
            dir: scratch.fresh_checkpoint_dir(),
            keep: 2,
            every: 3,
        };
        crash(&case, &scratch.log, &files, kill_after);
        let kept = CheckpointStore::open(&files.dir, files.keep).unwrap();
        assert_eq!(kept.list().unwrap().len(), (kill_after / 3).min(2));
        let (_, recovered) = recover(&case, &scratch.log, &files);
        assert_eq!(recovered, reference, "kill_after={kill_after}");
    }
}

/// A corrupted newest checkpoint is skipped; recovery falls back to the
/// previous valid one and replay covers the gap — still exactly-once.
#[test]
fn corrupted_checkpoint_falls_back_and_replays_the_gap() {
    let rel = tie_heavy_relation();
    let opts = options(MatchSemantics::Maximal, EventSelection::SkipTillNextMatch);
    let case = Case::one(&correlated_pattern(), &opts);
    let scratch = Scratch::new("corrupt", &rel);
    let files = Checkpoints {
        dir: scratch.fresh_checkpoint_dir(),
        keep: 4,
        every: 4,
    };
    // Crash mid-run, after the last checkpoint.
    crash(&case, &scratch.log, &files, rel.len());

    // Flip a payload byte in the newest checkpoint file.
    let infos = CheckpointStore::open(&files.dir, files.keep)
        .unwrap()
        .list()
        .unwrap();
    assert!(infos.len() >= 2, "need a fallback checkpoint");
    let newest = infos.last().unwrap();
    let mut bytes = std::fs::read(&newest.path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&newest.path, &bytes).unwrap();

    let (summary, recovered) = recover(&case, &scratch.log, &files);
    let fallback = format!("restored checkpoint seq {} ", newest.seq - 1);
    assert!(
        summary.starts_with(&fallback) && summary.contains("skipped 1 corrupt checkpoint(s)"),
        "exactly the corrupt one skipped: {summary}"
    );
    assert_eq!(recovered, case.uninterrupted(&rel));
}

/// A 3-pattern bank under the kill-point protocol: the run dies after
/// every prefix, and recovery must reproduce the uninterrupted run's
/// durable sink line for line — exactly-once **per pattern**, including
/// the pattern the predicate index never routes an event to (heartbeats
/// only).
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
    let case = Case {
        specs: vec![
            ("clique".into(), correlated_pattern(), opts.clone()),
            ("x-only".into(), x_only, opts.clone()),
            ("never".into(), never, opts.clone()),
        ],
    };
    let rel = tie_heavy_relation();
    let reference = case.uninterrupted(&rel);
    assert!(
        reference.iter().any(|l| l.starts_with("clique:"))
            && reference.iter().any(|l| l.starts_with("x-only:")),
        "the workload must exercise at least two patterns: {reference:?}"
    );

    let scratch = Scratch::new("bank", &rel);
    for kill_after in 0..=rel.len() {
        for durable_tail in [true, false] {
            let sink = crash_and_recover(&case, &scratch, kill_after, 2, durable_tail);
            assert_eq!(
                sink, reference,
                "divergence: kill_after={kill_after} durable_tail={durable_tail}"
            );
            // Exactly-once per pattern, explicitly.
            for (name, _, _) in &case.specs {
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
    /// every semantics: recovery reproduces the uninterrupted stream
    /// exactly.
    #[test]
    fn recovered_stream_equals_uninterrupted_global(
        pat in pattern_strategy(),
        rel in relation_strategy_with(2..7, 0i64..3),
        semantics_ix in 0usize..3,
        selection_ix in 0usize..2,
    ) {
        let case = Case::one(&pat, &options(MODES[semantics_ix], SELECTIONS[selection_ix]));
        let reference = case.uninterrupted(&rel);
        let scratch = Scratch::new("prop-global", &rel);
        for kill_after in 0..=rel.len() {
            for durable_tail in [true, false] {
                let recovered = crash_and_recover(&case, &scratch, kill_after, 2, durable_tail);
                prop_assert_eq!(
                    &recovered, &reference,
                    "kill_after={} durable_tail={}", kill_after, durable_tail
                );
            }
        }
    }
}
