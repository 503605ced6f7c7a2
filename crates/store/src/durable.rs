//! The exactly-once protocol, written once: a [`PatternBank`] with its
//! checkpoints and its match sinks.
//!
//! [`DurableBank`] is the only place that knows the three facts the
//! exactly-once argument of `docs/durability.md` rests on:
//!
//! * **the write order** — every sink (and the event log, when the
//!   caller is still appending to it) is synced *before* a snapshot is
//!   saved, so no checkpoint ever claims a match line or an event the
//!   files do not hold ([`DurableBank::checkpoint`]);
//! * **where replay starts** — the log from the restored snapshot's
//!   last timestamp on, minus the ties it had already consumed there
//!   ([`DurableBank::replay_suffix`]);
//! * **how much to suppress** — per sink, the lines it holds beyond what
//!   the restored patterns it serves had emitted
//!   ([`DurableBank::recover`]).
//!
//! Which sink a pattern's lines go to is data: one path per pattern.
//! `ses-cli stream --checkpoint` names the one `matches.log` for every
//! pattern, `ses-server` a log of its own for each subscription;
//! patterns naming the same path share a sink, its line numbering and
//! its suppression count. Without a checkpoint directory the same type
//! runs memory-only: the sinks only count and no file is touched. Where
//! events come from, how a match is rendered and who reads the lines
//! stay with the caller.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ses_core::{Match, MatcherOptions, MatcherSnapshot, PatternBank, PatternStats, Probe};
use ses_event::{Event, EventError, Schema, Timestamp, Value};
use ses_pattern::Pattern;

use crate::{CheckpointStore, EventLog, MatchLog, StoreError};

/// Where a durable bank keeps its checkpoints and how often it saves
/// one.
#[derive(Debug, Clone)]
pub struct Checkpoints {
    /// The checkpoint directory (created if absent).
    pub dir: PathBuf,
    /// Checkpoints retained; older ones are pruned after each save.
    pub keep: usize,
    /// A checkpoint every this many consumed events.
    pub every: usize,
}

/// One match sink: a line counter, backed by a [`MatchLog`] when the
/// bank is durable.
#[derive(Debug)]
struct Sink {
    log: Option<MatchLog>,
    /// Lines the sink holds — the seq of the last one.
    seq: u64,
    /// Matches a replay regenerates that the sink already holds.
    suppress: u64,
}

/// The match sinks of a [`DurableBank`] and the pattern → sink map.
#[derive(Debug)]
pub struct MatchSinks {
    sinks: Vec<Sink>,
    by_path: HashMap<PathBuf, usize>,
    /// Sink of each pattern, by pattern id.
    of: Vec<usize>,
    durable: bool,
}

impl MatchSinks {
    fn open(paths: &[PathBuf], durable: bool) -> Result<MatchSinks, StoreError> {
        let mut sinks = MatchSinks {
            sinks: Vec::new(),
            by_path: HashMap::new(),
            of: Vec::with_capacity(paths.len()),
            durable,
        };
        for path in paths {
            sinks.add(path)?;
        }
        Ok(sinks)
    }

    /// Maps the next pattern id to the sink at `path`, opening it unless
    /// an earlier pattern already did.
    fn add(&mut self, path: &Path) -> Result<(), StoreError> {
        let at = match self.by_path.get(path) {
            Some(&at) => at,
            None => {
                let log = if self.durable {
                    Some(MatchLog::open(path)?)
                } else {
                    None
                };
                self.sinks.push(Sink {
                    seq: log.as_ref().map_or(0, MatchLog::lines),
                    log,
                    suppress: 0,
                });
                self.by_path
                    .insert(path.to_path_buf(), self.sinks.len() - 1);
                self.sinks.len() - 1
            }
        };
        self.of.push(at);
        Ok(())
    }

    /// Records one rendered match of `pattern`: `None` if a replay
    /// regenerated a line the sink already holds (it is dropped —
    /// neither appended nor counted again), else the line's seq in its
    /// sink, after appending it there.
    pub fn record(&mut self, pattern: usize, line: &str) -> Result<Option<u64>, StoreError> {
        let sink = &mut self.sinks[self.of[pattern]];
        if sink.suppress > 0 {
            sink.suppress -= 1;
            return Ok(None);
        }
        if let Some(log) = sink.log.as_mut() {
            log.append(line)?;
        }
        sink.seq += 1;
        Ok(Some(sink.seq))
    }

    /// Lines held by the sink `pattern` writes to — the seq of its last
    /// line.
    pub fn seq(&self, pattern: usize) -> u64 {
        self.sinks[self.of[pattern]].seq
    }

    /// Lines held by all sinks together.
    pub fn recorded(&self) -> u64 {
        self.sinks.iter().map(|s| s.seq).sum()
    }

    /// Forces every appended line to stable storage.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        for log in self.sinks.iter_mut().filter_map(|s| s.log.as_mut()) {
            log.sync()?;
        }
        Ok(())
    }
}

/// What a recovery found and did — the summary line both front-ends
/// print.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// `(seq, patterns, events consumed)` of the checkpoint restored;
    /// `None` on a cold start.
    restored: Option<(u64, usize, u64)>,
    /// Newer checkpoints skipped as corrupt.
    skipped: usize,
    /// Events read back from the log.
    read: usize,
    /// Of those, ties at the checkpoint's last timestamp it had already
    /// consumed.
    ties: usize,
    /// Matches the sinks already hold beyond the checkpoint.
    suppressed: u64,
}

impl fmt::Display for Recovery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.restored {
            Some((seq, patterns, consumed)) => write!(
                f,
                "restored checkpoint seq {seq} ({patterns} pattern(s), {consumed} event(s) \
                 consumed)"
            )?,
            None => write!(f, "no valid checkpoint, cold start")?,
        }
        if self.skipped > 0 {
            write!(f, ", skipped {} corrupt checkpoint(s)", self.skipped)?;
        }
        write!(
            f,
            "; read {} event(s) from the log, skipped {} tie(s), replayed {} event(s), \
             suppressing {} already-emitted match(es)",
            self.read,
            self.ties,
            self.read - self.ties,
            self.suppressed
        )
    }
}

fn refused(e: impl fmt::Display) -> StoreError {
    StoreError::Bank {
        reason: e.to_string(),
    }
}

/// A [`PatternBank`] with its checkpoints and match sinks: see the
/// module docs.
#[derive(Debug)]
pub struct DurableBank {
    bank: PatternBank,
    sinks: MatchSinks,
    /// `None` when the bank runs memory-only.
    store: Option<CheckpointStore>,
    /// The cadence, and events consumed since the last checkpoint.
    every: usize,
    since: usize,
    /// Where [`DurableBank::replay_suffix`] starts reading: the restored
    /// snapshot's last timestamp (`None`: the whole log).
    replay_from: Option<Timestamp>,
    recovery: Recovery,
}

impl DurableBank {
    /// Starts `bank` as it is, reading no earlier state: memory-only
    /// without `files`, else checkpointing into them and appending to
    /// the sinks. `sinks` names the sink of each pattern, by pattern id.
    pub fn start(
        bank: PatternBank,
        sinks: &[PathBuf],
        files: Option<&Checkpoints>,
    ) -> Result<DurableBank, StoreError> {
        assert_eq!(sinks.len(), bank.len(), "one sink per registered pattern");
        let store = files
            .map(|f| CheckpointStore::open(&f.dir, f.keep))
            .transpose()?;
        Ok(DurableBank {
            bank,
            sinks: MatchSinks::open(sinks, store.is_some())?,
            store,
            every: files.map_or(usize::MAX, |f| f.every),
            since: 0,
            replay_from: None,
            recovery: Recovery::default(),
        })
    }

    /// Resumes from the newest valid checkpoint in `files`, or from
    /// `cold()` when there is none. `specs` are the `(name, pattern,
    /// options)` registrations in order and `sinks` their sinks; specs
    /// the checkpoint does not hold (registered after it was saved) join
    /// at the restored clock, as [`DurableBank::subscribe`] would have
    /// added them. Every sink then suppresses what it holds beyond the
    /// restored emission counts of the patterns it serves: by sink-first
    /// ordering those lines are exactly the first matches the replay
    /// regenerates.
    pub fn recover(
        specs: &[(String, Pattern, MatcherOptions)],
        sinks: &[PathBuf],
        schema: &Schema,
        files: &Checkpoints,
        cold: impl FnOnce() -> Result<PatternBank, String>,
    ) -> Result<DurableBank, StoreError> {
        assert_eq!(sinks.len(), specs.len(), "one sink per registered pattern");
        let store = CheckpointStore::open(&files.dir, files.keep)?;
        let mut recovery = Recovery::default();
        let mut replay_from = None;
        let mut bank = match store.load_latest()? {
            Some(loaded) => {
                let MatcherSnapshot::Bank(snapshot) = &loaded.snapshot;
                let held = snapshot.patterns.len();
                let bank = PatternBank::restore(&specs[..held.min(specs.len())], schema, snapshot)
                    .map_err(refused)?;
                recovery.restored = Some((loaded.info.seq, held, snapshot.next_id));
                recovery.skipped = loaded.skipped;
                replay_from = snapshot.last_ts;
                bank
            }
            None => cold().map_err(refused)?,
        };
        // Per pattern.
        let mut emitted: Vec<u64> = bank.stats().iter().map(|s| s.emitted as u64).collect();
        for (name, pattern, options) in &specs[bank.len()..] {
            bank.subscribe(name.clone(), pattern, options.clone())
                .map_err(refused)?;
        }
        emitted.resize(specs.len(), 0);

        let mut sinks = MatchSinks::open(sinks, true)?;
        let mut restored = vec![0u64; sinks.sinks.len()];
        for (pattern, n) in emitted.iter().enumerate() {
            restored[sinks.of[pattern]] += n;
        }
        for (sink, restored) in sinks.sinks.iter_mut().zip(restored) {
            sink.suppress = sink.seq.saturating_sub(restored);
            recovery.suppressed += sink.suppress;
        }
        Ok(DurableBank {
            bank,
            sinks,
            store: Some(store),
            every: files.every,
            since: 0,
            replay_from,
            recovery,
        })
    }

    /// What [`DurableBank::recover`] and [`DurableBank::replay_suffix`]
    /// found, for the startup log.
    pub fn recovery(&self) -> &Recovery {
        &self.recovery
    }

    /// The events of `log` this bank has yet to consume, in append
    /// order; call before the first push. The scan starts at the
    /// restored snapshot's last timestamp and is inclusive, so the ties
    /// the snapshot had consumed there reappear at its head: the log
    /// keeps append order among equal timestamps, so they are exactly
    /// the prefix dropped here. A bank that restored nothing gets the
    /// whole log.
    pub fn replay_suffix(&mut self, log: &EventLog) -> Result<Vec<Event>, StoreError> {
        let from = self.replay_from.unwrap_or(Timestamp::MIN);
        let read = log.scan_range(from, Timestamp::MAX)?;
        let ties = self.bank.ties_at_watermark().min(read.len());
        self.recovery.read = read.len();
        self.recovery.ties = ties;
        Ok(read.events()[ties..].to_vec())
    }

    /// The bank, for its clock and counters.
    pub fn bank(&self) -> &PatternBank {
        &self.bank
    }

    /// [`PatternBank::stats`]: per-pattern statistics, the bank's
    /// withheld heartbeats delivered first.
    pub fn stats(&mut self) -> Vec<PatternStats> {
        self.bank.stats()
    }

    /// The sinks, to [`MatchSinks::record`] what a push returned.
    pub fn sinks(&mut self) -> &mut MatchSinks {
        &mut self.sinks
    }

    /// [`PatternBank::push_with_probe`]. Record every match it returns
    /// before the next [`DurableBank::checkpoint_if_due`]: a snapshot
    /// counts them as emitted.
    pub fn push<P: Probe>(
        &mut self,
        ts: Timestamp,
        values: impl Into<Vec<Value>>,
        probe: &mut P,
    ) -> Result<Vec<(usize, Match)>, EventError> {
        self.bank.push_with_probe(ts, values, probe)
    }

    /// [`PatternBank::subscribe`], with `sink` as the new pattern's
    /// sink. A pattern the bank refuses is [`StoreError::Bank`] and
    /// leaves everything as it was.
    pub fn subscribe(
        &mut self,
        name: &str,
        pattern: &Pattern,
        options: MatcherOptions,
        sink: &Path,
    ) -> Result<usize, StoreError> {
        let id = self
            .bank
            .subscribe(name, pattern, options)
            .map_err(refused)?;
        self.sinks.add(sink)?;
        Ok(id)
    }

    /// Counts one consumed event — pushed, its matches recorded — and
    /// checkpoints when the cadence says so. `source` as for
    /// [`DurableBank::checkpoint`].
    pub fn checkpoint_if_due<P: Probe>(
        &mut self,
        source: Option<&mut EventLog>,
        probe: &mut P,
    ) -> Result<(), StoreError> {
        self.since += 1;
        if self.since >= self.every {
            self.checkpoint(source, probe)?;
        }
        Ok(())
    }

    /// Saves a checkpoint now (a no-op memory-only). The snapshot must
    /// never claim what the files do not hold yet, so everything it
    /// counts is made durable first: `source` — the event log, when the
    /// caller is still appending to it — and every sink.
    pub fn checkpoint<P: Probe>(
        &mut self,
        source: Option<&mut EventLog>,
        probe: &mut P,
    ) -> Result<(), StoreError> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        self.since = 0;
        let started = Instant::now();
        if let Some(log) = source {
            log.sync()?;
        }
        self.sinks.sync()?;
        let info = store.save(&MatcherSnapshot::Bank(self.bank.snapshot()))?;
        probe.checkpoint_saved(info.bytes, started.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Ends the stream: a last checkpoint — a crash during or after the
    /// flush then replays only the flush — and [`PatternBank::finish`].
    /// Record the flush's matches in the returned sinks like any others
    /// (the same suppression counts apply) and [`MatchSinks::sync`]
    /// them.
    pub fn finish<P: Probe>(
        mut self,
        probe: &mut P,
    ) -> Result<(Vec<(usize, Match)>, MatchSinks), StoreError> {
        self.checkpoint(None, probe)?;
        Ok((self.bank.finish(), self.sinks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogConfig;
    use ses_core::NoProbe;
    use ses_event::{AttrType, CmpOp, Duration};

    type Specs = Vec<(String, Pattern, MatcherOptions)>;

    fn schema() -> Schema {
        Schema::builder()
            .attr("L", AttrType::Str)
            .attr("ID", AttrType::Int)
            .build()
            .unwrap()
    }

    /// `first` then `second` on one `ID`, within 6 ticks.
    fn pair(first: &str, second: &str, vars: [&str; 2]) -> Pattern {
        Pattern::builder()
            .set(|s| s.var(vars[0]))
            .set(|s| s.var(vars[1]))
            .cond_const(vars[0], "L", CmpOp::Eq, first)
            .cond_const(vars[1], "L", CmpOp::Eq, second)
            .cond_vars(vars[0], "ID", CmpOp::Eq, vars[1], "ID")
            .within(Duration::ticks(6))
            .build()
            .unwrap()
    }

    /// `ab`, `cd`, and `cd2` — `cd` with its variables renamed: a twin,
    /// which runs its own matcher.
    fn specs() -> Specs {
        [
            ("ab", ["A", "B"], ["a", "b"]),
            ("cd", ["C", "D"], ["c", "d"]),
            ("cd2", ["C", "D"], ["x", "y"]),
        ]
        .map(|(name, [l, r], vars)| {
            (
                name.to_string(),
                pair(l, r, vars),
                MatcherOptions::default(),
            )
        })
        .to_vec()
    }

    fn cold(specs: &Specs) -> PatternBank {
        let mut builder = PatternBank::builder(&schema());
        for (name, pattern, options) in specs {
            builder = builder
                .register(name.clone(), pattern, options.clone())
                .unwrap();
        }
        builder.build()
    }

    /// A scratch directory holding `n` events as a log — two to a tick,
    /// labels cycling A B C D, ids 0..3 — and the paths of a checkpoint
    /// directory with one sink per spec in it.
    fn scratch(name: &str, n: usize, config: LogConfig) -> (PathBuf, EventLog, Vec<PathBuf>) {
        let root = std::env::temp_dir().join(format!("ses-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut log = EventLog::create(root.join("events"), schema(), config).unwrap();
        for i in 0..n {
            let row = [
                Value::from(["A", "B", "C", "D"][i % 4]),
                Value::from((i / 4 % 3) as i64),
            ];
            log.append(Timestamp::new((i / 2) as i64), row).unwrap();
        }
        log.sync().unwrap();
        let sinks = (0..3)
            .map(|i| root.join(format!("ckpt/sub-{i}.log")))
            .collect();
        (root, log, sinks)
    }

    fn line(specs: &Specs, i: usize, m: &Match) -> String {
        format!("{}: {}", specs[i].0, m.display_with(&specs[i].1))
    }

    /// Pushes `events`, recording every match and checkpointing at the
    /// cadence.
    fn drive(bank: &mut DurableBank, specs: &Specs, events: &[Event]) {
        for e in events {
            for (i, m) in bank
                .push(e.ts(), e.values().to_vec(), &mut NoProbe)
                .unwrap()
            {
                bank.sinks().record(i, &line(specs, i, &m)).unwrap();
            }
            bank.checkpoint_if_due(None, &mut NoProbe).unwrap();
        }
    }

    fn finish(bank: DurableBank, specs: &Specs) {
        let (flushed, mut sinks) = bank.finish(&mut NoProbe).unwrap();
        for (i, m) in flushed {
            sinks.record(i, &line(specs, i, &m)).unwrap();
        }
        sinks.sync().unwrap();
    }

    fn lines_of(path: &Path) -> Vec<String> {
        let text = std::fs::read_to_string(path).unwrap();
        text.lines().map(str::to_string).collect()
    }

    /// A restart reads the log from the checkpoint's last timestamp on —
    /// not the log — and says so; each pattern's sink suppresses against
    /// that pattern's restored count (the twin `cd2` against its own)
    /// and ends up with what an uninterrupted run emits for it.
    #[test]
    fn restart_reads_the_log_suffix_and_says_so() {
        let small = LogConfig {
            max_segment_bytes: 256,
        };
        let (root, log, sinks) = scratch("suffix", 120, small);
        assert!(log.segment_count() >= 6, "{} segments", log.segment_count());
        let specs = specs();
        let files = Checkpoints {
            dir: root.join("ckpt"),
            keep: 3,
            every: 10,
        };
        // Dies after 95 events: the checkpoint at 90 lies past the
        // second rotation, and the sinks hold lines beyond it.
        let mut bank = DurableBank::start(cold(&specs), &sinks, Some(&files)).unwrap();
        let events = bank.replay_suffix(&log).unwrap();
        assert_eq!(events.len(), 120);
        drive(&mut bank, &specs, &events[..95]);
        drop(bank);

        let build = || Ok(cold(&specs));
        let mut bank = DurableBank::recover(&specs, &sinks, &schema(), &files, build).unwrap();
        let events = bank.replay_suffix(&log).unwrap();
        let r = bank.recovery().clone();
        // Event 89, the last the checkpoint consumed, is the second of
        // the two at tick 44: both are read back, both are ties.
        assert!(r.read < log.len() && r.suppressed > 0, "{r}");
        assert_eq!(events.len(), r.read - r.ties);
        assert_eq!(
            r.to_string(),
            format!(
                "restored checkpoint seq 8 (3 pattern(s), 90 event(s) consumed); read 32 \
                 event(s) from the log, skipped 2 tie(s), replayed 30 event(s), suppressing {} \
                 already-emitted match(es)",
                r.suppressed
            )
        );
        drive(&mut bank, &specs, &events);
        finish(bank, &specs);

        // The reference: a plain bank, every line in emission order.
        let mut plain = cold(&specs);
        let mut reference = Vec::new();
        for (_, e) in log.scan().unwrap().iter() {
            reference.extend(plain.push(e.ts(), e.values().to_vec()).unwrap());
        }
        reference.extend(plain.finish());
        for (p, sink) in sinks.iter().enumerate() {
            let of_pattern: Vec<String> = reference
                .iter()
                .filter(|(i, _)| *i == p)
                .map(|(i, m)| line(&specs, *i, m))
                .collect();
            assert!(of_pattern.len() > 5, "{of_pattern:?}");
            assert_eq!(lines_of(sink), of_pattern);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A spec the checkpoint does not hold joins at the restored clock
    /// with an empty sink, as `subscribe` would have added it.
    #[test]
    fn specs_beyond_the_checkpoint_join_at_the_restored_clock() {
        let (root, log, sinks) = scratch("join", 80, LogConfig::default());
        let specs = specs();
        let files = Checkpoints {
            dir: root.join("ckpt"),
            keep: 3,
            every: 40,
        };
        let held = specs[..2].to_vec();
        let mut bank = DurableBank::start(cold(&held), &sinks[..2], Some(&files)).unwrap();
        let events = bank.replay_suffix(&log).unwrap();
        drive(&mut bank, &held, &events[..40]);
        drop(bank);

        let no_cold = || Err("a checkpoint exists".to_string());
        let mut bank = DurableBank::recover(&specs, &sinks, &schema(), &files, no_cold).unwrap();
        assert_eq!(bank.bank().len(), 3);
        let events = bank.replay_suffix(&log).unwrap();
        assert_eq!(events.len(), 40);
        drive(&mut bank, &specs, &events);
        finish(bank, &specs);
        // `cd2` saw the second half only; its twin `cd` saw everything.
        let (cd, cd2) = (lines_of(&sinks[1]), lines_of(&sinks[2]));
        assert!(!cd2.is_empty() && cd2.len() < cd.len(), "{cd:?} {cd2:?}");
        let rename = |l: &String| {
            l.replace("cd: ", "cd2: ")
                .replace("c/", "x/")
                .replace("d/", "y/")
        };
        let tail: Vec<String> = cd[cd.len() - cd2.len()..].iter().map(rename).collect();
        assert_eq!(cd2, tail);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Sink-first ordering, observed: when a sink cannot be made durable
    /// no snapshot is saved, so no checkpoint claims its lines.
    /// (`fdatasync` refuses `/dev/null`.)
    #[cfg(target_os = "linux")]
    #[test]
    fn a_sink_that_cannot_sync_blocks_the_snapshot() {
        let (root, log, _) = scratch("order", 40, LogConfig::default());
        let specs = specs();
        let files = Checkpoints {
            dir: root.join("ckpt"),
            keep: 3,
            every: 1000,
        };
        let sinks = vec![PathBuf::from("/dev/null"); specs.len()];
        let mut bank = DurableBank::start(cold(&specs), &sinks, Some(&files)).unwrap();
        let events = bank.replay_suffix(&log).unwrap();
        drive(&mut bank, &specs, &events);
        assert!(bank.sinks().recorded() > 0);
        let refused = bank.checkpoint(None, &mut NoProbe);
        assert!(matches!(refused, Err(StoreError::Io(_))), "{refused:?}");
        let store = CheckpointStore::open(&files.dir, files.keep).unwrap();
        assert!(store.list().unwrap().is_empty());
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Memory-only the sinks count and nothing touches a file.
    #[test]
    fn memory_only_opens_no_file() {
        let root = std::env::temp_dir().join(format!("ses-durable-memory-{}", std::process::id()));
        let specs = specs();
        let sinks = vec![root.join("matches.log"); specs.len()];
        let mut bank = DurableBank::start(cold(&specs), &sinks, None).unwrap();
        assert_eq!(bank.sinks().record(0, "one").unwrap(), Some(1));
        assert_eq!(bank.sinks().record(2, "two").unwrap(), Some(2));
        bank.checkpoint_if_due(None, &mut NoProbe).unwrap();
        finish(bank, &specs);
        assert!(!root.exists());
    }
}
