//! Atomic checkpoint persistence and the durable match sink.
//!
//! A [`CheckpointStore`] writes matcher snapshots as numbered files
//! (`ckpt-<seq>.sesckpt`) inside a directory. Each file frames the
//! codec payload (see [`crate::codec`]) with a magic, a format version,
//! a length, and an FNV-1a checksum:
//!
//! ```text
//! b"SESCKPT1" | u16 version | u64 payload_len | u64 fnv1a(payload) | payload
//! ```
//!
//! — written with the codec's `Encoder`, read with its `Decoder`. Saves
//! are atomic ([`crate::replace_file`]): the frame is written to a `.tmp`
//! sibling, synced, renamed over the final name, and the directory
//! synced — a crash mid-save leaves at most a stale temp file, never a
//! half-written checkpoint under a valid name.
//! The store keeps the last `keep` checkpoints and prunes older ones
//! after each save; [`CheckpointStore::load_latest`] walks sequence
//! numbers downward, skipping (and counting) corrupt or truncated
//! files, so one bad checkpoint falls back to the previous valid one
//! and log replay covers the widened gap.
//!
//! [`MatchLog`] is the other half of exactly-once emission: an
//! append-only line sink that tolerates a torn final line on reopen
//! (truncating it), so `lines()` after a crash counts exactly the
//! matches that durably reached the sink.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ses_core::MatcherSnapshot;

use crate::codec::{corrupt, decode_snapshot, encode_snapshot, fnv1a, Decoder, Encoder};
use crate::files::sync_parent;
use crate::{replace_file, StoreError};

/// Magic prefix of a checkpoint file.
const MAGIC: &[u8; 8] = b"SESCKPT1";
/// Current frame format version.
const VERSION: u16 = 1;
/// Checkpoint file extension.
const EXT: &str = "sesckpt";

/// Metadata of one on-disk checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Monotonic sequence number (encoded in the file name).
    pub seq: u64,
    /// Path of the checkpoint file.
    pub path: PathBuf,
    /// Total file size in bytes (frame + payload).
    pub bytes: u64,
}

/// A successfully loaded checkpoint.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The decoded snapshot.
    pub snapshot: MatcherSnapshot,
    /// Which file it came from.
    pub info: CheckpointInfo,
    /// Newer checkpoints that were skipped as corrupt or unreadable.
    pub skipped: usize,
}

/// A directory of atomically written, checksummed matcher checkpoints.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
    next_seq: u64,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory, retaining the
    /// last `keep` checkpoints on save. `keep` is clamped to at least 1.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> Result<CheckpointStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let next_seq = list_checkpoints(&dir)?
            .last()
            .map(|info| info.seq + 1)
            .unwrap_or(0);
        Ok(CheckpointStore {
            dir,
            keep: keep.max(1),
            next_seq,
        })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// On-disk checkpoints in ascending sequence order.
    pub fn list(&self) -> Result<Vec<CheckpointInfo>, StoreError> {
        list_checkpoints(&self.dir)
    }

    /// Atomically writes `snapshot` as the next checkpoint and prunes
    /// checkpoints beyond the retention count. Returns the new file's
    /// metadata.
    pub fn save(&mut self, snapshot: &MatcherSnapshot) -> Result<CheckpointInfo, StoreError> {
        let frame = encode_frame(&encode_snapshot(snapshot));
        let seq = self.next_seq;
        let path = self.path_of(seq);
        replace_file(&path, &frame)?;
        self.next_seq = seq + 1;
        self.prune()?;
        Ok(CheckpointInfo {
            seq,
            path,
            bytes: frame.len() as u64,
        })
    }

    /// Loads the newest checkpoint that validates, skipping corrupt or
    /// truncated ones. Returns `None` when no checkpoint validates (or
    /// none exists). An intact checkpoint of a retired snapshot kind is
    /// an error, not a skip: falling through to a cold start would
    /// silently discard the state the operator believes is there.
    pub fn load_latest(&self) -> Result<Option<LoadedCheckpoint>, StoreError> {
        let mut skipped = 0;
        for info in self.list()?.into_iter().rev() {
            match load_file(&info.path) {
                Ok(snapshot) => {
                    return Ok(Some(LoadedCheckpoint {
                        snapshot,
                        info,
                        skipped,
                    }))
                }
                Err(e @ StoreError::RetiredSnapshot { .. }) => return Err(e),
                Err(_) => skipped += 1,
            }
        }
        Ok(None)
    }

    /// Loads a specific checkpoint by sequence number, validating it.
    pub fn load(&self, seq: u64) -> Result<MatcherSnapshot, StoreError> {
        load_file(&self.path_of(seq))
    }

    fn path_of(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{seq:010}.{EXT}"))
    }

    fn prune(&self) -> Result<(), StoreError> {
        let infos = self.list()?;
        if infos.len() > self.keep {
            for info in &infos[..infos.len() - self.keep] {
                fs::remove_file(&info.path)?;
            }
        }
        Ok(())
    }
}

fn list_checkpoints(dir: &Path) -> Result<Vec<CheckpointInfo>, StoreError> {
    let mut infos = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        let seq = match name
            .strip_prefix("ckpt-")
            .and_then(|rest| rest.strip_suffix(&format!(".{EXT}")))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            Some(seq) => seq,
            None => continue,
        };
        infos.push(CheckpointInfo {
            seq,
            path,
            bytes: entry.metadata()?.len(),
        });
    }
    infos.sort_by_key(|info| info.seq);
    Ok(infos)
}

/// The checkpoint file holding `payload`.
fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut e = Encoder::with_capacity(MAGIC.len() + 2 + 8 + 8 + payload.len());
    e.put_bytes(MAGIC);
    e.put_u16(VERSION);
    e.put_u64(payload.len() as u64);
    e.put_u64(fnv1a(payload));
    e.put_bytes(payload);
    e.into_bytes()
}

fn load_file(path: &Path) -> Result<MatcherSnapshot, StoreError> {
    let data = fs::read(path)?;
    let mut d = Decoder::new(&data);
    if d.get_bytes(MAGIC.len()).ok() != Some(MAGIC.as_slice()) {
        return Err(corrupt(format!(
            "{} is not a SESCKPT1 checkpoint",
            path.display()
        )));
    }
    let version = d.get_u16()?;
    if version != VERSION {
        return Err(corrupt(format!("unsupported checkpoint version {version}")));
    }
    let len = d.get_u64()?;
    let checksum = d.get_u64()?;
    let payload = d.get_bytes(d.remaining())?;
    if payload.len() as u64 != len {
        return Err(corrupt(format!(
            "checkpoint payload is {} bytes, header claims {len}",
            payload.len()
        )));
    }
    if fnv1a(payload) != checksum {
        return Err(corrupt("checkpoint checksum mismatch".into()));
    }
    decode_snapshot(payload)
}

/// Bytes of a match sink's `data` up to and including its last newline:
/// its complete lines.
fn complete_len(data: &[u8]) -> usize {
    data.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
}

/// An append-only, crash-tolerant match sink.
///
/// Each match is one `\n`-terminated line. On open, a torn final line
/// (crash mid-`append`) is truncated away, so [`MatchLog::lines`]
/// counts exactly the durably written matches — the count recovery
/// compares against a checkpoint's emitted high-water mark to decide
/// how many replayed matches to suppress.
#[derive(Debug)]
pub struct MatchLog {
    file: File,
    lines: u64,
}

impl MatchLog {
    /// Opens (creating if needed) the sink at `path`, truncating any
    /// torn final line. The directory is synced, so a sink created here
    /// is still found after a power loss once its lines are synced.
    pub fn open(path: impl AsRef<Path>) -> Result<MatchLog, StoreError> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        sync_parent(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let complete = complete_len(&data);
        if complete != data.len() {
            file.set_len(complete as u64)?;
        }
        file.seek(SeekFrom::Start(complete as u64))?;
        let lines = data[..complete].iter().filter(|&&b| b == b'\n').count() as u64;
        Ok(MatchLog { file, lines })
    }

    /// The complete lines of the sink at `path`, without their newlines:
    /// what [`MatchLog::open`] keeps — a torn final line is not one.
    pub fn read_lines(path: impl AsRef<Path>) -> Result<Vec<String>, StoreError> {
        let text = fs::read_to_string(path)?;
        let complete = &text[..complete_len(text.as_bytes())];
        Ok(complete.split_terminator('\n').map(str::to_owned).collect())
    }

    /// Number of complete lines durably present at open plus appended
    /// since.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Appends one match line (a trailing newline is added).
    pub fn append(&mut self, line: &str) -> Result<(), StoreError> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.lines += 1;
        Ok(())
    }

    /// Forces appended lines to stable storage. Call before saving a
    /// checkpoint, so the sink is never behind the snapshot's emitted
    /// count.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.flush()?;
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Retired;
    use ses_core::{BankPatternSnapshot, BankSnapshot, StreamSnapshot};
    use ses_event::{Event, Timestamp, Value};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ses-ckpt-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A bank of one.
    fn snapshot(emitted: u64) -> MatcherSnapshot {
        let matcher = StreamSnapshot {
            fingerprint: 7,
            watermark: Some(Timestamp::new(5)),
            evicted: 0,
            last_ts: Some(Timestamp::new(5)),
            events: vec![Event::new(Timestamp::new(5), vec![Value::Int(1)])],
            instances: Vec::new(),
            pending: Vec::new(),
            survivors: Vec::new(),
            emitted,
        };
        MatcherSnapshot::Bank(BankSnapshot {
            watermark: matcher.watermark,
            last_ts: matcher.last_ts,
            next_id: 1,
            ties: 1,
            emitted,
            patterns: vec![BankPatternSnapshot {
                name: "query-1".into(),
                matcher,
                ids: vec![ses_event::EventId(0)],
                base: 0,
                peak_omega: 0,
                hits: 1,
                skips: 0,
            }],
        })
    }

    #[test]
    fn save_load_round_trips_and_prunes() {
        let dir = temp_dir("roundtrip");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        for i in 0..5 {
            store.save(&snapshot(i)).unwrap();
        }
        let infos = store.list().unwrap();
        assert_eq!(
            infos.iter().map(|i| i.seq).collect::<Vec<_>>(),
            vec![3, 4],
            "keeps only the last K"
        );
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.info.seq, 4);
        assert_eq!(loaded.skipped, 0);
        assert_eq!(loaded.snapshot, snapshot(4));
        // Reopen continues the sequence instead of reusing numbers.
        let mut reopened = CheckpointStore::open(&dir, 2).unwrap();
        assert_eq!(reopened.save(&snapshot(9)).unwrap().seq, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous() {
        let dir = temp_dir("fallback");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        store.save(&snapshot(1)).unwrap();
        let latest = store.save(&snapshot(2)).unwrap();
        // Flip a payload byte in the newest file.
        let mut bytes = fs::read(&latest.path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&latest.path, &bytes).unwrap();
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.info.seq, 0);
        assert_eq!(loaded.skipped, 1);
        assert_eq!(loaded.snapshot, snapshot(1));
        assert!(matches!(
            store.load(latest.seq),
            Err(StoreError::Corrupt { .. })
        ));
        // Truncated file is also skipped, not fatal.
        fs::write(&latest.path, &bytes[..10]).unwrap();
        assert_eq!(store.load_latest().unwrap().unwrap().info.seq, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint a single-query `stream` of an earlier release wrote
    /// (payload kind 0 or 1), or a bank running hash lanes or a
    /// deduplicated twin (kind 3 with role tag 3 or 1), frame and
    /// checksum intact, is reported by name — even behind a newer
    /// corrupt file — never skipped into a silent cold start.
    #[test]
    fn retired_snapshot_kind_is_reported_not_skipped() {
        // Kind 3 with no watermark, no last timestamp, zero counters, the
        // index byte and one pattern: "q" under `role`, no matcher, no
        // ids, zero counters; then no prefix pools.
        let kind3 = |role: &[u32]| {
            let mut bytes = vec![3, 0, 0];
            bytes.extend_from_slice(&[0; 24]);
            bytes.push(1);
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.push(b'q');
            bytes.push(role[0] as u8);
            for field in &role[1..] {
                bytes.extend_from_slice(&field.to_le_bytes());
            }
            bytes.push(0);
            bytes.extend_from_slice(&[0; 4 + 32 + 4]);
            bytes
        };
        let retired = [
            (Retired::SingleQueryStream, vec![0u8, 1, 2, 3]),
            (Retired::SingleQueryStream, vec![1u8, 1, 2, 3]),
            // Lane 0 of 1 on attribute 1.
            (Retired::HashLanes, kind3(&[3, 1, 0, 1])),
            // Deduplicated into pattern 0.
            (Retired::Deduplication, kind3(&[1, 0])),
        ];
        for (i, (what, payload)) in retired.into_iter().enumerate() {
            let kind = payload[0];
            let dir = temp_dir(&format!("retired{i}"));
            let store = CheckpointStore::open(&dir, 3).unwrap();
            fs::write(store.path_of(0), encode_frame(&payload)).unwrap();
            fs::write(store.path_of(1), b"garbage").unwrap();
            let err = store.load_latest().unwrap_err();
            assert!(
                matches!(err, StoreError::RetiredSnapshot { kind: k, what: w } if k == kind && w == what),
                "{err}"
            );
            // A newer valid bank checkpoint is still found first.
            let mut store = CheckpointStore::open(&dir, 3).unwrap();
            store.save(&snapshot(3)).unwrap();
            assert_eq!(store.load_latest().unwrap().unwrap().info.seq, 2);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn empty_store_loads_none() {
        let dir = temp_dir("empty");
        let store = CheckpointStore::open(&dir, 3).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        assert!(store.list().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn match_log_truncates_torn_tail() {
        let dir = temp_dir("matchlog");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("matches.log");
        {
            let mut log = MatchLog::open(&path).unwrap();
            assert_eq!(log.lines(), 0);
            log.append("m1").unwrap();
            log.append("m2").unwrap();
            log.sync().unwrap();
        }
        // Simulate a crash mid-append: a dangling partial line.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"m3-part").unwrap();
        }
        let mut log = MatchLog::open(&path).unwrap();
        assert_eq!(log.lines(), 2, "torn line does not count");
        log.append("m3").unwrap();
        log.sync().unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "m1\nm2\nm3\n");
        fs::remove_dir_all(&dir).unwrap();
    }
}
