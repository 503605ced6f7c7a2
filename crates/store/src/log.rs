//! Append-only binary event log.
//!
//! A durable, segment-based event store for matching workloads that
//! outgrow CSV: fixed binary framing, per-record checksums, torn-tail
//! recovery on open, and per-segment time ranges so [`EventLog::scan_range`]
//! prunes whole segments.
//!
//! # On-disk format
//!
//! Each segment file `seg-<n>.seslog` is:
//!
//! ```text
//! "SESLOG1\n"                      8-byte magic
//! u16 header_len | header          the typed schema header (CSV syntax)
//! record*                          until EOF
//! ```
//!
//! A record is:
//!
//! ```text
//! u32 payload_len | u64 fnv1a(payload) | payload
//! payload := i64 ts | value*       one tagged value per schema attribute
//! ```
//!
//! in the byte dialect of [`crate::codec`] (little-endian integers, its
//! `value` tags), written with its `Encoder` and read with its `Decoder`;
//! each value's tag must be that of its attribute's type. A record is
//! decoded once, whether `open` is counting it or a scan is collecting
//! it. A partially written or corrupt tail record (crash mid-append) is
//! detected by length/checksum and truncated away when the log is
//! reopened; everything before it is intact.
//!
//! ```
//! use ses_event::{AttrType, Schema, Timestamp, Value};
//! use ses_store::{EventLog, LogConfig};
//!
//! let dir = std::env::temp_dir().join(format!("ses-log-doc-{}", std::process::id()));
//! std::fs::remove_dir_all(&dir).ok();
//! let schema = Schema::builder().attr("L", AttrType::Str).build().unwrap();
//!
//! let mut log = EventLog::create(&dir, schema, LogConfig::default()).unwrap();
//! log.append(Timestamp::new(1), [Value::from("A")]).unwrap();
//! log.append(Timestamp::new(2), [Value::from("B")]).unwrap();
//! log.sync().unwrap();
//!
//! // Reopen and scan.
//! drop(log);
//! let log = EventLog::open(&dir, LogConfig::default()).unwrap();
//! assert_eq!(log.scan().unwrap().len(), 2);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use ses_event::{Relation, Schema, Timestamp, Value};

use crate::codec::{corrupt, fnv1a, Decoder, Encoder};
use crate::csv::{parse_header, render_header};
use crate::files::sync_parent;
use crate::StoreError;

const MAGIC: &[u8; 8] = b"SESLOG1\n";

/// Log configuration.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Rotate to a new segment once the active one exceeds this size.
    pub max_segment_bytes: u64,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            // Small enough to exercise rotation in tests; callers tune up.
            max_segment_bytes: 64 * 1024 * 1024,
        }
    }
}

#[derive(Debug, Clone)]
struct SegmentMeta {
    path: PathBuf,
    min_ts: Option<Timestamp>,
    max_ts: Option<Timestamp>,
    events: usize,
    bytes: u64,
}

impl SegmentMeta {
    fn new(path: PathBuf, bytes: u64) -> SegmentMeta {
        SegmentMeta {
            path,
            min_ts: None,
            max_ts: None,
            events: 0,
            bytes,
        }
    }

    /// Counts one record at `ts`.
    fn count(&mut self, ts: Timestamp) {
        self.events += 1;
        self.min_ts = Some(self.min_ts.map_or(ts, |m| m.min(ts)));
        self.max_ts = Some(self.max_ts.map_or(ts, |m| m.max(ts)));
    }
}

/// An append-only, segmented, checksummed event log.
#[derive(Debug)]
pub struct EventLog {
    dir: PathBuf,
    schema: Schema,
    config: LogConfig,
    segments: Vec<SegmentMeta>,
    active: File,
    last_ts: Option<Timestamp>,
    /// What every segment starts with: magic and schema header.
    preamble: Vec<u8>,
}

impl EventLog {
    /// Creates a new log in `dir` (which must be empty or absent).
    pub fn create(
        dir: impl AsRef<Path>,
        schema: Schema,
        config: LogConfig,
    ) -> Result<EventLog, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        if std::fs::read_dir(&dir)?.next().is_some() {
            return Err(StoreError::Parse {
                line: 0,
                message: format!("log directory {} is not empty", dir.display()),
            });
        }
        let mut log = EventLog {
            preamble: preamble(&schema),
            dir,
            schema,
            config,
            segments: Vec::new(),
            active: File::create("/dev/null")?, // replaced by rotate below
            last_ts: None,
        };
        log.rotate()?;
        Ok(log)
    }

    /// Opens an existing log for appending, recovering from a torn tail.
    pub fn open(dir: impl AsRef<Path>, config: LogConfig) -> Result<EventLog, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".seslog"))
            })
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(StoreError::Parse {
                line: 0,
                message: format!("no log segments in {}", dir.display()),
            });
        }

        // A crash during `rotate` can leave a tail segment holding only
        // part of the magic/header preamble, before any record was
        // written. Drop such tails and append to the previous segment —
        // but only while a previous segment exists: a lone torn preamble
        // carries no schema to recover with, so it stays an error.
        while paths.len() > 1 {
            let last = paths.last().expect("non-empty");
            if is_torn_preamble(&std::fs::read(last)?) {
                std::fs::remove_file(last)?;
                paths.pop();
            } else {
                break;
            }
        }

        let mut schema: Option<Schema> = None;
        let mut segments = Vec::with_capacity(paths.len());
        for (i, path) in paths.iter().enumerate() {
            let mut meta = SegmentMeta::new(path.clone(), 0);
            let read = read_segment(path, |ts, _| {
                meta.count(ts);
                Ok(())
            })?;
            match read.torn {
                // Truncate the torn tail of the segment about to be
                // appended to; everything before it is intact.
                Some(_) if i == paths.len() - 1 => {
                    OpenOptions::new()
                        .write(true)
                        .open(path)?
                        .set_len(read.intact)?;
                }
                Some(e) => return Err(e),
                None => {}
            }
            meta.bytes = read.intact;
            match &schema {
                None => schema = Some(read.schema),
                Some(s) if s.is_compatible(&read.schema) => {}
                Some(s) => {
                    return Err(StoreError::SchemaMismatch {
                        expected: s.to_string(),
                        found: read.schema.to_string(),
                    })
                }
            }
            segments.push(meta);
        }
        let schema = schema.expect("at least one segment");
        let active_path = segments.last().expect("non-empty").path.clone();
        let active = OpenOptions::new().append(true).open(&active_path)?;
        Ok(EventLog {
            preamble: preamble(&schema),
            // Appends are non-decreasing, so the newest record holds the
            // largest timestamp.
            last_ts: segments.iter().rev().find_map(|s| s.max_ts),
            dir,
            schema,
            config,
            segments,
            active,
        })
    }

    /// The log's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of events across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.events).sum()
    }

    /// `true` iff no events have been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segment files.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Appends one event (timestamps must be non-decreasing).
    pub fn append(
        &mut self,
        ts: Timestamp,
        values: impl Into<Vec<Value>>,
    ) -> Result<(), StoreError> {
        let values = values.into();
        self.schema.check_row(&values)?;
        if let Some(last) = self.last_ts {
            if ts < last {
                return Err(StoreError::Event(ses_event::EventError::OutOfOrder {
                    previous: last.ticks(),
                    got: ts.ticks(),
                }));
            }
        }

        let record = encode_record(ts, &values);
        self.active.write_all(&record)?;

        let meta = self.segments.last_mut().expect("active segment exists");
        meta.bytes += record.len() as u64;
        meta.count(ts);
        self.last_ts = Some(ts);

        if meta.bytes >= self.config.max_segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Forces appended records to stable storage (call before relying
    /// on durability). Each segment's preamble and directory entry were
    /// made durable when it was created.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.active.sync_data()?;
        Ok(())
    }

    /// Timestamp of the most recently appended event, if any — the floor
    /// every future append must meet (appends are non-decreasing).
    pub fn last_ts(&self) -> Option<Timestamp> {
        self.last_ts
    }

    /// Reads the whole log into a relation.
    pub fn scan(&self) -> Result<Relation, StoreError> {
        self.scan_range(Timestamp::MIN, Timestamp::MAX)
    }

    /// Reads the events with `lo ≤ T ≤ hi`, skipping segments whose time
    /// range lies entirely outside `[lo, hi]`.
    pub fn scan_range(&self, lo: Timestamp, hi: Timestamp) -> Result<Relation, StoreError> {
        let mut relation = Relation::new(self.schema.clone());
        for seg in &self.segments {
            let (Some(min), Some(max)) = (seg.min_ts, seg.max_ts) else {
                continue; // empty segment
            };
            if max < lo || min > hi {
                continue; // pruned
            }
            let read = read_segment(&seg.path, |ts, values| {
                if ts >= lo && ts <= hi {
                    relation.push_values(ts, values)?;
                }
                Ok(())
            })?;
            if let Some(e) = read.torn {
                return Err(e);
            }
        }
        Ok(relation)
    }

    /// Starts a fresh segment, its preamble and its directory entry
    /// durable before any record goes in.
    fn rotate(&mut self) -> Result<(), StoreError> {
        let path = self
            .dir
            .join(format!("seg-{:05}.seslog", self.segments.len()));
        let mut file = File::create(&path)?;
        file.write_all(&self.preamble)?;
        file.sync_all()?;
        sync_parent(&path)?;
        self.active = file;
        self.segments
            .push(SegmentMeta::new(path, self.preamble.len() as u64));
        Ok(())
    }
}

/// `magic | u16 len | header text` for the schema.
fn preamble(schema: &Schema) -> Vec<u8> {
    let header = render_header(schema);
    let mut e = Encoder::new();
    e.put_bytes(MAGIC);
    e.put_u16(header.len() as u16);
    e.put_bytes(header.as_bytes());
    e.into_bytes()
}

/// `u32 len | u64 fnv1a | payload` for one event.
fn encode_record(ts: Timestamp, values: &[Value]) -> Vec<u8> {
    let mut payload = Encoder::new();
    payload.put_i64(ts.ticks());
    for v in values {
        payload.put_value(v);
    }
    let payload = payload.into_bytes();
    let mut record = Encoder::with_capacity(12 + payload.len());
    record.put_u32(payload.len() as u32);
    record.put_u64(fnv1a(&payload));
    record.put_bytes(&payload);
    record.into_bytes()
}

/// Decodes the record at `d`'s position: its frame, its checksum, then
/// its payload against `schema`.
fn decode_record(
    d: &mut Decoder<'_>,
    schema: &Schema,
) -> Result<(Timestamp, Vec<Value>), StoreError> {
    let len = d.get_u32()? as usize;
    let checksum = d.get_u64()?;
    let payload = d.get_bytes(len)?;
    if fnv1a(payload) != checksum {
        return Err(corrupt("checksum mismatch".into()));
    }
    let mut p = Decoder::new(payload);
    let ts = Timestamp::new(p.get_i64()?);
    let values = schema
        .attrs()
        .iter()
        .map(|attr| p.get_value_of(attr.ty))
        .collect::<Result<Vec<_>, _>>()?;
    p.finish()?;
    Ok((ts, values))
}

/// A segment file, read through.
struct SegmentRead {
    schema: Schema,
    /// Bytes up to the end of the last intact record.
    intact: u64,
    /// Why the records stopped before the end of the file, if they did.
    torn: Option<StoreError>,
}

/// Reads the segment at `path`, decoding each record once and handing it
/// to `sink`, up to the end of the file or the first record that fails
/// its frame, checksum or schema.
fn read_segment(
    path: &Path,
    mut sink: impl FnMut(Timestamp, Vec<Value>) -> Result<(), StoreError>,
) -> Result<SegmentRead, StoreError> {
    let data = std::fs::read(path)?;
    let mut d = Decoder::new(&data);
    let schema = read_preamble(path, &mut d)?;
    while d.remaining() > 0 {
        let offset = data.len() - d.remaining();
        match decode_record(&mut d, &schema) {
            Ok((ts, values)) => sink(ts, values)?,
            Err(e) => {
                let reason = match e {
                    StoreError::Corrupt { message } => message,
                    e => e.to_string(),
                };
                let torn = StoreError::Parse {
                    line: 0,
                    message: format!(
                        "corrupt record in {} at offset {offset}: {reason}",
                        path.display()
                    ),
                };
                return Ok(SegmentRead {
                    schema,
                    intact: offset as u64,
                    torn: Some(torn),
                });
            }
        }
    }
    Ok(SegmentRead {
        schema,
        intact: data.len() as u64,
        torn: None,
    })
}

fn read_preamble(path: &Path, d: &mut Decoder<'_>) -> Result<Schema, StoreError> {
    let parse = |message: String| StoreError::Parse { line: 0, message };
    if d.get_bytes(MAGIC.len()).ok() != Some(MAGIC.as_slice()) {
        return Err(parse(format!(
            "{} is not a SESLOG1 segment",
            path.display()
        )));
    }
    let header = d
        .get_u16()
        .and_then(|len| d.get_bytes(usize::from(len)))
        .map_err(|_| parse("truncated segment header".into()))?;
    let header =
        std::str::from_utf8(header).map_err(|_| parse("segment header is not UTF-8".into()))?;
    parse_header(header)
}

/// `true` iff `data` is a strict prefix of a segment preamble
/// (magic + `u16` header length + header text) — the footprint of a
/// crash during segment rotation. A complete preamble with zero records
/// is a valid empty segment, not a torn one.
fn is_torn_preamble(data: &[u8]) -> bool {
    let mut d = Decoder::new(data);
    match d.get_bytes(MAGIC.len()) {
        Err(_) => MAGIC.starts_with(data),
        Ok(magic) if magic != MAGIC => false,
        Ok(_) => match d.get_u16() {
            Ok(len) => d.remaining() < usize::from(len),
            Err(_) => true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_event::AttrType;

    fn schema() -> Schema {
        Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .attr("V", AttrType::Float)
            .attr("OK", AttrType::Bool)
            .build()
            .unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ses-log-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn row(i: i64) -> Vec<Value> {
        vec![
            Value::Int(i),
            Value::str(format!("label-{i}")),
            Value::Float(i as f64 * 1.5),
            Value::Bool(i % 2 == 0),
        ]
    }

    #[test]
    fn append_scan_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut log = EventLog::create(&dir, schema(), LogConfig::default()).unwrap();
        for i in 0..50 {
            log.append(Timestamp::new(i), row(i)).unwrap();
        }
        log.sync().unwrap();
        assert_eq!(log.len(), 50);
        let rel = log.scan().unwrap();
        assert_eq!(rel.len(), 50);
        for (i, e) in rel.events().iter().enumerate() {
            assert_eq!(e.ts(), Timestamp::new(i as i64));
            assert_eq!(e.values(), row(i as i64).as_slice());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_preserves_data_and_order_guard() {
        let dir = temp_dir("reopen");
        {
            let mut log = EventLog::create(&dir, schema(), LogConfig::default()).unwrap();
            for i in 0..10 {
                log.append(Timestamp::new(i * 2), row(i)).unwrap();
            }
            log.sync().unwrap();
        }
        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(log.len(), 10);
        assert!(log.schema().is_compatible(&schema()));
        // The order guard survives reopen.
        assert!(log.append(Timestamp::new(3), row(99)).is_err());
        log.append(Timestamp::new(18), row(99)).unwrap();
        assert_eq!(log.scan().unwrap().len(), 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_rotate_and_range_scans_prune() {
        let dir = temp_dir("rotate");
        let config = LogConfig {
            max_segment_bytes: 256, // force frequent rotation
        };
        let mut log = EventLog::create(&dir, schema(), config).unwrap();
        for i in 0..100 {
            log.append(Timestamp::new(i), row(i)).unwrap();
        }
        assert!(log.segment_count() > 3, "got {}", log.segment_count());
        assert_eq!(log.scan().unwrap().len(), 100);

        let mid = log
            .scan_range(Timestamp::new(25), Timestamp::new(30))
            .unwrap();
        assert_eq!(mid.len(), 6);
        assert_eq!(mid.first_ts(), Some(Timestamp::new(25)));
        assert_eq!(mid.last_ts(), Some(Timestamp::new(30)));
        // An empty range.
        assert!(log
            .scan_range(Timestamp::new(1000), Timestamp::new(2000))
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_recovered_on_open() {
        let dir = temp_dir("torn");
        {
            let mut log = EventLog::create(&dir, schema(), LogConfig::default()).unwrap();
            for i in 0..5 {
                log.append(Timestamp::new(i), row(i)).unwrap();
            }
            log.sync().unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the tail.
        let seg = dir.join("seg-00000.seslog");
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);

        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(log.len(), 4, "the torn record is dropped");
        // The log is appendable again and the recovered file stays clean.
        log.append(Timestamp::new(100), row(100)).unwrap();
        assert_eq!(log.scan().unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_rotation_header_is_dropped_on_open() {
        // Each shape a crash inside `rotate` can leave behind: an empty
        // file, a prefix of the magic, and a magic with a cut header.
        for torn in [
            &b""[..],
            &MAGIC[..4],
            &MAGIC[..],
            &[&MAGIC[..], &[40u8, 0]].concat(),
        ] {
            let dir = temp_dir("torn-rotate");
            {
                let mut log = EventLog::create(&dir, schema(), LogConfig::default()).unwrap();
                for i in 0..3 {
                    log.append(Timestamp::new(i), row(i)).unwrap();
                }
                log.sync().unwrap();
            }
            std::fs::write(dir.join("seg-00001.seslog"), torn).unwrap();

            let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
            assert_eq!(log.len(), 3, "torn tail segment is dropped");
            assert_eq!(log.segment_count(), 1);
            log.append(Timestamp::new(10), row(10)).unwrap();
            assert_eq!(log.scan().unwrap().len(), 4);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn lone_torn_preamble_stays_an_error() {
        // With no previous segment there is no schema to recover with.
        let dir = temp_dir("torn-lone");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("seg-00000.seslog"), &MAGIC[..5]).unwrap();
        assert!(EventLog::open(&dir, LogConfig::default()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_log_reopens_and_accepts_appends() {
        let dir = temp_dir("empty");
        {
            let log = EventLog::create(&dir, schema(), LogConfig::default()).unwrap();
            assert!(log.is_empty());
        }
        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        assert!(log.is_empty());
        assert!(log.scan().unwrap().is_empty());
        assert!(log
            .scan_range(Timestamp::MIN, Timestamp::MAX)
            .unwrap()
            .is_empty());
        log.append(Timestamp::new(1), row(1)).unwrap();
        assert_eq!(log.scan().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_right_after_rotation_appends_to_fresh_segment() {
        let dir = temp_dir("rollover-reopen");
        let config = LogConfig {
            max_segment_bytes: 1, // every append rotates
        };
        let before;
        {
            let mut log = EventLog::create(&dir, schema(), config.clone()).unwrap();
            for i in 0..4 {
                log.append(Timestamp::new(i), row(i)).unwrap();
            }
            log.sync().unwrap();
            before = log.segment_count();
            // The active segment is freshly rotated and empty.
            assert_eq!(log.segments.last().unwrap().events, 0);
        }
        let mut log = EventLog::open(&dir, config).unwrap();
        assert_eq!(log.segment_count(), before);
        assert_eq!(log.len(), 4);
        log.append(Timestamp::new(9), row(9)).unwrap();
        let rel = log.scan().unwrap();
        assert_eq!(rel.len(), 5);
        assert_eq!(rel.last_ts(), Some(Timestamp::new(9)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_range_endpoints_are_inclusive() {
        let dir = temp_dir("range-endpoints");
        let mut log = EventLog::create(&dir, schema(), LogConfig::default()).unwrap();
        // Ties at both endpoints: 5, 5, 6, 7, 7.
        for (i, ts) in [5, 5, 6, 7, 7].into_iter().enumerate() {
            log.append(Timestamp::new(ts), row(i as i64)).unwrap();
        }
        let range = |lo: i64, hi: i64| {
            log.scan_range(Timestamp::new(lo), Timestamp::new(hi))
                .unwrap()
                .len()
        };
        assert_eq!(range(5, 7), 5, "both endpoints inclusive");
        assert_eq!(range(5, 5), 2, "point query keeps all ties");
        assert_eq!(range(6, 7), 3);
        assert_eq!(range(8, 100), 0, "past the end");
        assert_eq!(range(0, 4), 0, "before the start");
        assert_eq!(range(7, 5), 0, "inverted range is empty");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_record_is_detected() {
        let dir = temp_dir("corrupt");
        {
            let mut log = EventLog::create(&dir, schema(), LogConfig::default()).unwrap();
            for i in 0..5 {
                log.append(Timestamp::new(i), row(i)).unwrap();
            }
            log.sync().unwrap();
        }
        // Flip one byte inside the third record's payload.
        let seg = dir.join("seg-00000.seslog");
        let mut data = std::fs::read(&seg).unwrap();
        let idx = data.len() / 2;
        data[idx] ^= 0xFF;
        std::fs::write(&seg, &data).unwrap();

        // Open-for-append truncates at the corruption point (recovery)…
        let log = EventLog::open(&dir, LogConfig::default()).unwrap();
        assert!(log.len() < 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_non_empty_dir_and_open_refuses_missing() {
        let dir = temp_dir("guards");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("junk"), b"x").unwrap();
        assert!(EventLog::create(&dir, schema(), LogConfig::default()).is_err());
        std::fs::remove_dir_all(&dir).ok();

        let empty = temp_dir("guards-missing");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(EventLog::open(&empty, LogConfig::default()).is_err());
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn schema_violations_and_order_are_enforced() {
        let dir = temp_dir("checks");
        let mut log = EventLog::create(&dir, schema(), LogConfig::default()).unwrap();
        assert!(log.append(Timestamp::new(0), vec![Value::Int(1)]).is_err());
        log.append(Timestamp::new(5), row(1)).unwrap();
        assert!(matches!(
            log.append(Timestamp::new(4), row(2)),
            Err(StoreError::Event(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strings_with_arbitrary_bytes_round_trip() {
        let dir = temp_dir("strings");
        let s = Schema::builder().attr("S", AttrType::Str).build().unwrap();
        let mut log = EventLog::create(&dir, s, LogConfig::default()).unwrap();
        let nasty = "commas, \"quotes\", newlines\n, unicode ¬∃γ, and '' quotes";
        log.append(Timestamp::new(0), vec![Value::str(nasty)])
            .unwrap();
        let rel = log.scan().unwrap();
        assert_eq!(rel.events()[0].values()[0], Value::str(nasty));
        std::fs::remove_dir_all(&dir).ok();
    }
}
