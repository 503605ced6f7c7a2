//! Byte-compatibility pins for what `ses-store` writes: one event-log
//! record holding all four value types, and a `SESCKPT1` checkpoint
//! frame around a small kind-2 bank payload — plus the kind-3 frame an
//! earlier release wrote for a bank with a deduplicated twin.
//!
//! Each expected file is written out by hand below, field by field, in
//! the layouts `crates/store/src/log.rs` and `codec.rs` document. Each
//! test encodes through the public API and compares byte for byte, then
//! reads the hand-written bytes back through the public API. A change
//! to either on-disk format fails here, and so does a release that can
//! no longer read what an earlier one wrote — or that reads a retired
//! layout as anything but a refusal by name.

use std::path::PathBuf;

use ses::core::{BankPatternSnapshot, BankSnapshot, InstanceSnapshot, StreamSnapshot};
use ses::prelude::*;
use ses::store::{Retired, StoreError};

/// Bytes from hex chunks; spaces are for reading only.
fn hex(chunks: &[&str]) -> Vec<u8> {
    let digits: String = chunks.concat().split_whitespace().collect();
    (0..digits.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&digits[i..i + 2], 16).unwrap())
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ses-pins-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A segment holding one record: `ts` 5, `ID` −2, `L` "ab", `V` 1.5,
/// `OK` true.
const SEGMENT: &[&str] = &[
    "53 45 53 4c 4f 47 31 0a", // "SESLOG1\n"
    "1e00",                    // u16 header length 30
    // "ID:INT,L:STR,V:FLOAT,OK:BOOL,T"
    "49 44 3a 49 4e 54 2c 4c 3a 53 54 52 2c 56 3a 46 4c 4f 41 54 2c 4f 4b 3a 42 4f 4f 4c 2c 54",
    "23000000",            // u32 payload length 35
    "d20ec7e011bcaf18",    // u64 fnv1a(payload)
    "0500000000000000",    // i64 ts 5
    "00 feffffffffffffff", // INT −2
    "02 02000000 6162",    // STR "ab"
    "01 000000000000f83f", // FLOAT 1.5
    "03 01",               // BOOL true
];

fn segment_schema() -> Schema {
    Schema::builder()
        .attr("ID", AttrType::Int)
        .attr("L", AttrType::Str)
        .attr("V", AttrType::Float)
        .attr("OK", AttrType::Bool)
        .build()
        .unwrap()
}

fn segment_row() -> Vec<Value> {
    vec![
        Value::Int(-2),
        Value::str("ab"),
        Value::Float(1.5),
        Value::Bool(true),
    ]
}

#[test]
fn log_record_with_every_value_type_is_pinned() {
    let dir = scratch("log");
    let mut log = EventLog::create(&dir, segment_schema(), LogConfig::default()).unwrap();
    log.append(Timestamp::new(5), segment_row()).unwrap();
    log.sync().unwrap();
    drop(log);
    let segment = dir.join("seg-00000.seslog");
    assert_eq!(std::fs::read(&segment).unwrap(), hex(SEGMENT));

    // The hand-written file reads back as the event it spells.
    std::fs::write(&segment, hex(SEGMENT)).unwrap();
    let log = EventLog::open(&dir, LogConfig::default()).unwrap();
    assert_eq!(log.last_ts(), Some(Timestamp::new(5)));
    let rel = log.scan().unwrap();
    assert_eq!(rel.len(), 1);
    assert_eq!(rel.events()[0].ts(), Timestamp::new(5));
    assert_eq!(rel.events()[0].values(), segment_row().as_slice());
    drop(log);

    // A tag must be its attribute's, checksum or not: the same record
    // with `ID` tagged FLOAT (and its checksum fixed up) is a torn tail.
    let mut mistyped = SEGMENT.to_vec();
    mistyped[4] = "81a1e65a54014bb5";
    mistyped[6] = "01 feffffffffffffff";
    std::fs::write(&segment, hex(&mistyped)).unwrap();
    let log = EventLog::open(&dir, LogConfig::default()).unwrap();
    assert!(log.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// Kind 2: one plain pattern `q` whose matcher holds one event
/// (`Int` 1, `Str` "C"), one instance, one pending match and one
/// survivor.
fn kind2() -> BankSnapshot {
    let ts = Timestamp::new;
    BankSnapshot {
        watermark: Some(ts(7)),
        last_ts: Some(ts(7)),
        next_id: 2,
        ties: 1,
        emitted: 1,
        patterns: vec![BankPatternSnapshot {
            name: "q".into(),
            matcher: StreamSnapshot {
                fingerprint: 0x0123_4567_89ab_cdef,
                watermark: Some(ts(7)),
                evicted: 1,
                last_ts: Some(ts(7)),
                events: vec![Event::new(ts(7), vec![Value::Int(1), Value::str("C")])],
                instances: vec![InstanceSnapshot {
                    state: 1,
                    bindings: vec![(VarId(0), EventId(1), ts(7))],
                }],
                pending: vec![vec![(VarId(0), EventId(1))]],
                survivors: vec![(ts(6), vec![(VarId(1), EventId(0))])],
                emitted: 1,
            },
            ids: vec![EventId(1)],
            base: 1,
            peak_omega: 2,
            hits: 1,
            skips: 1,
        }],
    }
}

const KIND2: &[&str] = &[
    "53 45 53 43 4b 50 54 31",                                  // "SESCKPT1"
    "0100",                                                     // u16 version 1
    "e900000000000000",                                         // u64 payload length 233
    "fd929ffedf5e647a",                                         // u64 fnv1a(payload)
    "02",                                                       // kind 2
    "01 0700000000000000",                                      // watermark 7
    "01 0700000000000000",                                      // last_ts 7
    "0200000000000000",                                         // next_id
    "0100000000000000",                                         // ties
    "0100000000000000",                                         // emitted
    "01",                                                       // routed through the index
    "01000000",                                                 // one pattern
    "01000000 71",                                              // name "q"
    "efcdab8967452301",                                         // stream: fingerprint
    "01 0700000000000000",                                      // watermark 7
    "01",                                                       // evicts
    "0100000000000000",                                         // evicted
    "01 0700000000000000",                                      // last_ts 7
    "01000000",                                                 // one event:
    "0700000000000000 0200 00 0100000000000000 02 01000000 43", // 7, [1, "C"]
    "01000000", // one instance: state 1, one binding
    "01000000 01000000 00000000 01000000 0700000000000000",
    "01000000", // one pending match
    "01000000 00000000 01000000",
    "01000000", // one survivor, min ts 6
    "0600000000000000 01000000 01000000 00000000",
    "0100000000000000",  // emitted
    "01000000 01000000", // ids [1]
    "0100000000000000",  // base
    "0200000000000000",  // peak_omega
    "0100000000000000",  // hits
    "0100000000000000",  // skips
];

/// Kind 3, as an earlier release wrote it: `q` plain with a matcher
/// holding one event (`Float` −0.5, `Bool` false), `q2` a dedup member
/// of it, `q3` plain with an empty matcher.
const KIND3: &[&str] = &[
    "53 45 53 43 4b 50 54 31", // "SESCKPT1"
    "0100",                    // u16 version 1
    "3a01000000000000",        // u64 payload length 314
    "0ef1bfae420c38e6",        // u64 fnv1a(payload)
    "03",                      // kind 3
    "01 0900000000000000",     // watermark 9
    "01 0900000000000000",     // last_ts 9
    "0300000000000000",        // next_id
    "0000000000000000",        // ties
    "0000000000000000",        // emitted
    "01",                      // routed through the index
    "03000000",                // three patterns
    "01000000 71",             // "q"
    "00",                      // role: plain
    "01",                      // has a matcher:
    "efcdab8967452301",        // fingerprint
    "01 0900000000000000",     // watermark 9
    "01",                      // evicts
    "0000000000000000",        // evicted
    "01 0900000000000000",     // last_ts 9
    "01000000",                // one event: 9, [−0.5, false]
    "0900000000000000 0200 01 000000000000e0bf 03 00",
    "00000000",          // no instances
    "00000000",          // no pending matches
    "00000000",          // no survivors
    "0000000000000000",  // emitted
    "01000000 02000000", // ids [2]
    "0200000000000000",  // base
    "0100000000000000",  // peak_omega
    "0100000000000000",  // hits
    "0000000000000000",  // skips
    "02000000 7132",     // "q2"
    "01 00000000",       // role: dedup member of 0
    "00",                // no matcher
    "00000000",          // no ids
    "0000000000000000 0000000000000000 0100000000000000 0000000000000000",
    "02000000 7133", // "q3"
    "00",            // role: plain
    "01",            // has a matcher: the empty stream
    "1100000000000000 00 01 0000000000000000 00",
    "00000000 00000000 00000000 00000000 0000000000000000",
    "00000000", // no ids
    "0000000000000000 0000000000000000 0000000000000000 0100000000000000",
    "00000000", // no prefix pools
];

/// Saves `snapshot` as checkpoint 0 and compares the file with
/// `expected`; then reads a file holding exactly `expected` back.
fn pin_checkpoint(name: &str, snapshot: BankSnapshot, expected: &[&str]) {
    let snapshot = MatcherSnapshot::Bank(snapshot);
    let dir = scratch(name);
    let mut store = CheckpointStore::open(&dir, 3).unwrap();
    let info = store.save(&snapshot).unwrap();
    assert_eq!(std::fs::read(&info.path).unwrap(), hex(expected));
    assert_eq!(info.bytes, hex(expected).len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();

    let store = CheckpointStore::open(&dir, 3).unwrap();
    std::fs::write(&info.path, hex(expected)).unwrap();
    let loaded = store.load_latest().unwrap().expect("the pinned checkpoint");
    assert_eq!(loaded.skipped, 0);
    assert_eq!(loaded.snapshot, snapshot);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kind2_checkpoint_frame_is_pinned() {
    pin_checkpoint("kind2", kind2(), KIND2);
}

/// A bank of this release runs every pattern on a matcher of its own,
/// so it cannot continue `q2`: the intact frame is refused by name,
/// neither skipped as corrupt nor loaded.
#[test]
fn kind3_checkpoint_frame_is_pinned() {
    let dir = scratch("kind3");
    let mut store = CheckpointStore::open(&dir, 3).unwrap();
    let info = store.save(&MatcherSnapshot::Bank(kind2())).unwrap();
    std::fs::write(&info.path, hex(KIND3)).unwrap();
    let err = store.load_latest().unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::RetiredSnapshot {
                kind: 3,
                what: Retired::Deduplication
            }
        ),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
