//! Fuzz suite for the store's one decoder: what `tests/wire_fuzz.rs` is
//! to the wire, this is to `ses-store`'s files (ROADMAP aim 3 (b)).
//!
//! * `decode_snapshot ∘ encode_snapshot` is the identity — and so is
//!   the re-encode of what was decoded — over the snapshots banks take
//!   after every push of a generated stream: plain patterns, twins,
//!   every `MatchSemantics`, both selections.
//! * Decoding arbitrary, truncated, bit-flipped, length-hostile or
//!   padded bytes never panics and never allocates past the input's
//!   length: a metering allocator holds every decode to
//!   [`PER_INPUT_BYTE`] requested bytes per input byte (plus a constant),
//!   so a count the bytes cannot back is refused before it is reserved.
//! * A checkpoint file damaged anywhere is skipped, never loaded.
//! * `EventLog::open` on a segment whose tail was truncated, bit-flipped
//!   or had garbage appended recovers a prefix of what was appended,
//!   and the log takes appends again.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use proptest::prelude::*;

use common::{pattern_set_strategy_with_overlap, relation_strategy_with, schema};
use ses::prelude::*;
use ses::store::{decode_snapshot, encode_snapshot, StoreError};

thread_local! {
    /// Bytes this thread has requested from the allocator.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// Meters what each thread requests, so concurrently running tests do
/// not count into each other.
struct Metered;

fn note(bytes: usize) {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = REQUESTED.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the meter is a thread-local
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Metered {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static METERED: Metered = Metered;

/// What decoding may request per input byte. A decoded value outweighs
/// its encoding — a two-byte `BOOL` becomes a 24-byte `Value` slot in a
/// `Vec` and again in the event's `Arc<[Value]>` — and the bound allows
/// that with room to spare; what it refuses is a count the input cannot
/// back (`u32::MAX` patterns, 65 535 values) reserved before reading.
const PER_INPUT_BYTE: usize = 64;
/// What decoding may request whatever the input (error messages).
const SLACK: usize = 1024;

/// [`decode_snapshot`], held to the allocation bound.
fn decode(bytes: &[u8]) -> Result<MatcherSnapshot, StoreError> {
    let before = REQUESTED.with(Cell::get);
    let out = decode_snapshot(bytes);
    let requested = REQUESTED.with(Cell::get) - before;
    assert!(
        requested <= PER_INPUT_BYTE * bytes.len() + SLACK,
        "decoding {} bytes requested {requested} bytes",
        bytes.len()
    );
    out
}

const MODES: [MatchSemantics; 3] = [
    MatchSemantics::Maximal,
    MatchSemantics::Definition2,
    MatchSemantics::AllRuns,
];

const SELECTIONS: [EventSelection; 2] = [
    EventSelection::SkipTillNextMatch,
    EventSelection::SkipTillAnyMatch,
];

/// A bank registering each pattern of `patterns`,
/// snapshotted before the stream and after every push of `rel`.
fn snapshots(
    patterns: &[Pattern],
    rel: &Relation,
    options: &MatcherOptions,
) -> Vec<MatcherSnapshot> {
    let mut builder = PatternBank::builder(&schema());
    for (i, p) in patterns.iter().enumerate() {
        builder = builder
            .register(format!("p{i}"), p, options.clone())
            .unwrap();
    }
    let mut bank = builder.build();
    let mut out = Vec::new();
    for e in rel.events().iter().map(Some).chain([None]) {
        out.push(MatcherSnapshot::Bank(bank.snapshot()));
        if let Some(e) = e {
            bank.push(e.ts(), e.values().to_vec()).unwrap();
        }
    }
    out
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ses-store-fuzz-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode ∘ decode and decode ∘ encode are identities on every
    /// snapshot a bank takes.
    #[test]
    fn encode_then_decode_is_the_identity(
        patterns in pattern_set_strategy_with_overlap(75),
        rel in relation_strategy_with(2..10, 0i64..3),
        mode in 0usize..3,
        sel in 0usize..2,
    ) {
        let options = MatcherOptions {
            semantics: MODES[mode],
            selection: SELECTIONS[sel],
            ..MatcherOptions::default()
        };
        let snaps = snapshots(&patterns, &rel, &options);
        for snap in &snaps {
            let bytes = encode_snapshot(snap);
            let decoded = decode(&bytes).unwrap();
            prop_assert_eq!(&decoded, snap);
            prop_assert_eq!(encode_snapshot(&decoded), bytes);
        }
    }

    /// Every strict prefix of an encoding is refused, padding is
    /// refused, and a flipped bit or a hostile count anywhere decodes to
    /// something or is refused — never a panic, never an allocation the
    /// input cannot back.
    #[test]
    fn damaged_snapshots_fail_cleanly(
        patterns in pattern_set_strategy_with_overlap(75),
        rel in relation_strategy_with(2..8, 0i64..3),
        mode in 0usize..3,
        pick in any::<u64>(),
        at in any::<u64>(),
        bit in 0u8..8,
        count in prop_oneof![Just(u32::MAX), Just(u32::MAX / 2), Just(65_535u32), any::<u32>()],
    ) {
        let options = MatcherOptions {
            semantics: MODES[mode],
            ..MatcherOptions::default()
        };
        let snaps = snapshots(&patterns, &rel, &options);
        let bytes = encode_snapshot(&snaps[pick as usize % snaps.len()]);
        for cut in 0..bytes.len() {
            prop_assert!(decode(&bytes[..cut]).is_err(), "prefix {} accepted", cut);
        }
        prop_assert!(decode(&[&bytes[..], &[0]].concat()).is_err());

        let at = at as usize % bytes.len();
        let mut flipped = bytes.clone();
        flipped[at] ^= 1 << bit;
        let _ = decode(&flipped);

        let mut hostile = bytes;
        let at = at.min(hostile.len() - 4);
        hostile[at..at + 4].copy_from_slice(&count.to_le_bytes());
        let _ = decode(&hostile);
    }

    /// Bytes from nowhere — half of them behind a bank kind byte, so the
    /// decoder gets past the first check — never panic and stay within
    /// the allocation bound.
    #[test]
    fn arbitrary_bytes_never_panic(
        kind in prop_oneof![Just(None), Just(Some(2u8)), Just(Some(3u8))],
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut bytes = bytes;
        if let (Some(kind), Some(first)) = (kind, bytes.first_mut()) {
            *first = kind;
        }
        let _ = decode(&bytes);
    }

    /// A checkpoint file with a flipped bit, cut short, or padded, is
    /// skipped by `load_latest` — whichever byte of the frame or the
    /// payload was hit.
    #[test]
    fn damaged_checkpoint_files_are_skipped(
        patterns in pattern_set_strategy_with_overlap(75),
        rel in relation_strategy_with(2..8, 0i64..3),
        pick in any::<u64>(),
        at in any::<u64>(),
        bit in 0u8..8,
        damage in 0u8..3,
    ) {
        let snaps = snapshots(&patterns, &rel, &MatcherOptions::default());
        let dir = scratch("ckpt");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        let info = store.save(&snaps[pick as usize % snaps.len()]).unwrap();
        let mut file = std::fs::read(&info.path).unwrap();
        let at = at as usize % file.len();
        match damage {
            0 => file[at] ^= 1 << bit,
            1 => file.truncate(at),
            _ => file.push(bit),
        }
        std::fs::write(&info.path, &file).unwrap();
        prop_assert!(store.load_latest().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crash consistency of the event log: truncating its segment at any
    /// length, flipping any bit of its records, or appending garbage,
    /// then reopening, recovers a clean prefix of the appended events —
    /// never garbage, never an error — and the log takes appends again.
    #[test]
    fn damaged_tail_recovers_a_prefix(
        n_events in 1usize..12,
        at_fraction in 0.0f64..1.0,
        bit in 0u8..8,
        damage in 0u8..3,
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let log_schema = Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .attr("V", AttrType::Float)
            .attr("OK", AttrType::Bool)
            .build()
            .unwrap();
        let row = |i: i64| {
            vec![
                Value::Int(i),
                Value::str(format!("label-{i}")),
                Value::Float(i as f64 * 1.5),
                Value::Bool(i % 2 == 0),
            ]
        };
        let dir = scratch("log");
        let seg = dir.join("seg-00000.seslog");
        let preamble = {
            EventLog::create(&dir, log_schema.clone(), LogConfig::default()).unwrap();
            std::fs::metadata(&seg).unwrap().len() as usize
        };
        std::fs::remove_dir_all(&dir).unwrap();

        let expected: Vec<Vec<Value>> = (0..n_events as i64).map(row).collect();
        {
            let mut log = EventLog::create(&dir, log_schema, LogConfig::default()).unwrap();
            for (i, values) in expected.iter().enumerate() {
                log.append(Timestamp::new(i as i64), values.clone()).unwrap();
            }
            log.sync().unwrap();
        }
        let mut data = std::fs::read(&seg).unwrap();
        let at = preamble + ((data.len() - preamble) as f64 * at_fraction) as usize;
        match damage {
            0 => data.truncate(at),
            1 => data[at] ^= 1 << bit,
            _ => data.extend_from_slice(&garbage),
        }
        std::fs::write(&seg, &data).unwrap();

        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        let rel = log.scan().unwrap();
        prop_assert!(rel.len() <= n_events);
        if damage == 2 {
            prop_assert_eq!(rel.len(), n_events, "garbage after the last record");
        }
        for (i, e) in rel.events().iter().enumerate() {
            prop_assert_eq!(e.ts(), Timestamp::new(i as i64));
            prop_assert_eq!(e.values(), expected[i].as_slice());
        }
        let recovered = rel.len();
        let last = row(100);
        log.append(Timestamp::new(100), last.clone()).unwrap();
        let rel = log.scan().unwrap();
        prop_assert_eq!(rel.len(), recovered + 1);
        prop_assert_eq!(rel.events()[recovered].values(), last.as_slice());
        std::fs::remove_dir_all(&dir).ok();
    }
}
