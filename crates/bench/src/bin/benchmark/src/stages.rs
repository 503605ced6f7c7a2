//! The server's per-event path taken apart: each stage a request passes
//! between socket and subscriber, called through the crates' public
//! items, single-threaded and in-process, over the identical frames and
//! events the server run receives.
//!
//! Reader thread: `parse_request` per frame → `event_values` per event →
//! `BoundedQueue::push`. Router thread: `pop` → (`EventLog::append`) →
//! `PatternBank::push_with_probe` → per match `display_with` +
//! `match_line` (+ `MatchLog::append`) → (`CheckpointStore::save` per
//! 1 000 events). Stages in parentheses run with `--checkpoint` only.
//! What the server's measured CPU per event exceeds their sum by is
//! syscalls, wake-ups and the writer threads: `server.cpu_residual_frac`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ses_core::MatcherSnapshot;
use ses_event::{Timestamp, Value};
use ses_metrics::JsonValue;
use ses_server::protocol::{self, Request};
use ses_server::BoundedQueue;
use ses_store::{CheckpointStore, EventLog, LogConfig, MatchLog};

use crate::engine;
use crate::inputs::{BankInput, Schedule};
use crate::outcome::{secs, Outcome};
use crate::proc::Scratch;
use crate::stats;
use crate::trace::Tracer;
use crate::wire::{Frames, FRAME_EVENTS};

/// The server's checkpoint cadence in events (`ServerConfig::new`).
const CHECKPOINT_EVERY: usize = 1000;

/// Sums of the replayed stages, in ns per event.
pub struct StageSums {
    pub reader_ns: f64,
    pub router_ns: f64,
}

/// Replays the first `events` events stage by stage and records every
/// `server.*_ns_*`, `store.*`, `query.*`, `core.*` stage metric.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    durable: bool,
    input: &BankInput,
    frames: &Frames,
    schedule: &Schedule,
    events: usize,
    scratch: &Scratch,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<StageSums, String> {
    let n = events as f64;
    let n_frames = events / FRAME_EVENTS;
    out.set(
        "query.parse_us_per_query",
        engine::query_parse_us(input, tracer)?,
    );

    // Reader stage 1: one `parse_request` per frame.
    let mut parsed: Vec<Vec<(i64, Vec<JsonValue>)>> = Vec::with_capacity(n_frames);
    let mut parse = Duration::ZERO;
    for i in 0..n_frames {
        let line = std::str::from_utf8(frames.frame(i))
            .map_err(|e| e.to_string())?
            .trim_end();
        let per_frame = frames.events_in(i) as u64;
        let (request, t) = tracer.span("server.parse", 0, per_frame, || {
            protocol::parse_request(line)
        });
        parse += t;
        match request? {
            Request::Batch { events } => parsed.push(events),
            other => return Err(format!("frame {i} parsed as {other:?}")),
        }
    }
    let parse_ns = secs(parse) * 1e9 / n;
    out.set("server.parse_ns_per_event", parse_ns);

    // Reader stage 2: one `event_values` per event.
    let mut typed: Vec<(i64, Vec<Value>)> = Vec::with_capacity(events);
    let mut typing = Duration::ZERO;
    for frame in &parsed {
        let (rows, t) = tracer.span("server.typed", 0, frame.len() as u64, || {
            frame
                .iter()
                .map(|(ts, raw)| protocol::event_values(&input.schema, raw).map(|v| (*ts, v)))
                .collect::<Result<Vec<_>, _>>()
        });
        typing += t;
        typed.extend(rows?);
    }
    drop(parsed);
    let typed_ns = secs(typing) * 1e9 / n;
    out.set("server.typed_ns_per_event", typed_ns);

    // The queue between them, uncontended: push and pop on one thread.
    let queue: BoundedQueue<(i64, Vec<Value>)> = BoundedQueue::new(1024);
    let rows = typed.clone();
    let (_, t) = tracer.span("server.queue", 0, events as u64, || {
        for row in rows {
            queue.push(row);
            black_box(queue.pop());
        }
    });
    let queue_ns = secs(t) * 1e9 / n;
    out.set("server.queue_ns_per_event", queue_ns);
    let reader_ns = parse_ns + typed_ns + queue_ns;
    out.set("server.reader_ns_per_event", reader_ns);

    // Router: the bank under the probe the router always carries.
    let bank_ns = engine::trace_bank_push(input, schedule, events, tracer, out)?.0 * 1e9;

    // Router: every match rendered for the wire.
    let expected = schedule.prefix(events);
    let mut bank = input.build_bank();
    let mut matches = Vec::with_capacity(expected.len());
    for (ts, values) in &typed {
        matches.extend(
            bank.push(Timestamp::new(*ts), values.clone())
                .map_err(|e| e.to_string())?,
        );
    }
    let (lines, t) = tracer.span("server.render", 0, matches.len() as u64, || {
        matches
            .iter()
            .zip(expected)
            .map(|((sub, m), e)| {
                let text = m.display_with(&input.named[*sub].1);
                (
                    protocol::match_line(&input.named[*sub].0, e.seq, &text),
                    text,
                )
            })
            .collect::<Vec<_>>()
    });
    let render_ns_per_match = secs(t) * 1e9 / lines.len().max(1) as f64;
    out.set("server.render_ns_per_match", render_ns_per_match);
    let mut router_ns = bank_ns + secs(t) * 1e9 / n;

    if durable {
        let dir = scratch.fresh_dir()?;
        router_ns += store_stages(input, schedule, &typed, &lines, &dir, tracer, out)?;
    }
    out.set("server.router_ns_per_event", router_ns);
    Ok(StageSums {
        reader_ns,
        router_ns,
    })
}

/// The durable router's extra stages, in the router's order. Returns
/// their summed ns per event.
fn store_stages(
    input: &BankInput,
    schedule: &Schedule,
    typed: &[(i64, Vec<Value>)],
    lines: &[(String, String)],
    dir: &std::path::Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<f64, String> {
    let n = typed.len() as f64;
    let err = |e: ses_store::StoreError| e.to_string();

    // Event log: append per event, sync once per emitting push.
    let log_dir = dir.join("events");
    let mut log =
        EventLog::create(&log_dir, input.schema.clone(), LogConfig::default()).map_err(err)?;
    let expected = schedule.prefix(typed.len());
    let mut emitting = expected.iter().map(|e| e.at).peekable();
    let mut append = Duration::ZERO;
    let mut syncs_ms = Vec::new();
    for (chunk_no, chunk) in typed.chunks(FRAME_EVENTS).enumerate() {
        let base = chunk_no * FRAME_EVENTS;
        let started = Instant::now();
        let mut sync_in_chunk = Duration::ZERO;
        for (i, (ts, values)) in chunk.iter().enumerate() {
            log.append(Timestamp::new(*ts), values.clone())
                .map_err(err)?;
            if emitting.peek() == Some(&(base + i)) {
                while emitting.next_if_eq(&(base + i)).is_some() {}
                let (synced, t) = tracer.span("store.log_sync", 0, 1, || log.sync());
                synced.map_err(err)?;
                syncs_ms.push(secs(t) * 1e3);
                sync_in_chunk += t;
            }
        }
        let ended = Instant::now();
        tracer.record("store.log_append", started, ended, 0, chunk.len() as u64);
        append += (ended - started).saturating_sub(sync_in_chunk);
    }
    let bytes: u64 = std::fs::read_dir(&log_dir)
        .map_err(|e| e.to_string())?
        .filter_map(|f| f.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let append_ns = secs(append) * 1e9 / n;
    let sync_ns = syncs_ms.iter().sum::<f64>() * 1e6 / n;
    out.set("store.log_append_ns_per_event", append_ns);
    out.set("store.log_syncs", syncs_ms.len() as f64);
    if !syncs_ms.is_empty() {
        out.set("store.log_sync_ms_p50", stats::median(&syncs_ms));
    }
    out.set("store.log_bytes_per_event", bytes as f64 / n);

    // Match logs: one unbuffered append per match.
    let mut match_log = MatchLog::open(dir.join("sub-0.matches.log")).map_err(err)?;
    let (appended, t) = tracer.span("store.matchlog_append", 0, lines.len() as u64, || {
        lines
            .iter()
            .try_for_each(|(_, text)| match_log.append(text))
    });
    appended.map_err(err)?;
    out.set(
        "store.matchlog_append_us_per_match",
        secs(t) * 1e6 / lines.len().max(1) as f64,
    );
    let matchlog_ns = secs(t) * 1e9 / n;

    // Checkpoints: snapshot + encode + atomic save per 1 000 events.
    engine::trace_snapshots(input, tracer, out);
    let mut store = CheckpointStore::open(dir.join("ckpt"), 3).map_err(err)?;
    let mut bank = input.build_bank();
    let mut saves_ms = Vec::new();
    for (i, (ts, values)) in typed.iter().enumerate() {
        bank.push(Timestamp::new(*ts), values.clone())
            .map_err(|e| e.to_string())?;
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            let (saved, t) = tracer.span("store.checkpoint_save", 0, 1, || {
                store.save(&MatcherSnapshot::Bank(bank.snapshot()))
            });
            saved.map_err(err)?;
            saves_ms.push(secs(t) * 1e3);
        }
    }
    let checkpoint_ns = saves_ms.iter().sum::<f64>() * 1e6 / n;
    if !saves_ms.is_empty() {
        out.set("store.checkpoint_save_ms_p50", stats::median(&saves_ms));
    }
    out.set("store.checkpoint_ns_per_event", checkpoint_ns);
    Ok(append_ns + sync_ns + matchlog_ns + checkpoint_ns)
}
