//! The two TCP workloads: a real `ses-server` child process, driven over
//! the documented wire protocol by one producer and one subscriber
//! connection.
//!
//! A run is a sequence of identical laps, as many as fit into
//! `--seconds`. Each lap starts a fresh server and takes it through two
//! phases over one continuous event stream:
//!
//! * Phase A, closed loop: the stream's first part in chunks, each
//!   written as fast as the server's backpressure admits and closed by a
//!   `sync`; a chunk's clock runs from its first byte to the receipt of
//!   its last expected match. The first chunk warms the server (TCP
//!   buffers, allocator, caches) and is not counted — a cold server
//!   ingests a third slower, and noisily.
//! * Phase B, open loop: the stream continues at a fixed rate, one frame
//!   every `256 / rate` seconds whatever the server does; a match's
//!   latency runs from the **due** time of the frame that carries its
//!   finalizing event to its receipt.
//!
//! Several short laps instead of one long one, because how the kernel
//! happens to place a server's reader, router and writer threads on the
//! machine's two cores differs from process to process and moves both
//! rate and latency by a tenth: one server per run would measure its
//! placement.
//!
//! * Phase C (durable, traced run), on a server of its own: it aborts
//!   itself after a fixed number of events, is restarted on the same
//!   directory, and a subscriber resuming from cursor 0 must read the
//!   reference lines.

use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ses_metrics::{JsonObject, JsonValue};
use ses_server::protocol::parse_json;

use crate::engine::note_latency;
use crate::inputs::{self, BankInput, Emission, Fingerprint, Schedule};
use crate::outcome::{describe, secs, Outcome, RunArgs};
use crate::proc::{Scratch, ServerProc};
use crate::stages;
use crate::stats;
use crate::sys;
use crate::trace::Tracer;
use crate::wire::{Conn, Frames, Incoming, FRAME_EVENTS, READ_DEADLINE};

/// A match received later than this after its frame was due counts as
/// failed. The issue asked for 250 ms; on the sizing machine's disk one
/// durable run in ten met an fsync stall longer than that, and a
/// workload must not fail for reasons the server cannot help.
const LATE_LIMIT: Duration = Duration::from_secs(1);

/// How long after a `sync` reply a match may still arrive before it is
/// counted as missing.
const MATCH_GRACE: Duration = Duration::from_secs(5);

/// Length of a lap's Phase B.
const OPEN_LOOP: Duration = Duration::from_secs(2);

/// Phase B's match latencies are reduced to one median per window of
/// this length (by due time), and the windows to their fast decile.
const LATENCY_WINDOW: Duration = Duration::from_millis(400);

/// A window with fewer matches than this gives no median.
const WINDOW_MIN_MATCHES: usize = 20;

/// Pings on the subscriber connection during a traced Phase B.
const PING_EVERY: Duration = Duration::from_millis(50);

/// Sizes that differ between the memory-only and the durable workload.
/// On the sizing machine a warm memory-only server ingests ~450 k ev/s
/// and a durable one ~120 k (an unbuffered log write per event, an fsync
/// per emitting push, a checkpoint per 1 000 events), so the durable
/// chunks are smaller and its open-loop rate lower: a chunk takes a
/// quarter to half a second, and both rates sit at about a quarter to a
/// third of saturation, where no backlog builds.
struct Plan {
    durable: bool,
    /// Events per closed-loop chunk.
    chunk_events: usize,
    /// Chunks per lap, the warm-up chunk included.
    lap_chunks: usize,
    /// Events of the traced run's stage replay.
    replay_events: usize,
    /// Open-loop rate in events per second, and the events of one lap's
    /// Phase B at that rate.
    phase_b_rate: f64,
    phase_b_events: usize,
    /// Events after which the Phase C server aborts itself.
    kill_after: usize,
}

impl Plan {
    fn new(durable: bool, quick: bool) -> Plan {
        let scale = if quick { 10 } else { 1 };
        let phase_b_rate = if durable { 40_000.0 } else { 100_000.0 };
        let open_loop = if quick { OPEN_LOOP / 2 } else { OPEN_LOOP };
        Plan {
            durable,
            chunk_events: whole_frames(if durable { 50_000 } else { 100_000 } / scale),
            lap_chunks: match (quick, durable) {
                (true, _) => 3,
                (false, true) => 8,
                (false, false) => 10,
            },
            replay_events: whole_frames(if durable { 100_000 } else { 400_000 } / scale),
            phase_b_rate,
            phase_b_events: whole_frames((phase_b_rate * secs(open_loop)) as usize),
            kill_after: 100_500 / scale,
        }
    }

    /// Events in the stream's Phase A part.
    fn phase_a_events(&self) -> usize {
        self.lap_chunks * self.chunk_events
    }

    /// Events one lap sends.
    fn lap_events(&self) -> usize {
        self.phase_a_events() + self.phase_b_events
    }

    /// Events Phase C sends: enough whole frames to pass the kill point.
    fn phase_c_events(&self) -> usize {
        whole_frames(self.kill_after + 2 * FRAME_EVENTS)
    }
}

fn whole_frames(events: usize) -> usize {
    events / FRAME_EVENTS * FRAME_EVENTS
}

/// The open-loop send schedule: the frame that starts at event
/// `first_event + i * 256` is due at `start + i * interval`.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    pub start: Instant,
    pub interval: Duration,
    /// Stream index of the first event sent on this schedule.
    pub first_event: usize,
}

impl Pace {
    /// One frame of [`FRAME_EVENTS`] events every `FRAME_EVENTS / rate`
    /// seconds.
    pub fn at_rate(start: Instant, events_per_s: f64, first_event: usize) -> Pace {
        Pace {
            start,
            interval: Duration::from_secs_f64(FRAME_EVENTS as f64 / events_per_s),
            first_event,
        }
    }

    /// Due time of the `i`-th frame of the schedule.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval * i as u32
    }

    /// Position in the schedule of the frame carrying stream event
    /// `index`.
    pub fn frame_of_event(&self, index: usize) -> usize {
        (index - self.first_event) / FRAME_EVENTS
    }
}

/// How late `actual` is against `due`; early is not late.
pub fn lateness(due: Instant, actual: Instant) -> Duration {
    actual.saturating_duration_since(due)
}

/// Everything the subscriber connection received, stamped on arrival.
type Inbox = Vec<(Instant, String)>;

/// The sixteen `subscribe` requests, pipelined in one write.
fn subscribe_requests(input: &BankInput) -> String {
    input
        .named
        .iter()
        .map(|(name, pattern)| {
            JsonObject::new()
                .with("op", "subscribe")
                .with("name", name.clone())
                .with("query", ses_query::render(pattern))
                .with("cursor", 0u64)
                .to_string()
                + "\n"
        })
        .collect()
}

fn field_u64(object: &JsonValue, key: &str) -> Option<u64> {
    object.as_object()?.get(key)?.as_u64()
}

fn is_match(line: &str) -> bool {
    line.starts_with("{\"op\":\"match\"")
}

/// A running server with its producer and subscriber connections.
struct Session {
    server: ServerProc,
    producer: Conn,
    /// Write half of the subscriber connection, for pings.
    subscriber: TcpStream,
    reader: Option<JoinHandle<Inbox>>,
    stop: Arc<AtomicBool>,
    /// Match lines the reader thread has seen so far.
    matches_seen: Arc<AtomicUsize>,
    /// Spawn → listening → sixteen subscriptions acknowledged.
    setup: Duration,
    subscribe: Duration,
}

impl Session {
    fn start(
        input: &BankInput,
        checkpoint: Option<&Path>,
        kill_after: Option<u64>,
    ) -> Result<Session, String> {
        let server = ServerProc::spawn(checkpoint, kill_after)?;
        let subscribing = Instant::now();
        let mut sub = Conn::connect(server.addr)?;
        sub.send(subscribe_requests(input).as_bytes())?;
        for _ in 0..input.named.len() {
            match sub.next_line(READ_DEADLINE)? {
                Incoming::Line(line) if line.starts_with("{\"ok\":true,\"op\":\"subscribe\"") => {}
                other => return Err(format!("subscribe refused: {other:?}")),
            }
        }
        let subscribe = subscribing.elapsed();
        let setup = server.spawned_at.elapsed();
        let producer = Conn::connect(server.addr)?;
        let subscriber = sub.writer()?;

        let stop = Arc::new(AtomicBool::new(false));
        let matches_seen = Arc::new(AtomicUsize::new(0));
        let reader = {
            let (stop, seen) = (Arc::clone(&stop), Arc::clone(&matches_seen));
            std::thread::spawn(move || {
                let mut inbox = Inbox::new();
                // Short deadlines so the stop flag is seen; liveness is
                // the main thread's business.
                while !stop.load(Ordering::SeqCst) {
                    match sub.next_line(Duration::from_millis(20)) {
                        Ok(Incoming::Line(line)) => {
                            let at = Instant::now();
                            if is_match(line) {
                                seen.fetch_add(1, Ordering::SeqCst);
                            }
                            inbox.push((at, line.to_string()));
                        }
                        Ok(Incoming::TimedOut) => {}
                        Ok(Incoming::Closed) | Err(_) => break,
                    }
                }
                inbox
            })
        };
        Ok(Session {
            server,
            producer,
            subscriber,
            reader: Some(reader),
            stop,
            matches_seen,
            setup,
            subscribe,
        })
    }

    /// Sends `sync` on the producer connection and checks its reply
    /// against the `sent` events so far; returns the events lost.
    fn sync(&mut self, sent: usize) -> Result<u64, String> {
        // The reply queues behind every event already sent, so its
        // deadline covers draining them.
        self.producer.send(b"{\"op\":\"sync\"}\n")?;
        let reply = match self.producer.next_line(6 * READ_DEADLINE)? {
            Incoming::Line(line) => parse_json(line)?,
            other => return Err(format!("sync: {other:?}")),
        };
        let consumed = field_u64(&reply, "consumed").unwrap_or(0);
        let shed = field_u64(&reply, "shed").unwrap_or(0);
        Ok((sent as u64).saturating_sub(consumed) + shed)
    }

    /// Waits until `expected` match lines arrived in all, or the grace
    /// period ran out.
    fn await_matches(&self, expected: usize) {
        let give_up = Instant::now() + MATCH_GRACE;
        while self.matches_seen.load(Ordering::SeqCst) < expected && Instant::now() < give_up {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stops the reader and returns everything it received.
    fn finish(&mut self) -> Inbox {
        self.stop.store(true, Ordering::SeqCst);
        self.reader
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.finish();
    }
}

/// The match lines one connection received, checked against the
/// reference emissions they must equal.
struct Delivery {
    /// Receipt time of each expected emission that arrived exactly as the
    /// reference has it, once.
    received: Vec<Option<Instant>>,
    /// Missing + duplicated + different match lines.
    bad: u64,
    /// Receipt time of every `pong`.
    pongs: Vec<Instant>,
}

fn check_delivery(inbox: &Inbox, input: &BankInput, expected: &[Emission]) -> Delivery {
    // (sub, seq) → index into `expected`; seqs are dense per sub.
    let mut by_sub: Vec<Vec<usize>> = vec![Vec::new(); input.named.len()];
    for (i, e) in expected.iter().enumerate() {
        debug_assert_eq!(e.seq as usize, by_sub[e.sub].len() + 1);
        by_sub[e.sub].push(i);
    }
    let mut d = Delivery {
        received: vec![None; expected.len()],
        bad: 0,
        pongs: Vec::new(),
    };
    for (at, line) in inbox {
        let Ok(v) = parse_json(line) else {
            d.bad += 1;
            continue;
        };
        let Some(o) = v.as_object() else { continue };
        match o.get("op").and_then(JsonValue::as_str) {
            Some("pong") => d.pongs.push(*at),
            Some("match") => {
                let sub = o
                    .get("sub")
                    .and_then(JsonValue::as_str)
                    .and_then(|name| input.named.iter().position(|(n, _)| n == name));
                let seq = o.get("seq").and_then(JsonValue::as_u64).unwrap_or(0) as usize;
                let text = o.get("match").and_then(JsonValue::as_str);
                let hit = sub
                    .and_then(|s| by_sub[s].get(seq.wrapping_sub(1)))
                    .copied()
                    .filter(|&i| d.received[i].is_none())
                    .filter(|&i| Some(expected[i].line.as_str()) == text);
                match hit {
                    Some(i) => d.received[i] = Some(*at),
                    None => d.bad += 1,
                }
            }
            _ => {}
        }
    }
    d.bad += d.received.iter().filter(|r| r.is_none()).count() as u64;
    d
}

/// One closed-loop chunk as the producer saw it.
struct Chunk {
    /// Stream range of its events.
    events: std::ops::Range<usize>,
    started: Instant,
    synced: Instant,
    /// Server CPU seconds over the chunk.
    cpu_s: f64,
    /// Producer thread on-CPU seconds over the chunk.
    busy_s: f64,
}

/// Phase B as the producer saw it.
struct OpenLoop {
    pace: Pace,
    /// Write start minus due time, per frame.
    lateness_ms: Vec<f64>,
    /// `(write start, write end)` per frame; traced run only.
    writes: Vec<(Instant, Instant)>,
    /// Schedule position of the first frame sent while pinging: half
    /// way through a traced run, never in an untraced one.
    pinging_from: usize,
    /// Send time of every ping.
    pings: Vec<Instant>,
}

/// What every phase of one run shares.
struct Run {
    plan: Plan,
    input: BankInput,
    frames: Frames,
    schedule: Schedule,
    scratch: Scratch,
}

impl Run {
    /// A fresh `--checkpoint` directory for the next session of a
    /// durable run, `None` for a memory-only one.
    fn checkpoint_dir(&self) -> Result<Option<PathBuf>, String> {
        if !self.plan.durable {
            return Ok(None);
        }
        self.scratch.fresh_dir().map(Some)
    }

    fn start_session(&self) -> Result<Session, String> {
        Session::start(&self.input, self.checkpoint_dir()?.as_deref(), None)
    }

    /// Matches the reference run emitted while pushing events `range`.
    fn expected_in(&self, range: &std::ops::Range<usize>) -> usize {
        self.schedule.prefix(range.end).len() - self.schedule.prefix(range.start).len()
    }

    /// Checks what a subscriber received against the `expected`
    /// emissions and counts every line that is not as the reference has
    /// it.
    fn delivery(&self, inbox: &Inbox, expected: &[Emission], out: &mut Outcome) -> Delivery {
        let delivery = check_delivery(inbox, &self.input, expected);
        if delivery.bad > 0 {
            out.fail(
                delivery.bad,
                format!(
                    "{} of {} match lines missing, duplicated or different",
                    delivery.bad,
                    expected.len()
                ),
            );
        }
        delivery
    }

    /// Phase A on the fresh session `s`: the plan's closed-loop chunks,
    /// fewer only if the server dies.
    fn closed_loop(&self, s: &mut Session, out: &mut Outcome) -> Vec<Chunk> {
        let chunk_frames = self.plan.chunk_events / FRAME_EVENTS;
        let pid = s.server.pid();
        let mut chunks: Vec<Chunk> = Vec::new();
        while chunks.len() < self.plan.lap_chunks {
            let lo = chunks.len() * self.plan.chunk_events;
            let events = lo..lo + self.plan.chunk_events;
            out.attempted += (events.len() + self.expected_in(&events)) as u64;

            let cpu0 = sys::cpu_seconds(pid).unwrap_or(0.0);
            let busy0 = sys::thread_cpu_seconds().unwrap_or(0.0);
            let started = Instant::now();
            let first = lo / FRAME_EVENTS;
            let result = s
                .producer
                .send(self.frames.run(first, first + chunk_frames))
                .and_then(|()| s.sync(events.end));
            let synced = Instant::now();
            match result {
                Ok(0) => {}
                Ok(lost) => out.fail(lost, format!("{lost} events lost by event {}", events.end)),
                Err(e) => {
                    let stderr = s.server.kill();
                    out.fail(
                        events.len() as u64,
                        format!(
                            "the server did not finish a chunk: {e}; stderr: {}",
                            stderr.trim()
                        ),
                    );
                    break;
                }
            }
            // Outside both clocks: the next chunk starts on a drained
            // server.
            s.await_matches(self.schedule.prefix(events.end).len());
            chunks.push(Chunk {
                events,
                started,
                synced,
                cpu_s: sys::cpu_seconds(pid).unwrap_or(cpu0) - cpu0,
                busy_s: sys::thread_cpu_seconds().unwrap_or(busy0) - busy0,
            });
        }
        chunks
    }

    /// Phase B: the plan's events from stream index `first_event` at the
    /// plan's rate, whatever the server does.
    fn open_loop(
        &self,
        s: &mut Session,
        first_event: usize,
        tracer: &Tracer,
        out: &mut Outcome,
    ) -> OpenLoop {
        let events = self.plan.phase_b_events;
        let n_frames = events / FRAME_EVENTS;
        let first_frame = first_event / FRAME_EVENTS;
        let range = first_event..first_event + events;
        out.attempted += (events + self.expected_in(&range)) as u64;

        let pace = Pace::at_rate(
            Instant::now() + Duration::from_millis(20),
            self.plan.phase_b_rate,
            first_event,
        );
        // Only the traced run pings, and only in its second half: once
        // the subscriber has sent anything, its socket delays ACKs and
        // the matches being timed wait on the server's Nagle timer.
        let mut b = OpenLoop {
            pace,
            lateness_ms: Vec::with_capacity(n_frames),
            writes: Vec::new(),
            pinging_from: if tracer.enabled() {
                n_frames / 2
            } else {
                n_frames
            },
            pings: Vec::new(),
        };
        let mut next_ping = pace.due(b.pinging_from);
        let mut result = Ok(());
        for i in 0..n_frames {
            let due = pace.due(i);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let begun = Instant::now();
            result = s.producer.send(self.frames.frame(first_frame + i));
            if result.is_err() {
                break;
            }
            b.lateness_ms.push(secs(lateness(due, begun)) * 1e3);
            if tracer.enabled() {
                b.writes.push((begun, Instant::now()));
                if begun >= next_ping {
                    if s.subscriber.write_all(b"{\"op\":\"ping\"}\n").is_ok() {
                        b.pings.push(Instant::now());
                    }
                    next_ping = begun + PING_EVERY;
                }
            }
        }
        match result.and_then(|()| s.sync(range.end)) {
            Ok(0) => s.await_matches(self.schedule.prefix(range.end).len()),
            Ok(lost) => out.fail(lost, format!("open loop: {lost} events lost")),
            Err(e) => {
                let stderr = s.server.kill();
                out.fail(
                    events as u64,
                    format!(
                        "open loop: the server did not finish: {e}; stderr: {}",
                        stderr.trim()
                    ),
                );
            }
        }
        b
    }
}

/// What one closed-loop chunk after its lap's warm-up chunk measured.
struct ChunkSample {
    events_per_s: f64,
    /// Server CPU µs per event.
    cpu_us_per_event: f64,
    /// First byte to `sync` reply, and the producer thread's on-CPU
    /// part of it.
    wall_s: f64,
    busy_s: f64,
}

/// Fully processed means delivered: a chunk's clock stops at the receipt
/// of its last match. The `sync` reply comes later by whatever the
/// producer socket's delayed ACK adds (the server writes the reply and
/// its newline separately, without `TCP_NODELAY`) and stops the clock
/// only of a chunk none of whose matches arrived.
fn chunk_samples(
    chunks: &[Chunk],
    expected: &[Emission],
    received: &[Option<Instant>],
) -> Vec<ChunkSample> {
    let timed = chunks.get(1..).unwrap_or_default();
    timed
        .iter()
        .map(|c| {
            let last_match = expected
                .iter()
                .zip(received)
                .filter(|(e, _)| c.events.contains(&e.at))
                .filter_map(|(_, at)| *at)
                .max();
            let done = last_match.unwrap_or(c.synced);
            let events = c.events.len() as f64;
            ChunkSample {
                events_per_s: events / secs(done - c.started),
                cpu_us_per_event: c.cpu_s * 1e6 / events,
                wall_s: secs(c.synced - c.started),
                busy_s: c.busy_s,
            }
        })
        .collect()
}

/// What the laps of one run measured, every lap's samples in one pool.
#[derive(Default)]
struct Measured {
    /// Every Phase A chunk after its lap's warm-up chunk.
    chunks: Vec<ChunkSample>,
    /// Spawn → listening → sixteen subscriptions acknowledged, per lap.
    setups_s: Vec<f64>,
    /// Spawn → listening, and the sixteen subscribes, of the last lap.
    start_ms: f64,
    subscribe_ms: f64,
    /// Phase B match latencies of frames sent before any ping.
    latencies_ms: Vec<f64>,
    /// Their medians per [`LATENCY_WINDOW`] of due time.
    window_latencies_ms: Vec<f64>,
    /// Those of frames sent while the subscriber was pinging.
    pinged_latencies_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    ping_rtts_ms: Vec<f64>,
    /// `VmHWM` of every lap's server as it ends.
    rss_mb: Vec<f64>,
    /// The last lap's reply to `stats`.
    stats: Option<JsonValue>,
}

impl Measured {
    fn rates(&self) -> Vec<f64> {
        self.chunks.iter().map(|c| c.events_per_s).collect()
    }

    fn cpu_us_per_event(&self) -> Vec<f64> {
        self.chunks.iter().map(|c| c.cpu_us_per_event).collect()
    }

    /// Producer on-CPU share of the timed chunks' wall time.
    fn busy_frac(&self) -> f64 {
        let wall: f64 = self.chunks.iter().map(|c| c.wall_s).sum();
        self.chunks.iter().map(|c| c.busy_s).sum::<f64>() / wall.max(1e-9)
    }

    /// Median over the laps' servers of each one's peak resident set.
    fn rss_mb(&self) -> f64 {
        if self.rss_mb.is_empty() {
            0.0
        } else {
            stats::median(&self.rss_mb)
        }
    }
}

/// One lap: a fresh server, Phase A, Phase B, every match line it
/// delivered checked; the measurements join `m`.
fn lap(run: &Run, tracer: &mut Tracer, out: &mut Outcome, m: &mut Measured) -> Result<(), String> {
    let mut s = run.start_session()?;
    m.setups_s.push(secs(s.setup));
    m.start_ms = secs(s.server.start_time) * 1e3;
    m.subscribe_ms = secs(s.subscribe) * 1e3;
    out.record.set(
        "server_flags_beyond_schema_and_tick",
        JsonValue::Array(
            s.server
                .extra_flags
                .iter()
                .map(|f| f.as_str().into())
                .collect(),
        ),
    );
    let chunks = run.closed_loop(&mut s, out);
    let phase_a_end = chunks.last().map_or(0, |c| c.events.end);
    let b = run.open_loop(&mut s, phase_a_end, tracer, out);
    m.stats = s
        .producer
        .request("{\"op\":\"stats\"}\n")
        .ok()
        .and_then(|line| parse_json(&line).ok());
    m.rss_mb.extend(sys::peak_rss_mb(s.server.pid()));
    let inbox = s.finish();

    let expected = run.schedule.prefix(phase_a_end + run.plan.phase_b_events);
    let delivery = run.delivery(&inbox, expected, out);
    m.chunks
        .extend(chunk_samples(&chunks, expected, &delivery.received));

    // Phase B: one span per frame from when it was due to when its write
    // returned, the write and each delivered match as its children.
    let frame_spans: Vec<u64> = b
        .writes
        .iter()
        .enumerate()
        .map(|(i, (begun, ended))| {
            let id = tracer.record(
                "loadgen.frame",
                b.pace.due(i),
                *ended,
                0,
                FRAME_EVENTS as u64,
            );
            tracer.record("loadgen.write", *begun, *ended, id, FRAME_EVENTS as u64);
            id
        })
        .collect();
    let window_frames = (secs(LATENCY_WINDOW) / secs(b.pace.interval))
        .round()
        .max(1.0) as usize;
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); b.pinging_from / window_frames];
    let mut late = 0;
    for (e, at) in expected.iter().zip(&delivery.received) {
        let (Some(at), true) = (at, e.at >= phase_a_end) else {
            continue;
        };
        let frame = b.pace.frame_of_event(e.at);
        let due = b.pace.due(frame);
        let waited = lateness(due, *at);
        late += u64::from(waited > LATE_LIMIT);
        if frame < b.pinging_from {
            m.latencies_ms.push(secs(waited) * 1e3);
            // The frames past the last whole window join no window.
            if let Some(window) = windows.get_mut(frame / window_frames) {
                window.push(secs(waited) * 1e3);
            }
        } else {
            m.pinged_latencies_ms.push(secs(waited) * 1e3);
        }
        if let Some(&parent) = frame_spans.get(frame) {
            tracer.record("server.match_delivery", due, *at, parent, 1);
        }
    }
    if late > 0 {
        out.fail(late, format!("{late} matches later than {LATE_LIMIT:?}"));
    }
    m.window_latencies_ms.extend(
        windows
            .iter()
            .filter(|w| w.len() >= WINDOW_MIN_MATCHES)
            .map(|w| stats::median(w)),
    );
    m.lateness_ms.extend(b.lateness_ms);
    m.ping_rtts_ms.extend(
        b.pings
            .iter()
            .zip(&delivery.pongs)
            .map(|(sent, got)| secs(lateness(*sent, *got)) * 1e3),
    );
    Ok(())
}

/// Runs laps until another one as long as the longest so far would
/// overrun `seconds` (at least one), or until an operation fails.
fn measure(
    run: &Run,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<Measured, String> {
    let started = Instant::now();
    let mut m = Measured::default();
    let mut longest: f64 = 0.0;
    loop {
        let lap_started = Instant::now();
        lap(run, tracer, out, &mut m)?;
        longest = longest.max(secs(lap_started.elapsed()));
        if out.failed > 0 || secs(started.elapsed()) + longest > seconds {
            return Ok(m);
        }
    }
}

/// Phase C's measurements.
struct Recovery {
    recovery_s: f64,
    replayed: f64,
}

/// Phase C: abort after `plan.kill_after` events, restart on the same
/// directory, resume every subscription from cursor 0.
fn crash_and_recover(
    run: &Run,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<Recovery, String> {
    let Run { plan, input, .. } = run;
    let expected = run.schedule.prefix(plan.kill_after);
    out.attempted += (plan.kill_after + expected.len()) as u64;
    let dir = run
        .checkpoint_dir()?
        .ok_or("the crash phase needs a durable server")?;
    {
        let mut s = Session::start(input, Some(&dir), Some(plan.kill_after as u64))?;
        // The server dies mid-stream, so a failed write is expected.
        let _ = s
            .producer
            .send(run.frames.run(0, plan.phase_c_events() / FRAME_EVENTS));
        if !s.server.wait_exit(6 * READ_DEADLINE) {
            out.fail(
                plan.kill_after as u64,
                format!("the server outlived SES_KILL_AFTER={}", plan.kill_after),
            );
        }
    }

    let mut server = ServerProc::spawn(Some(&dir), None)?;
    let mut conn = Conn::connect(server.addr)?;
    conn.request("{\"op\":\"ping\"}\n")?;
    let recovered = Instant::now();
    tracer.record("server.recovery", server.spawned_at, recovered, 0, 1);
    // "restored checkpoint seq 7 (…), replayed 500 event(s)"
    let replayed = server
        .recovery
        .split("replayed ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse::<f64>().ok())
        .unwrap_or(0.0);
    out.note(format!("recovery: {}", server.recovery));

    // Resume from cursor 0: after each ack the server resends that
    // subscription's durable lines, so acks and lines interleave.
    conn.send(subscribe_requests(input).as_bytes())?;
    let mut inbox = Inbox::new();
    let (mut acks, mut resend, mut lines) = (0, 0, 0);
    let give_up = Instant::now() + MATCH_GRACE;
    while (acks < input.named.len() || lines < resend) && Instant::now() < give_up {
        match conn.next_line(Duration::from_millis(100))? {
            Incoming::Line(line) if is_match(line) => {
                lines += 1;
                inbox.push((Instant::now(), line.to_string()));
            }
            Incoming::Line(line) => {
                acks += 1;
                resend += field_u64(&parse_json(line)?, "resend").unwrap_or(0);
            }
            Incoming::TimedOut => {}
            Incoming::Closed => break,
        }
    }
    let delivery = check_delivery(&inbox, input, expected);
    if delivery.bad > 0 || resend != expected.len() as u64 {
        let stderr = server.kill();
        out.fail(
            delivery.bad.max(1),
            format!(
                "after the crash the resumed subscriber read {} of {} reference lines ({resend} announced); stderr: {}",
                delivery.received.iter().flatten().count(),
                expected.len(),
                stderr.trim()
            ),
        );
    }
    Ok(Recovery {
        recovery_s: secs(recovered - server.spawned_at),
        replayed,
    })
}

/// A generator that ran late measured itself, not the server.
fn note_lateness(out: &mut Outcome, lateness_ms: &[f64]) -> f64 {
    if lateness_ms.is_empty() {
        return 0.0;
    }
    let p99 = stats::tail(lateness_ms).tail;
    out.note(format!(
        "loadgen lateness p99 {p99:.3} ms over {} frames{}",
        lateness_ms.len(),
        if p99 > 5.0 {
            " — INVALID: the generator ran more than 5 ms late"
        } else {
            ""
        }
    ));
    p99
}

/// `server-ingest` and `server-durable`.
pub fn run_server(durable: bool, args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.record.set("generator_threads", 2u64);
    out.record.set("connections", 2u64);
    let plan = Plan::new(durable, args.quick);

    let preparing = Instant::now();
    let stream = plan.lap_events().max(plan.phase_c_events());
    let input = inputs::bank_stream(args.seed, stream);
    let schedule = Schedule::record(&input, stream);
    out.note(
        Fingerprint::of(
            &input.events[..plan.phase_a_events()],
            schedule
                .prefix(plan.phase_a_events())
                .iter()
                .map(|e| e.line.as_str()),
        )
        .check_pinned(&args.workload, args.seed, args.quick)?,
    );
    let frames = Frames::render(&input.events[..stream]);
    let prepare = preparing.elapsed();
    let run = Run {
        plan,
        input,
        frames,
        schedule,
        scratch: Scratch::create()?,
    };
    // `--quick`: one lap.
    let seconds = if args.quick { 0.0 } else { args.seconds };

    if args.trace {
        out.set("loadgen.prepare_s", secs(prepare));
        trace_server(&run, args, seconds, tracer, &mut out)?;
        return Ok(out);
    }

    let m = measure(&run, seconds, tracer, &mut out)?;

    // Each timed metric is the fast decile over the run's chunks or
    // windows; `stats::fast_decile_of_costs` says why not the median.
    if !m.chunks.is_empty() {
        let (rates, cpu) = (m.rates(), m.cpu_us_per_event());
        out.set("events_per_s", stats::fast_decile_of_rates(&rates));
        out.set("cpu_us_per_event", stats::fast_decile_of_costs(&cpu));
        out.note(format!(
            "events_per_s: {} over {} laps, less a warm-up chunk each",
            describe(&rates, "ev/s"),
            m.setups_s.len()
        ));
        out.note(format!("cpu_us_per_event: {}", describe(&cpu, "us")));
    }
    if !m.window_latencies_ms.is_empty() {
        out.set(
            "match_latency_ms_p50",
            stats::fast_decile_of_costs(&m.window_latencies_ms),
        );
        out.note(format!(
            "match_latency_ms_p50 per {LATENCY_WINDOW:?} window: {}",
            describe(&m.window_latencies_ms, "ms")
        ));
    }
    note_latency(&mut out, &m.latencies_ms);
    note_lateness(&mut out, &m.lateness_ms);
    out.set("peak_rss_mb", m.rss_mb());
    out.set("setup_s", secs(prepare) + stats::median(&m.setups_s));
    out.note(format!(
        "setup_s: {:.3} s generation, reference run and frames + server start and 16 subscribes per lap, {}",
        secs(prepare),
        describe(&m.setups_s, "s")
    ));
    Ok(out)
}

fn trace_server(
    run: &Run,
    args: &RunArgs,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let plan = &run.plan;
    // The stages of the server's path, replayed single-threaded and
    // in-process over the very frames and events the server run uses.
    let stage = stages::replay(
        plan.durable,
        &run.input,
        &run.frames,
        &run.schedule,
        plan.replay_events,
        &run.scratch,
        tracer,
        out,
    )?;

    // Idle round trips, before any load.
    {
        let server = ServerProc::spawn(None, None)?;
        let mut conn = Conn::connect(server.addr)?;
        let mut rtts = Vec::new();
        for _ in 0..if args.quick { 10 } else { 50 } {
            let sent = Instant::now();
            conn.request("{\"op\":\"ping\"}\n")?;
            rtts.push(secs(sent.elapsed()) * 1e3);
        }
        out.set("server.ping_rtt_idle_ms_p50", stats::median(&rtts));
    }

    // Half as many laps as the untraced run's, with spans, and with
    // pings in the second half of every Phase B.
    let m = measure(run, seconds / 2.0, tracer, out)?;
    out.set("server.start_ms", m.start_ms);
    out.set("server.subscribe_ms", m.subscribe_ms);

    let busy_frac = m.busy_frac();
    out.set("loadgen.busy_frac", busy_frac);
    if busy_frac > 0.5 {
        out.note(format!(
            "INVALID closed loop: the producer thread was busy {busy_frac:.2} of the time"
        ));
    }
    if !m.chunks.is_empty() {
        // The stage replays are single passes, typical ones; they are set
        // against the typical chunk, not against the fastest tenth.
        let cpu_us_per_event = stats::median(&m.cpu_us_per_event());
        out.set(
            "server.cpu_residual_frac",
            1.0 - (stage.reader_ns + stage.router_ns) / (cpu_us_per_event * 1e3),
        );
        out.note(format!(
            "closed loop: {}; median server CPU {cpu_us_per_event:.3} us/event against {:.3} us of replayed reader and router stages",
            describe(&m.rates(), "ev/s"),
            (stage.reader_ns + stage.router_ns) / 1e3
        ));
    }
    out.set("server.rss_peak_mb", m.rss_mb());
    if let Some(queue) = m
        .stats
        .as_ref()
        .and_then(|s| s.as_object()?.get("stats")?.as_object()?.get("queue"))
    {
        out.set(
            "server.queue_high_water",
            field_u64(queue, "high_water").unwrap_or(0) as f64,
        );
        out.set(
            "server.queue_shed",
            field_u64(queue, "shed").unwrap_or(0) as f64,
        );
    }
    if !m.ping_rtts_ms.is_empty() {
        out.set(
            "server.ping_rtt_loaded_ms_p50",
            stats::median(&m.ping_rtts_ms),
        );
    }
    let lateness_p99 = note_lateness(out, &m.lateness_ms);
    out.set("loadgen.lateness_ms_p99", lateness_p99);
    if !m.latencies_ms.is_empty() {
        out.set(
            "loadgen.match_latency_ms_p99",
            stats::tail(&m.latencies_ms).tail,
        );
    }
    if !m.pinged_latencies_ms.is_empty() {
        let t = stats::tail(&m.pinged_latencies_ms);
        out.note(format!(
            "open loop while the subscriber also pings: match latency p50 {:.3} ms, p{} {:.3} ms over {} matches",
            t.p50,
            t.tail_permille as f64 / 10.0,
            t.tail,
            t.n
        ));
    }

    if plan.durable {
        let r = crash_and_recover(run, tracer, out)?;
        out.set("server.recovery_s", r.recovery_s);
        out.set("server.replayed_events", r.replayed);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_schedule_and_lateness() {
        let start = Instant::now();
        let pace = Pace::at_rate(start, 100_000.0, 0);
        assert_eq!(pace.interval, Duration::from_micros(2560));
        assert_eq!(pace.due(0), start);
        assert_eq!(pace.due(1000), start + Duration::from_millis(2560));
        // Events 0..=255 ride in frame 0, 256 opens frame 1.
        assert_eq!(pace.frame_of_event(255), 0);
        assert_eq!(pace.frame_of_event(256), 1);
        // A schedule that continues a stream counts frames from its own
        // first event.
        let later = Pace::at_rate(start, 40_000.0, 512_000);
        assert_eq!(later.interval, Duration::from_micros(6400));
        assert_eq!(later.frame_of_event(512_000), 0);
        assert_eq!(later.frame_of_event(512_000 + 3 * 256 + 7), 3);

        let due = pace.due(3);
        assert_eq!(
            lateness(due, due + Duration::from_millis(4)),
            Duration::from_millis(4)
        );
        // Sending early is not negative lateness.
        assert_eq!(lateness(due, start), Duration::ZERO);
        // A stall shows in every later frame, because due times do not move.
        let stalled_until = pace.due(10) + Duration::from_millis(1);
        assert_eq!(
            lateness(pace.due(8), stalled_until),
            pace.interval * 2 + Duration::from_millis(1)
        );
    }

    #[test]
    fn plans_are_whole_frames() {
        for (durable, quick) in [(false, false), (true, false), (false, true), (true, true)] {
            let plan = Plan::new(durable, quick);
            assert_eq!(plan.chunk_events % FRAME_EVENTS, 0);
            assert!(
                plan.lap_chunks >= 2,
                "one warm-up chunk and one that counts"
            );
            assert_eq!(plan.replay_events % FRAME_EVENTS, 0);
            assert_eq!(plan.phase_c_events() % FRAME_EVENTS, 0);
            assert!(plan.phase_c_events() > plan.kill_after);
        }
    }
}
