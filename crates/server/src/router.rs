//! The core router: one owner at a time of the bank, the logs, and the
//! subscription fan-out.
//!
//! Everything stateful — events, syncs, subscribes, stats, shutdown —
//! is handled under one lock ([`Ingress`]), so the matcher, the event
//! log, and every subscription log observe a single total order. That
//! single order is the exactly-once argument's backbone: the event log
//! replays to the exact stream the bank consumed. The protocol itself —
//! what is synced before a checkpoint, where a restart's replay begins,
//! how many regenerated matches each subscription's log suppresses — is
//! [`ses_store::DurableBank`]'s, the same code `ses-cli stream
//! --checkpoint` runs, with one sink per subscription. What the router
//! adds is what only a server has: it appends the event log it replays
//! (and fsyncs it before the first match line of a push), it resolves
//! clock skew between producers, and it keeps the registry and the
//! subscribers' cursors (see `docs/server.md`).
//!
//! A reader that finds the lock free routes its request itself, on its
//! own thread; one that finds it held leaves the request on the bounded
//! core queue, which whoever holds the lock next drains first. A
//! request therefore crosses threads only when two connections compete,
//! and what an event costs does not depend on where the scheduler put
//! a second thread.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration as StdDuration;

use ses_core::{MatcherOptions, PartitionMode, PatternBank, Probe};
use ses_event::{Schema, Timestamp, Value};
use ses_metrics::{CountingProbe, JsonObject, JsonValue};
use ses_pattern::Pattern;
use ses_store::{Checkpoints, DurableBank, EventLog, LogConfig, MatchLog, StoreError};

use crate::protocol::{self, ts_json};
use crate::queue::{BoundedQueue, OverflowPolicy, Waited};
use crate::registry::Registry;
use crate::server::ServerConfig;
use crate::signal;

/// Per-connection state shared between its reader, its writer, and the
/// router.
pub(crate) struct Conn {
    /// Connection id — index into the server's connection table.
    pub id: usize,
    /// Outbound line queue; the writer thread drains it to the socket.
    pub out: BoundedQueue<String>,
    /// Events this connection enqueued successfully.
    pub accepted: AtomicU64,
    /// Events this connection shed (reject policy, queue full).
    pub shed: AtomicU64,
    /// Cleared when the connection is disconnected.
    pub alive: AtomicBool,
    /// The server's count of connections it dropped for not reading.
    slow_disconnects: Arc<AtomicU64>,
}

impl Conn {
    fn new(id: usize, outbound: usize, slow_disconnects: Arc<AtomicU64>) -> Conn {
        Conn {
            id,
            out: BoundedQueue::new(outbound),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            slow_disconnects,
        }
    }

    /// Queues a line for the writer; a full outbound queue disconnects
    /// the connection and counts it — waiting for a consumer that has
    /// stopped reading would stall the fan-out for every subscriber, and
    /// this one can resume via its cursor.
    pub(crate) fn send(&self, line: String) -> bool {
        if !self.alive.load(Ordering::SeqCst) {
            return false;
        }
        if self.out.try_push(line).is_err() {
            // Once per connection, however many senders find it full;
            // a queue the writer closed first is not a slow consumer.
            if self.disconnect() {
                self.slow_disconnects.fetch_add(1, Ordering::Relaxed);
            }
            return false;
        }
        true
    }

    /// Marks the connection dead and releases its writer; `true` iff it
    /// was alive until now.
    pub(crate) fn disconnect(&self) -> bool {
        let was_alive = self.alive.swap(false, Ordering::SeqCst);
        self.out.close();
        was_alive
    }
}

/// The live-connection table. Ids are unique for the server's lifetime
/// (never reused, so a queued message for a dead connection can never
/// reach a newer one), and each reader thread removes its own entry on
/// exit, so connection churn does not grow the table.
#[derive(Default)]
pub(crate) struct ConnTable {
    next_id: usize,
    conns: HashMap<usize, Arc<Conn>>,
    /// Connections dropped because their outbound queue was full.
    slow_disconnects: Arc<AtomicU64>,
}

impl ConnTable {
    /// Allocates a fresh id and registers a new connection under it.
    pub(crate) fn insert(&mut self, outbound: usize) -> Arc<Conn> {
        let id = self.next_id;
        self.next_id += 1;
        let conn = Arc::new(Conn::new(id, outbound, Arc::clone(&self.slow_disconnects)));
        self.conns.insert(id, Arc::clone(&conn));
        conn
    }

    pub(crate) fn get(&self, id: usize) -> Option<Arc<Conn>> {
        self.conns.get(&id).cloned()
    }

    pub(crate) fn remove(&mut self, id: usize) {
        self.conns.remove(&id);
    }

    pub(crate) fn all(&self) -> Vec<Arc<Conn>> {
        self.conns.values().cloned().collect()
    }

    fn slow_disconnects(&self) -> u64 {
        self.slow_disconnects.load(Ordering::Relaxed)
    }
}

/// A message on the core queue.
pub(crate) enum Msg {
    /// One typed event from `conn`.
    Event {
        ts: i64,
        values: Vec<Value>,
        conn: usize,
    },
    /// Barrier ack for `conn`.
    Sync { conn: usize },
    /// Liveness probe.
    Ping { conn: usize },
    /// Register or re-attach a subscription.
    Subscribe {
        conn: usize,
        name: String,
        query: String,
        cursor: u64,
    },
    /// Server statistics.
    Stats { conn: usize },
    /// Graceful shutdown.
    Shutdown { conn: usize },
}

/// One standing subscription: pattern `i` of the bank, whose sink holds
/// its lines and their seq — the cursor subscribers ack.
struct Sub {
    name: String,
    query: String,
    pattern: Pattern,
    /// Live subscriber connections.
    watchers: Vec<Arc<Conn>>,
}

/// What a durable server keeps beside the bank's own files.
struct Durable {
    /// The checkpoint directory; subscription `i`'s match log is
    /// [`Registry::match_log_path`] in it.
    dir: PathBuf,
    registry: Registry,
    event_log: EventLog,
}

/// The sink of subscription `i`: its match log in the checkpoint
/// directory. Memory-only nothing opens it — it is the name the
/// subscription's lines are counted under.
fn sink_path(durable: Option<&Durable>, i: usize) -> PathBuf {
    Registry::match_log_path(durable.map_or(Path::new(""), |d| &d.dir), i)
}

/// The router's owned state.
pub(crate) struct Router {
    options: MatcherOptions,
    tick: ses_query::TickUnit,
    bank: DurableBank,
    subs: Vec<Sub>,
    /// `None` when the server runs memory-only.
    durable: Option<Durable>,
    /// The timestamp of the last event taken in — with an event log,
    /// the log's own floor. An event arriving below it (cross-client
    /// clock skew) is rewritten to it.
    floor: Option<Timestamp>,
    /// Events whose timestamp was rewritten to the floor since this
    /// process started.
    clamped: u64,
    probe: CountingProbe,
    /// Events consumed since this process started (kill injection).
    consumed_new: u64,
    kill_after: Option<u64>,
    shed_mirrored: u64,
    replayed: u64,
    /// The error that stopped the server, when a reader thread hit it.
    failure: Option<String>,
    queue: Arc<BoundedQueue<Msg>>,
    conns: Arc<Mutex<ConnTable>>,
    shutdown: Arc<AtomicBool>,
}

/// The way into the router: its lock, and the core queue for whoever
/// finds the lock held.
pub(crate) struct Ingress {
    router: Mutex<Router>,
    queue: Arc<BoundedQueue<Msg>>,
    conns: Arc<Mutex<ConnTable>>,
    shutdown: Arc<AtomicBool>,
}

fn bank_options() -> MatcherOptions {
    MatcherOptions {
        // One stream matcher per subscription; sharding is the batch
        // CLI's concern.
        partition: PartitionMode::Off,
        ..MatcherOptions::default()
    }
}

/// Opens (or creates) the event log under `dir` with the given schema.
fn open_event_log(dir: &Path, schema: &Schema) -> Result<EventLog, String> {
    let has_segments = std::fs::read_dir(dir)
        .map(|mut d| d.next().is_some())
        .unwrap_or(false);
    let result = if has_segments {
        EventLog::open(dir, LogConfig::default())
    } else {
        EventLog::create(dir, schema.clone(), LogConfig::default())
    };
    result.map_err(|e| format!("event log {}: {e}", dir.display()))
}

impl Router {
    /// Builds the router, restoring durable state and replaying the
    /// event-log suffix when a checkpoint directory is configured.
    /// Returns the router plus a recovery summary for the startup log.
    pub(crate) fn recover(
        config: &ServerConfig,
        queue: Arc<BoundedQueue<Msg>>,
        conns: Arc<Mutex<ConnTable>>,
        shutdown: Arc<AtomicBool>,
    ) -> Result<(Ingress, String), String> {
        let options = bank_options();
        let durable = match &config.checkpoint {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let log_dir = config
                    .event_log
                    .clone()
                    .unwrap_or_else(|| dir.join("events"));
                std::fs::create_dir_all(&log_dir)
                    .map_err(|e| format!("{}: {e}", log_dir.display()))?;
                Some(Durable {
                    dir: dir.clone(),
                    registry: Registry::load(Registry::default_path(dir))?,
                    event_log: open_event_log(&log_dir, &config.schema)?,
                })
            }
            None => None,
        };

        // Parse every registered query up front; a registry that no
        // longer parses is a configuration error, not a silent skip.
        let mut specs: Vec<(String, Pattern, MatcherOptions)> = Vec::new();
        let mut subs = Vec::new();
        for e in durable.iter().flat_map(|d| d.registry.entries()) {
            let pattern = ses_query::parse_pattern(&e.query, config.tick)
                .map_err(|err| format!("registry entry `{}`: {err}", e.name))?;
            specs.push((e.name.clone(), pattern.clone(), options.clone()));
            subs.push(Sub {
                name: e.name.clone(),
                query: e.query.clone(),
                pattern,
                watchers: Vec::new(),
            });
        }
        let sinks: Vec<PathBuf> = (0..specs.len())
            .map(|i| sink_path(durable.as_ref(), i))
            .collect();

        // Subscriptions join a running bank, a cold one included: a
        // registry entry the checkpoint does not hold yet (crash between
        // registry write and checkpoint save) re-subscribes at the
        // restored clock. The client never saw an ack.
        let empty = || PatternBank::builder(&config.schema).build();
        let bank = match &durable {
            Some(d) => {
                let files = Checkpoints {
                    dir: d.dir.clone(),
                    keep: config.keep,
                    every: config.checkpoint_every,
                };
                DurableBank::recover(&specs, &sinks, &config.schema, &files, || Ok(empty()))
            }
            None => DurableBank::start(empty(), &sinks, None),
        }
        .map_err(|e| e.to_string())?;

        let mut router = Router {
            options,
            tick: config.tick,
            bank,
            subs,
            durable,
            floor: None,
            clamped: 0,
            probe: CountingProbe::new(),
            consumed_new: 0,
            kill_after: config.kill_after,
            shed_mirrored: 0,
            replayed: 0,
            failure: None,
            queue: Arc::clone(&queue),
            conns: Arc::clone(&conns),
            shutdown: Arc::clone(&shutdown),
        };

        // Replay the log suffix the checkpoint has not seen — through
        // `push_event`, which counts neither toward the checkpoint
        // cadence nor toward an injected kill point: replay is recovery,
        // not new ingestion.
        let mut summary = String::from("cold start");
        if let Some(d) = &router.durable {
            router.floor = d.event_log.last_ts();
            let events = router
                .bank
                .replay_suffix(&d.event_log)
                .map_err(|e| e.to_string())?;
            summary = router.bank.recovery().to_string();
            // The live path durably logs a matcher-refused event,
            // reports the error, and keeps going — replay must tolerate
            // exactly the same events, or one refused-but-logged event
            // would fail every subsequent restart.
            let mut refused = 0u64;
            for e in &events {
                if router.push_event(e.ts(), e.values().to_vec()).is_err() {
                    refused += 1;
                }
                router.replayed += 1;
            }
            if refused > 0 {
                summary.push_str(&format!(" ({refused} refused by the matcher)"));
            }
        }

        let ingress = Ingress {
            router: Mutex::new(router),
            queue,
            conns,
            shutdown,
        };
        Ok((ingress, summary))
    }

    /// Pushes one event through the bank and fans out finalized matches.
    fn push_event(&mut self, ts: Timestamp, values: Vec<Value>) -> Result<(), String> {
        let emitted = self
            .bank
            .push(ts, values, &mut self.probe)
            .map_err(|e| e.to_string())?;
        if !emitted.is_empty() {
            // Match durability must imply event durability: match-log
            // appends below are unbuffered (they survive an abort), so
            // if the buffered event-log tail died with the process the
            // replay could not regenerate these matches and the durable
            // line count would suppress *different* future matches.
            // Sync the event log first — matches are rare relative to
            // events, so the fsync amortizes.
            if let Some(d) = self.durable.as_mut() {
                d.event_log.sync().map_err(|e| e.to_string())?;
            }
        }
        for (i, m) in emitted {
            let sub = &mut self.subs[i];
            let line = m.display_with(&sub.pattern);
            // A line the replay regenerated is already in the sink, and
            // was sent when it first got there.
            let recorded = self.bank.sinks().record(i, &line);
            if let Some(seq) = recorded.map_err(|e| e.to_string())? {
                let msg = protocol::match_line(&sub.name, seq, &line);
                sub.watchers
                    .retain(|w| w.alive.load(Ordering::SeqCst) && w.send(msg.clone()));
            }
        }
        Ok(())
    }

    /// The event log a durable server appends.
    fn event_log(&mut self) -> Option<&mut EventLog> {
        self.durable.as_mut().map(|d| &mut d.event_log)
    }

    fn conn_table(&self) -> MutexGuard<'_, ConnTable> {
        self.conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn conn(&self, id: usize) -> Option<Arc<Conn>> {
        self.conn_table().get(id)
    }

    fn reply(&self, conn: usize, line: String) {
        if let Some(c) = self.conn(conn) {
            c.send(line);
        }
    }

    /// Handles one queue message. Returns `true` to keep running.
    fn handle(&mut self, msg: Msg) -> Result<bool, String> {
        match msg {
            Msg::Event { ts, values, conn } => {
                // Mirror queue pressure into the probe: depth at
                // processing time (+1 for the popped item) approximates
                // the enqueue-time depth; the queue's own high-water
                // counter stays the exact figure.
                let depth = self.queue.depth() + 1;
                self.probe.ingest_enqueued(depth);
                // Resolve cross-client skew: a timestamp below the
                // floor is rewritten to it, and that — what the log
                // records, so replay reproduces this stream — is what
                // the matcher gets.
                let ts = Timestamp::new(ts);
                let (ts, clamped) = match self.floor {
                    Some(floor) if ts < floor => (floor, true),
                    _ => (ts, false),
                };
                if let Some(log) = self.event_log() {
                    if let Err(e) = log.append(ts, values.clone()) {
                        self.reply(conn, protocol::error("ingest", e.to_string()));
                        return Ok(true);
                    }
                }
                self.floor = Some(ts);
                self.clamped += u64::from(clamped);
                if let Err(e) = self.push_event(ts, values) {
                    // The event is already logged; the matcher refused
                    // it (schema drift mid-connection). Surface and
                    // continue — replay will hit the same refusal.
                    self.reply(conn, protocol::error("ingest", e));
                    return Ok(true);
                }
                self.consumed_new += 1;
                if let Some(k) = self.kill_after {
                    if self.consumed_new >= k {
                        // Injected crash point for the recovery suite:
                        // no flush, no checkpoint, straight down.
                        std::process::abort();
                    }
                }
                let log = self.durable.as_mut().map(|d| &mut d.event_log);
                self.bank
                    .checkpoint_if_due(log, &mut self.probe)
                    .map_err(|e| e.to_string())?;
                Ok(true)
            }
            Msg::Sync { conn } => {
                // Make everything ingested before the barrier durable,
                // so the ack's `durable` figure is trustworthy.
                if let Some(log) = self.event_log() {
                    log.sync().map_err(|e| e.to_string())?;
                }
                self.mirror_shed();
                let (accepted, shed) = match self.conn(conn) {
                    Some(c) => (
                        c.accepted.load(Ordering::SeqCst),
                        c.shed.load(Ordering::SeqCst),
                    ),
                    None => (0, 0),
                };
                let durable = self.event_log().map_or(0, |l| l.len());
                let mut o = protocol::ok("sync");
                o.set("accepted", accepted)
                    .set("shed", shed)
                    .set("durable", durable)
                    .set("consumed", self.bank.bank().consumed_events());
                self.reply(conn, o.to_string());
                Ok(true)
            }
            Msg::Ping { conn } => {
                let mut o = protocol::ok("pong");
                o.set("consumed", self.bank.bank().consumed_events())
                    .set("watermark", ts_json(self.bank.bank().watermark()));
                self.reply(conn, o.to_string());
                Ok(true)
            }
            Msg::Subscribe {
                conn,
                name,
                query,
                cursor,
            } => {
                self.subscribe(conn, name, query, cursor)?;
                Ok(true)
            }
            Msg::Stats { conn } => {
                self.mirror_shed();
                let stats = self.stats_json();
                let mut o = protocol::ok("stats");
                o.set("stats", stats);
                self.reply(conn, o.to_string());
                Ok(true)
            }
            Msg::Shutdown { conn } => {
                self.reply(conn, protocol::ok("shutdown").to_string());
                self.shutdown.store(true, Ordering::SeqCst);
                // Wakes the router thread, which finishes the run.
                self.queue.close();
                Ok(false)
            }
        }
    }

    /// Mirrors queue shedding into the counting probe (delta since the
    /// last mirror, so the counter never double-counts).
    fn mirror_shed(&mut self) {
        let total = self.queue.stats().shed;
        let delta = total.saturating_sub(self.shed_mirrored);
        if delta > 0 {
            self.probe.ingest_shed(delta as usize);
            self.shed_mirrored = total;
        }
    }

    fn subscribe(
        &mut self,
        conn: usize,
        name: String,
        query: String,
        cursor: u64,
    ) -> Result<(), String> {
        let Some(c) = self.conn(conn) else {
            return Ok(());
        };
        // Re-attach: same name, same query — resume from the cursor.
        if let Some(i) = self.subs.iter().position(|s| s.name == name) {
            if self.subs[i].query.trim() != query.trim() && !query.trim().is_empty() {
                c.send(protocol::error(
                    "subscribe",
                    format!("`{name}` is registered with a different query"),
                ));
                return Ok(());
            }
            return self.attach(i, &c, cursor);
        }
        // Fresh registration.
        let pattern = match ses_query::parse_pattern(&query, self.tick) {
            Ok(p) => p,
            Err(e) => {
                c.send(protocol::error("subscribe", e.to_string()));
                return Ok(());
            }
        };
        let index = self.subs.len();
        let sink = sink_path(self.durable.as_ref(), index);
        match self
            .bank
            .subscribe(&name, &pattern, self.options.clone(), &sink)
        {
            Ok(_) => {}
            Err(StoreError::Bank { reason }) => {
                c.send(protocol::error("subscribe", reason));
                return Ok(());
            }
            Err(e) => return Err(e.to_string()),
        }
        // Durability discipline: registry first, then checkpoint, then
        // ack — an acked subscription survives any crash after this.
        if let Some(d) = self.durable.as_mut() {
            d.registry.add(&name, &query)?;
        }
        self.subs.push(Sub {
            name,
            query,
            pattern,
            watchers: Vec::new(),
        });
        self.checkpoint()?;
        self.attach(index, &c, cursor)
    }

    /// Saves a bank checkpoint (a no-op memory-only).
    fn checkpoint(&mut self) -> Result<(), String> {
        let log = self.durable.as_mut().map(|d| &mut d.event_log);
        self.bank
            .checkpoint(log, &mut self.probe)
            .map_err(|e| e.to_string())
    }

    /// Acks a subscription on `c`, resends durable lines after `cursor`,
    /// and attaches the connection as a live watcher. The ack and its
    /// resend travel as one outbound item, so a resend's length cannot
    /// overflow the queue that carries it.
    fn attach(&mut self, i: usize, c: &Arc<Conn>, cursor: u64) -> Result<(), String> {
        let seq = self.bank.sinks().seq(i);
        let start = cursor.min(seq);
        let sub = &mut self.subs[i];
        let mut ack = protocol::ok("subscribe");
        ack.set("sub", sub.name.clone())
            .set("id", i)
            .set("seq", seq)
            .set("resend", seq - start);
        let mut item = ack.to_string();
        if start < seq {
            let Some(d) = &self.durable else {
                item.push('\n');
                item.push_str(&protocol::error(
                    "subscribe",
                    "cursor resume requires a durable server (--checkpoint)",
                ));
                c.send(item);
                return Ok(());
            };
            // Reading under the router lock: its holder is the only
            // appender, so the line count and the file contents agree.
            let path = Registry::match_log_path(&d.dir, i);
            let lines =
                MatchLog::read_lines(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            for (k, line) in lines.iter().enumerate().skip(start as usize) {
                item.push('\n');
                item.push_str(&protocol::match_line(&sub.name, (k + 1) as u64, line));
            }
        }
        if c.send(item) {
            sub.watchers.retain(|w| w.alive.load(Ordering::SeqCst));
            sub.watchers.push(Arc::clone(c));
        }
        Ok(())
    }

    /// Server-wide statistics as one JSON object.
    fn stats_json(&mut self) -> JsonObject {
        let qs = self.queue.stats();
        let queue = JsonObject::new()
            .with("capacity", self.queue.capacity())
            .with("depth", self.queue.depth())
            .with("high_water", qs.high_water)
            .with("enqueued", qs.enqueued)
            .with("shed", qs.shed);
        let probe = JsonObject::new()
            .with("ingest_enqueued", self.probe.ingest_enqueued)
            .with("ingest_queue_peak", self.probe.ingest_queue_peak)
            .with("ingest_shed", self.probe.ingest_shed)
            .with("checkpoints", self.probe.checkpoints)
            .with("checkpoint_bytes", self.probe.checkpoint_bytes);
        let patterns: Vec<JsonValue> = self
            .bank
            .stats()
            .iter()
            .zip(&self.subs)
            .enumerate()
            .map(|(i, (s, sub))| {
                JsonObject::new()
                    .with("name", s.name.clone())
                    .with("hits", s.hits)
                    .with("skips", s.skips)
                    .with("heartbeats", s.heartbeats)
                    .with("matches", s.emitted)
                    .with("active_instances", s.active_instances)
                    .with("peak_omega", s.peak_omega)
                    .with("pending_candidates", s.pending_candidates)
                    .with("retained_killers", s.retained_killers)
                    .with("retained", s.retained_events)
                    .with("evicted", s.evicted_events)
                    .with("seq", self.bank.sinks().seq(i))
                    .with("watchers", sub.watchers.len())
                    .into()
            })
            .collect();
        JsonObject::new()
            .with("consumed", self.bank.bank().consumed_events())
            .with("replayed", self.replayed)
            .with("clamped", self.clamped)
            .with("slow_disconnects", self.conn_table().slow_disconnects())
            .with("watermark", ts_json(self.bank.bank().watermark()))
            .with(
                "durable_events",
                self.durable.as_ref().map_or(0, |d| d.event_log.len()),
            )
            .with("durable", self.durable.is_some())
            .with("subscriptions", self.subs.len())
            .with("queue", queue)
            .with("probe", probe)
            .with("patterns", patterns)
    }

    /// Handles what is queued, oldest first; `false` once a shutdown
    /// request came up.
    fn drain(&mut self) -> Result<bool, String> {
        while let Some(msg) = self.queue.try_pop() {
            if !self.handle(msg)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Handles the backlog it finds queued and then `msgs`, on the
    /// calling thread; `false` if the server is stopping and took none
    /// of them. What others queue meanwhile is the next holder's.
    fn take(&mut self, msgs: Vec<Msg>) -> bool {
        if self.queue.is_closed() {
            return false;
        }
        let queue = Arc::clone(&self.queue);
        let backlog = std::iter::from_fn(|| queue.try_pop()).take(queue.depth());
        // Like the final drain, past a shutdown request: everything
        // accepted is handled, in the order it was accepted.
        for msg in backlog.chain(msgs) {
            if let Err(e) = self.handle(msg) {
                self.failure = Some(e);
                self.shutdown.store(true, Ordering::SeqCst);
                self.queue.close();
                return false;
            }
        }
        true
    }
}

impl Ingress {
    fn router(&self) -> Result<MutexGuard<'_, Router>, String> {
        self.router
            .lock()
            .map_err(|_| "router panicked".to_string())
    }

    /// Routes `msgs` in order: on this thread if the router is free,
    /// else through the core queue under `policy`. Returns how many
    /// were accepted, `None` if the server is stopping.
    pub(crate) fn submit(&self, msgs: Vec<Msg>, policy: OverflowPolicy) -> Option<usize> {
        // Shedding is for a producer that must not wait for the router,
        // so a `Reject` producer never becomes it. Poisoned counts as
        // held: the router thread reports it.
        if policy == OverflowPolicy::Block {
            if let Ok(mut router) = self.router.try_lock() {
                let n = msgs.len();
                return router.take(msgs).then_some(n);
            }
        }
        self.queue.push_all(msgs, policy)
    }

    /// The router thread: handles what readers left on the queue until
    /// shutdown, then drains it and takes a final checkpoint. Success or
    /// error, it always signals shutdown, closes the core queue, and
    /// disconnects every connection on the way out — an I/O failure
    /// (disk full mid-checkpoint) must stop the acceptor and fail
    /// producers fast, not leave readers blocked on a full queue and
    /// `join()` hanging.
    pub(crate) fn run(&self) -> Result<(), String> {
        let result = self.run_loop();
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        let conns = self
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .all();
        for c in conns {
            c.disconnect();
        }
        result
    }

    fn run_loop(&self) -> Result<(), String> {
        loop {
            let stop = self.shutdown.load(Ordering::SeqCst) || signal::requested();
            if stop {
                break;
            }
            match self.queue.wait_timeout(StdDuration::from_millis(50)) {
                Waited::Ready => {
                    if !self.router()?.drain()? {
                        break;
                    }
                }
                Waited::TimedOut => {}
                Waited::Closed => break,
            }
        }
        // Under the lock to the end: a reader that gets it afterwards
        // finds the queue closed and takes nothing.
        let mut router = self.router()?;
        if let Some(e) = router.failure.take() {
            return Err(e);
        }
        // Drain: finish everything already accepted onto the queue.
        self.queue.close();
        while let Some(msg) = self.queue.try_pop() {
            // Shutdown acks during drain are fine; further shutdowns
            // are no-ops because the flag is already set.
            router.handle(msg)?;
        }
        // Final durability: sync sinks, one last checkpoint.
        router.checkpoint()
    }
}
