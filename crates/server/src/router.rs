//! The core router: one owner at a time of the bank, the logs, and the
//! subscription fan-out.
//!
//! Everything stateful — events, syncs, subscribes, stats, shutdown —
//! is handled under one lock ([`Ingress`]), so the matcher, the event
//! log, and every subscription log observe a single total order. That
//! single order is the exactly-once argument's backbone: the event log
//! replays to the exact stream the bank consumed, and per-pattern
//! durable line counts measure precisely how many regenerated matches
//! to suppress (see `docs/server.md`).
//!
//! A reader that finds the lock free routes its request itself, on its
//! own thread; one that finds it held leaves the request on the bounded
//! core queue, which whoever holds the lock next drains first. A
//! request therefore crosses threads only when two connections compete,
//! and what an event costs does not depend on where the scheduler put
//! a second thread.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration as StdDuration;

use ses_core::{MatcherOptions, MatcherSnapshot, PartitionMode, PatternBank, Probe};
use ses_event::{Schema, Timestamp, Value};
use ses_metrics::{CountingProbe, JsonObject, JsonValue, Stopwatch};
use ses_pattern::Pattern;
use ses_store::{CheckpointStore, EventLog, LogConfig, MatchLog};

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

/// One standing subscription.
struct Sub {
    name: String,
    query: String,
    pattern: Pattern,
    /// Durable match sink (absent when the server runs memory-only).
    log: Option<MatchLog>,
    /// Lines emitted so far — the durable cursor subscribers ack.
    seq: u64,
    /// Matches regenerated by replay that are already durable: skip
    /// them without re-appending or re-counting.
    suppress: u64,
    /// Live subscriber connections.
    watchers: Vec<Arc<Conn>>,
}

/// The router's owned state.
pub(crate) struct Router {
    options: MatcherOptions,
    tick: ses_query::TickUnit,
    bank: PatternBank,
    subs: Vec<Sub>,
    registry: Option<Registry>,
    store: Option<CheckpointStore>,
    event_log: Option<EventLog>,
    checkpoint_dir: Option<std::path::PathBuf>,
    checkpoint_every: usize,
    since_checkpoint: usize,
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
        let mut summary = String::from("cold start");

        let (registry, store, event_log, checkpoint_dir) = match &config.checkpoint {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let registry = Registry::load(Registry::default_path(dir))?;
                let store = CheckpointStore::open(dir, config.keep).map_err(|e| e.to_string())?;
                let log_dir = config
                    .event_log
                    .clone()
                    .unwrap_or_else(|| dir.join("events"));
                std::fs::create_dir_all(&log_dir)
                    .map_err(|e| format!("{}: {e}", log_dir.display()))?;
                let log = open_event_log(&log_dir, &config.schema)?;
                (Some(registry), Some(store), Some(log), Some(dir.clone()))
            }
            None => (None, None, None, None),
        };

        // Parse every registered query up front; a registry that no
        // longer parses is a configuration error, not a silent skip.
        let mut specs: Vec<(String, Pattern, MatcherOptions)> = Vec::new();
        if let Some(reg) = &registry {
            for e in reg.entries() {
                let pattern = ses_query::parse_pattern(&e.query, config.tick)
                    .map_err(|err| format!("registry entry `{}`: {err}", e.name))?;
                specs.push((e.name.clone(), pattern, options.clone()));
            }
        }

        let loaded = match &store {
            Some(s) => s.load_latest().map_err(|e| e.to_string())?,
            None => None,
        };

        let mut per_pattern_emitted: Vec<u64> = Vec::new();
        let bank = match &loaded {
            Some(l) => {
                let MatcherSnapshot::Bank(snap) = &l.snapshot;
                if snap.patterns.len() > specs.len() {
                    return Err(format!(
                        "checkpoint has {} pattern(s) but the registry lists {}",
                        snap.patterns.len(),
                        specs.len()
                    ));
                }
                per_pattern_emitted = snap
                    .patterns
                    .iter()
                    .map(|p| p.matcher.as_ref().map(|m| m.emitted).unwrap_or(0))
                    .collect();
                let prefix = &specs[..snap.patterns.len()];
                let mut bank = PatternBank::restore(prefix, &config.schema, snap)
                    .map_err(|e| format!("restore: {e}"))?;
                // Entries registered after the snapshot (crash between
                // registry write and checkpoint save): re-subscribe at
                // the restored watermark. The client never saw an ack.
                for (name, pattern, opts) in &specs[snap.patterns.len()..] {
                    bank.subscribe(name.clone(), pattern, opts.clone())
                        .map_err(|e| format!("re-subscribe `{name}`: {e}"))?;
                }
                summary = format!(
                    "restored checkpoint seq {} ({} pattern(s), {} event(s) consumed)",
                    l.info.seq,
                    snap.patterns.len(),
                    snap.next_id
                );
                bank
            }
            None => {
                let mut bank = PatternBank::builder(&config.schema).build();
                for (name, pattern, opts) in &specs {
                    bank.subscribe(name.clone(), pattern, opts.clone())
                        .map_err(|e| format!("subscribe `{name}`: {e}"))?;
                }
                bank
            }
        };
        per_pattern_emitted.resize(specs.len(), 0);

        // Rebuild the subscription table with durable cursors and the
        // per-pattern suppression counts.
        let mut subs = Vec::with_capacity(specs.len());
        for (i, (name, pattern, _)) in specs.iter().enumerate() {
            let (log, seq) = match &checkpoint_dir {
                Some(dir) => {
                    let l = MatchLog::open(Registry::match_log_path(dir, i))
                        .map_err(|e| e.to_string())?;
                    let seq = l.lines();
                    (Some(l), seq)
                }
                None => (None, 0),
            };
            let suppress = seq.saturating_sub(per_pattern_emitted[i]);
            subs.push(Sub {
                name: name.clone(),
                query: registry
                    .as_ref()
                    .and_then(|r| r.find(name))
                    .map(|e| e.query.clone())
                    .unwrap_or_default(),
                pattern: pattern.clone(),
                log,
                seq,
                suppress,
                watchers: Vec::new(),
            });
        }

        let mut router = Router {
            options,
            tick: config.tick,
            bank,
            subs,
            registry,
            store,
            event_log,
            checkpoint_dir,
            checkpoint_every: config.checkpoint_every.max(1),
            since_checkpoint: 0,
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

        // Replay the log suffix the checkpoint has not seen.
        if let Some(log) = &router.event_log {
            router.floor = log.last_ts();
            let skip = router.bank.consumed_events();
            let rel = log.scan().map_err(|e| e.to_string())?;
            let total = rel.len();
            if total > skip {
                // The live path durably logs a matcher-refused event,
                // reports the error, and keeps going — replay must
                // tolerate exactly the same events, or one refused-but-
                // logged event would fail every subsequent restart.
                let mut refused = 0u64;
                for (_, e) in rel.iter().skip(skip) {
                    if router.push_event(e.ts(), e.values().to_vec()).is_err() {
                        refused += 1;
                    }
                    router.replayed += 1;
                }
                summary.push_str(&format!(", replayed {} event(s)", total - skip));
                if refused > 0 {
                    summary.push_str(&format!(" ({refused} refused by the matcher)"));
                }
            }
            // Replay consumption is recovery, not new ingestion: reset
            // the cadence and kill counters so injected kill points
            // count fresh post-restart events.
            router.consumed_new = 0;
            router.since_checkpoint = 0;
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
            .push_with_probe(ts, values, &mut self.probe)
            .map_err(|e| e.to_string())?;
        if !emitted.is_empty() {
            // Match durability must imply event durability: match-log
            // appends below are unbuffered (they survive an abort), so
            // if the buffered event-log tail died with the process the
            // replay could not regenerate these matches and the durable
            // line count would suppress *different* future matches.
            // Sync the event log first — matches are rare relative to
            // events, so the fsync amortizes.
            if let Some(log) = self.event_log.as_mut() {
                log.sync().map_err(|e| e.to_string())?;
            }
        }
        for (i, m) in emitted {
            let line = m.display_with(&self.subs[i].pattern);
            self.deliver(i, &line)?;
        }
        Ok(())
    }

    /// Delivers one rendered match for subscription `i`: suppress if the
    /// replay already has it durable, else append-then-send.
    fn deliver(&mut self, i: usize, line: &str) -> Result<(), String> {
        let sub = &mut self.subs[i];
        if sub.suppress > 0 {
            sub.suppress -= 1;
            return Ok(());
        }
        sub.seq = match sub.log.as_mut() {
            Some(log) => {
                log.append(line).map_err(|e| e.to_string())?;
                log.lines()
            }
            None => sub.seq + 1,
        };
        let msg = protocol::match_line(&sub.name, sub.seq, line);
        sub.watchers
            .retain(|w| w.alive.load(Ordering::SeqCst) && w.send(msg.clone()));
        Ok(())
    }

    /// Syncs sinks and saves a bank checkpoint (durable mode only).
    fn save_checkpoint(&mut self) -> Result<(), String> {
        self.since_checkpoint = 0;
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        let sw = Stopwatch::start();
        // Sink-before-snapshot, log-before-snapshot: the snapshot must
        // never claim state the durable files do not yet have.
        if let Some(log) = self.event_log.as_mut() {
            log.sync().map_err(|e| e.to_string())?;
        }
        for sub in &mut self.subs {
            if let Some(l) = sub.log.as_mut() {
                l.sync().map_err(|e| e.to_string())?;
            }
        }
        let snap = MatcherSnapshot::Bank(self.bank.snapshot());
        let info = store.save(&snap).map_err(|e| e.to_string())?;
        self.probe
            .checkpoint_saved(info.bytes, sw.elapsed().as_nanos() as u64);
        Ok(())
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
                if let Some(log) = self.event_log.as_mut() {
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
                self.since_checkpoint += 1;
                if let Some(k) = self.kill_after {
                    if self.consumed_new >= k {
                        // Injected crash point for the recovery suite:
                        // no flush, no checkpoint, straight down.
                        std::process::abort();
                    }
                }
                if self.store.is_some() && self.since_checkpoint >= self.checkpoint_every {
                    self.save_checkpoint()?;
                }
                Ok(true)
            }
            Msg::Sync { conn } => {
                // Make everything ingested before the barrier durable,
                // so the ack's `durable` figure is trustworthy.
                if let Some(log) = self.event_log.as_mut() {
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
                let durable = self.event_log.as_ref().map(|l| l.len()).unwrap_or(0);
                let mut o = protocol::ok("sync");
                o.set("accepted", accepted)
                    .set("shed", shed)
                    .set("durable", durable)
                    .set("consumed", self.bank.consumed_events());
                self.reply(conn, o.to_string());
                Ok(true)
            }
            Msg::Ping { conn } => {
                let mut o = protocol::ok("pong");
                o.set("consumed", self.bank.consumed_events())
                    .set("watermark", ts_json(self.bank.watermark()));
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
        if let Err(e) = self
            .bank
            .subscribe(name.clone(), &pattern, self.options.clone())
        {
            c.send(protocol::error("subscribe", e.to_string()));
            return Ok(());
        }
        let index = self.bank.len() - 1;
        // Durability discipline: registry first, then checkpoint, then
        // ack — an acked subscription survives any crash after this.
        let log = if let Some(reg) = self.registry.as_mut() {
            reg.add(&name, &query)?;
            let dir = self.checkpoint_dir.as_ref().expect("registry implies dir");
            Some(MatchLog::open(Registry::match_log_path(dir, index)).map_err(|e| e.to_string())?)
        } else {
            None
        };
        let seq = log.as_ref().map(|l| l.lines()).unwrap_or(0);
        self.subs.push(Sub {
            name: name.clone(),
            query,
            pattern,
            log,
            seq,
            suppress: 0,
            watchers: Vec::new(),
        });
        if self.store.is_some() {
            self.save_checkpoint()?;
        }
        self.attach(index, &c, cursor)
    }

    /// Acks a subscription on `c`, resends durable lines after `cursor`,
    /// and attaches the connection as a live watcher.
    fn attach(&mut self, i: usize, c: &Arc<Conn>, cursor: u64) -> Result<(), String> {
        let sub = &mut self.subs[i];
        let resend = sub.seq.saturating_sub(cursor.min(sub.seq));
        let mut ack = protocol::ok("subscribe");
        ack.set("sub", sub.name.clone())
            .set("id", i)
            .set("seq", sub.seq)
            .set("resend", resend);
        if !c.send(ack.to_string()) {
            return Ok(());
        }
        if resend > 0 {
            if sub.log.is_none() {
                c.send(protocol::error(
                    "subscribe",
                    "cursor resume requires a durable server (--checkpoint)",
                ));
                return Ok(());
            }
            // Reading from the router thread: it is the only appender,
            // so the line count and the file contents agree.
            let dir = self.checkpoint_dir.as_ref().expect("durable sub has dir");
            let lines = read_match_lines(&Registry::match_log_path(dir, i))?;
            let start = cursor.min(sub.seq) as usize;
            for (k, line) in lines.iter().enumerate().skip(start) {
                if !c.send(protocol::match_line(&sub.name, (k + 1) as u64, line)) {
                    return Ok(());
                }
            }
        }
        sub.watchers.retain(|w| w.alive.load(Ordering::SeqCst));
        sub.watchers.push(Arc::clone(c));
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
            .map(|(s, sub)| {
                JsonObject::new()
                    .with("name", s.name.clone())
                    .with("hits", s.hits)
                    .with("skips", s.skips)
                    .with("heartbeats", s.heartbeats)
                    .with("matches", s.emitted)
                    .with("peak_omega", s.peak_omega)
                    .with("retained", s.retained_events)
                    .with("evicted", s.evicted_events)
                    .with("seq", sub.seq)
                    .with("watchers", sub.watchers.len())
                    .into()
            })
            .collect();
        JsonObject::new()
            .with("consumed", self.bank.consumed_events())
            .with("replayed", self.replayed)
            .with("clamped", self.clamped)
            .with("slow_disconnects", self.conn_table().slow_disconnects())
            .with("watermark", ts_json(self.bank.watermark()))
            .with(
                "durable_events",
                self.event_log.as_ref().map(|l| l.len()).unwrap_or(0),
            )
            .with("durable", self.store.is_some())
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
        router.save_checkpoint()
    }
}

/// Reads the complete (newline-terminated) lines of a durable match
/// log — the resumable prefix a reconnecting subscriber is owed.
fn read_match_lines(path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines: Vec<String> = Vec::new();
    let mut rest = text.as_str();
    while let Some(nl) = rest.find('\n') {
        lines.push(rest[..nl].to_string());
        rest = &rest[nl + 1..];
    }
    Ok(lines)
}
