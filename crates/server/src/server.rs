//! Server assembly: TCP acceptor, per-connection threads, lifecycle.
//!
//! Thread model (std-only; the workspace has no async runtime):
//!
//! ```text
//! acceptor ──spawns──▶ reader (per conn) ──Msg──▶ router lock, if free
//!                                          else ─▶ bounded core queue
//!                      writer (per conn) ◀─lines── router (lock holder)
//! ```
//!
//! The reader decodes line-JSON requests — an event frame straight to
//! schema-typed rows ([`protocol::decode`]) — and routes them itself
//! when no other connection holds the router; otherwise it enqueues them
//! for the holder (or the router thread) to take. Under the `block` policy
//! a full core queue stalls the reader (backpressure propagates down
//! TCP to the client), under `reject` events are shed and counted. The
//! writer drains the connection's bounded outbound
//! queue; a subscriber that cannot keep up fills it and is disconnected
//! — its durable cursor lets it resume exactly where it left off.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use ses_event::Schema;
use ses_query::TickUnit;

use crate::protocol::{self, Decoded, Request, MAX_LINE_BYTES};
use crate::queue::{BoundedQueue, OverflowPolicy};
use crate::router::{Conn, ConnTable, Ingress, Msg, Router};
use crate::signal;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::port`]).
    pub addr: String,
    /// Event schema every ingested row must satisfy.
    pub schema: Schema,
    /// Tick unit for parsing subscription queries.
    pub tick: TickUnit,
    /// Core ingest queue bound.
    pub queue_capacity: usize,
    /// Per-connection outbound queue bound.
    pub outbound_capacity: usize,
    /// What producers experience when the core queue is full.
    pub policy: OverflowPolicy,
    /// Durability root: checkpoints, subscription registry, and
    /// per-subscription match logs live here. `None` = memory-only.
    pub checkpoint: Option<PathBuf>,
    /// Event log directory; defaults to `<checkpoint>/events`.
    pub event_log: Option<PathBuf>,
    /// Checkpoint cadence in consumed events.
    pub checkpoint_every: usize,
    /// Checkpoints retained.
    pub keep: usize,
    /// Crash injection: abort the process after consuming this many
    /// post-restart events (the recovery suite's kill points; read from
    /// `SES_KILL_AFTER` by [`ServerConfig::from_env`]).
    pub kill_after: Option<u64>,
}

impl ServerConfig {
    /// Defaults: loopback on an ephemeral port, blocking backpressure,
    /// memory-only.
    pub fn new(schema: Schema) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            schema,
            tick: TickUnit::Abstract,
            queue_capacity: 1024,
            outbound_capacity: 1024,
            policy: OverflowPolicy::Block,
            checkpoint: None,
            event_log: None,
            checkpoint_every: 1000,
            keep: 3,
            kill_after: None,
        }
    }

    /// Applies environment overrides (currently `SES_KILL_AFTER`).
    pub fn from_env(mut self) -> ServerConfig {
        if let Ok(v) = std::env::var("SES_KILL_AFTER") {
            if let Ok(n) = v.parse::<u64>() {
                self.kill_after = Some(n);
            }
        }
        self
    }
}

/// A running server instance (in-process handle).
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    router: Option<JoinHandle<Result<(), String>>>,
    queue: Arc<BoundedQueue<Msg>>,
    /// Human-readable recovery summary from startup.
    pub recovery: String,
}

impl Server {
    /// Restores durable state, replays the event-log suffix, binds the
    /// listener, and spawns the acceptor and router threads.
    pub fn start(config: ServerConfig) -> Result<Server, String> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let conns: Arc<Mutex<ConnTable>> = Arc::new(Mutex::new(ConnTable::default()));

        let (ingress, recovery) = Router::recover(
            &config,
            Arc::clone(&queue),
            Arc::clone(&conns),
            Arc::clone(&shutdown),
        )?;
        let ingress = Arc::new(ingress);

        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;

        let router_handle = {
            let ingress = Arc::clone(&ingress);
            std::thread::Builder::new()
                .name("ses-router".into())
                .spawn(move || ingress.run())
                .map_err(|e| e.to_string())?
        };

        let acceptor_handle = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let schema = config.schema.clone();
            let policy = config.policy;
            let outbound = config.outbound_capacity;
            std::thread::Builder::new()
                .name("ses-acceptor".into())
                .spawn(move || {
                    accept_loop(listener, shutdown, ingress, conns, schema, policy, outbound)
                })
                .map_err(|e| e.to_string())?
        };

        Ok(Server {
            addr,
            shutdown,
            acceptor: Some(acceptor_handle),
            router: Some(router_handle),
            queue,
            recovery,
        })
    }

    /// The bound port (useful with `addr = 127.0.0.1:0`).
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// The actual bound address (host and port the listener resolved
    /// to, not the configured string).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests graceful shutdown and waits for the router to drain,
    /// checkpoint, and exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join()
    }

    /// Waits for the server to exit (shutdown verb, signal, or
    /// [`Server::stop`]).
    pub fn join(&mut self) -> Result<(), String> {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let result = match self.router.take() {
            Some(h) => h.join().map_err(|_| "router panicked".to_string())?,
            None => Ok(()),
        };
        self.queue.close();
        result
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.join();
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    ingress: Arc<Ingress>,
    conns: Arc<Mutex<ConnTable>>,
    schema: Schema,
    policy: OverflowPolicy,
    outbound: usize,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) || signal::requested() {
            return;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                // Replies are small lines a client waits on: without
                // this, Nagle holds each until the peer's delayed ACK.
                let _ = stream.set_nodelay(true);
                let conn = conns
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(outbound);
                spawn_connection(
                    stream,
                    conn,
                    Arc::clone(&conns),
                    Arc::clone(&ingress),
                    Arc::clone(&shutdown),
                    schema.clone(),
                    policy,
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn spawn_connection(
    stream: TcpStream,
    conn: Arc<Conn>,
    conns: Arc<Mutex<ConnTable>>,
    ingress: Arc<Ingress>,
    shutdown: Arc<AtomicBool>,
    schema: Schema,
    policy: OverflowPolicy,
) {
    let drop_entry = |conn: &Arc<Conn>, conns: &Arc<Mutex<ConnTable>>| {
        conn.disconnect();
        conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(conn.id);
    };
    let write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            drop_entry(&conn, &conns);
            return;
        }
    };
    // Writer: drain the outbound queue to the socket.
    {
        let conn = Arc::clone(&conn);
        let _ = std::thread::Builder::new()
            .name(format!("ses-conn-{}-w", conn.id))
            .spawn(move || writer_loop(write_stream, conn));
    }
    // Reader: parse requests, enqueue messages. The reader owns the
    // table entry — it removes it on exit so connection churn does not
    // grow the table (ids are never reused, see `ConnTable`).
    let name = format!("ses-conn-{}-r", conn.id);
    let spawned = std::thread::Builder::new().name(name).spawn(move || {
        reader_loop(stream, &conn, &ingress, &shutdown, &schema, policy);
        drop_entry(&conn, &conns);
    });
    let _ = spawned;
}

fn writer_loop(stream: TcpStream, conn: Arc<Conn>) {
    let mut stream = BufWriter::new(stream);
    while let Some(line) = conn.out.pop() {
        if stream.write_all(line.as_bytes()).is_err() || stream.write_all(b"\n").is_err() {
            conn.disconnect();
            return;
        }
        // Flush only when the queue runs dry — batches bursts.
        if conn.out.depth() == 0 && stream.flush().is_err() {
            conn.disconnect();
            return;
        }
    }
    let _ = stream.flush();
}

fn reader_loop(
    stream: TcpStream,
    conn: &Arc<Conn>,
    ingress: &Ingress,
    shutdown: &Arc<AtomicBool>,
    schema: &Schema,
    policy: OverflowPolicy,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) || signal::requested() {
            return;
        }
        if !conn.alive.load(Ordering::SeqCst) {
            return;
        }
        let read = read_line_bounded(&mut reader, &mut line);
        if too_long(&line) {
            // Nothing inside an unterminated line says where the next
            // request starts: say why, and close.
            conn.send(protocol::error(
                "parse",
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            ));
            return;
        }
        match read {
            // `Ok(0)`: the peer closed. `line` may still hold a prefix
            // carried over from a timed-out read whose remainder never
            // arrived; a request without its newline is the same
            // best-effort final line as `Ok(_)` at the end of the stream.
            Ok(n) => {
                // A line that is not UTF-8 ends the connection.
                let Ok(text) = std::str::from_utf8(&line) else {
                    return;
                };
                let text = text.trim();
                if !text.is_empty() && !handle_line(text, conn, ingress, schema, policy) {
                    return;
                }
                if n == 0 {
                    return;
                }
                // Clear only after the line is fully read and handled.
                line.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // The timed-out read may have left a partial line in
                // `line`; keep it — the next read appends the rest.
                continue;
            }
            Err(_) => {
                return;
            }
        }
    }
}

/// Appends to `line` up to and including the next newline, like
/// `read_until`, but never past one byte more than [`MAX_LINE_BYTES`] —
/// the byte that shows the line [`too_long`]. What a peer can make the
/// server hold is bounded by this, not by when it sends a newline.
fn read_line_bounded(reader: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<usize> {
    let room = (MAX_LINE_BYTES + 1).saturating_sub(line.len());
    reader.take(room as u64).read_until(b'\n', line)
}

fn too_long(line: &[u8]) -> bool {
    line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n')
}

/// Handles one request line; `false` ends the connection.
fn handle_line(
    line: &str,
    conn: &Arc<Conn>,
    ingress: &Ingress,
    schema: &Schema,
    policy: OverflowPolicy,
) -> bool {
    let event = |ts, values| Msg::Event {
        ts,
        values,
        conn: conn.id,
    };
    let msg = match protocol::decode(line, schema, event) {
        Err(e) => {
            conn.send(protocol::error("parse", e));
            return true;
        }
        // The events of one request are submitted as one run.
        Ok(Decoded::Events { rows, refused }) => {
            for e in refused {
                conn.send(protocol::error("ingest", e));
            }
            let offered = rows.len();
            let Some(accepted) = ingress.submit(rows, policy) else {
                return false; // server shutting down
            };
            conn.accepted.fetch_add(accepted as u64, Ordering::SeqCst);
            conn.shed
                .fetch_add((offered - accepted) as u64, Ordering::SeqCst);
            return true;
        }
        Ok(Decoded::Control(request)) => match request {
            Request::Sync => Msg::Sync { conn: conn.id },
            Request::Ping => Msg::Ping { conn: conn.id },
            Request::Stats => Msg::Stats { conn: conn.id },
            Request::Shutdown => Msg::Shutdown { conn: conn.id },
            Request::Subscribe {
                name,
                query,
                cursor,
            } => Msg::Subscribe {
                conn: conn.id,
                name,
                query,
                cursor,
            },
            _ => unreachable!("decode types event lines itself"),
        },
    };
    // Control messages always block — they are rare, must not be shed,
    // and their place in the order is their guarantee.
    ingress.submit(vec![msg], OverflowPolicy::Block).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_peer_that_never_sends_a_newline_fills_the_buffer_to_the_cap_and_no_further() {
        let mut endless = BufReader::new(std::io::repeat(b'x'));
        let mut line = Vec::new();
        // However often the reader comes back for more.
        for _ in 0..3 {
            read_line_bounded(&mut endless, &mut line).unwrap();
            assert_eq!(line.len(), MAX_LINE_BYTES + 1);
            assert!(too_long(&line));
        }
    }

    #[test]
    fn a_line_of_exactly_the_cap_is_not_too_long() {
        // With part of the line carried over from a timed-out read.
        for (rest, long) in [(MAX_LINE_BYTES - 1000, false), (MAX_LINE_BYTES - 999, true)] {
            let mut bytes = vec![b'x'; rest];
            bytes.extend_from_slice(b"\nnext\n");
            let mut reader = BufReader::new(&bytes[..]);
            let mut line = vec![b'x'; 1000];
            read_line_bounded(&mut reader, &mut line).unwrap();
            assert_eq!(line.len(), MAX_LINE_BYTES + 1);
            assert_eq!(too_long(&line), long);
            if !long {
                line.clear();
                read_line_bounded(&mut reader, &mut line).unwrap();
                assert_eq!(line, b"next\n");
            }
        }
    }
}
