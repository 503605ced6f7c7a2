//! Multi-client crash/reconnect suite for the `ses-server` binary.
//!
//! Scenario, per injected kill point k:
//!
//! 1. Start a durable server with `SES_KILL_AFTER=k` — it calls
//!    `abort()` after consuming k fresh events (no flush, no final
//!    checkpoint: the harshest crash the process can inflict on
//!    itself).
//! 2. Three subscriber clients register the same query text — two
//!    under one name, the third under a second name, so the bank holds
//!    two evaluation-identical patterns, each with its own matcher and
//!    match log; one producer streams a deterministic event sequence,
//!    learning the durable prefix from periodic `sync` acks.
//! 3. The server dies mid-stream. Everyone reconnects to a restarted
//!    server: the producer resumes ingestion from the durable count the
//!    restarted server reports, each subscriber resumes from its last
//!    received seq as cursor.
//! 4. After the stream completes, every subscriber must have observed
//!    every match exactly once: seqs strictly increasing, no gaps, no
//!    duplicates, and the full set present.
//!
//! A final scenario SIGKILLs the server from outside (no injection) to
//! cover death at an arbitrary, non-deterministic point.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ses_metrics::JsonValue;
use ses_server::Client;

const SCHEMA: &str = "ID:int,L:str";
const QUERY: &str = "PATTERN c THEN d WHERE c.L = 'C' AND d.L = 'D' WITHIN 5 TICKS";
/// Number of (C, D) pairs in the canonical stream — one match each.
const PAIRS: usize = 8;
/// The subscription each of the three subscribers attaches to.
const SUBSCRIPTIONS: [&str; 3] = ["cd", "cd", "cd-twin"];

struct ServerProc {
    child: Child,
    port: u16,
}

fn start_server(dir: &Path, kill_after: Option<u64>) -> ServerProc {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ses-server"));
    cmd.arg("--schema")
        .arg(SCHEMA)
        .arg("--tick")
        .arg("abstract")
        .arg("--checkpoint")
        .arg(dir)
        .arg("--checkpoint-every")
        .arg("3")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .env_remove("SES_KILL_AFTER");
    if let Some(k) = kill_after {
        cmd.env("SES_KILL_AFTER", k.to_string());
    }
    let mut child = cmd.spawn().expect("spawn ses-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let port = loop {
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 {
            panic!("server exited before announcing its port");
        }
        if let Some(rest) = line.trim().strip_prefix("listening on 127.0.0.1:") {
            break rest.parse::<u16>().expect("port number");
        }
    };
    // Keep draining stdout in the background so the server never blocks
    // on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    ServerProc { child, port }
}

fn connect(port: u16) -> Client {
    let mut c = Client::connect(&format!("127.0.0.1:{port}")).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c
}

/// The canonical event stream: PAIRS (C, D) pairs ten ticks apart, then
/// one flush event far past every window so the last pair finalizes.
fn events() -> Vec<(i64, Vec<JsonValue>)> {
    let mut v = Vec::new();
    for i in 0..PAIRS as i64 {
        v.push((
            10 * i,
            vec![JsonValue::Int(2 * i), JsonValue::Str("C".into())],
        ));
        v.push((
            10 * i + 1,
            vec![JsonValue::Int(2 * i + 1), JsonValue::Str("D".into())],
        ));
    }
    v.push((
        10_000,
        vec![JsonValue::Int(9_999), JsonValue::Str("X".into())],
    ));
    v
}

/// One subscriber's exactly-once ledger across reconnections.
#[derive(Default)]
struct Ledger {
    seqs: Vec<u64>,
}

impl Ledger {
    fn cursor(&self) -> u64 {
        self.seqs.last().copied().unwrap_or(0)
    }

    fn record(&mut self, m: &ses_metrics::JsonObject) {
        let seq = m.get("seq").and_then(JsonValue::as_u64).expect("seq");
        if let Some(&last) = self.seqs.last() {
            assert!(
                seq > last,
                "duplicate or reordered delivery: got seq {seq} after {last}"
            );
        }
        self.seqs.push(seq);
    }

    fn assert_complete(&self) {
        let want: Vec<u64> = (1..=PAIRS as u64).collect();
        assert_eq!(self.seqs, want, "lost or duplicated matches");
    }
}

/// Drains whatever matches are available right now into the ledger;
/// returns false once the connection is dead.
fn drain_matches(client: &mut Client, ledger: &mut Ledger) -> bool {
    client
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok();
    loop {
        match client.next_match() {
            Ok(Some(m)) => ledger.record(&m),
            Ok(None) => return false,
            Err(e) if e == "timeout" => return true,
            Err(_) => return false,
        }
    }
}

/// Blocks until the ledger holds every match (or panics on timeout).
fn drain_until_complete(client: &mut Client, ledger: &mut Ledger) {
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    while ledger.cursor() < PAIRS as u64 {
        match client.next_match() {
            Ok(Some(m)) => ledger.record(&m),
            Ok(None) => panic!("connection closed before all matches arrived"),
            Err(e) => panic!("waiting for matches: {e}"),
        }
    }
}

/// Asks a fresh connection how many events are durable.
fn durable_count(port: u16) -> usize {
    let mut c = connect(port);
    let ack = c.sync().unwrap();
    ack.get("durable").and_then(JsonValue::as_u64).unwrap() as usize
}

/// Feeds events one at a time starting at `from`, syncing after each so
/// the durable prefix is known precisely. Returns Err when the server
/// dies mid-stream (the crash scenarios expect that).
fn produce(port: u16, from: usize) -> Result<(), String> {
    let mut producer = connect(port);
    for (ts, values) in events().into_iter().skip(from) {
        producer.ingest(ts, &values)?;
        producer.sync()?;
    }
    Ok(())
}

fn scenario_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ses-crash-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the full crash/restart/reconnect scenario for one kill point.
fn run_kill_point(kill_after: u64) {
    let dir = scenario_dir(&format!("k{kill_after}"));

    // Phase 1: server with the injected kill point.
    let mut server = start_server(&dir, Some(kill_after));
    let mut subscribers: Vec<(Client, Ledger)> = SUBSCRIPTIONS
        .iter()
        .map(|name| {
            let mut c = connect(server.port);
            c.subscribe(name, QUERY, 0).unwrap();
            (c, Ledger::default())
        })
        .collect();

    // The producer streams until the server aborts under it.
    let produced = produce(server.port, 0);
    assert!(
        produced.is_err(),
        "kill point {kill_after} never fired — server survived the whole stream"
    );
    server.child.wait().expect("server exit status");

    // Subscribers pick up whatever was delivered before the crash.
    for (c, ledger) in &mut subscribers {
        drain_matches(c, ledger);
    }

    // Phase 2: restart clean; everyone resumes.
    let mut server = start_server(&dir, None);
    let resume_from = durable_count(server.port);
    let mut resumed: Vec<(Client, Ledger)> = subscribers
        .into_iter()
        .zip(SUBSCRIPTIONS)
        .map(|((_, ledger), name)| {
            let mut c = connect(server.port);
            let ack = c.subscribe(name, "", ledger.cursor()).unwrap();
            let resend = ack.get("resend").and_then(JsonValue::as_u64).unwrap();
            let expected = ack.get("seq").and_then(JsonValue::as_u64).unwrap() - ledger.cursor();
            assert_eq!(resend, expected, "resend must cover exactly the gap");
            (c, ledger)
        })
        .collect();

    produce(server.port, resume_from).expect("clean run after restart");

    for (c, ledger) in &mut resumed {
        drain_until_complete(c, ledger);
        ledger.assert_complete();
    }

    // The durable record agrees: every event ingested exactly once.
    let mut c = connect(server.port);
    let stats = c.stats().unwrap();
    let stats = stats
        .get("stats")
        .and_then(JsonValue::as_object)
        .unwrap()
        .clone();
    assert_eq!(
        stats.get("durable_events").and_then(JsonValue::as_u64),
        Some(events().len() as u64),
        "event log must hold the canonical stream exactly once"
    );
    c.shutdown().unwrap();
    server.child.wait().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_point_during_first_pairs() {
    run_kill_point(3);
}

#[test]
fn kill_point_mid_stream_between_checkpoints() {
    run_kill_point(7);
}

#[test]
fn kill_point_near_the_end_of_the_stream() {
    run_kill_point(14);
}

#[test]
fn external_sigkill_while_idle_then_resume() {
    let dir = scenario_dir("sigkill");
    let mut server = start_server(&dir, None);

    let mut sub = connect(server.port);
    sub.subscribe("cd", QUERY, 0).unwrap();
    let mut ledger = Ledger::default();

    // Ingest the first half, let it settle, then SIGKILL from outside.
    let half = events().len() / 2;
    {
        let mut producer = connect(server.port);
        for (ts, values) in events().into_iter().take(half) {
            producer.ingest(ts, &values).unwrap();
        }
        producer.sync().unwrap();
    }
    drain_matches(&mut sub, &mut ledger);
    server.child.kill().unwrap();
    server.child.wait().unwrap();

    let server2 = start_server(&dir, None);
    let resume_from = durable_count(server2.port);
    assert!(resume_from >= half, "synced prefix must be durable");
    let mut sub = connect(server2.port);
    sub.subscribe("cd", "", ledger.cursor()).unwrap();
    produce(server2.port, resume_from).unwrap();
    drain_until_complete(&mut sub, &mut ledger);
    ledger.assert_complete();

    let mut c = connect(server2.port);
    c.shutdown().unwrap();
    let mut server2 = server2;
    server2.child.wait().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
