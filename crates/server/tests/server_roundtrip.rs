//! In-process server integration tests: protocol round-trips, match
//! delivery, backpressure accounting, durable resume, graceful stop.
//!
//! Each test binds `127.0.0.1:0` and talks to the server over real TCP
//! through [`ses_server::Client`]; the crash/SIGKILL matrix lives in the
//! workspace-level `tests/server_crash_reconnect.rs` (it needs separate
//! processes).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use ses_event::{AttrType, Schema};
use ses_metrics::JsonValue;
use ses_query::TickUnit;
use ses_server::protocol::{parse_json, MAX_LINE_BYTES};
use ses_server::{Client, OverflowPolicy, Server, ServerConfig};

fn schema() -> Schema {
    Schema::builder()
        .attr("ID", AttrType::Int)
        .attr("L", AttrType::Str)
        .build()
        .unwrap()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ses-server-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const CD: &str = "PATTERN c THEN d WHERE c.L = 'C' AND d.L = 'D' WITHIN 5 TICKS";

fn config(checkpoint: Option<PathBuf>) -> ServerConfig {
    let mut c = ServerConfig::new(schema());
    c.tick = TickUnit::Abstract;
    c.checkpoint = checkpoint;
    c
}

fn connect(server: &Server) -> Client {
    let mut c = Client::connect(&format!("127.0.0.1:{}", server.port())).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c
}

fn ev(id: i64, label: &str) -> Vec<JsonValue> {
    vec![JsonValue::Int(id), JsonValue::Str(label.to_string())]
}

/// A connection that sends bytes as given, for what [`Client`] would
/// not render.
struct Raw {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(server: &Server) -> Raw {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Raw { stream, reader }
    }

    /// Sends `line` and a newline.
    fn send(&mut self, line: &[u8]) {
        self.stream.write_all(line).unwrap();
        self.stream.write_all(b"\n").unwrap();
    }

    /// The next line; `None` once the server has closed the connection
    /// (reset counts: it closes without reading what is still in flight).
    fn line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim().to_string()),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => None,
            Err(e) => panic!("read: {e}"),
        }
    }

    /// The next line, which must be a refusal under `op`; its words.
    fn refusal(&mut self, op: &str) -> String {
        let line = self.line().expect("an error line");
        let reply = parse_json(&line).unwrap();
        let reply = reply.as_object().unwrap();
        assert_eq!(reply.get("ok"), Some(&JsonValue::Bool(false)), "{line}");
        assert_eq!(
            reply.get("op").and_then(JsonValue::as_str),
            Some(op),
            "{line}"
        );
        reply
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string()
    }

    fn consumed(&mut self) -> u64 {
        self.send(b"{\"op\":\"sync\"}");
        let line = self.line().expect("a sync ack");
        let reply = parse_json(&line).unwrap();
        let reply = reply.as_object().unwrap();
        assert_eq!(
            reply.get("op").and_then(JsonValue::as_str),
            Some("sync"),
            "{line}"
        );
        reply.get("consumed").and_then(JsonValue::as_u64).unwrap()
    }
}

/// One top-level counter of the `stats` reply.
fn stat(c: &mut Client, name: &str) -> Option<u64> {
    let reply = c.stats().unwrap();
    let stats = reply.get("stats").and_then(JsonValue::as_object)?;
    stats.get(name).and_then(JsonValue::as_u64)
}

#[test]
fn ping_ingest_sync_round_trip() {
    let server = Server::start(config(None)).unwrap();
    let mut c = connect(&server);

    let pong = c.ping().unwrap();
    assert_eq!(pong.get("op").and_then(JsonValue::as_str), Some("pong"));
    assert_eq!(pong.get("consumed").and_then(JsonValue::as_u64), Some(0));

    c.ingest(1, &ev(1, "C")).unwrap();
    c.ingest(2, &ev(2, "D")).unwrap();
    let ack = c.sync().unwrap();
    assert_eq!(ack.get("consumed").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(ack.get("accepted").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(ack.get("shed").and_then(JsonValue::as_u64), Some(0));

    server.stop().unwrap();
}

#[test]
fn subscriber_receives_matches_as_they_finalize() {
    let server = Server::start(config(None)).unwrap();
    let mut subscriber = connect(&server);
    let ack = subscriber.subscribe("cd", CD, 0).unwrap();
    assert_eq!(ack.get("seq").and_then(JsonValue::as_u64), Some(0));

    let mut producer = connect(&server);
    producer.ingest(1, &ev(1, "C")).unwrap();
    producer.ingest(2, &ev(2, "D")).unwrap();
    // Matches finalize on window expiry: push the watermark past it.
    producer.ingest(100, &ev(3, "X")).unwrap();
    producer.sync().unwrap();

    let m = subscriber.next_match().unwrap().expect("a match line");
    assert_eq!(m.get("sub").and_then(JsonValue::as_str), Some("cd"));
    assert_eq!(m.get("seq").and_then(JsonValue::as_u64), Some(1));
    let rendered = m.get("match").and_then(JsonValue::as_str).unwrap();
    assert!(
        rendered.contains("c/") && rendered.contains("d/"),
        "{rendered}"
    );

    server.stop().unwrap();
}

/// One per-pattern counter of the `stats` reply, for the pattern at
/// `index`.
fn pattern_stat(c: &mut Client, index: usize, name: &str) -> u64 {
    let reply = c.stats().unwrap();
    let patterns = reply
        .get("stats")
        .and_then(JsonValue::as_object)
        .and_then(|s| s.get("patterns"))
        .and_then(JsonValue::as_array)
        .expect("a patterns array");
    let pattern = patterns[index].as_object().expect("a pattern object");
    pattern
        .get(name)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("no per-pattern `{name}`"))
}

#[test]
fn stats_show_each_patterns_adjudication_state() {
    let server = Server::start(config(None)).unwrap();
    let mut c = connect(&server);
    // `c+` lets one match be a proper subset of another, so maximality
    // keeps killers; `cd` beside it has no group variable and keeps none.
    c.subscribe(
        "cpd",
        "PATTERN c+ THEN d WHERE c.L = 'C' AND d.L = 'D' WITHIN 5 TICKS",
        0,
    )
    .unwrap();
    c.subscribe("cd", CD, 0).unwrap();
    for name in [
        "active_instances",
        "peak_omega",
        "pending_candidates",
        "retained_killers",
    ] {
        assert_eq!(pattern_stat(&mut c, 0, name), 0, "{name} before any event");
    }

    // A run is open, nothing is decided yet.
    c.ingest(1, &ev(1, "C")).unwrap();
    c.ingest(2, &ev(2, "D")).unwrap();
    c.sync().unwrap();
    assert!(pattern_stat(&mut c, 0, "active_instances") > 0);
    assert_eq!(pattern_stat(&mut c, 0, "retained_killers"), 0);

    // The window closes: the match is final and, under maximality, kept
    // as a killer until the watermark is 2τ past its start.
    c.ingest(8, &ev(3, "X")).unwrap();
    c.sync().unwrap();
    assert_eq!(pattern_stat(&mut c, 0, "matches"), 1);
    assert_eq!(pattern_stat(&mut c, 0, "active_instances"), 0);
    assert!(pattern_stat(&mut c, 0, "peak_omega") > 0);
    assert_eq!(pattern_stat(&mut c, 0, "pending_candidates"), 0);
    assert_eq!(pattern_stat(&mut c, 0, "retained_killers"), 1);
    assert_eq!(pattern_stat(&mut c, 1, "matches"), 1);
    assert_eq!(pattern_stat(&mut c, 1, "retained_killers"), 0);

    c.ingest(100, &ev(4, "X")).unwrap();
    c.sync().unwrap();
    assert_eq!(pattern_stat(&mut c, 0, "retained_killers"), 0);

    server.stop().unwrap();
}

#[test]
fn bad_input_reports_errors_without_killing_the_connection() {
    let server = Server::start(config(None)).unwrap();
    let mut c = connect(&server);

    c.send_line("this is not json").unwrap();
    let reply = c.read_reply().unwrap();
    assert_eq!(reply.get("ok").and_then(JsonValue::as_bool), Some(false));

    // Wrong arity for the schema.
    c.send_line("{\"op\":\"ingest\",\"ts\":1,\"values\":[1]}")
        .unwrap();
    let reply = c.read_reply().unwrap();
    assert_eq!(reply.get("ok").and_then(JsonValue::as_bool), Some(false));

    // Unknown subscription query text.
    let reply = c.subscribe("bad", "NOT A QUERY", 0);
    assert!(reply.is_err());

    // The connection still works.
    c.ping().unwrap();
    server.stop().unwrap();
}

#[test]
fn request_line_straddling_a_read_stall_is_not_lost() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let server = Server::start(config(None)).unwrap();
    let mut stream = TcpStream::connect(format!("127.0.0.1:{}", server.port())).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Send the first half of an ingest request, stall well past the
    // server's 100ms read timeout, then finish the line: the reader
    // must keep the partial prefix across its timed-out read_line.
    let line = "{\"op\":\"ingest\",\"ts\":1,\"values\":[1,\"C\"]}\n";
    let (head, tail) = line.split_at(line.len() / 2);
    stream.write_all(head.as_bytes()).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(400));
    stream.write_all(tail.as_bytes()).unwrap();
    stream.write_all(b"{\"op\":\"sync\"}\n").unwrap();
    stream.flush().unwrap();

    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.contains("\"ok\":true") && reply.contains("\"op\":\"sync\""),
        "stalled line must parse as one request, got: {reply}"
    );
    assert!(
        reply.contains("\"consumed\":1"),
        "the straddled event must be ingested, got: {reply}"
    );

    server.stop().unwrap();
}

#[test]
fn reject_policy_sheds_and_counts_when_the_queue_is_full() {
    let mut cfg = config(None);
    cfg.policy = OverflowPolicy::Reject;
    cfg.queue_capacity = 2;
    let server = Server::start(cfg).unwrap();
    let mut c = connect(&server);

    // Fire enough events that some must be shed while the router chews:
    // the queue holds 2 and the producer is local-loopback fast.
    for i in 0..5000 {
        c.ingest(i, &ev(i, "X")).unwrap();
    }
    let ack = c.sync().unwrap();
    let accepted = ack.get("accepted").and_then(JsonValue::as_u64).unwrap();
    let shed = ack.get("shed").and_then(JsonValue::as_u64).unwrap();
    assert_eq!(accepted + shed, 5000);
    assert!(shed > 0, "expected shedding with a 2-slot queue");
    assert_eq!(
        ack.get("consumed").and_then(JsonValue::as_u64),
        Some(accepted)
    );

    // The server-side stats expose the same shedding.
    let stats = c.stats().unwrap();
    let stats = stats.get("stats").unwrap();
    let queue = stats.as_object().unwrap().get("queue").unwrap();
    let qshed = queue
        .as_object()
        .unwrap()
        .get("shed")
        .and_then(JsonValue::as_u64);
    assert_eq!(qshed, Some(shed));

    server.stop().unwrap();
}

#[test]
fn durable_subscription_resumes_across_server_restart() {
    let dir = tmp("durable-resume");
    {
        let server = Server::start(config(Some(dir.clone()))).unwrap();
        let mut c = connect(&server);
        c.subscribe("cd", CD, 0).unwrap();
        c.ingest(1, &ev(1, "C")).unwrap();
        c.ingest(2, &ev(2, "D")).unwrap();
        c.ingest(100, &ev(3, "X")).unwrap();
        c.sync().unwrap();
        let m = c.next_match().unwrap().expect("match before restart");
        assert_eq!(m.get("seq").and_then(JsonValue::as_u64), Some(1));
        server.stop().unwrap(); // graceful: drains + final checkpoint
    }
    {
        let server = Server::start(config(Some(dir.clone()))).unwrap();
        assert!(
            server.recovery.contains("restored"),
            "recovery = {}",
            server.recovery
        );
        let mut c = connect(&server);
        // Cursor 1: the match is already acknowledged — no resend.
        let ack = c.subscribe("cd", "", 1).unwrap();
        assert_eq!(ack.get("seq").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(ack.get("resend").and_then(JsonValue::as_u64), Some(0));

        // Cursor 0 from a second client: the durable line is resent.
        let mut c0 = connect(&server);
        let ack = c0.subscribe("cd", CD, 0).unwrap();
        assert_eq!(ack.get("resend").and_then(JsonValue::as_u64), Some(1));
        let m = c0.next_match().unwrap().expect("resent match");
        assert_eq!(m.get("seq").and_then(JsonValue::as_u64), Some(1));

        // New matches continue after the restart, exactly once.
        c.ingest(200, &ev(4, "C")).unwrap();
        c.ingest(201, &ev(5, "D")).unwrap();
        c.ingest(300, &ev(6, "X")).unwrap();
        c.sync().unwrap();
        let m = c.next_match().unwrap().expect("post-restart match");
        assert_eq!(m.get("seq").and_then(JsonValue::as_u64), Some(2));
        server.stop().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_timestamps_are_clamped_to_the_floor_and_counted() {
    for dir in [None, Some(tmp("clamp"))] {
        let server = Server::start(config(dir.clone())).unwrap();
        let mut c = connect(&server);
        c.ingest(10, &ev(1, "C")).unwrap();
        assert_eq!(stat(&mut c, "clamped"), Some(0));
        // Behind the floor: taken in at the floor, not refused.
        c.ingest(5, &ev(2, "D")).unwrap();
        c.ingest(10, &ev(3, "X")).unwrap();
        let pong = c.ping().unwrap();
        assert_eq!(pong.get("consumed").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(pong.get("watermark").and_then(JsonValue::as_i64), Some(10));
        assert_eq!(stat(&mut c, "clamped"), Some(1));
        server.stop().unwrap();

        // A restarted durable server takes its floor from the event log
        // and counts from zero.
        if dir.is_some() {
            let server = Server::start(config(dir.clone())).unwrap();
            let mut c = connect(&server);
            assert_eq!(stat(&mut c, "clamped"), Some(0));
            c.ingest(7, &ev(4, "D")).unwrap();
            let pong = c.ping().unwrap();
            assert_eq!(pong.get("consumed").and_then(JsonValue::as_u64), Some(4));
            assert_eq!(pong.get("watermark").and_then(JsonValue::as_i64), Some(10));
            assert_eq!(stat(&mut c, "clamped"), Some(1));
            server.stop().unwrap();
        }
        if let Some(dir) = dir {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A subscriber that stops reading is disconnected and counted, not
/// waited for: the fan-out runs on the router's thread, so a full
/// outbound queue it blocked on would stall ingest for everyone. What
/// the subscriber missed is in its durable match log, and it resumes by
/// cursor. The ack and the resend are one item of the outbound queue,
/// so a bound far below the resend's length holds them.
#[test]
fn slow_subscriber_is_disconnected_counted_and_resumes_by_cursor() {
    const BURST: i64 = 500;
    /// One round: every C tied at `t + 1` pairs with the one D, and the
    /// X closes all of their windows — BURST match lines.
    fn burst(producer: &mut Client, t: i64) {
        let mut frame: Vec<_> = (0..BURST).map(|i| (t + 1, ev(i, "C"))).collect();
        frame.extend([(t + 2, ev(0, "D")), (t + 100, ev(0, "X"))]);
        producer.batch(&frame).unwrap();
        producer.sync().unwrap();
    }
    let dir = tmp("slow-subscriber");
    let mut cfg = config(Some(dir.clone()));
    cfg.outbound_capacity = 1;
    let server = Server::start(cfg).unwrap();
    // Reads its ack and then never again.
    let mut sleeper = connect(&server);
    sleeper.subscribe("cd", CD, 0).unwrap();

    // Its writer drains the one-slot queue into the socket until the
    // kernel's buffers are full, then blocks; the queue fills behind it
    // and the next line finds no room — if the router has not outrun
    // the writer before that. How many rounds it takes is the kernel's
    // and the scheduler's business; that it happens is not.
    let mut producer = connect(&server);
    let mut rounds = 0;
    while stat(&mut producer, "slow_disconnects") == Some(0) {
        assert!(rounds < 2_000, "the sleeper's socket never filled");
        burst(&mut producer, rounds * 1_000);
        rounds += 1;
    }
    assert_eq!(stat(&mut producer, "slow_disconnects"), Some(1));

    // Ingest goes on, and a dead connection is not slow a second time.
    burst(&mut producer, rounds * 1_000);
    let events = ((rounds + 1) * (BURST + 2)) as u64;
    let pong = producer.ping().unwrap();
    assert_eq!(
        pong.get("consumed").and_then(JsonValue::as_u64),
        Some(events)
    );
    assert_eq!(stat(&mut producer, "slow_disconnects"), Some(1));
    server.stop().unwrap();

    let lines = ((rounds + 1) * BURST) as u64;
    let mut cfg = config(Some(dir.clone()));
    cfg.outbound_capacity = 4;
    let server = Server::start(cfg).unwrap();
    let mut c = connect(&server);
    let ack = c.subscribe("cd", "", 0).unwrap();
    assert_eq!(ack.get("resend").and_then(JsonValue::as_u64), Some(lines));
    for seq in 1..=lines {
        let m = c.next_match().unwrap().expect("a resent match line");
        assert_eq!(m.get("seq").and_then(JsonValue::as_u64), Some(seq));
    }
    assert_eq!(stat(&mut c, "slow_disconnects"), Some(0));
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_verb_stops_the_server_after_a_final_checkpoint() {
    let dir = tmp("shutdown-verb");
    let mut server = Server::start(config(Some(dir.clone()))).unwrap();
    let mut c = connect(&server);
    c.subscribe("cd", CD, 0).unwrap();
    c.ingest(1, &ev(1, "C")).unwrap();
    c.shutdown().unwrap();
    server.join().unwrap();

    // Restart restores the consumed event without any replay loss.
    let server = Server::start(config(Some(dir.clone()))).unwrap();
    let mut c = connect(&server);
    let pong = c.ping().unwrap();
    assert_eq!(pong.get("consumed").and_then(JsonValue::as_u64), Some(1));
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_ingest_and_multiple_subscribers_fan_out() {
    let server = Server::start(config(None)).unwrap();
    let mut s1 = connect(&server);
    let mut s2 = connect(&server);
    s1.subscribe("cd", CD, 0).unwrap();
    s2.subscribe("cd", "", 0).unwrap();

    let mut producer = connect(&server);
    producer
        .batch(&[(1, ev(1, "C")), (2, ev(2, "D")), (100, ev(3, "X"))])
        .unwrap();
    producer.sync().unwrap();

    for s in [&mut s1, &mut s2] {
        let m = s.next_match().unwrap().expect("fanned-out match");
        assert_eq!(m.get("sub").and_then(JsonValue::as_str), Some("cd"));
    }
    server.stop().unwrap();
}

#[test]
fn a_producer_keeps_its_order_whichever_thread_routes_it() {
    // A reader routes its own requests when the router is free and
    // queues them when another connection holds it. Two connections
    // asking for stats make the producer's frames take both ways; its
    // strictly increasing timestamps must still arrive in order (none
    // clamped to the floor) and none may be lost to the 8-slot queue.
    const FRAMES: i64 = 400;
    const PER_FRAME: i64 = 16;
    let mut cfg = config(None);
    cfg.queue_capacity = 8;
    let server = Server::start(cfg).unwrap();

    let busy = std::sync::atomic::AtomicBool::new(true);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut c = connect(&server);
                while busy.load(std::sync::atomic::Ordering::SeqCst) {
                    c.stats().unwrap();
                }
            });
        }
        let mut producer = connect(&server);
        for f in 0..FRAMES {
            let frame: Vec<_> = (0..PER_FRAME)
                .map(|i| (f * PER_FRAME + i + 1, ev(i, "X")))
                .collect();
            producer.batch(&frame).unwrap();
        }
        let ack = producer.sync().unwrap();
        busy.store(false, std::sync::atomic::Ordering::SeqCst);
        let sent = (FRAMES * PER_FRAME) as u64;
        assert_eq!(ack.get("accepted").and_then(JsonValue::as_u64), Some(sent));
        assert_eq!(ack.get("consumed").and_then(JsonValue::as_u64), Some(sent));
        let reply = producer.stats().unwrap();
        let stats = reply.get("stats").and_then(JsonValue::as_object).unwrap();
        assert_eq!(stats.get("clamped").and_then(JsonValue::as_u64), Some(0));
    });
    server.stop().unwrap();
}

/// At the parent commit the first line below overflows the reader
/// thread's stack and aborts the process — this test binary with it.
#[test]
fn deeply_nested_lines_are_refused_not_fatal() {
    let server = Server::start(config(None)).unwrap();
    let mut hostile = Raw::connect(&server);

    hostile.send("[".repeat(100_000).as_bytes());
    let why = hostile.refusal("parse");
    assert!(why.contains("nesting deeper than 64"), "{why}");
    hostile.send(format!("{{\"op\":\"ping\",\"x\":{}", "[".repeat(100_000)).as_bytes());
    let why = hostile.refusal("parse");
    assert!(why.contains("nesting deeper than 64"), "{why}");

    // The connection still answers, and another still ingests.
    hostile.send(b"{\"op\":\"ping\"}");
    assert!(hostile.line().unwrap().contains("\"op\":\"pong\""));
    let mut c = connect(&server);
    c.ingest(1, &ev(1, "C")).unwrap();
    let ack = c.sync().unwrap();
    assert_eq!(ack.get("consumed").and_then(JsonValue::as_u64), Some(1));
    server.stop().unwrap();
}

/// A peer that never sends a newline is cut off at `MAX_LINE_BYTES`: it
/// cannot make the server hold more than that. (That the reader's
/// buffer stops there is `server.rs`' own unit test.)
#[test]
fn an_endless_line_is_cut_off_at_the_cap() {
    let server = Server::start(config(None)).unwrap();

    // A line of exactly the cap is a line like any other.
    let mut c = Raw::connect(&server);
    let mut ping = b"{\"op\":\"ping\",\"pad\":\"".to_vec();
    ping.resize(MAX_LINE_BYTES - 2, b'x');
    ping.extend_from_slice(b"\"}");
    assert_eq!(ping.len(), MAX_LINE_BYTES);
    c.send(&ping);
    assert!(c.line().unwrap().contains("\"op\":\"pong\""));

    // 5 MiB and no newline. The server stops reading at the cap, so the
    // tail of this may find the connection already closed.
    let chunk = vec![b'x'; 64 << 10];
    for _ in 0..(5 << 20) / chunk.len() {
        if c.stream.write_all(&chunk).is_err() {
            break;
        }
    }
    let why = c.refusal("parse");
    assert_eq!(why, format!("request line exceeds {MAX_LINE_BYTES} bytes"));
    assert_eq!(c.line(), None, "the connection is closed");

    // Nobody else noticed.
    let mut other = connect(&server);
    assert_eq!(stat(&mut other, "consumed"), Some(0));
    other.ingest(1, &ev(1, "C")).unwrap();
    other.sync().unwrap();
    server.stop().unwrap();
}

#[test]
fn a_line_that_is_not_utf8_closes_that_connection_only() {
    let server = Server::start(config(None)).unwrap();
    let mut other = connect(&server);
    let mut c = Raw::connect(&server);
    c.send(b"{\"op\":\"ingest\",\"ts\":1,\"values\":[1,\"\xff\"]}");
    assert_eq!(c.line(), None);
    assert_eq!(stat(&mut other, "consumed"), Some(0));
    other.ping().unwrap();
    server.stop().unwrap();
}

/// JSON leaves spelling to the writer; the server must not care. One
/// stream sent canonically, the way Python's `json.dumps` writes it
/// (a space after every `,` and `:`, here with `events` before `op`),
/// and with every string — keys too — `\u`-escaped.
#[test]
fn one_stream_spelled_three_ways_matches_identically() {
    /// `"text"` with every character as `\uXXXX`.
    fn escaped(text: &str) -> String {
        let units: String = text.encode_utf16().map(|u| format!("\\u{u:04x}")).collect();
        format!("\"{units}\"")
    }
    let stream = [
        (1, 1, "C"),
        (2, 2, "D"),
        (3, 3, "C"),
        (4, 4, "é"),
        (5, 5, "D"),
        (100, 6, "X"),
    ];
    let rows = |event: &dyn Fn(i64, i64, &str) -> String, comma: &str| {
        let rows: Vec<String> = stream
            .iter()
            .map(|(ts, id, l)| event(*ts, *id, l))
            .collect();
        rows.join(comma)
    };
    let canonical = format!(
        "{{\"op\":\"batch\",\"events\":[{}]}}",
        rows(&|ts, id, l| format!("[{ts},[{id},\"{l}\"]]"), ",")
    );
    let dumps = format!(
        "{{\"events\": [{}], \"op\": \"batch\"}}",
        rows(&|ts, id, l| format!("[{ts}, [{id}, \"{l}\"]]"), ", ")
    );
    let all_escaped = format!(
        "{{{}:{},{}:[{}]}}",
        escaped("op"),
        escaped("batch"),
        escaped("events"),
        rows(&|ts, id, l| format!("[{ts},[{id},{}]]", escaped(l)), ",")
    );

    let mut outcomes = Vec::new();
    for line in [&canonical, &dumps, &all_escaped] {
        let server = Server::start(config(None)).unwrap();
        let mut c = connect(&server);
        c.subscribe("cd", CD, 0).unwrap();
        c.send_line(line).unwrap();
        let ack = c.sync().unwrap();
        let consumed = ack.get("consumed").and_then(JsonValue::as_u64);
        let matches: Vec<String> = c.pending_matches.iter().map(|m| m.to_string()).collect();
        outcomes.push((consumed, matches));
        server.stop().unwrap();
    }
    assert_eq!(outcomes[0].0, Some(stream.len() as u64));
    assert_eq!(outcomes[0].1.len(), 2, "{:?}", outcomes[0].1);
    assert_eq!(outcomes[1], outcomes[0], "json.dumps spelling");
    assert_eq!(outcomes[2], outcomes[0], "\\u spelling");
}

#[test]
fn a_bad_event_is_refused_alone_and_a_bad_line_whole() {
    let server = Server::start(config(None)).unwrap();
    let mut c = Raw::connect(&server);

    // Second event: wrong arity. Fourth: wrong type.
    c.send(
        br#"{"op":"batch","events":[[1,[1,"A"]],[2,[2]],[3,[3,"C"]],[4,["4","D"]],[5,[5,"E"]]]}"#,
    );
    assert_eq!(
        c.refusal("ingest"),
        "expected 2 value(s) for the schema, got 1"
    );
    assert_eq!(c.refusal("ingest"), "attribute `ID` expects INT");
    // The sync ack is the next line: two refusals exactly, three
    // events in, and the connection open.
    assert_eq!(c.consumed(), 3);

    // Two good events, then a syntax error: none of it counts.
    c.send(br#"{"op":"batch","events":[[6,[6,"F"]],[7,[7,"G"]],[8,[8,"H"]}"#);
    let why = c.refusal("parse");
    assert!(why.starts_with("expected `,` or `]`"), "{why}");
    assert_eq!(c.consumed(), 3);
    server.stop().unwrap();
}

/// `JsonValue::Float` used to print `1e20` as a 21-digit integer, which
/// the server's own parser refuses — the whole frame with it.
#[test]
fn large_floats_survive_the_client_rendering() {
    let schema = Schema::builder()
        .attr("ID", AttrType::Int)
        .attr("X", AttrType::Float)
        .build()
        .unwrap();
    let server = Server::start(ServerConfig::new(schema)).unwrap();
    let mut c = connect(&server);
    let frame: Vec<_> = [1e15, 1e20, 2f64.powi(64), f64::MAX, -0.0, 5e-324]
        .iter()
        .enumerate()
        .map(|(i, x)| (i as i64, vec![JsonValue::Int(1), JsonValue::Float(*x)]))
        .collect();
    c.batch(&frame).unwrap();
    // `sync` fails on an error line, were there one.
    let ack = c.sync().unwrap();
    assert_eq!(
        ack.get("consumed").and_then(JsonValue::as_u64),
        Some(frame.len() as u64)
    );
    server.stop().unwrap();
}
