//! In-process server integration tests: protocol round-trips, match
//! delivery, backpressure accounting, durable resume, graceful stop.
//!
//! Each test binds `127.0.0.1:0` and talks to the server over real TCP
//! through [`ses_server::Client`]; the crash/SIGKILL matrix lives in the
//! workspace-level `tests/server_crash_reconnect.rs` (it needs separate
//! processes).

use std::path::PathBuf;
use std::time::Duration;

use ses_event::{AttrType, Schema};
use ses_metrics::JsonValue;
use ses_query::TickUnit;
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
