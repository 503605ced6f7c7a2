//! `ses-cli serve` and `ses-cli client` — the network front-end over
//! `ses-server` (see `docs/server.md` for the wire protocol).

use std::io::Write;
use std::path::PathBuf;

use ses_metrics::JsonValue;
use ses_server::{Client, OverflowPolicy, Server, ServerConfig};

use crate::args::Args;
use crate::commands::{io_err, load_store, parse_schema_spec, parse_tick};

/// `ses-cli serve`: start a match server and run until SIGINT/SIGTERM
/// or a client's `shutdown` verb.
pub(crate) fn cmd_serve(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let schema = match (args.get("schema"), args.get("data")) {
        (Some(spec), _) => parse_schema_spec(spec)?,
        (None, Some(path)) => load_store(path)?.relation().schema().clone(),
        (None, None) => {
            return Err(
                "serve: give --schema \"NAME:TYPE,...\" or --data to derive the schema".into(),
            )
        }
    };
    let mut config = ServerConfig::new(schema).from_env();
    config.tick = parse_tick(args)?;
    if let Some(addr) = args.get("listen") {
        config.addr = addr.to_string();
    }
    config.queue_capacity = args.get_parsed("queue", config.queue_capacity)?;
    config.outbound_capacity = args.get_parsed("outbound", config.outbound_capacity)?;
    if let Some(p) = args.get("policy") {
        config.policy = OverflowPolicy::parse(p)?;
    }
    config.checkpoint = args.get("checkpoint").map(PathBuf::from);
    config.event_log = args.get("event-log").map(PathBuf::from);
    config.checkpoint_every = args.get_parsed("checkpoint-every", config.checkpoint_every)?;
    config.keep = args.get_parsed("keep", config.keep)?;

    ses_server::signal::install();
    let mut server = Server::start(config)?;
    writeln!(out, "recovery: {}", server.recovery).map_err(io_err)?;
    // The address line is the startup handshake scripts wait for; flush
    // it before blocking in join(). Print the address the listener
    // actually bound, not the configured string.
    writeln!(out, "listening on {}", server.local_addr()).map_err(io_err)?;
    out.flush().map_err(io_err)?;
    server.join()?;
    writeln!(out, "server stopped").map_err(io_err)?;
    Ok(())
}

/// `ses-cli client`: one-shot protocol actions against a running server.
pub(crate) fn cmd_client(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let addr = args.require("connect")?;
    let action = args
        .positional
        .first()
        .map(String::as_str)
        .ok_or("client: give an action: ping | stats | sync | shutdown | ingest | subscribe")?;
    let mut client = Client::connect(addr)?;
    match action {
        "ping" => {
            let reply = client.ping()?;
            writeln!(out, "{}", JsonValue::Object(reply)).map_err(io_err)
        }
        "stats" => {
            let reply = client.stats()?;
            let stats = reply
                .get("stats")
                .cloned()
                .unwrap_or(JsonValue::Object(reply));
            writeln!(out, "{stats}").map_err(io_err)
        }
        "sync" => {
            let reply = client.sync()?;
            writeln!(out, "{}", JsonValue::Object(reply)).map_err(io_err)
        }
        "shutdown" => {
            let reply = client.shutdown()?;
            writeln!(out, "{}", JsonValue::Object(reply)).map_err(io_err)
        }
        "ingest" => {
            let store = load_store(args.require("data")?)?;
            let mut batch: Vec<(i64, Vec<JsonValue>)> = Vec::with_capacity(512);
            let mut sent = 0usize;
            for (_, e) in store.relation().iter() {
                batch.push((
                    e.ts().ticks(),
                    e.values()
                        .iter()
                        .map(ses_server::protocol::value_json)
                        .collect(),
                ));
                if batch.len() == 512 {
                    client.batch(&batch)?;
                    sent += batch.len();
                    batch.clear();
                }
            }
            if !batch.is_empty() {
                sent += batch.len();
                client.batch(&batch)?;
            }
            let ack = client.sync()?;
            writeln!(
                out,
                "sent {sent} event(s); accepted {} shed {} durable {} consumed {}",
                ack.get("accepted").and_then(JsonValue::as_u64).unwrap_or(0),
                ack.get("shed").and_then(JsonValue::as_u64).unwrap_or(0),
                ack.get("durable").and_then(JsonValue::as_u64).unwrap_or(0),
                ack.get("consumed").and_then(JsonValue::as_u64).unwrap_or(0),
            )
            .map_err(io_err)
        }
        "subscribe" => {
            let name = args.require("name")?;
            let query = args.get("query").unwrap_or("").to_string();
            let cursor: u64 = args.get_parsed("cursor", 0u64)?;
            let count: u64 = args.get_parsed("count", u64::MAX)?;
            let ack = client.subscribe(name, &query, cursor)?;
            writeln!(
                out,
                "subscribed `{name}` at seq {} ({} resend)",
                ack.get("seq").and_then(JsonValue::as_u64).unwrap_or(0),
                ack.get("resend").and_then(JsonValue::as_u64).unwrap_or(0),
            )
            .map_err(io_err)?;
            out.flush().map_err(io_err)?;
            let mut seen = 0u64;
            while seen < count {
                let Some(m) = client.next_match()? else {
                    break;
                };
                writeln!(
                    out,
                    "{} #{}: {}",
                    m.get("sub").and_then(JsonValue::as_str).unwrap_or("?"),
                    m.get("seq").and_then(JsonValue::as_u64).unwrap_or(0),
                    m.get("match").and_then(JsonValue::as_str).unwrap_or(""),
                )
                .map_err(io_err)?;
                out.flush().map_err(io_err)?;
                seen += 1;
            }
            Ok(())
        }
        other => Err(format!(
            "client: unknown action `{other}` (ping | stats | sync | shutdown | ingest | subscribe)"
        )),
    }
}
