//! The benchmark's own side of the `ses-server` wire protocol: `batch`
//! frames rendered once into one buffer, and line-oriented TCP
//! connections whose every read has a deadline.
//!
//! `ses_server::Client` is deliberately not used: its encoder builds a
//! `JsonValue` tree and a `format!` per value, and on a machine where
//! generator and server share cores that cost would be booked to the
//! server.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ses_event::{Event, Value};
use ses_metrics::escape_json;

/// Events per `batch` frame.
pub const FRAME_EVENTS: usize = 256;

/// A read that produced nothing for this long is counted as failed.
pub const READ_DEADLINE: Duration = Duration::from_secs(10);

/// An event stream as newline-terminated `batch` request lines in one
/// contiguous buffer.
pub struct Frames {
    bytes: Vec<u8>,
    /// End offset of each frame in `bytes`.
    ends: Vec<usize>,
    events: usize,
}

impl Frames {
    /// Renders `events` as `{"op":"batch","events":[[ts,[v,…]],…]}` lines
    /// of [`FRAME_EVENTS`] events (the last may be shorter).
    pub fn render(events: &[Event]) -> Frames {
        let mut bytes = Vec::with_capacity(events.len() * 24);
        let mut ends = Vec::with_capacity(events.len() / FRAME_EVENTS + 1);
        for chunk in events.chunks(FRAME_EVENTS) {
            bytes.extend_from_slice(b"{\"op\":\"batch\",\"events\":[");
            for (i, e) in chunk.iter().enumerate() {
                if i > 0 {
                    bytes.push(b',');
                }
                write!(bytes, "[{},[", e.ts().ticks()).expect("Vec<u8> write");
                for (j, v) in e.values().iter().enumerate() {
                    if j > 0 {
                        bytes.push(b',');
                    }
                    match v {
                        Value::Int(x) => write!(bytes, "{x}").expect("Vec<u8> write"),
                        // `{:?}` keeps a decimal point or exponent, so the
                        // value parses back as the same float.
                        Value::Float(x) => write!(bytes, "{x:?}").expect("Vec<u8> write"),
                        Value::Bool(x) => write!(bytes, "{x}").expect("Vec<u8> write"),
                        Value::Str(s) => {
                            write!(bytes, "\"{}\"", escape_json(s)).expect("Vec<u8> write")
                        }
                    }
                }
                bytes.extend_from_slice(b"]]");
            }
            bytes.extend_from_slice(b"]}\n");
            ends.push(bytes.len());
        }
        Frames {
            bytes,
            ends,
            events: events.len(),
        }
    }

    /// Frame `i` including its newline.
    pub fn frame(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// Frames `lo..hi` as one contiguous byte run.
    pub fn run(&self, lo: usize, hi: usize) -> &[u8] {
        let start = if lo == 0 { 0 } else { self.ends[lo - 1] };
        &self.bytes[start..self.ends[hi - 1]]
    }

    /// Events carried by frame `i`.
    pub fn events_in(&self, i: usize) -> usize {
        FRAME_EVENTS.min(self.events - i * FRAME_EVENTS)
    }
}

/// What a deadline-bounded read produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Incoming<'a> {
    /// One complete, non-empty line without its newline.
    Line(&'a str),
    /// The peer closed the connection.
    Closed,
    /// Nothing complete arrived in time; a partial line is kept for the
    /// next call.
    TimedOut,
}

/// One protocol connection: `TCP_NODELAY`, blocking writes, reads that
/// give up after a deadline.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    /// `line` holds a line already handed out, to be cleared first.
    consumed: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, READ_DEADLINE)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(READ_DEADLINE))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer,
            reader: BufReader::new(stream),
            line: String::new(),
            consumed: false,
        })
    }

    /// A second handle for writing while another thread reads.
    pub fn writer(&self) -> Result<TcpStream, String> {
        self.writer.try_clone().map_err(|e| e.to_string())
    }

    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))
    }

    /// Waits at most `deadline` for the next non-empty line.
    pub fn next_line(&mut self, deadline: Duration) -> Result<Incoming<'_>, String> {
        let give_up = Instant::now() + deadline;
        loop {
            if self.consumed {
                self.line.clear();
                self.consumed = false;
            }
            let left = give_up.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(Incoming::TimedOut);
            }
            self.reader
                .get_ref()
                .set_read_timeout(Some(left))
                .map_err(|e| e.to_string())?;
            match self.reader.read_line(&mut self.line) {
                Ok(0) => return Ok(Incoming::Closed),
                Ok(_) if self.line.ends_with('\n') => {
                    self.consumed = true;
                    if !self.line.trim().is_empty() {
                        return Ok(Incoming::Line(self.line.trim()));
                    }
                }
                // End of stream in the middle of a line: the next read
                // reports the close.
                Ok(_) => {}
                // A timed-out read leaves what it got in `line`; the next
                // read appends the rest.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// Sends one request line and returns the next line received, which
    /// must arrive within [`READ_DEADLINE`].
    pub fn request(&mut self, request: &str) -> Result<String, String> {
        self.send(request.as_bytes())?;
        match self.next_line(READ_DEADLINE)? {
            Incoming::Line(line) => Ok(line.to_string()),
            Incoming::Closed => Err(format!("connection closed before the reply to {request:?}")),
            Incoming::TimedOut => Err(format!("no reply to {request:?} within {READ_DEADLINE:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use ses_server::protocol::{event_values, parse_request, Request};

    /// Frames must carry exactly the generated events: parse them the
    /// way the server's reader thread does and compare.
    #[test]
    fn frames_round_trip_through_the_server_parser() {
        let input = inputs::bank_stream(7, 1000);
        let events = &input.events[..1000];
        let frames = Frames::render(events);
        assert_eq!(frames.events_in(0), 256);
        assert_eq!(frames.events_in(3), 1000 - 3 * 256);
        assert_eq!(
            frames.run(0, 4).len(),
            (0..4).map(|i| frames.frame(i).len()).sum::<usize>()
        );

        let mut back = Vec::new();
        for i in 0..4 {
            let line = std::str::from_utf8(frames.frame(i)).unwrap();
            assert!(line.ends_with('\n') && !line.trim_end().contains('\n'));
            let Request::Batch { events } = parse_request(line.trim()).unwrap() else {
                panic!("frame {i} is not a batch request");
            };
            assert_eq!(events.len(), frames.events_in(i));
            for (ts, raw) in events {
                back.push(Event::new(
                    ses_event::Timestamp::new(ts),
                    event_values(&input.schema, &raw).unwrap(),
                ));
            }
        }
        assert_eq!(back, events);
    }

    #[test]
    fn every_value_type_survives_rendering() {
        let schema = ses_event::Schema::builder()
            .attr("I", ses_event::AttrType::Int)
            .attr("F", ses_event::AttrType::Float)
            .attr("S", ses_event::AttrType::Str)
            .attr("B", ses_event::AttrType::Bool)
            .build()
            .unwrap();
        let event = Event::new(
            ses_event::Timestamp::new(-3),
            vec![
                Value::Int(i64::MIN),
                Value::Float(2.0),
                Value::from("quote \" slash \\ tab \t é"),
                Value::Bool(true),
            ],
        );
        let frames = Frames::render(std::slice::from_ref(&event));
        let line = std::str::from_utf8(frames.frame(0)).unwrap();
        let Request::Batch { events } = parse_request(line.trim()).unwrap() else {
            panic!("not a batch request");
        };
        let (ts, raw) = &events[0];
        let back = Event::new(
            ses_event::Timestamp::new(*ts),
            event_values(&schema, raw).unwrap(),
        );
        assert_eq!(back, event);
    }
}
