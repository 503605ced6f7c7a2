//! The server's wire protocol: line-delimited JSON over TCP.
//!
//! Every message — in either direction — is one JSON object on one
//! line. Client requests carry an `"op"`; server replies echo it with
//! `"ok": true|false`, and asynchronous match deliveries use
//! `"op": "match"`. The full verb reference lives in `docs/server.md`.
//!
//! ```text
//! → {"op":"ingest","ts":42,"values":[7,"C"]}
//! → {"op":"sync"}
//! ← {"ok":true,"op":"sync","accepted":1,"shed":0,"durable":1}
//! → {"op":"subscribe","name":"q1","query":"PATTERN …","cursor":0}
//! ← {"ok":true,"op":"subscribe","sub":"q1","id":0,"resend":0}
//! ← {"op":"match","sub":"q1","seq":1,"match":"{a: 0@42, …}"}
//! ```
//!
//! There is one JSON lexer here (`Parser`: one string lexer, one
//! number lexer, one walk over `[…]` and `{…}`) and three consumers of
//! it, so what is and is not a request line is decided in one place:
//!
//! * **Event lines** (`ingest`, `batch`) — [`decode`] walks the line
//!   once and types each value against the schema as it is lexed,
//!   straight into the rows the router takes. No [`JsonValue`] exists on
//!   this path: per event it allocates the row and one `Arc<str>` per
//!   string.
//! * **Control lines and replies** — [`parse_json`] builds the same
//!   [`JsonValue`] tree the rendering side uses (`ses-metrics`), so there
//!   is exactly one JSON dialect in the workspace and zero third-party
//!   dependencies; [`parse_request`] reads a [`Request`] off it.
//! * **Values nobody asked for** are skipped without being built.
//!
//! [`parse_request`]'s `ingest` / `batch` arms and [`event_values`] are
//! not on the server's path: they are the reference [`decode`] is
//! property-tested against (`tests/wire_fuzz.rs`: same lines accepted,
//! same rows, same refusals in the same words), and what the benchmark's
//! offline stage replay times.
//!
//! Two limits bound what one line can cost, both constants:
//! [`MAX_LINE_BYTES`] and [`MAX_DEPTH`].

use std::borrow::Cow;

use ses_event::{AttrDef, AttrType, Schema, Timestamp, Value};
use ses_metrics::{JsonObject, JsonValue};

/// Longest request line the server reads, newline excluded. A peer that
/// sends more without a newline gets one `parse` error and is
/// disconnected: there is no place inside an unterminated line to pick
/// the stream up again. (`ses-cli client ingest` sends 512-event frames
/// of tens of KB.)
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Deepest nesting of arrays and objects a line may hold; the deepest
/// legal request, a `batch`, has 4. The tree builder and the skipper
/// recurse once per level, so this is also what bounds their stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / progress probe.
    Ping,
    /// One event: timestamp ticks plus one value per schema attribute.
    Ingest {
        /// Event timestamp in ticks.
        ts: i64,
        /// Attribute values in schema order.
        values: Vec<JsonValue>,
    },
    /// Many events in one line (amortizes parsing on the hot path).
    Batch {
        /// `(ts, values)` pairs in stream order.
        events: Vec<(i64, Vec<JsonValue>)>,
    },
    /// Barrier: ack once everything this connection ingested before the
    /// sync has been consumed, reporting durable/shed counts.
    Sync,
    /// Register (or re-attach to) a standing pattern subscription.
    Subscribe {
        /// Subscription name — the durable identity across reconnects.
        name: String,
        /// Query text in the `ses-query` language.
        query: String,
        /// Match lines already processed by this client; the server
        /// resends everything after this cursor.
        cursor: u64,
    },
    /// Server-wide statistics (queues, patterns, durability).
    Stats,
    /// Graceful shutdown: drain, sync, final checkpoint, exit.
    Shutdown,
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_json(line)?;
    let o = v.as_object().ok_or("request must be a JSON object")?;
    let op = o
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or("request must have a string `op`")?;
    match op {
        "ping" => Ok(Request::Ping),
        "sync" => Ok(Request::Sync),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "ingest" => {
            let ts = o
                .get("ts")
                .and_then(JsonValue::as_i64)
                .ok_or("ingest: integer `ts` required")?;
            let values = o
                .get("values")
                .and_then(JsonValue::as_array)
                .ok_or("ingest: array `values` required")?;
            Ok(Request::Ingest {
                ts,
                values: values.to_vec(),
            })
        }
        "batch" => {
            let events = o
                .get("events")
                .and_then(JsonValue::as_array)
                .ok_or("batch: array `events` required")?;
            let mut out = Vec::with_capacity(events.len());
            for e in events {
                let pair = e.as_array().ok_or("batch: each event is [ts, [values…]]")?;
                if pair.len() != 2 {
                    return Err("batch: each event is [ts, [values…]]".into());
                }
                let ts = pair[0].as_i64().ok_or("batch: integer ts required")?;
                let values = pair[1]
                    .as_array()
                    .ok_or("batch: value array required")?
                    .to_vec();
                out.push((ts, values));
            }
            Ok(Request::Batch { events: out })
        }
        "subscribe" => {
            let name = o
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("subscribe: string `name` required")?;
            let query = o
                .get("query")
                .and_then(JsonValue::as_str)
                .ok_or("subscribe: string `query` required")?;
            let cursor = o.get("cursor").and_then(JsonValue::as_u64).unwrap_or(0);
            Ok(Request::Subscribe {
                name: name.to_string(),
                query: query.to_string(),
                cursor,
            })
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Converts a JSON value row into typed event values under `schema`.
pub fn event_values(schema: &Schema, raw: &[JsonValue]) -> Result<Vec<Value>, String> {
    let attrs = schema.attrs();
    if raw.len() != attrs.len() {
        return Err(wrong_arity(attrs.len(), raw.len()));
    }
    attrs
        .iter()
        .zip(raw)
        .map(|(a, v)| {
            let fail = || wrong_type(a);
            Ok(match a.ty {
                AttrType::Int => Value::Int(v.as_i64().ok_or_else(fail)?),
                AttrType::Float => Value::Float(v.as_f64().ok_or_else(fail)?),
                AttrType::Str => Value::from(v.as_str().ok_or_else(fail)?),
                AttrType::Bool => Value::Bool(v.as_bool().ok_or_else(fail)?),
            })
        })
        .collect()
}

fn wrong_arity(expected: usize, got: usize) -> String {
    format!("expected {expected} value(s) for the schema, got {got}")
}

fn wrong_type(a: &AttrDef) -> String {
    format!("attribute `{}` expects {}", a.name, a.ty)
}

/// One request line as the server acts on it.
#[derive(Debug, PartialEq)]
pub enum Decoded<R> {
    /// An `ingest` or `batch` line, typed under the schema.
    Events {
        /// The events that fit the schema, in line order.
        rows: Vec<R>,
        /// Why each of the others was refused ([`event_values`]' words),
        /// in line order. A refused event costs its neighbours nothing.
        refused: Vec<String>,
    },
    /// Any other verb.
    Control(Request),
}

/// Decodes one request line, typing the events of an `ingest` or `batch`
/// line against `schema` as they are lexed; `row` makes of each typed
/// event whatever the caller queues (it is also called for events of a
/// line that a later byte refuses, so it should only construct).
///
/// Accepts and refuses what [`parse_request`] followed by
/// [`event_values`] on every event does: any JSON spelling of the line
/// (whitespace, escapes, keys in any order, the last of a repeated key,
/// unknown keys), a syntax error or a malformed request refuses the
/// whole line, an event of the wrong arity or type is refused alone.
pub fn decode<R>(
    line: &str,
    schema: &Schema,
    mut row: impl FnMut(i64, Vec<Value>) -> R,
) -> Result<Decoded<R>, String> {
    let mut p = Parser::new(line);
    p.skip_ws();
    if p.peek() != Some(b'{') {
        p.skip()?;
        p.end()?;
        return Err("request must be a JSON object".into());
    }
    // Every key an event line can carry is typed where it stands,
    // whichever verb `op` turns out to name and wherever `op` stands: a
    // key's last value wins, and what the verb does not use is dropped.
    let mut op = None;
    let mut ts = None;
    let mut values = None;
    let mut events = None;
    p.object(|p, key| {
        match &*key {
            "op" => {
                op = match p.scalar_or_skip()? {
                    Some(Scalar::Str(s)) => Some(s),
                    _ => None,
                }
            }
            "ts" => ts = p.integer()?,
            "values" => values = p.values(schema)?,
            "events" => events = p.events(schema, &mut row)?,
            _ => p.skip()?,
        }
        Ok(())
    })?;
    p.end()?;
    match op.as_deref() {
        Some("ingest") => {
            let ts = ts.ok_or("ingest: integer `ts` required")?;
            let (rows, refused) = match values.ok_or("ingest: array `values` required")? {
                Ok(values) => (vec![row(ts, values)], Vec::new()),
                Err(e) => (Vec::new(), vec![e]),
            };
            Ok(Decoded::Events { rows, refused })
        }
        Some("batch") => {
            let Events {
                rows,
                refused,
                malformed,
            } = events.ok_or("batch: array `events` required")?;
            match malformed {
                Some(e) => Err(e.into()),
                None => Ok(Decoded::Events { rows, refused }),
            }
        }
        // Rare and tiny: control verbs are read off the tree, which also
        // words the refusal of a line without a usable `op`.
        _ => parse_request(line).map(Decoded::Control),
    }
}

/// A `batch` line's `events` array, typed.
struct Events<R> {
    rows: Vec<R>,
    refused: Vec<String>,
    /// [`parse_request`]'s refusal of the first element that is not
    /// `[ts, [values…]]`; it refuses the whole line.
    malformed: Option<&'static str>,
}

/// Consumer: typed rows. Each method reads the value at the cursor as
/// one part of an event line; where the value is not of that part's
/// shape it is skipped — checked, that is: a syntax error in it still
/// refuses the line — and the method says so with `None`.
impl Parser<'_> {
    /// An integer that fits `i64` (`ts`).
    fn integer(&mut self) -> Result<Option<i64>, String> {
        Ok(match self.scalar_or_skip()? {
            Some(Scalar::Num(n)) => n.as_i64(),
            _ => None,
        })
    }

    /// A value of type `ty`, by [`event_values`]' rule.
    fn typed(&mut self, ty: AttrType) -> Result<Option<Value>, String> {
        Ok(match (ty, self.scalar_or_skip()?) {
            (AttrType::Int, Some(Scalar::Num(n))) => n.as_i64().map(Value::Int),
            (AttrType::Float, Some(Scalar::Num(n))) => Some(Value::Float(n.as_f64())),
            (AttrType::Str, Some(Scalar::Str(s))) => Some(Value::from(&*s)),
            (AttrType::Bool, Some(Scalar::Bool(b))) => Some(Value::Bool(b)),
            _ => None,
        })
    }

    /// An array of one value per attribute of `schema`: the typed row,
    /// or [`event_values`]' refusal of it.
    fn values(&mut self, schema: &Schema) -> Result<Option<Result<Vec<Value>, String>>, String> {
        if self.peek() != Some(b'[') {
            self.skip()?;
            return Ok(None);
        }
        let attrs = schema.attrs();
        let mut row = Vec::with_capacity(attrs.len());
        let mut seen = 0;
        let mut mistyped = None;
        self.array(|p| {
            match attrs.get(seen) {
                Some(a) => match p.typed(a.ty)? {
                    Some(v) => row.push(v),
                    None => mistyped = mistyped.or(Some(a)),
                },
                None => p.skip()?,
            }
            seen += 1;
            Ok(())
        })?;
        Ok(Some(if seen != attrs.len() {
            Err(wrong_arity(attrs.len(), seen))
        } else if let Some(a) = mistyped {
            Err(wrong_type(a))
        } else {
            Ok(row)
        }))
    }

    /// An array of `[ts, [values…]]` events.
    fn events<R>(
        &mut self,
        schema: &Schema,
        row: &mut impl FnMut(i64, Vec<Value>) -> R,
    ) -> Result<Option<Events<R>>, String> {
        if self.peek() != Some(b'[') {
            self.skip()?;
            return Ok(None);
        }
        let mut events = Events {
            rows: Vec::new(),
            refused: Vec::new(),
            malformed: None,
        };
        self.array(|p| p.event(schema, row, &mut events))?;
        Ok(Some(events))
    }

    /// One `[ts, [values…]]` into `events`, or [`parse_request`]'s word
    /// on what else it is.
    fn event<R>(
        &mut self,
        schema: &Schema,
        row: &mut impl FnMut(i64, Vec<Value>) -> R,
        events: &mut Events<R>,
    ) -> Result<(), String> {
        const SHAPE: &str = "batch: each event is [ts, [values…]]";
        let mut len = 0;
        let mut ts = None;
        let mut values = None;
        if self.peek() == Some(b'[') {
            self.array(|p| {
                match len {
                    0 => ts = p.integer()?,
                    1 => values = p.values(schema)?,
                    _ => p.skip()?,
                }
                len += 1;
                Ok(())
            })?;
        } else {
            self.skip()?;
        }
        let malformed = match (ts, values) {
            _ if len != 2 => SHAPE,
            (None, _) => "batch: integer ts required",
            (_, None) => "batch: value array required",
            (Some(ts), Some(Ok(values))) => {
                events.rows.push(row(ts, values));
                return Ok(());
            }
            (Some(_), Some(Err(e))) => {
                events.refused.push(e);
                return Ok(());
            }
        };
        events.malformed.get_or_insert(malformed);
        Ok(())
    }
}

/// Renders typed event values back to the JSON the client would send —
/// the client helper uses this to encode CSV rows for ingestion.
pub fn value_json(v: &Value) -> JsonValue {
    match v {
        Value::Int(i) => JsonValue::Int(*i),
        Value::Float(x) => JsonValue::Float(*x),
        Value::Str(s) => JsonValue::Str(s.to_string()),
        Value::Bool(b) => JsonValue::Bool(*b),
    }
}

/// `{"ok":true,"op":…}` reply scaffold.
pub fn ok(op: &str) -> JsonObject {
    JsonObject::new().with("ok", true).with("op", op)
}

/// `{"ok":false,"op":…,"error":…}` reply.
pub fn error(op: &str, message: impl Into<String>) -> String {
    JsonObject::new()
        .with("ok", false)
        .with("op", op)
        .with("error", message.into())
        .to_string()
}

/// One asynchronous match delivery line.
pub fn match_line(sub: &str, seq: u64, rendered: &str) -> String {
    JsonObject::new()
        .with("op", "match")
        .with("sub", sub)
        .with("seq", seq)
        .with("match", rendered)
        .to_string()
}

/// Renders a timestamp as a JSON value (`null` when absent).
pub fn ts_json(ts: Option<Timestamp>) -> JsonValue {
    match ts {
        Some(t) => JsonValue::Int(t.ticks()),
        None => JsonValue::Null,
    }
}

// ---------------------------------------------------------------------
// JSON parsing
// ---------------------------------------------------------------------

/// Parses one JSON document (trailing whitespace allowed).
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let v = p.value()?;
    p.end()?;
    Ok(v)
}

/// A JSON number as lexed: an integer that fits `i64`, else one that
/// fits `u64`, else — or with a fraction or exponent — a float.
#[derive(Clone, Copy)]
enum Num {
    Int(i64),
    UInt(u64),
    Float(f64),
}

impl Num {
    /// [`JsonValue::as_i64`]'s rule.
    fn as_i64(self) -> Option<i64> {
        match self {
            Num::Int(i) => Some(i),
            Num::UInt(u) => i64::try_from(u).ok(),
            Num::Float(_) => None,
        }
    }

    /// [`JsonValue::as_f64`]'s rule.
    fn as_f64(self) -> f64 {
        match self {
            Num::Int(i) => i as f64,
            Num::UInt(u) => u as f64,
            Num::Float(x) => x,
        }
    }
}

/// A value that is neither an array nor an object.
enum Scalar<'a> {
    Null,
    Bool(bool),
    Num(Num),
    /// Borrowed from the line unless it held an escape.
    Str(Cow<'a, str>),
}

/// The lexer and the walk over arrays and objects; [`Parser::value`]
/// (tree), [`Parser::skip`] and [`decode`] (typed rows) consume it.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    /// Nothing but whitespace may follow the document.
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing characters at byte {}", self.pos));
        }
        Ok(())
    }

    /// Lexes the scalar at the cursor; `None`, cursor unmoved, where an
    /// array or an object opens instead.
    fn scalar(&mut self) -> Result<Option<Scalar<'a>>, String> {
        Ok(Some(match self.peek() {
            Some(b'{' | b'[') => return Ok(None),
            Some(b'"') => Scalar::Str(self.string()?),
            Some(b't') => self.literal("true", Scalar::Bool(true))?,
            Some(b'f') => self.literal("false", Scalar::Bool(false))?,
            Some(b'n') => self.literal("null", Scalar::Null)?,
            Some(c) if c == b'-' || c.is_ascii_digit() => Scalar::Num(self.number()?),
            Some(c) => return Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => return Err("unexpected end of input".into()),
        }))
    }

    fn literal(&mut self, word: &str, v: Scalar<'a>) -> Result<Scalar<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Walks the `[…]` at the cursor, calling `item` at each element; it
    /// must consume exactly that element.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            return self.close();
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => return self.close(),
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    /// Walks the `{…}` at the cursor, calling `member` with each key at
    /// that key's value; it must consume exactly that value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            return self.close();
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => return self.close(),
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn open(&mut self, bracket: u8) -> Result<(), String> {
        self.expect(bracket)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos - 1
            ));
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), String> {
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// Consumer: the [`JsonValue`] tree.
    fn value(&mut self) -> Result<JsonValue, String> {
        Ok(match self.scalar()? {
            Some(Scalar::Null) => JsonValue::Null,
            Some(Scalar::Bool(b)) => JsonValue::Bool(b),
            Some(Scalar::Num(Num::Int(i))) => JsonValue::Int(i),
            Some(Scalar::Num(Num::UInt(u))) => JsonValue::UInt(u),
            Some(Scalar::Num(Num::Float(x))) => JsonValue::Float(x),
            Some(Scalar::Str(s)) => JsonValue::Str(s.into_owned()),
            None if self.peek() == Some(b'[') => {
                let mut items = Vec::new();
                self.array(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                JsonValue::Array(items)
            }
            None => {
                let mut o = JsonObject::new();
                self.object(|p, key| {
                    let v = p.value()?;
                    o.set(key, v);
                    Ok(())
                })?;
                JsonValue::Object(o)
            }
        })
    }

    /// Consumer: nothing. Checks the value at the cursor as strictly as
    /// [`Parser::value`] does and builds none of it.
    fn skip(&mut self) -> Result<(), String> {
        match self.scalar()? {
            Some(_) => Ok(()),
            None if self.peek() == Some(b'[') => self.array(Self::skip),
            None => self.object(|p, _| p.skip()),
        }
    }

    /// The scalar at the cursor; `None` once the array or object there
    /// instead has been skipped.
    fn scalar_or_skip(&mut self) -> Result<Option<Scalar<'a>>, String> {
        let scalar = self.scalar()?;
        if scalar.is_none() {
            self.skip()?;
        }
        Ok(scalar)
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        // A string without escapes — nearly every one — is a slice of
        // the line. The line is a `&str` and `"` and `\` are ASCII, so
        // every cut below falls on a character boundary.
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    let s = &self.text[start..self.pos];
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => break,
                Some(_) => self.pos += 1,
            }
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs: only the BMP round-trips;
                            // the escaper never emits surrogates, so a
                            // lone one is simply replaced.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    let run = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Num, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        let invalid = || format!("invalid number `{text}`");
        if float {
            text.parse().map(Num::Float).map_err(|_| invalid())
        } else if let Ok(i) = text.parse() {
            Ok(Num::Int(i))
        } else {
            text.parse().map(Num::UInt).map_err(|_| invalid())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_rendering() {
        let cases = [
            r#"{"op":"ping"}"#,
            r#"{"ok":true,"op":"sync","accepted":3,"shed":0,"durable":3}"#,
            r#"{"a":[1,-2,3.5,"x",null,false],"b":{"c":"d\ne"}}"#,
            r#"[]"#,
            r#"{}"#,
        ];
        for c in cases {
            let v = parse_json(c).unwrap();
            assert_eq!(v.to_string(), c, "round trip of {c}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "1 2", "\"unterminated"] {
            assert!(parse_json(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn requests_parse() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#"{"op":"ingest","ts":5,"values":[1,"C"]}"#).unwrap(),
            Request::Ingest {
                ts: 5,
                values: vec![JsonValue::Int(1), JsonValue::Str("C".into())],
            }
        );
        let batch = parse_request(r#"{"op":"batch","events":[[1,[1,"A"]],[2,[2,"B"]]]}"#).unwrap();
        match batch {
            Request::Batch { events } => assert_eq!(events.len(), 2),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"op":"subscribe","name":"q","query":"PATTERN a","cursor":7}"#)
                .unwrap(),
            Request::Subscribe {
                name: "q".into(),
                query: "PATTERN a".into(),
                cursor: 7,
            }
        );
        assert!(parse_request(r#"{"op":"warp"}"#).is_err());
        assert!(parse_request(r#"{"op":"ingest","ts":"x","values":[]}"#).is_err());
    }

    #[test]
    fn values_convert_under_schema() {
        use ses_event::Schema;
        let schema = Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .build()
            .unwrap();
        let vals = event_values(&schema, &[JsonValue::Int(7), JsonValue::Str("C".into())]).unwrap();
        assert_eq!(vals, vec![Value::Int(7), Value::from("C")]);
        assert!(
            event_values(&schema, &[JsonValue::Int(7)]).is_err(),
            "arity"
        );
        assert!(
            event_values(
                &schema,
                &[JsonValue::Str("x".into()), JsonValue::Str("C".into())]
            )
            .is_err(),
            "type"
        );
    }

    #[test]
    fn floats_round_trip_through_the_renderer() {
        for x in [1e15, 1e20, 2f64.powi(64), f64::MAX, 5e-324, -0.0, 0.1, 2.0] {
            let text = JsonValue::Float(x).to_string();
            match parse_json(&text) {
                Ok(JsonValue::Float(y)) => assert_eq!(y.to_bits(), x.to_bits(), "{text}"),
                other => panic!("{text} read back as {other:?}"),
            }
        }
    }

    #[test]
    fn nesting_is_capped_for_every_consumer() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        for hostile in [
            nested(MAX_DEPTH + 1),
            "[".repeat(100_000),
            "{\"a\":".repeat(100_000),
            format!("{{\"op\":\"ping\",\"x\":{}", "[".repeat(100_000)),
            format!("{{\"op\":\"batch\",\"events\":{}", "[".repeat(100_000)),
        ] {
            let tree = parse_json(&hostile).unwrap_err();
            assert!(tree.contains("nesting deeper than 64"), "{tree}");
            let direct = decode(&hostile, &schema(), |ts, values| (ts, values)).unwrap_err();
            assert_eq!(direct, tree);
        }
        // The top-level object counts: one level less fits inside it.
        let ping = |depth: usize| format!("{{\"op\":\"ping\",\"x\":{}}}", nested(depth));
        let direct = |line: &str| decode(line, &schema(), |ts, values| (ts, values));
        assert_eq!(
            direct(&ping(MAX_DEPTH - 1)),
            Ok(Decoded::Control(Request::Ping))
        );
        assert!(direct(&ping(MAX_DEPTH)).is_err());
    }

    fn schema() -> Schema {
        Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .build()
            .unwrap()
    }

    fn events(line: &str) -> (Vec<(i64, Vec<Value>)>, Vec<String>) {
        match decode(line, &schema(), |ts, values| (ts, values)) {
            Ok(Decoded::Events { rows, refused }) => (rows, refused),
            other => panic!("{line}: {other:?}"),
        }
    }

    #[test]
    fn event_lines_decode_in_any_spelling() {
        let want = (
            vec![
                (1, vec![Value::Int(7), Value::from("C")]),
                (2, vec![Value::Int(-8), Value::from("é\n")]),
            ],
            Vec::new(),
        );
        for line in [
            r#"{"op":"batch","events":[[1,[7,"C"]],[2,[-8,"é\n"]]]}"#,
            // Python's json.dumps, `events` before `op`.
            r#"{"events": [[1, [7, "C"]], [2, [-8, "\u00e9\n"]]], "op": "batch"}"#,
            // The last of a repeated key counts; unknown keys do not.
            r#"{"op":"ping","events":[],"x":{"y":[1,2]},"events":[[1,[7,"\u0043"]],[2,[-8,"é\n"]]],"op":"batch"}"#,
            " {\t\"op\" : \"batch\" , \"events\" : [ [ 1 , [ 7 , \"C\" ] ] , [ 2 , [ -8 , \"é\\n\" ] ] ] } ",
        ] {
            assert_eq!(events(line), want, "{line}");
        }
        assert_eq!(
            events(r#"{"values":[7,"C"],"ts":1,"op":"ingest"}"#),
            (want.0[..1].to_vec(), Vec::new())
        );
    }

    #[test]
    fn a_bad_event_is_refused_alone_and_a_bad_line_whole() {
        let (rows, refused) = events(
            r#"{"op":"batch","events":[[1,[1,"A"]],[2,[2]],[3,[3,"C"]],[4,["4","D"]],[5,[5,"E"]]]}"#,
        );
        assert_eq!(
            rows.iter().map(|(ts, _)| *ts).collect::<Vec<_>>(),
            [1, 3, 5]
        );
        assert_eq!(
            refused,
            [
                "expected 2 value(s) for the schema, got 1",
                "attribute `ID` expects INT"
            ]
        );
        for (line, why) in [
            // Syntax, after two good events.
            (
                r#"{"op":"batch","events":[[1,[1,"A"]],[2,[2,"B"]],[3,[3,"C"]}"#,
                "expected `,` or `]` at byte 58",
            ),
            (
                r#"{"op":"batch","events":[[1,[1,"A"]],7]}"#,
                "batch: each event is [ts, [values…]]",
            ),
            (
                r#"{"op":"batch","events":[[1.5,[1,"A"]]]}"#,
                "batch: integer ts required",
            ),
            (
                r#"{"op":"ingest","ts":18446744073709551615,"values":[1,"A"]}"#,
                "ingest: integer `ts` required",
            ),
            (r#"{"op":"batch"}"#, "batch: array `events` required"),
            (r#"{"events":[]}"#, "request must have a string `op`"),
            (r#"[]"#, "request must be a JSON object"),
        ] {
            let refusal = decode(line, &schema(), |ts, values| (ts, values)).unwrap_err();
            assert_eq!(refusal, why, "{line}");
            assert_eq!(parse_request(line).unwrap_err(), why, "{line}");
        }
    }

    #[test]
    fn control_lines_decode_to_their_request() {
        for line in [
            r#"{"op":"ping"}"#,
            r#"{"op":"subscribe","name":"q","query":"PATTERN a","cursor":7}"#,
            r#"{"events":[[1,[1,"A"]]],"op":"stats"}"#,
        ] {
            assert_eq!(
                decode(line, &schema(), |ts, values| (ts, values)),
                parse_request(line).map(Decoded::Control),
                "{line}"
            );
        }
    }

    #[test]
    fn reply_builders_render() {
        assert_eq!(ok("ping").to_string(), r#"{"ok":true,"op":"ping"}"#);
        assert_eq!(
            error("subscribe", "duplicate"),
            r#"{"ok":false,"op":"subscribe","error":"duplicate"}"#
        );
        assert_eq!(
            match_line("q1", 3, "{a: 0@1}"),
            r#"{"op":"match","sub":"q1","seq":3,"match":"{a: 0@1}"}"#
        );
    }
}
