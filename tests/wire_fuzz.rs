//! The wire decoder against its reference, and against hostile input.
//!
//! `ses-server` types an event line in one pass (`protocol::decode`).
//! What it must accept, refuse, and say is defined by the path it
//! replaced, which stays in the crate as the reference: build the
//! `JsonValue` tree (`parse_request`), then convert every event
//! (`event_values`). Three properties:
//!
//! 1. **Agreement** — over generated `ingest` / `batch` / control lines
//!    in every spelling JSON allows, and over the same lines damaged,
//!    `decode` and the reference return the same thing: the same refusal
//!    of the whole line in the same words, or the same typed rows (variant
//!    and bits, not `Value`'s numeric equality), the same rows refused
//!    with the same words, the same control request.
//! 2. **Never panics, never overflows** — arbitrary bytes, token soup,
//!    and the shapes built to hurt a recursive parser.
//! 3. **Round trip** — what `Client::batch` renders of arbitrary typed
//!    rows decodes to those rows.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;

use proptest::prelude::*;

use ses_event::{AttrType, Schema, Value};
use ses_metrics::JsonValue;
use ses_server::protocol::{
    decode, event_values, parse_json, parse_request, value_json, Decoded, Request,
};
use ses_server::Client;

type Row = (i64, Vec<Value>);

/// What the server did with a line before `decode` existed.
fn reference(line: &str, schema: &Schema) -> Result<Decoded<Row>, String> {
    let events = match parse_request(line)? {
        Request::Ingest { ts, values } => vec![(ts, values)],
        Request::Batch { events } => events,
        control => return Ok(Decoded::Control(control)),
    };
    let mut rows = Vec::new();
    let mut refused = Vec::new();
    for (ts, raw) in events {
        match event_values(schema, &raw) {
            Ok(values) => rows.push((ts, values)),
            Err(e) => refused.push(e),
        }
    }
    Ok(Decoded::Events { rows, refused })
}

/// `Value`'s own equality is numeric (`Int(3) == Float(3.0)`,
/// `0.0 == -0.0`); the wire owes the variant and the bits.
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        _ => false,
    }
}

fn identical_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ta, va), (tb, vb))| {
            ta == tb && va.len() == vb.len() && va.iter().zip(vb).all(|(x, y)| identical(x, y))
        })
}

/// `decode` and the reference on one line; the reference's answer.
fn agree(line: &str, schema: &Schema) -> Result<Result<Decoded<Row>, String>, TestCaseError> {
    let got = decode(line, schema, |ts, values| (ts, values));
    let want = reference(line, schema);
    prop_assert_eq!(&got, &want, "line: {:?}", line);
    if let (Ok(Decoded::Events { rows: got, .. }), Ok(Decoded::Events { rows: want, .. })) =
        (&got, &want)
    {
        prop_assert!(identical_rows(got, want), "line: {:?}", line);
    }
    Ok(want)
}

// ---------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------

/// Every case is grown from one drawn seed by plain functions over the
/// harness's own generator: the structure below (a line, spelled some
/// way, damaged some way) is awkward to state as composed strategies.
struct Rng(TestRng);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(TestRng::from_seed(seed))
    }

    fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn below(&mut self, n: usize) -> usize {
        self.0.below(n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// JSON as the generator sees it: numbers and literals are text, so
/// that `-0`, `1e3`, 2⁶⁴ and `tru` are its to spell.
#[derive(Debug, Clone)]
enum J {
    Raw(String),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

fn raw(text: &str) -> J {
    J::Raw(text.to_string())
}

/// The numbers the protocol has an opinion about, then any.
const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "7",
    "-7",
    "007",
    "1.0",
    "-0.0",
    "1e3",
    "1E+3",
    "2.5e-3",
    "0.1",
    "5e-324",
    "1e400",
    "1e-400",
    "1000000000000000.0",
    "1e20",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "18446744073709551615",
    "1.",
    "-.5",
];

/// Digits no integer type holds, and other syntax errors.
const NOT_NUMBERS: &[&str] = &[
    "18446744073709551616",
    "-9223372036854775809",
    "1e",
    "-",
    ".5",
];

fn number(rng: &mut Rng) -> J {
    match rng.below(40) {
        0 => raw(rng.pick(NOT_NUMBERS)),
        1..=24 => raw(rng.pick(NUMBERS)),
        _ => integer(rng),
    }
}

/// Mostly a number an `Int` attribute or a `ts` takes.
fn integer(rng: &mut Rng) -> J {
    const EDGES: &[&str] = &[
        "0",
        "-0",
        "007",
        "9223372036854775807",
        "-9223372036854775808",
    ];
    match rng.below(12) {
        0 => number(rng),
        1 | 2 => raw(rng.pick(EDGES)),
        _ => J::Raw((rng.next() as i64 >> rng.below(64)).to_string()),
    }
}

const CHARS: &[char] = &[
    'a', 'B', 'C', 'D', '7', ' ', '/', '"', '\\', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
    'λ', '→', '日', '\u{ffff}', '😀',
];

fn string(rng: &mut Rng) -> String {
    (0..rng.below(6)).map(|_| rng.pick(CHARS)).collect()
}

/// Anything at all, `depth` levels at most.
fn junk(rng: &mut Rng, depth: usize) -> J {
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => raw("null"),
        1 if rng.one_in(10) => raw(rng.pick(&["tru", "nul", "TRUE"])),
        1 => raw(rng.pick(&["true", "false"])),
        2 | 3 => number(rng),
        4 => J::Str(string(rng)),
        5 => J::Arr((0..rng.below(4)).map(|_| junk(rng, depth - 1)).collect()),
        _ => J::Obj(
            (0..rng.below(3))
                .map(|_| (string(rng), junk(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A value for an attribute of type `ty`: mostly one that fits.
fn attr_value(rng: &mut Rng, ty: AttrType) -> J {
    if rng.one_in(16) {
        return junk(rng, 2);
    }
    match ty {
        AttrType::Int => integer(rng),
        AttrType::Float => number(rng),
        AttrType::Str => J::Str(string(rng)),
        AttrType::Bool => raw(rng.pick(&["true", "false"])),
    }
}

/// `[v, …]` for the schema: mostly of its arity.
fn values(rng: &mut Rng, schema: &Schema) -> J {
    let mut row: Vec<J> = schema
        .attrs()
        .iter()
        .map(|a| attr_value(rng, a.ty))
        .collect();
    match rng.below(40) {
        0 | 1 => drop(row.pop()),
        2 | 3 => row.push(junk(rng, 1)),
        4 => return junk(rng, 2),
        _ => {}
    }
    J::Arr(row)
}

fn ts(rng: &mut Rng) -> J {
    if rng.one_in(16) {
        junk(rng, 1)
    } else {
        integer(rng)
    }
}

/// `[ts, [v, …]]`: mostly.
fn event(rng: &mut Rng, schema: &Schema) -> J {
    let mut pair = vec![ts(rng), values(rng, schema)];
    match rng.below(60) {
        0 => drop(pair.pop()),
        1 => pair.push(junk(rng, 1)),
        2 => return junk(rng, 2),
        _ => {}
    }
    J::Arr(pair)
}

fn events(rng: &mut Rng, schema: &Schema) -> J {
    if rng.one_in(24) {
        return junk(rng, 2);
    }
    J::Arr((0..rng.below(6)).map(|_| event(rng, schema)).collect())
}

/// One request: an event line four times in five, with every key it
/// could carry sometimes present, absent, repeated, and out of place.
fn request(rng: &mut Rng, schema: &Schema) -> J {
    const OPS: &[&str] = &[
        "ingest",
        "batch",
        "ping",
        "sync",
        "stats",
        "shutdown",
        "subscribe",
        "warp",
    ];
    let op = if rng.one_in(5) {
        rng.pick(OPS)
    } else {
        rng.pick(&OPS[..2])
    };
    let mut members: Vec<(String, J)> = Vec::new();
    let mut put = |key: &str, value: J| members.push((key.to_string(), value));
    if !rng.one_in(16) {
        put("op", J::Str(op.to_string()));
    }
    // The keys of the verb, nearly always; those of the others, rarely.
    let carries = |rng: &mut Rng, verb: &str| {
        if op == verb {
            !rng.one_in(12)
        } else {
            rng.one_in(6)
        }
    };
    if carries(rng, "ingest") {
        put("ts", ts(rng));
    }
    if carries(rng, "ingest") {
        put("values", values(rng, schema));
    }
    if carries(rng, "batch") {
        put("events", events(rng, schema));
    }
    if carries(rng, "subscribe") {
        put("name", J::Str(string(rng)));
        put("query", J::Str("PATTERN a".to_string()));
        put("cursor", ts(rng));
    }
    // Repeats (the last one counts) and keys nobody reads.
    while rng.one_in(4) {
        match rng.below(6) {
            0 => put("op", junk(rng, 1)),
            1 => put("op", J::Str(rng.pick(OPS).to_string())),
            2 => put("ts", ts(rng)),
            3 => put("values", values(rng, schema)),
            4 => put("events", events(rng, schema)),
            _ => put(&string(rng), junk(rng, 3)),
        }
    }
    // Any order.
    for i in (1..members.len()).rev() {
        members.swap(i, rng.below(i + 1));
    }
    if rng.one_in(32) {
        return J::Arr(members.into_iter().map(|(_, v)| v).collect());
    }
    J::Obj(members)
}

/// How a line is spelled: JSON leaves whitespace and escaping to the
/// writer.
#[derive(Clone, Copy)]
enum Spelling {
    /// No whitespace, escapes only where JSON demands them.
    Compact,
    /// Python's `json.dumps`: `", "` and `": "`, non-ASCII as `\u`.
    Dumps,
    /// Whitespace and escapes wherever they are legal, at random.
    Loose,
}

fn gap(rng: &mut Rng, spelling: Spelling, out: &mut String) {
    if matches!(spelling, Spelling::Loose) && rng.one_in(3) {
        out.push_str(rng.pick(&[" ", "  ", "\t", "\r", "\n", " \t "]));
    }
}

fn spell_string(s: &str, rng: &mut Rng, spelling: Spelling, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        let bmp = (c as u32) < 0x1_0000;
        let escape = match spelling {
            Spelling::Compact => false,
            Spelling::Dumps => !c.is_ascii(),
            Spelling::Loose => rng.one_in(3),
        };
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' if !escape => out.push_str("\\n"),
            '\t' if !escape => out.push_str("\\t"),
            '/' if escape => out.push_str("\\/"),
            // The lexer takes a raw control character; JSON does not.
            c if bmp && (escape || ((c as u32) < 0x20 && !rng.one_in(4))) => {
                if rng.one_in(2) {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                } else {
                    out.push_str(&format!("\\u{:04X}", c as u32));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn spell(j: &J, rng: &mut Rng, spelling: Spelling, out: &mut String) {
    let (comma, colon) = match spelling {
        Spelling::Dumps => (", ", ": "),
        _ => (",", ":"),
    };
    match j {
        J::Raw(text) => out.push_str(text),
        J::Str(s) => spell_string(s, rng, spelling, out),
        J::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(comma);
                }
                gap(rng, spelling, out);
                spell(item, rng, spelling, out);
                gap(rng, spelling, out);
            }
            gap(rng, spelling, out);
            out.push(']');
        }
        J::Obj(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(comma);
                }
                gap(rng, spelling, out);
                spell_string(key, rng, spelling, out);
                gap(rng, spelling, out);
                out.push_str(colon);
                gap(rng, spelling, out);
                spell(value, rng, spelling, out);
                gap(rng, spelling, out);
            }
            gap(rng, spelling, out);
            out.push('}');
        }
    }
}

/// One to four attributes over all four types.
fn schema(rng: &mut Rng) -> Schema {
    const TYPES: [AttrType; 4] = [
        AttrType::Int,
        AttrType::Float,
        AttrType::Str,
        AttrType::Bool,
    ];
    let mut b = Schema::builder();
    for i in 0..1 + rng.below(4) {
        b = b.attr(format!("A{i}"), rng.pick(&TYPES));
    }
    b.build().unwrap()
}

/// A schema and a request line under it, spelled some way.
fn case(seed: u64) -> (Schema, String) {
    let mut rng = Rng::new(seed);
    let schema = schema(&mut rng);
    let request = request(&mut rng, &schema);
    let spelling = rng.pick(&[Spelling::Compact, Spelling::Dumps, Spelling::Loose]);
    let mut line = String::new();
    gap(&mut rng, spelling, &mut line);
    spell(&request, &mut rng, spelling, &mut line);
    gap(&mut rng, spelling, &mut line);
    (schema, line)
}

/// The line cut short, with one bit flipped, and with one byte replaced
/// by a character the grammar cares about.
fn damaged(line: &str, seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0xdead_beef);
    let bytes = line.as_bytes();
    if bytes.is_empty() {
        return Vec::new();
    }
    let lossy = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    let cut = lossy(&bytes[..rng.below(bytes.len())]);
    let mut flipped = bytes.to_vec();
    flipped[rng.below(bytes.len())] ^= 1 << rng.below(8);
    let mut replaced = bytes.to_vec();
    replaced[rng.below(bytes.len())] = rng.pick(b"[]{}\",:\\-e. 0");
    vec![cut, lossy(&flipped), lossy(&replaced)]
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (1) Agreement, on the line as generated and on it damaged.
    #[test]
    fn decode_agrees_with_the_tree_path(seed in any::<u64>()) {
        let (schema, line) = case(seed);
        let _ = agree(&line, &schema)?;
        for line in damaged(&line, seed) {
            let _ = agree(&line, &schema)?;
        }
    }

    /// (2) Token soup from the grammar's own vocabulary: much denser in
    /// parser states than uniform noise. Agreement comes for free.
    #[test]
    fn token_soup_never_panics(seed in any::<u64>(), len in 0usize..400) {
        const TOKENS: &[&str] = &[
            "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\u00e9", "\"op\"", "\"batch\"",
            "\"ingest\"", "\"events\"", "\"ts\"", "\"values\"", "\"ping\"", "0", "17", "-", ".",
            "e", "E+", "true", "false", "null", " ", "é", "\u{0}", "😀",
        ];
        let mut rng = Rng::new(seed);
        let schema = schema(&mut rng);
        let line: String = (0..len).map(|_| rng.pick(TOKENS)).collect();
        let _ = agree(&line, &schema)?;
        let _ = parse_json(&line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (2) Arbitrary bytes, up to 64 KiB, made a `&str` the lossy way.
    #[test]
    fn arbitrary_bytes_never_panic(
        seed in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..65_536),
    ) {
        let schema = schema(&mut Rng::new(seed));
        let line = String::from_utf8_lossy(&bytes);
        let _ = agree(&line, &schema)?;
        let _ = parse_json(&line);
        // Noise mostly dies at byte 0; behind a valid prefix it is read.
        let _ = agree(&format!("{{\"op\":\"batch\",\"events\":[[1,[\"{line}"), &schema)?;
    }
}

/// (2) Shapes built to hurt: each must come back as an ordinary error
/// (or value), from both consumers, on an ordinary thread's stack.
#[test]
fn adversarial_shapes_are_ordinary_errors() {
    const N: usize = 100_000;
    let schema = Schema::builder()
        .attr("ID", AttrType::Int)
        .attr("L", AttrType::Str)
        .build()
        .unwrap();
    let digits = "9".repeat(N);
    let shapes = [
        "[".repeat(N),
        "{\"a\":".repeat(N),
        "[{\"a\":".repeat(N),
        format!("{{\"op\":\"ping\",\"x\":{}", "[".repeat(N)),
        format!("{{\"op\":\"batch\",\"events\":{}", "[".repeat(N)),
        format!("{{\"op\":\"batch\",\"events\":[[1,{}", "[".repeat(N)),
        format!("{}{}", "[".repeat(N), "]".repeat(N)),
        format!("{{\"op\":\"ingest\",\"ts\":{digits},\"values\":[1,\"C\"]}}"),
        format!("{{\"op\":\"ingest\",\"ts\":1,\"values\":[-{digits},\"C\"]}}"),
        format!("{{\"op\":\"ingest\",\"ts\":1,\"values\":[1.{digits}e{digits},\"C\"]}}"),
        "-".repeat(N),
        format!("\"{}", "a".repeat(10 * N)),
        format!("\"{}", "\\".repeat(N)),
        format!("\"{}", "\\".repeat(N + 1)),
        format!(
            "{{\"op\":\"ingest\",\"ts\":1,\"values\":[1,\"{}",
            "\\u00".repeat(N)
        ),
        "\"\\u".to_string(),
        "\"\\u12".to_string(),
        "\"\\uD83D\\uDE00\"".to_string(),
        format!("{{\"{}\":1}}", "k".repeat(10 * N)),
        ",".repeat(N),
    ];
    let direct = |line: &str| decode(line, &schema, |ts, values| (ts, values));
    for shape in &shapes {
        assert_eq!(direct(shape), reference(shape, &schema), "{:.60}…", shape);
    }
    assert!(direct(&shapes[0]).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// (3) Typed rows → `value_json` → `Client::batch`'s bytes → `decode`
    /// → the same rows. Floats are drawn from bit patterns: this is the
    /// property that found `1e20` rendered as a 21-digit integer.
    #[test]
    fn client_batch_round_trips(seed in any::<u64>(), n in 0usize..8) {
        const FLOATS: &[f64] = &[
            0.0, -0.0, 0.1, 2.0, 1e15, 1e16, 1e20, 18446744073709551616.0, f64::MAX, f64::MIN,
            5e-324, 1e-7, 123456789012345680.0,
        ];
        let mut rng = Rng::new(seed);
        let schema = schema(&mut rng);
        let rows: Vec<Row> = (0..n)
            .map(|_| {
                let values = schema
                    .attrs()
                    .iter()
                    .map(|a| match a.ty {
                        AttrType::Int => Value::Int(rng.next() as i64 >> rng.below(64)),
                        AttrType::Float if rng.one_in(2) => Value::Float(rng.pick(FLOATS)),
                        AttrType::Float => loop {
                            // A non-finite float has no JSON spelling.
                            let x = f64::from_bits(rng.next());
                            if x.is_finite() {
                                break Value::Float(x);
                            }
                        },
                        AttrType::Str => Value::from(string(&mut rng)),
                        AttrType::Bool => Value::Bool(rng.one_in(2)),
                    })
                    .collect();
                (rng.next() as i64 >> rng.below(64), values)
            })
            .collect();

        // `Client::batch` writes to a socket; give it one and read the
        // line off the other end.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        let (peer, _) = listener.accept().unwrap();
        let frame: Vec<(i64, Vec<JsonValue>)> = rows
            .iter()
            .map(|(ts, values)| (*ts, values.iter().map(value_json).collect()))
            .collect();
        client.batch(&frame).unwrap();
        drop(client);
        let mut line = String::new();
        BufReader::new(peer).read_line(&mut line).unwrap();

        match agree(line.trim(), &schema)? {
            Ok(Decoded::Events { rows: got, refused }) => {
                prop_assert!(refused.is_empty(), "{:?} in {}", refused, line);
                prop_assert!(identical_rows(&got, &rows), "{:?} became {:?} via {}", rows, got, line);
            }
            other => prop_assert!(false, "{:?} from {}", other, line),
        }
    }
}

/// The generator reaches every outcome the properties are about; a
/// suite that only ever saw refused lines would prove nothing.
#[test]
fn generated_lines_reach_every_outcome() {
    let mut seen = std::collections::BTreeMap::<&str, usize>::new();
    let mut count = |what: &'static str| *seen.entry(what).or_default() += 1;
    for seed in 0..4_000u64 {
        let (schema, line) = case(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        match reference(&line, &schema) {
            Ok(Decoded::Control(_)) => count("control"),
            Ok(Decoded::Events { rows, refused }) => {
                if !rows.is_empty() {
                    count("rows");
                }
                if rows.len() > 1 && !refused.is_empty() {
                    count("rows beside refusals");
                }
                for e in &refused {
                    count(if e.starts_with("expected") {
                        "arity"
                    } else {
                        "type"
                    });
                }
                for (_, values) in &rows {
                    for v in values {
                        match v {
                            Value::Float(x) if x.to_bits() == (-0.0f64).to_bits() => count("-0.0"),
                            Value::Str(s) if !s.is_ascii() => count("multi-byte"),
                            _ => {}
                        }
                    }
                }
            }
            Err(e) if e.starts_with("batch:") => count("batch shape"),
            Err(e) if e.starts_with("ingest:") => count("ingest shape"),
            Err(e) if e.contains("`op`") || e.contains("JSON object") => count("no op"),
            Err(e) if e.starts_with("unknown op") => count("unknown op"),
            // Control verbs are read off the tree on both sides.
            Err(e) if e.starts_with("subscribe:") => count("control"),
            Err(_) => count("syntax"),
        }
        if line.contains("\\u") {
            count("\\u");
        }
        if let (Some(events), Some(op)) = (line.find("\"events\""), line.find("\"op\"")) {
            if events < op {
                count("events before op");
            }
        }
    }
    for what in [
        "control",
        "rows",
        "rows beside refusals",
        "arity",
        "type",
        "-0.0",
        "multi-byte",
        "batch shape",
        "ingest shape",
        "no op",
        "unknown op",
        "syntax",
        "\\u",
        "events before op",
    ] {
        let n = seen.get(what).copied().unwrap_or(0);
        assert!(
            n >= 20,
            "only {n} generated line(s) reached `{what}`: {seen:?}"
        );
    }
}
