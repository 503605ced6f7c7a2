//! Self-contained CSV serialization of event relations.
//!
//! The format is a plain CSV file whose first line is a typed header:
//!
//! ```text
//! ID:INT,L:STR,V:FLOAT,U:STR,T
//! 1,C,1672.5,mg,9
//! 1,B,0,WHO-Tox,10
//! ```
//!
//! * one column per schema attribute as `name:TYPE`
//!   (`INT|FLOAT|STR|BOOL`), plus the trailing temporal column `T`
//!   (integer ticks);
//! * string values containing `,`, `"`, or newlines are double-quoted
//!   with `""` escaping (the record-based reader supports embedded
//!   newlines inside quoted fields);
//! * rows must be in non-decreasing `T` order (the writer emits them in
//!   relation order, which guarantees this).

use std::io::{BufRead, Write};

use ses_event::{AttrType, Relation, Schema, Timestamp, Value};

use crate::StoreError;

/// The typed header of `schema`, `name:TYPE,…,T` — what [`parse_header`]
/// reads back, in a CSV file and in an event-log segment alike.
pub(crate) fn render_header(schema: &Schema) -> String {
    let mut header = String::new();
    for attr in schema.attrs() {
        header.push_str(&format!("{}:{},", attr.name, attr.ty));
    }
    header.push('T');
    header
}

/// Writes a relation as CSV.
pub fn write_csv<W: Write>(relation: &Relation, mut out: W) -> Result<(), StoreError> {
    writeln!(out, "{}", render_header(relation.schema()))?;

    for (_, event) in relation.iter() {
        let mut row = String::new();
        for (i, v) in event.values().iter().enumerate() {
            if i > 0 {
                row.push(',');
            }
            row.push_str(&field_to_csv(v));
        }
        if !event.values().is_empty() {
            row.push(',');
        }
        row.push_str(&event.ts().ticks().to_string());
        writeln!(out, "{row}")?;
    }
    Ok(())
}

/// Reads a relation from CSV, inferring the schema from the typed header.
///
/// The reader is record-based, not line-based: quoted fields may contain
/// commas, escaped quotes (`""`), and embedded newlines (which the writer
/// produces for such strings).
pub fn read_csv<R: BufRead>(mut input: R) -> Result<Relation, StoreError> {
    let mut text = String::new();
    input.read_to_string(&mut text)?;
    let mut records = RecordReader::new(&text);

    let header = records
        .next_record()
        .map_err(|(line, message)| StoreError::Parse { line, message })?
        .ok_or_else(|| StoreError::Parse {
            line: 1,
            message: "empty file (missing header)".into(),
        })?;
    let schema = parse_header(&header.fields.join(","))?;

    let mut relation = Relation::new(schema.clone());
    loop {
        let record = match records.next_record() {
            Ok(Some(r)) => r,
            Ok(None) => break,
            Err((line, message)) => return Err(StoreError::Parse { line, message }),
        };
        let (fields, line_no) = (record.fields, record.line);
        if fields.len() == 1 && fields[0].trim().is_empty() {
            continue; // blank line
        }
        if fields.len() != schema.len() + 1 {
            return Err(StoreError::Parse {
                line: line_no,
                message: format!(
                    "expected {} fields, found {}",
                    schema.len() + 1,
                    fields.len()
                ),
            });
        }
        let mut values = Vec::with_capacity(schema.len());
        for (i, field) in fields[..schema.len()].iter().enumerate() {
            let ty = schema.attrs()[i].ty;
            values.push(parse_value(field, ty).map_err(|message| StoreError::Parse {
                line: line_no,
                message,
            })?);
        }
        let ts: i64 = fields[schema.len()]
            .trim()
            .parse()
            .map_err(|_| StoreError::Parse {
                line: line_no,
                message: format!("invalid timestamp `{}`", fields[schema.len()]),
            })?;
        relation.push_values(Timestamp::new(ts), values)?;
    }
    Ok(relation)
}

/// One parsed CSV record and the line it started on.
struct Record {
    fields: Vec<String>,
    line: usize,
}

/// Record-based CSV tokenizer: `,` separates fields, an unquoted newline
/// separates records, `"…"` quoting supports commas, `""` escapes, and
/// embedded newlines.
struct RecordReader<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
    done: bool,
}

impl<'a> RecordReader<'a> {
    fn new(text: &'a str) -> RecordReader<'a> {
        RecordReader {
            chars: text.chars().peekable(),
            line: 1,
            done: false,
        }
    }

    /// Returns the next record, `Ok(None)` at end of input, or
    /// `(line, message)` on malformed quoting.
    fn next_record(&mut self) -> Result<Option<Record>, (usize, String)> {
        if self.done || self.chars.peek().is_none() {
            return Ok(None);
        }
        let start_line = self.line;
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut field_started = false;
        loop {
            let Some(c) = self.chars.next() else {
                if in_quotes {
                    return Err((start_line, "unterminated quoted field".into()));
                }
                self.done = true;
                break;
            };
            if c == '\n' {
                self.line += 1;
            }
            if in_quotes {
                match c {
                    '"' if self.chars.peek() == Some(&'"') => {
                        self.chars.next();
                        field.push('"');
                    }
                    '"' => in_quotes = false,
                    other => field.push(other),
                }
            } else {
                match c {
                    '"' if !field_started => in_quotes = true,
                    '"' => return Err((self.line, "stray quote inside unquoted field".into())),
                    ',' => {
                        fields.push(std::mem::take(&mut field));
                        field_started = false;
                        continue;
                    }
                    '\r' if self.chars.peek() == Some(&'\n') => continue, // CRLF
                    '\n' => break,
                    other => field.push(other),
                }
            }
            field_started = true;
        }
        fields.push(field);
        Ok(Some(Record {
            fields,
            line: start_line,
        }))
    }
}

/// Parses the typed header line into a schema.
pub fn parse_header(header: &str) -> Result<Schema, StoreError> {
    let cols: Vec<&str> = header.trim().split(',').collect();
    let Some((&last, attrs)) = cols.split_last() else {
        return Err(StoreError::Parse {
            line: 1,
            message: "empty header".into(),
        });
    };
    if last != "T" {
        return Err(StoreError::Parse {
            line: 1,
            message: format!("last header column must be `T`, found `{last}`"),
        });
    }
    let mut builder = Schema::builder();
    for col in attrs {
        let Some((name, ty)) = col.split_once(':') else {
            return Err(StoreError::Parse {
                line: 1,
                message: format!("header column `{col}` is not `name:TYPE`"),
            });
        };
        let ty = match ty {
            "INT" => AttrType::Int,
            "FLOAT" => AttrType::Float,
            "STR" => AttrType::Str,
            "BOOL" => AttrType::Bool,
            other => {
                return Err(StoreError::Parse {
                    line: 1,
                    message: format!("unknown type `{other}`"),
                })
            }
        };
        builder = builder.attr(name, ty);
    }
    builder.build().map_err(StoreError::Event)
}

fn parse_value(field: &str, ty: AttrType) -> Result<Value, String> {
    match ty {
        AttrType::Int => field
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| format!("invalid INT `{field}`")),
        AttrType::Float => field
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|f| !f.is_nan())
            .map(Value::Float)
            .ok_or_else(|| format!("invalid FLOAT `{field}`")),
        AttrType::Str => Ok(Value::str(field)),
        AttrType::Bool => match field.trim() {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(format!("invalid BOOL `{field}`")),
        },
    }
}

fn field_to_csv(v: &Value) -> String {
    match v {
        Value::Str(s) => quote_if_needed(s),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => {
            // Keep a distinguishing decimal point so floats survive a
            // round-trip as floats.
            if f.fract() == 0.0 && f.is_finite() {
                format!("{f:.1}")
            } else {
                f.to_string()
            }
        }
        Value::Bool(b) => b.to_string(),
    }
}

fn quote_if_needed(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_event::AttrType;

    fn sample_relation() -> Relation {
        let schema = Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .attr("V", AttrType::Float)
            .build()
            .unwrap();
        let mut r = Relation::new(schema);
        r.push_values(Timestamp::new(9), [1.into(), "C".into(), 1672.5.into()])
            .unwrap();
        r.push_values(Timestamp::new(10), [1.into(), "B".into(), 0.0.into()])
            .unwrap();
        r
    }

    fn round_trip(r: &Relation) -> Relation {
        let mut buf = Vec::new();
        write_csv(r, &mut buf).unwrap();
        read_csv(&buf[..]).unwrap()
    }

    #[test]
    fn round_trips_basic_relation() {
        let r = sample_relation();
        let rt = round_trip(&r);
        assert_eq!(rt.len(), 2);
        assert!(rt.schema().is_compatible(r.schema()));
        for (a, b) in r.events().iter().zip(rt.events()) {
            assert_eq!(a.ts(), b.ts());
            assert_eq!(a.values(), b.values());
        }
    }

    #[test]
    fn quoting_round_trips() {
        let schema = Schema::builder().attr("S", AttrType::Str).build().unwrap();
        let mut r = Relation::new(schema);
        for (t, s) in [
            (0, "plain"),
            (1, "with,comma"),
            (2, "with\"quote"),
            (3, "both,\"and\",more"),
            (4, ""),
        ] {
            r.push_values(Timestamp::new(t), [Value::str(s)]).unwrap();
        }
        let rt = round_trip(&r);
        for (a, b) in r.events().iter().zip(rt.events()) {
            assert_eq!(a.values(), b.values());
        }
    }

    #[test]
    fn floats_survive_as_floats() {
        let rt = round_trip(&sample_relation());
        // V of the second row is 0.0 and must come back FLOAT, not INT.
        assert!(matches!(
            rt.events()[1].values()[2],
            Value::Float(f) if f == 0.0
        ));
    }

    #[test]
    fn header_errors() {
        assert!(matches!(
            read_csv(&b""[..]),
            Err(StoreError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_csv(&b"ID:INT,L:STR\n"[..]), // missing T
            Err(StoreError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_csv(&b"ID:WAT,T\n"[..]),
            Err(StoreError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_csv(&b"IDINT,T\n"[..]),
            Err(StoreError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn row_errors_carry_line_numbers() {
        let data = b"ID:INT,T\n1,5\nnope,6\n";
        let err = read_csv(&data[..]).unwrap_err();
        assert!(matches!(err, StoreError::Parse { line: 3, .. }), "{err}");

        let data = b"ID:INT,T\n1,5,extra\n";
        assert!(matches!(
            read_csv(&data[..]).unwrap_err(),
            StoreError::Parse { line: 2, .. }
        ));
    }

    #[test]
    fn out_of_order_rows_rejected() {
        let data = b"ID:INT,T\n1,5\n1,4\n";
        assert!(matches!(
            read_csv(&data[..]).unwrap_err(),
            StoreError::Event(ses_event::EventError::OutOfOrder { .. })
        ));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let data = b"ID:INT,T\n1,5\n\n2,6\n";
        assert_eq!(read_csv(&data[..]).unwrap().len(), 2);
    }

    #[test]
    fn bool_values() {
        let schema = Schema::builder().attr("B", AttrType::Bool).build().unwrap();
        let mut r = Relation::new(schema);
        r.push_values(Timestamp::new(0), [Value::Bool(true)])
            .unwrap();
        r.push_values(Timestamp::new(1), [Value::Bool(false)])
            .unwrap();
        let rt = round_trip(&r);
        assert_eq!(rt.events()[0].values()[0], Value::Bool(true));
        assert_eq!(rt.events()[1].values()[0], Value::Bool(false));
    }

    #[test]
    fn record_reader_handles_escapes_and_newlines() {
        let mut r = RecordReader::new("a,\"b,c\",\"d\"\"e\"\nx,\"multi\nline\",z\n");
        let first = r.next_record().unwrap().unwrap();
        assert_eq!(first.fields, vec!["a", "b,c", "d\"e"]);
        assert_eq!(first.line, 1);
        let second = r.next_record().unwrap().unwrap();
        assert_eq!(second.fields, vec!["x", "multi\nline", "z"]);
        assert_eq!(second.line, 2);
        assert!(r.next_record().unwrap().is_none());

        assert!(RecordReader::new("\"open").next_record().is_err());
        assert!(RecordReader::new("ab\"cd").next_record().is_err());
    }

    #[test]
    fn embedded_newlines_round_trip() {
        let schema = Schema::builder().attr("S", AttrType::Str).build().unwrap();
        let mut rel = Relation::new(schema);
        rel.push_values(Timestamp::new(0), [Value::str("line1\nline2")])
            .unwrap();
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        let rt = read_csv(&buf[..]).unwrap();
        assert_eq!(rt.events()[0].values()[0], Value::str("line1\nline2"));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn full_schema() -> Schema {
            Schema::builder()
                .attr("I", AttrType::Int)
                .attr("F", AttrType::Float)
                .attr("S", AttrType::Str)
                .attr("B", AttrType::Bool)
                .build()
                .unwrap()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Arbitrary relations (including nasty strings with commas,
            /// quotes, and newlines) survive a CSV round trip bit-exactly.
            #[test]
            fn csv_round_trip(
                rows in proptest::collection::vec(
                    (
                        any::<i64>(),
                        -1.0e9f64..1.0e9,
                        "[ -~\n]{0,12}", // printable ASCII + newline
                        any::<bool>(),
                        0i64..1000,
                    ),
                    0..20,
                )
            ) {
                let mut rel = Relation::new(full_schema());
                let mut t = 0i64;
                for (i, f, s, b, gap) in rows {
                    t += gap;
                    rel.push_values(
                        Timestamp::new(t),
                        [
                            Value::Int(i),
                            Value::Float(f),
                            Value::str(&s),
                            Value::Bool(b),
                        ],
                    )
                    .unwrap();
                }
                let mut buf = Vec::new();
                write_csv(&rel, &mut buf).unwrap();
                let rt = read_csv(&buf[..]).unwrap();
                prop_assert_eq!(rt.len(), rel.len());
                for (a, b) in rel.events().iter().zip(rt.events()) {
                    prop_assert_eq!(a.ts(), b.ts());
                    prop_assert_eq!(a.values(), b.values());
                }
            }
        }
    }
}
