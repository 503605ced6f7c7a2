//! Seeded inputs, the reference outputs they must produce, and the
//! pinned fingerprints of both.
//!
//! Everything here runs before any clock. The program under test only
//! ever receives what these generators return.

use ses_core::{Match, Matcher, MatcherOptions, PatternBank, StreamMatcher};
use ses_event::{Event, Relation, Schema, Timestamp, Value};
use ses_metrics::JsonValue;
use ses_pattern::Pattern;
use ses_workload::{bank, chemo, paper};

use crate::stats::Fnv;

/// Seed of the pinned default inputs (the paper's year).
pub const DEFAULT_SEED: u64 = 2011;

/// One pattern over one relation, scanned whole.
pub struct BatchInput {
    pub schema: Schema,
    pub pattern: Pattern,
    pub relation: Relation,
}

/// Paper Exp. 3 regime: a ward where ~95 % of the events fail every
/// constant condition of `exp1_p1(6)`. `quick` divides the ward by ten.
pub fn batch_filter(seed: u64, quick: bool) -> BatchInput {
    let mut config = chemo::ChemoConfig::paper_d1()
        .scaled(if quick { 0.4 } else { 4.0 })
        .with_seed(seed);
    config.aux_per_day = 100.0;
    config.stagger_hours *= 4;
    BatchInput {
        schema: paper::schema(),
        pattern: paper::exp1_p1(6),
        relation: chemo::generate(&config),
    }
}

/// Paper Exp. 2 regime: `exp2_p3` (`⟨{c,d,p+},{b}⟩`, one shared type,
/// Theorem 3) over five patients who all start treatment together, 30
/// cycles, every event duplicated ×4 as in the paper's D2–D5: each
/// window holds the same 20 same-type events, so instance iteration,
/// buffer forks, emission and adjudication do all the work.
///
/// The patients start together (`stagger_hours = 0`) on purpose. With
/// staggered starts the cost of this uncorrelated pattern follows how
/// the starts happen to cluster — one seed's scan takes twice another's
/// — and the benchmark could not tell a slower engine from an unlucky
/// seed. The seed still moves doses, hour jitter, optional drugs and the
/// auxiliary events. `quick` keeps 3 cycles.
pub fn batch_dense(seed: u64, quick: bool) -> BatchInput {
    let mut config = chemo::ChemoConfig::paper_d1().scaled(0.08).with_seed(seed);
    config.stagger_hours = 0;
    config.cycles = if quick { 3 } else { 30 };
    BatchInput {
        schema: paper::schema(),
        pattern: paper::exp2_p3(),
        relation: chemo::generate(&config).duplicate(4),
    }
}

/// Sixteen correlated two-variable patterns over one stream.
pub struct BankInput {
    pub schema: Schema,
    pub named: Vec<(String, Pattern)>,
    /// The stream, closed by one sentinel event past every window so
    /// that a full replay finalizes every match without `finish()`.
    pub events: Vec<Event>,
}

/// The first `events` events of the seed's bank stream (16 patterns,
/// 32 event types, 64 correlation keys, 20-tick windows) plus the
/// sentinel. The generator draws event by event, so a longer stream of
/// the same seed starts with the same events.
pub fn bank_stream(seed: u64, events: usize) -> BankInput {
    let config = bank::BankConfig {
        events,
        within: 20,
        ids: 64,
        seed,
        ..bank::BankConfig::small().with_patterns(16)
    };
    let mut events = bank::generate(&config).events().to_vec();
    let last = events.last().expect("non-empty stream").ts().ticks();
    events.push(Event::new(
        Timestamp::new(last + config.within + 1),
        vec![Value::from("SENTINEL"), Value::from(0i64)],
    ));
    BankInput {
        schema: bank::schema(),
        named: bank::patterns(&config),
        events,
    }
}

impl BankInput {
    /// A fresh bank over the sixteen patterns, index and sharing at
    /// their defaults.
    pub fn build_bank(&self) -> PatternBank {
        let mut builder = PatternBank::builder(&self.schema);
        for (name, pattern) in &self.named {
            builder = builder
                .register(name.clone(), pattern, MatcherOptions::default())
                .expect("generated bank patterns compile");
        }
        builder.build()
    }
}

/// One match of the reference bank run.
pub struct Emission {
    /// Index of the event whose push returned the match.
    pub at: usize,
    /// Pattern index, which is also the server's subscription index.
    pub sub: usize,
    /// 1-based position among this pattern's matches: the server's `seq`.
    pub seq: u64,
    /// `Match::display_with` under the pattern.
    pub line: String,
}

/// The push-for-push emission schedule of the bank stream, from an
/// in-process `PatternBank` run. Every later run — in-process or over
/// TCP — must reproduce it exactly.
pub struct Schedule {
    pub emissions: Vec<Emission>,
}

impl Schedule {
    /// Replays the first `events` events of the stream.
    pub fn record(input: &BankInput, events: usize) -> Schedule {
        let mut bank = input.build_bank();
        let mut seqs = vec![0u64; input.named.len()];
        let mut emissions = Vec::new();
        for (at, e) in input.events[..events].iter().enumerate() {
            let out = bank
                .push(e.ts(), e.values().to_vec())
                .expect("generated stream is chronological and well-typed");
            for (sub, m) in out {
                seqs[sub] += 1;
                emissions.push(Emission {
                    at,
                    sub,
                    seq: seqs[sub],
                    line: m.display_with(&input.named[sub].1),
                });
            }
        }
        Schedule { emissions }
    }

    /// Emissions returned by pushes of the first `events` events.
    pub fn prefix(&self, events: usize) -> &[Emission] {
        let end = self.emissions.partition_point(|e| e.at < events);
        &self.emissions[..end]
    }
}

/// Sorted `display_with` lines: the form in which match sets of
/// different execution paths are compared.
pub fn rendered(matches: &[Match], pattern: &Pattern) -> Vec<String> {
    let mut lines: Vec<String> = matches.iter().map(|m| m.display_with(pattern)).collect();
    lines.sort_unstable();
    lines
}

/// Runs a batch input through the three public execution paths and
/// returns their common sorted match lines, or says which path differs.
pub fn cross_path_matches(input: &BatchInput) -> Result<Vec<String>, String> {
    let options = MatcherOptions::default();
    let find = Matcher::with_options(&input.pattern, &input.schema, options.clone())
        .map_err(|e| e.to_string())?
        .find(&input.relation);
    let want = rendered(&find, &input.pattern);

    let mut stream = StreamMatcher::with_options(&input.pattern, &input.schema, options.clone())
        .map_err(|e| e.to_string())?;
    let mut got = Vec::new();
    for chunk in input.relation.events().chunks(512) {
        got.extend(
            stream
                .push_batch(chunk.to_vec())
                .map_err(|e| e.to_string())?,
        );
    }
    got.extend(stream.finish());
    if rendered(&got, &input.pattern) != want {
        return Err(format!(
            "StreamMatcher::push_batch(512)+finish returned {} matches, Matcher::find {}",
            got.len(),
            want.len()
        ));
    }

    let mut bank = PatternBank::builder(&input.schema)
        .register("only", &input.pattern, options)
        .map_err(|e| e.to_string())?
        .build();
    let mut got = Vec::new();
    for e in input.relation.events() {
        let out = bank
            .push(e.ts(), e.values().to_vec())
            .map_err(|e| e.to_string())?;
        got.extend(out.into_iter().map(|(_, m)| m));
    }
    got.extend(bank.finish().into_iter().map(|(_, m)| m));
    if rendered(&got, &input.pattern) != want {
        return Err(format!(
            "a PatternBank of one returned {} matches, Matcher::find {}",
            got.len(),
            want.len()
        ));
    }
    Ok(want)
}

/// What `expected.json` pins per workload and seed.
#[derive(Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub events: u64,
    pub events_fnv: u64,
    pub matches: u64,
    pub matches_fnv: u64,
}

impl Fingerprint {
    /// `lines` in the order the workload defines: sorted for match
    /// sets, emission order for the bank schedule.
    pub fn of<'a>(events: &[Event], lines: impl Iterator<Item = &'a str>) -> Fingerprint {
        use std::fmt::Write;
        let mut e = Fnv::new();
        for event in events {
            write!(e, "{}", event.ts().ticks()).expect("hashing cannot fail");
            for v in event.values() {
                write!(e, "|{v}").expect("hashing cannot fail");
            }
            e.write(b"\n");
        }
        let mut m = Fnv::new();
        let mut matches = 0;
        for line in lines {
            m.write(line.as_bytes());
            m.write(b"\n");
            matches += 1;
        }
        Fingerprint {
            events: events.len() as u64,
            events_fnv: e.finish(),
            matches,
            matches_fnv: m.finish(),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"events\": {}, \"events_fnv\": \"{:016x}\", \"matches\": {}, \"matches_fnv\": \"{:016x}\"}}",
            self.events, self.events_fnv, self.matches, self.matches_fnv
        )
    }

    /// Compares against the pin for `(seed, workload)` in
    /// `expected.json` and returns a line for the run's notes. Seeds
    /// without a pin (and `--quick` inputs) pass: for them the cross-path
    /// checks are the only oracle.
    pub fn check_pinned(&self, workload: &str, seed: u64, quick: bool) -> Result<String, String> {
        let unpinned = Ok(format!("fingerprint (not pinned): {}", self.to_json()));
        if quick {
            return unpinned;
        }
        let pins = ses_server::protocol::parse_json(include_str!("../expected.json"))
            .expect("expected.json is valid JSON");
        let Some(pin) = pins
            .as_object()
            .and_then(|o| o.get(&seed.to_string()))
            .and_then(JsonValue::as_object)
        else {
            return unpinned;
        };
        let pin = pin
            .get(workload)
            .and_then(JsonValue::as_object)
            .ok_or_else(|| format!("expected.json pins seed {seed} but not `{workload}`"))?;
        let int = |k: &str| pin.get(k).and_then(JsonValue::as_u64);
        let hex = |k: &str| {
            pin.get(k)
                .and_then(JsonValue::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
        };
        let pinned = Fingerprint {
            events: int("events").ok_or("expected.json: bad `events`")?,
            events_fnv: hex("events_fnv").ok_or("expected.json: bad `events_fnv`")?,
            matches: int("matches").ok_or("expected.json: bad `matches`")?,
            matches_fnv: hex("matches_fnv").ok_or("expected.json: bad `matches_fnv`")?,
        };
        if *self == pinned {
            Ok(format!("fingerprint as pinned: {}", self.to_json()))
        } else {
            Err(format!(
                "fingerprint for seed {seed} differs from expected.json\n  pinned:   {}\n  observed: {}",
                pinned.to_json(),
                self.to_json()
            ))
        }
    }
}
