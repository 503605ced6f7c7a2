//! The one byte dialect of everything `ses-store` writes, and the
//! versioned binary codec for matcher snapshots.
//!
//! [`Encoder`] and [`Decoder`] are the only code in the crate that turns
//! integers and values into bytes and back: little-endian integers,
//! `u32`-length-prefixed strings, tagged values, FNV-1a integrity. The
//! [`crate::EventLog`] frames its records with them, the
//! [`crate::CheckpointStore`] its `SESCKPT1` header, and this module the
//! snapshot payload. Every read is bounds-checked and fails with
//! [`StoreError::Corrupt`], never a panic. The snapshot codec is
//! *self-describing* at the value level — each [`Value`] carries its
//! type tag — and schema agreement is enforced one level up by the
//! snapshot fingerprint (see `ses_core::snapshot`); an event-log record
//! checks each tag against its segment's schema instead
//! ([`Decoder::get_value_of`]).
//!
//! Layout of an encoded [`MatcherSnapshot`] (all integers little-endian):
//!
//! ```text
//! u8 kind                     2 = Bank (0, 1 and 3 are retired, see
//!                             [`StoreError::RetiredSnapshot`])
//! stream  := u64 fingerprint | opt_ts watermark | u8 1
//!          | u64 evicted | opt_ts last_ts
//!          | u32 n_events  event*      event   := i64 ts | u16 n | value*
//!          | u32 n_instances inst*     inst    := u32 state | u32 n | binding*
//!          | u32 n_pending match*      match   := u32 n | (u32 var, u32 event)*
//!          | u32 n_survivors surv*     surv    := i64 minT | match
//!          | u64 emitted               binding := u32 var | u32 event | i64 ts
//! bank    := opt_ts watermark | opt_ts last_ts | u64 next_id | u64 ties
//!          | u64 emitted | u8 1 | u32 n_patterns bpat*
//! bpat    := str name | stream | u32 n_ids u32* | u64 base
//!          | u64 peak_omega | u64 hits | u64 skips
//! opt_ts  := 0u8 | 1u8 i64
//! str     := u32 len | utf8 bytes
//! value   := 0u8 i64 | 1u8 f64 | 2u8 str | 3u8 u8    INT FLOAT STR BOOL
//! ```
//!
//! Two bytes are constants of the layout: the `u8 1` of `stream` and of
//! the bank header recorded whether the writer evicted and whether it
//! routed through the predicate index, when either could be switched
//! off. A reader skips both — neither changes what the state means.
//!
//! Earlier releases wrote kind 3 for a bank in which some pattern did
//! not run a matcher of its own:
//!
//! ```text
//! bank3   := <bank header as above> | u32 n_patterns bpat3* | u32 n_pools
//! bpat3   := str name | role | u8 has_matcher | stream?
//!          | u32 n_ids u32* | u64 base | u64 peak_omega
//!          | u64 hits | u64 skips
//! role    := 0u8                   plain: runs its own matcher
//!          | 1u8 u32 leader        deduplicated into pattern `leader`
//!          | 2u8 u32 pool          member of a shared-prefix pool
//!          | 3u8 u32 key u32 lane u32 of    one hash lane of a pattern
//! ```
//!
//! This release writes kind 2 only and refuses every retired role by
//! name with [`StoreError::RetiredSnapshot`], as it refuses a non-zero
//! pool count: a deduplicated pattern carries no state of its own, a
//! pool member's Ω holds only runs the pool injected, and a lane's
//! matcher holds one hash slice of its pattern's keys — none of which a
//! bank of this release, one matcher per pattern, can continue. A
//! kind-3 payload whose patterns are all plain, and which runs no pools,
//! is read like kind 2.
//!
//! The file-level framing (magic, format version, checksum) lives in
//! [`crate::CheckpointStore`]; this module only covers the payload.

use std::sync::Arc;

use ses_core::{
    BankPatternSnapshot, BankSnapshot, InstanceSnapshot, MatcherSnapshot, StreamSnapshot,
};
use ses_event::{AttrType, Event, EventId, Timestamp, Value};
use ses_pattern::VarId;

use crate::{Retired, StoreError};

/// FNV-1a (64-bit) — the workspace's dependency-free integrity check of
/// event-log records and checkpoint frames.
pub(crate) fn fnv1a(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The tag byte a value of type `ty` is written with.
fn value_tag(ty: AttrType) -> u8 {
    match ty {
        AttrType::Int => 0,
        AttrType::Float => 1,
        AttrType::Str => 2,
        AttrType::Bool => 3,
    }
}

pub(crate) fn corrupt(message: String) -> StoreError {
    StoreError::Corrupt { message }
}

/// An append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// An empty encoder with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Encoder {
        Encoder {
            buf: Vec::with_capacity(n),
        }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends `bytes` as they are, without a length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string (`u32 len | bytes`).
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends an optional timestamp (`0u8` or `1u8 i64`).
    pub fn put_opt_ts(&mut self, ts: Option<Timestamp>) {
        match ts {
            None => self.put_u8(0),
            Some(t) => {
                self.put_u8(1);
                self.put_i64(t.ticks());
            }
        }
    }

    /// Appends a tagged [`Value`].
    pub fn put_value(&mut self, v: &Value) {
        self.put_u8(value_tag(v.attr_type()));
        match v {
            Value::Int(i) => self.put_i64(*i),
            Value::Float(f) => self.put_bytes(&f.to_le_bytes()),
            Value::Str(s) => self.put_str(s),
            Value::Bool(b) => self.put_bool(*b),
        }
    }
}

/// A checked little-endian byte cursor; every read fails cleanly at the
/// end of input instead of panicking.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A cursor over `data`, positioned at the start.
    pub fn new(data: &'a [u8]) -> Decoder<'a> {
        Decoder { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads the next `n` bytes as they are.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "truncated: {n} byte(s) wanted, {} left",
                self.remaining()
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn get_array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        Ok(self.get_bytes(N)?.try_into().expect("N bytes"))
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.get_bytes(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.get_array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.get_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.get_array()?))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.get_array()?))
    }

    /// Reads a one-byte `bool`.
    pub fn get_bool(&mut self) -> Result<bool, StoreError> {
        Ok(self.get_u8()? != 0)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the input.
    fn get_utf8(&mut self) -> Result<&'a str, StoreError> {
        let len = self.get_u32()? as usize;
        std::str::from_utf8(self.get_bytes(len)?).map_err(|_| corrupt("string is not UTF-8".into()))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, StoreError> {
        self.get_utf8().map(str::to_owned)
    }

    /// Reads an optional timestamp.
    pub fn get_opt_ts(&mut self) -> Result<Option<Timestamp>, StoreError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(Timestamp::new(self.get_i64()?))),
            tag => Err(corrupt(format!("invalid option tag {tag}"))),
        }
    }

    /// Reads a tagged [`Value`].
    pub fn get_value(&mut self) -> Result<Value, StoreError> {
        let tag = self.get_u8()?;
        self.value_after(tag)
    }

    /// Reads a tagged [`Value`] whose tag must be that of `ty`.
    pub fn get_value_of(&mut self, ty: AttrType) -> Result<Value, StoreError> {
        let tag = self.get_u8()?;
        if tag != value_tag(ty) {
            return Err(corrupt(format!("value tag {tag} does not match {ty}")));
        }
        self.value_after(tag)
    }

    fn value_after(&mut self, tag: u8) -> Result<Value, StoreError> {
        Ok(match tag {
            0 => Value::Int(self.get_i64()?),
            1 => Value::Float(f64::from_le_bytes(self.get_array()?)),
            2 => Value::Str(Arc::from(self.get_utf8()?)),
            3 => Value::Bool(self.get_bool()?),
            tag => return Err(corrupt(format!("unknown value tag {tag}"))),
        })
    }

    /// Fails unless every byte was consumed — trailing garbage means the
    /// payload disagrees with its framing.
    pub fn finish(self) -> Result<(), StoreError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(corrupt(format!("{n} trailing byte(s) after the payload"))),
        }
    }
}

/// Guards length-prefixed collection reads against hostile counts: a
/// corrupt frame must fail fast, not allocate gigabytes. `min_item_bytes`
/// is the shortest encoding of one item, so what a count may claim is
/// bounded by the bytes left to hold it.
fn checked_len(
    n: u32,
    remaining: usize,
    min_item_bytes: usize,
    what: &str,
) -> Result<usize, StoreError> {
    let n = n as usize;
    if n.saturating_mul(min_item_bytes) > remaining {
        return Err(corrupt(format!(
            "snapshot claims {n} {what}, more than the payload can hold"
        )));
    }
    Ok(n)
}

/// Serializes a snapshot to the payload layout in the module docs.
pub fn encode_snapshot(snapshot: &MatcherSnapshot) -> Vec<u8> {
    let MatcherSnapshot::Bank(s) = snapshot;
    let mut e = Encoder::new();
    e.put_u8(2);
    e.put_opt_ts(s.watermark);
    e.put_opt_ts(s.last_ts);
    e.put_u64(s.next_id);
    e.put_u64(s.ties);
    e.put_u64(s.emitted);
    e.put_bool(true); // routed through the index
    e.put_u32(s.patterns.len() as u32);
    for p in &s.patterns {
        e.put_str(&p.name);
        encode_stream(&mut e, &p.matcher);
        e.put_u32(p.ids.len() as u32);
        for id in &p.ids {
            e.put_u32(id.0);
        }
        e.put_u64(p.base);
        e.put_u64(p.peak_omega);
        e.put_u64(p.hits);
        e.put_u64(p.skips);
    }
    e.into_bytes()
}

fn encode_stream(e: &mut Encoder, s: &StreamSnapshot) {
    e.put_u64(s.fingerprint);
    e.put_opt_ts(s.watermark);
    e.put_bool(true); // evicts
    e.put_u64(s.evicted);
    e.put_opt_ts(s.last_ts);
    e.put_u32(s.events.len() as u32);
    for ev in &s.events {
        e.put_i64(ev.ts().ticks());
        e.put_u16(ev.values().len() as u16);
        for v in ev.values() {
            e.put_value(v);
        }
    }
    e.put_u32(s.instances.len() as u32);
    for inst in &s.instances {
        e.put_u32(inst.state);
        e.put_u32(inst.bindings.len() as u32);
        for &(var, event, ts) in &inst.bindings {
            e.put_u32(u32::from(var.0));
            e.put_u32(event.0);
            e.put_i64(ts.ticks());
        }
    }
    e.put_u32(s.pending.len() as u32);
    for m in &s.pending {
        encode_bindings(e, m);
    }
    e.put_u32(s.survivors.len() as u32);
    for (min_ts, m) in &s.survivors {
        e.put_i64(min_ts.ticks());
        encode_bindings(e, m);
    }
    e.put_u64(s.emitted);
}

fn encode_bindings(e: &mut Encoder, bindings: &[(VarId, EventId)]) {
    e.put_u32(bindings.len() as u32);
    for &(var, event) in bindings {
        e.put_u32(u32::from(var.0));
        e.put_u32(event.0);
    }
}

/// What a kind-3 payload naming a retired executor is refused with.
const fn retired3(what: Retired) -> StoreError {
    StoreError::RetiredSnapshot { kind: 3, what }
}

/// Deserializes a snapshot payload; every byte must be consumed.
pub fn decode_snapshot(data: &[u8]) -> Result<MatcherSnapshot, StoreError> {
    let mut d = Decoder::new(data);
    let kind3 = match d.get_u8()? {
        2 => false,
        3 => true,
        kind @ (0 | 1) => {
            return Err(StoreError::RetiredSnapshot {
                kind,
                what: Retired::SingleQueryStream,
            })
        }
        kind => return Err(corrupt(format!("unknown snapshot kind {kind}"))),
    };
    let watermark = d.get_opt_ts()?;
    let last_ts = d.get_opt_ts()?;
    let next_id = d.get_u64()?;
    let ties = d.get_u64()?;
    let emitted = d.get_u64()?;
    d.get_bool()?; // routed through the index

    // A pattern is at least a name, an id count and four counters — and
    // a stream, or in kind 3 a role and a matcher tag: 4 + 4 + 32 + 2.
    let n = checked_len(d.get_u32()?, d.remaining(), 42, "bank patterns")?;
    let mut patterns = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.get_str()?;
        if kind3 {
            match d.get_u8()? {
                0 => {}
                1 => return Err(retired3(Retired::Deduplication)),
                2 => return Err(retired3(Retired::PrefixPools)),
                3 => return Err(retired3(Retired::HashLanes)),
                tag => return Err(corrupt(format!("unknown bank pattern role {tag}"))),
            }
            if d.get_u8()? != 1 {
                return Err(corrupt(format!(
                    "plain pattern `{name}` without its matcher"
                )));
            }
        }
        let matcher = decode_stream(&mut d)?;
        let n_ids = checked_len(d.get_u32()?, d.remaining(), 4, "bank pattern ids")?;
        let mut ids = Vec::with_capacity(n_ids);
        for _ in 0..n_ids {
            ids.push(EventId(d.get_u32()?));
        }
        let base = d.get_u64()?;
        let peak_omega = d.get_u64()?;
        let hits = d.get_u64()?;
        let skips = d.get_u64()?;
        patterns.push(BankPatternSnapshot {
            name,
            matcher,
            ids,
            base,
            peak_omega,
            hits,
            skips,
        });
    }
    if kind3 && d.get_u32()? != 0 {
        return Err(retired3(Retired::PrefixPools));
    }
    d.finish()?;
    Ok(MatcherSnapshot::Bank(BankSnapshot {
        watermark,
        last_ts,
        next_id,
        ties,
        emitted,
        patterns,
    }))
}

fn decode_stream(d: &mut Decoder<'_>) -> Result<StreamSnapshot, StoreError> {
    let fingerprint = d.get_u64()?;
    let watermark = d.get_opt_ts()?;
    d.get_bool()?; // evicts
    let evicted = d.get_u64()?;
    let last_ts = d.get_opt_ts()?;
    let n_events = checked_len(d.get_u32()?, d.remaining(), 10, "events")?;
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let ts = Timestamp::new(d.get_i64()?);
        // The shortest value is a tag and a bool.
        let n_values = checked_len(u32::from(d.get_u16()?), d.remaining(), 2, "values")?;
        let mut values = Vec::with_capacity(n_values);
        for _ in 0..n_values {
            values.push(d.get_value()?);
        }
        events.push(Event::new(ts, values));
    }
    let n_instances = checked_len(d.get_u32()?, d.remaining(), 8, "instances")?;
    let mut instances = Vec::with_capacity(n_instances);
    for _ in 0..n_instances {
        let state = d.get_u32()?;
        let n = checked_len(d.get_u32()?, d.remaining(), 16, "bindings")?;
        let mut bindings = Vec::with_capacity(n);
        for _ in 0..n {
            bindings.push(decode_binding_ts(d)?);
        }
        instances.push(InstanceSnapshot { state, bindings });
    }
    let n_pending = checked_len(d.get_u32()?, d.remaining(), 4, "pending matches")?;
    let mut pending = Vec::with_capacity(n_pending);
    for _ in 0..n_pending {
        pending.push(decode_bindings(d)?);
    }
    let n_survivors = checked_len(d.get_u32()?, d.remaining(), 12, "survivors")?;
    let mut survivors = Vec::with_capacity(n_survivors);
    for _ in 0..n_survivors {
        let min_ts = Timestamp::new(d.get_i64()?);
        survivors.push((min_ts, decode_bindings(d)?));
    }
    let emitted = d.get_u64()?;
    Ok(StreamSnapshot {
        fingerprint,
        watermark,
        evicted,
        last_ts,
        events,
        instances,
        pending,
        survivors,
        emitted,
    })
}

fn decode_binding_ts(d: &mut Decoder<'_>) -> Result<(VarId, EventId, Timestamp), StoreError> {
    let (var, event) = decode_binding(d)?;
    let ts = Timestamp::new(d.get_i64()?);
    Ok((var, event, ts))
}

fn decode_binding(d: &mut Decoder<'_>) -> Result<(VarId, EventId), StoreError> {
    let var = d.get_u32()?;
    if var > u32::from(u16::MAX) {
        return Err(corrupt(format!("variable id {var} out of range")));
    }
    let event = EventId(d.get_u32()?);
    Ok((VarId(var as u16), event))
}

fn decode_bindings(d: &mut Decoder<'_>) -> Result<Vec<(VarId, EventId)>, StoreError> {
    let n = checked_len(d.get_u32()?, d.remaining(), 8, "match bindings")?;
    let mut bindings = Vec::with_capacity(n);
    for _ in 0..n {
        bindings.push(decode_binding(d)?);
    }
    Ok(bindings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream() -> StreamSnapshot {
        StreamSnapshot {
            fingerprint: 0xdead_beef_cafe_f00d,
            watermark: Some(Timestamp::new(42)),
            evicted: 3,
            last_ts: Some(Timestamp::new(42)),
            events: vec![
                Event::new(
                    Timestamp::new(40),
                    vec![Value::Int(7), Value::str("A"), Value::Float(1.5)],
                ),
                Event::new(
                    Timestamp::new(42),
                    vec![
                        Value::Int(-1),
                        Value::str("commas, \"quotes\"\n"),
                        Value::Bool(true),
                    ],
                ),
            ],
            instances: vec![InstanceSnapshot {
                state: 2,
                bindings: vec![(VarId(0), EventId(3), Timestamp::new(40))],
            }],
            pending: vec![vec![(VarId(1), EventId(3)), (VarId(0), EventId(4))]],
            survivors: vec![(Timestamp::new(39), vec![(VarId(0), EventId(3))])],
            emitted: 9,
        }
    }

    fn sample_bank() -> MatcherSnapshot {
        MatcherSnapshot::Bank(BankSnapshot {
            watermark: Some(Timestamp::new(50)),
            last_ts: Some(Timestamp::new(42)),
            next_id: 23,
            ties: 2,
            emitted: 6,
            patterns: vec![
                BankPatternSnapshot {
                    name: "q-with a space, punctuation…".into(),
                    matcher: sample_stream(),
                    ids: vec![EventId(1), EventId(7), EventId(22)],
                    base: 4,
                    peak_omega: 13,
                    hits: 19,
                    skips: 4,
                },
                BankPatternSnapshot {
                    name: String::new(),
                    matcher: StreamSnapshot {
                        events: Vec::new(),
                        instances: Vec::new(),
                        pending: Vec::new(),
                        survivors: Vec::new(),
                        watermark: None,
                        last_ts: None,
                        evicted: 0,
                        emitted: 0,
                        ..sample_stream()
                    },
                    ids: Vec::new(),
                    base: 0,
                    peak_omega: 0,
                    hits: 0,
                    skips: 23,
                },
            ],
        })
    }

    /// A role tag followed by its `u32` fields, as kind 3 wrote it.
    fn role(tag: u8, fields: &[u32]) -> Vec<u8> {
        let fields = fields.iter().flat_map(|f| f.to_le_bytes());
        std::iter::once(tag).chain(fields).collect()
    }

    /// What an earlier release wrote for [`sample_bank`] in the kind-3
    /// layout, by hand: pattern `i` under `roles[i]` — with its matcher
    /// when plain, without otherwise — and then a count of `pools`
    /// shared-prefix pools.
    fn kind3(roles: [Vec<u8>; 2], pools: u32) -> Vec<u8> {
        let MatcherSnapshot::Bank(bank) = sample_bank();
        // The bank header and the pattern count are kind 2's.
        let mut bytes = encode_snapshot(&MatcherSnapshot::Bank(bank.clone()))[..48].to_vec();
        bytes[0] = 3;
        let mut e = Encoder::new();
        for (p, role) in bank.patterns.iter().zip(roles) {
            e.put_str(&p.name);
            let plain = role == [0];
            role.into_iter().for_each(|b| e.put_u8(b));
            e.put_bool(plain);
            if plain {
                encode_stream(&mut e, &p.matcher);
            }
            e.put_u32(p.ids.len() as u32);
            for id in &p.ids {
                e.put_u32(id.0);
            }
            for counter in [p.base, p.peak_omega, p.hits, p.skips] {
                e.put_u64(counter);
            }
        }
        e.put_u32(pools);
        bytes.extend(e.into_bytes());
        bytes
    }

    /// Asserts `bytes` are refused as a kind-3 bank running `what`, and
    /// returns the message.
    fn refused3(bytes: &[u8], what: Retired) -> String {
        let err = decode_snapshot(bytes).unwrap_err();
        assert!(
            matches!(err, StoreError::RetiredSnapshot { kind: 3, what: w } if w == what),
            "{err}"
        );
        err.to_string()
    }

    /// What an earlier release's bank wrote when it ran shared-prefix
    /// pools: a pattern as member of pool 0 (role tag 2 and the pool
    /// index in place of the plain tag), or a non-zero pool count in
    /// place of the closing count of 0. Either alone is refused by name
    /// — on input from outside the program, never a panic or a silent
    /// cold start.
    #[test]
    fn prefix_pool_checkpoints_are_refused_by_name() {
        for bytes in [
            kind3([role(2, &[0]), role(0, &[])], 0),
            kind3([role(0, &[]), role(0, &[])], 1),
        ] {
            let message = refused3(&bytes, Retired::PrefixPools);
            assert!(
                message.contains("a pattern bank running shared-prefix pools")
                    && message.contains("does not execute")
                    && message.contains("replay from the event log"),
                "{message}"
            );
        }
    }

    #[test]
    fn bank_snapshot_round_trips() {
        let snap = sample_bank();
        let bytes = encode_snapshot(&snap);
        assert_eq!(bytes[0], 2);
        assert_eq!(decode_snapshot(&bytes).unwrap(), snap);
    }

    /// A kind-3 payload naming no retired executor — which no release
    /// wrote — holds nothing kind 2 cannot, and reads like it.
    #[test]
    fn plain_kind3_bank_reads_like_kind2() {
        let bytes = kind3([role(0, &[]), role(0, &[])], 0);
        assert_eq!(decode_snapshot(&bytes).unwrap(), sample_bank());
    }

    #[test]
    fn kind3_truncation_and_garbage_fail_cleanly() {
        let bytes = kind3([role(0, &[]), role(0, &[])], 0);
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "prefix {cut} accepted"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_snapshot(&padded).is_err());
        // An undefined role tag is rejected. The first pattern's role
        // byte sits right after the bank header (44 bytes), the u32
        // pattern count, the u32 name length, and the name itself.
        let name_len = "q-with a space, punctuation…".len();
        let mut hostile = bytes;
        hostile[44 + 4 + 4 + name_len] = 9;
        let err = decode_snapshot(&hostile).unwrap_err();
        assert!(err.to_string().contains("role"), "{err}");
    }

    #[test]
    fn bank_truncation_and_garbage_fail_cleanly() {
        let bytes = encode_snapshot(&sample_bank());
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "prefix {cut} accepted"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_snapshot(&padded).is_err());
        // A hostile pattern count fails fast instead of allocating.
        // Bank layout: kind(1) watermark(9) last_ts(9) next_id(8)
        // ties(8) emitted(8) use_index(1) → pattern count at offset 44.
        let mut hostile = bytes;
        hostile[44..48].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_snapshot(&hostile).is_err());
    }

    /// The two bytes that outlived their options are skipped on read: a
    /// checkpoint whose writer routed without the index, or never
    /// evicted, decodes to the same snapshot.
    #[test]
    fn retired_option_bytes_are_skipped_on_read() {
        let snap = sample_bank();
        let mut bytes = encode_snapshot(&snap);
        // Bank header: the index byte closes it, at offset 43. First
        // pattern's stream: fingerprint(8) watermark(9), then the
        // eviction byte.
        let evict_at = 44 + 4 + 4 + "q-with a space, punctuation…".len() + 17;
        for at in [43, evict_at] {
            assert_eq!(bytes[at], 1);
            bytes[at] = 0;
        }
        assert_eq!(decode_snapshot(&bytes).unwrap(), snap);
    }

    #[test]
    fn hostile_nested_stream_length_fails_fast() {
        // Bank header (44) + pattern count (4) + name length (4) + name,
        // then the first pattern's stream: fingerprint(8) watermark(9)
        // evict(1) evicted(8) last_ts(9) → events count at +35.
        let mut hostile = encode_snapshot(&sample_bank());
        let at = 44 + 4 + 4 + "q-with a space, punctuation…".len() + 35;
        hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_snapshot(&hostile).is_err());
    }

    /// Kinds 0 and 1 — the single-query `stream`'s global and sharded
    /// snapshots of earlier releases — are refused by name, not as
    /// corruption, whatever follows the kind byte; so is a kind-3 bank
    /// holding a hash lane or a deduplicated pattern.
    #[test]
    fn retired_kinds_are_refused_by_name() {
        let mut global = Encoder::new();
        global.put_u8(0);
        encode_stream(&mut global, &sample_stream());
        let mut sharded = Encoder::new();
        sharded.put_u8(1);
        sharded.put_u64(0xdead_beef); // fingerprint
        sharded.put_u32(1); // key
        for (kind, bytes) in [(0, global.into_bytes()), (1, sharded.into_bytes())] {
            let err = decode_snapshot(&bytes).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::RetiredSnapshot { kind: k, what: Retired::SingleQueryStream }
                        if k == kind
                ),
                "{err}"
            );
            assert!(
                err.to_string()
                    .contains("written by a single-query `stream` of an earlier release"),
                "{err}"
            );
        }

        // What an earlier release's bank wrote for lane 0 of 1 on
        // attribute 1: role tag 3, the key, the lane and the lane count.
        let lane = kind3([role(3, &[1, 0, 1]), role(0, &[])], 0);
        let message = refused3(&lane, Retired::HashLanes);
        assert!(
            message.contains("a pattern bank running hash lanes")
                && !message.contains("shared-prefix pools"),
            "{message}"
        );

        // And for a renamed twin of pattern 0: role tag 1 and the
        // leader, no matcher of its own.
        let twin = kind3([role(0, &[]), role(1, &[0])], 0);
        let message = refused3(&twin, Retired::Deduplication);
        assert!(
            message.contains("snapshot kind 3")
                && message.contains("a pattern bank running deduplicated twins"),
            "{message}"
        );
    }

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
