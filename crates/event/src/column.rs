//! Dictionary-coded projections of a relation's `Str` attributes.
//!
//! A relation stores rows: `Event → Arc<[Value]> → Arc<str>`, two
//! dependent loads before the first byte of a string. A scan that tests a
//! `Str` attribute against constants on every event — the §4.5 pre-filter
//! — pays that chase per event although the attribute holds a handful of
//! distinct strings. A [`StrColumn`] is that attribute laid out for the
//! scan: the distinct strings once, and one `u32` code per retained
//! event. A constant condition is then evaluated once per *distinct
//! string* and looked up per event.
//!
//! Columns are a cache of the rows, never a second source of truth:
//! [`crate::Relation`] builds one on first use and drops it whenever its
//! events change. They do not deduplicate the rows themselves — every
//! [`Value::Str`] keeps its own allocation.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::{AttrId, Event, Value};

/// One `Str` attribute of a relation's retained events, dictionary-coded.
#[derive(Debug, Clone)]
pub struct StrColumn {
    /// The distinct strings, in order of first occurrence.
    dict: Vec<Arc<str>>,
    /// `codes[i]` indexes `dict` for retained event `i` (position, not
    /// id), or is [`StrColumn::NOT_STR`].
    codes: Vec<u32>,
}

impl StrColumn {
    /// The code of an event whose value is not a `Str` — possible only
    /// through the unchecked [`crate::Relation::push_event`]. Such a value
    /// is incomparable with every string constant
    /// ([`Value::compare`] is `false` for all six operators), so no
    /// dictionary entry stands for it.
    pub const NOT_STR: u32 = u32::MAX;

    /// Projects attribute `attr` of `events`.
    pub(crate) fn build(events: &[Event], attr: AttrId) -> StrColumn {
        let mut index: HashMap<&str, u32, BuildBytesHasher> = HashMap::default();
        let mut dict: Vec<Arc<str>> = Vec::new();
        let mut codes = Vec::with_capacity(events.len());
        for event in events {
            codes.push(match event.value(attr) {
                Value::Str(s) => *index.entry(s).or_insert_with(|| {
                    dict.push(Arc::clone(s));
                    (dict.len() - 1) as u32
                }),
                _ => StrColumn::NOT_STR,
            });
        }
        StrColumn { dict, codes }
    }

    /// The distinct strings; a code below [`StrColumn::NOT_STR`] indexes
    /// this slice.
    pub fn dict(&self) -> &[Arc<str>] {
        &self.dict
    }

    /// One code per retained event, in chronological order.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }
}

/// Hasher of the dictionary build and of `ses-pattern`'s predicate index:
/// the rotate-xor-multiply step of `ses-core`'s adjudication maps, fed the
/// key's bytes a word at a time. Both hash one short key per event, and
/// SipHash's keyed rounds were a fifth of the dictionary build.
///
/// It gives up `std`'s protection against crafted collisions. The
/// dictionary's keys are input, which exposes the first scan of a relation
/// the caller already loaded whole; the paths that take events from a peer
/// (streams, the bank, the server) never build a dictionary. The index's
/// keys are the patterns' constants, so an event only probes a table it
/// cannot grow.
#[derive(Debug, Default, Clone, Copy)]
pub struct BytesHasher(u64);

/// [`BytesHasher`] as a `HashMap`'s hasher parameter.
pub type BuildBytesHasher = BuildHasherDefault<BytesHasher>;

impl BytesHasher {
    fn mix(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for BytesHasher {
    fn finish(&self) -> u64 {
        // A product's low bits see only its factors' low bits, and the
        // table takes its bucket from the low bits: bring the well-mixed
        // high half down.
        self.0.rotate_left(26)
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(
                word.try_into().expect("chunks_exact(8) yields 8 bytes"),
            ));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // The length keeps "a" and "a\0" apart.
            self.mix(u64::from_le_bytes(word) ^ (rest.len() as u64) << 56);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Timestamp;
    use std::hash::Hash;

    fn events(labels: &[&str]) -> Vec<Event> {
        labels
            .iter()
            .enumerate()
            .map(|(i, l)| Event::new(Timestamp::new(i as i64), vec![Value::from(*l)]))
            .collect()
    }

    #[test]
    fn codes_index_the_dictionary_in_first_occurrence_order() {
        let col = StrColumn::build(&events(&["A", "B", "A", "", "B"]), AttrId(0));
        assert_eq!(col.codes(), &[0, 1, 0, 2, 1]);
        let dict: Vec<&str> = col.dict().iter().map(|s| s.as_ref()).collect();
        assert_eq!(dict, ["A", "B", ""]);
    }

    #[test]
    fn a_non_str_value_gets_no_dictionary_entry() {
        let mut evs = events(&["A"]);
        evs.push(Event::new(Timestamp::new(1), vec![Value::from(7)]));
        let col = StrColumn::build(&evs, AttrId(0));
        assert_eq!(col.codes(), &[0, StrColumn::NOT_STR]);
        assert_eq!(col.dict().len(), 1);
    }

    #[test]
    fn hasher_separates_prefixes_and_padding() {
        let hash = |s: &str| {
            let mut h = BytesHasher::default();
            s.hash(&mut h);
            h.finish()
        };
        let keys = ["", "a", "a\0", "aaaaaaaa", "aaaaaaaa\0", "aaaaaaaaa", "b"];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(hash(a), hash(b), "{a:?} vs {b:?}");
            }
        }
    }
}
