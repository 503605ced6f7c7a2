//! Admission: the per-variable constant mask, taken from the predicate
//! index for a push and computed by a columnar lane pass for a scan.
//!
//! The engine decides, for every event, which variables it can bind —
//! bit *v* of its admission mask is set iff the event satisfies every
//! constant condition of `VarId(v)`. That mask is the one admission rule:
//! an event whose mask is empty is dropped before the instance loop — the
//! §4.5 filter. It is computed one of two ways, fixed by the executor:
//!
//! * **a push takes the index's mask** — [`ses_pattern::PatternIndex`]
//!   hands it over with its admission verdict as the event arrives: one
//!   typed-table probe per pinned attribute, and only the lanes a pin does
//!   not decide evaluated (`PatternBank` once for all of its patterns, a
//!   lone `StreamMatcher` through an index over its one pattern);
//! * **a scan takes the lane pass** — [`ColumnarBatch::of`], over the whole
//!   relation before the first event is consumed (`Execution`, and with it
//!   `find`, the key split and the baseline), at any length and for any
//!   number of lanes, none included.
//!
//! The lane pass evaluates each distinct constant condition — a **lane**,
//! from the analyzer-backed [`AdmissionLanes`] enumeration shared with
//! `PatternIndex` — once per event into a `u64` bit-vector (bit *i* =
//! event *i* of the relation), ANDs a variable's lane vectors word-by-word
//! into its admission-group vector, and ORs the group vectors into the
//! filter vector. The instance loop then reads one precomputed mask per
//! admitted event and never visits a dropped one.
//!
//! Lane evaluation is type-specialized: `Int`/`Bool` constants run
//! monomorphic comparison loops over the rows, with the outcomes of
//! [`Value::compare`] on every variant, while `Float` constants always
//! take the generic path — the same scanned-fallback discipline
//! `PatternIndex` applies to Float point pins. `Str` constants read the
//! relation's dictionary-coded column ([`Relation::str_column`]): compile
//! refuses a `Str` constant on any other attribute type, and a relation
//! codes every `Str` attribute. Each constant is compared with each
//! *distinct* string once, into a small table, and the lane bits are filled
//! from the codes — no row and no string is touched per event. Multiple
//! `Str`-equality lanes over one attribute (the common "seven medication
//! types on L" shape) share one table: distinct constants are mutually
//! exclusive, so each string sets at most one lane.
//!
//! Soundness: a variable's group bit equals the conjunction of exactly
//! the conditions `satisfies_var_constants` evaluates, and the filter
//! vector is the OR of the group vectors — see `docs/columnar.md` for
//! the full argument.

use ses_event::{AttrId, CmpOp, Relation, StrColumn, Value};
use ses_pattern::{AdmissionLanes, CompiledPattern, ConstLane};
use std::sync::Arc;

/// One type-specialized lane evaluator.
#[derive(Debug)]
enum Kernel {
    /// `attr ⟨op⟩ Int` — exact `i64` comparison on `Int` values, `f64`
    /// comparison on `Float` values, `false` otherwise (matching
    /// `Value::try_cmp`).
    Int { lane: usize, op: CmpOp, rhs: i64 },
    /// `attr ⟨op⟩ Str` — `Str` values compare lexicographically, every
    /// other variant is incomparable (`as_f64` is `None` for strings).
    /// Read from the attribute's code column.
    Str {
        lane: usize,
        op: CmpOp,
        rhs: Arc<str>,
    },
    /// `attr ⟨op⟩ Bool` — `Bool` values compare, everything else is
    /// incomparable.
    Bool { lane: usize, op: CmpOp, rhs: bool },
    /// Generic fallback via [`Value::compare`]. All `Float` constants
    /// land here — the scanned-fallback discipline `PatternIndex`
    /// applies to Float point pins.
    Generic { lane: usize, op: CmpOp, rhs: Value },
    /// ≥ 2 `Str`-equality lanes over one attribute, read from its code
    /// column through one table: distinct constants are mutually
    /// exclusive, so each distinct string sets at most one lane.
    StrEqSet { lanes: Vec<(usize, Arc<str>)> },
}

/// A compiled columnar evaluation plan for one pattern: its distinct
/// constant-condition lanes (shared derivation with `PatternIndex`),
/// type-specialized kernels, and the lane composition of each variable
/// group.
#[derive(Debug)]
struct ColumnarPlan {
    /// Kernels grouped per attribute read; order is irrelevant (each
    /// kernel owns its lane bits exclusively).
    kernels: Vec<(AttrId, Kernel)>,
    /// Lane ids per positive variable, in `VarId` order. Empty list =
    /// unconstrained variable (admitted everywhere).
    var_groups: Vec<Vec<usize>>,
    num_lanes: usize,
}

impl ColumnarPlan {
    fn new(cp: &CompiledPattern) -> ColumnarPlan {
        let lanes = AdmissionLanes::of(cp);
        let var_groups: Vec<Vec<usize>> = (0..lanes.num_vars())
            .map(|v| lanes.var_group(ses_pattern::VarId(v as u16)).lanes.clone())
            .collect();

        // Collect Str-equality lanes per attribute for the shared pass;
        // everything else gets an individual kernel.
        let mut kernels: Vec<(AttrId, Kernel)> = Vec::new();
        // Lane indices paired with their string constants, keyed by attribute.
        type StrEqLanes = Vec<(usize, Arc<str>)>;
        let mut str_eq: Vec<(AttrId, StrEqLanes)> = Vec::new();
        for (i, lane) in lanes.lanes().iter().enumerate() {
            if lane.op == CmpOp::Eq {
                if let Value::Str(s) = &lane.value {
                    match str_eq.iter_mut().find(|(a, _)| *a == lane.attr) {
                        Some((_, set)) => set.push((i, s.clone())),
                        None => str_eq.push((lane.attr, vec![(i, s.clone())])),
                    }
                    continue;
                }
            }
            kernels.push((lane.attr, scalar_kernel(i, lane)));
        }
        for (attr, set) in str_eq {
            if set.len() == 1 {
                let (lane, rhs) = set.into_iter().next().unwrap();
                kernels.push((
                    attr,
                    Kernel::Str {
                        lane,
                        op: CmpOp::Eq,
                        rhs,
                    },
                ));
            } else {
                kernels.push((attr, Kernel::StrEqSet { lanes: set }));
            }
        }

        ColumnarPlan {
            kernels,
            var_groups,
            num_lanes: lanes.lanes().len(),
        }
    }

    /// Evaluates the plan over every event `relation` retains, batch
    /// position `i` being [`Relation::events`]`()[i]`.
    fn evaluate(&self, relation: &Relation) -> ColumnarBatch {
        let events = relation.events();
        let len = events.len();
        let words = len.div_ceil(64);
        let num_vars = self.var_groups.len();
        let mut lane_bits = vec![0u64; self.num_lanes * words];

        // Lane pass: one type-specialized sweep per kernel.
        for (attr, kernel) in &self.kernels {
            let attr = *attr;
            match kernel {
                Kernel::Int { lane, op, rhs } => {
                    let bits = lane_mut(&mut lane_bits, *lane, words);
                    for (i, event) in events.iter().enumerate() {
                        let hit = match event.value(attr) {
                            Value::Int(x) => op.eval(x.cmp(rhs)),
                            Value::Float(f) => f
                                .partial_cmp(&(*rhs as f64))
                                .is_some_and(|ord| op.eval(ord)),
                            _ => false,
                        };
                        bits[i / 64] |= (hit as u64) << (i % 64);
                    }
                }
                Kernel::Str { lane, op, rhs } => {
                    let bits = lane_mut(&mut lane_bits, *lane, words);
                    let column = str_column(relation, attr);
                    // `NOT_STR` indexes past every table: incomparable.
                    let table: Vec<bool> = column
                        .dict()
                        .iter()
                        .map(|s| op.eval(s.as_ref().cmp(rhs.as_ref())))
                        .collect();
                    for (i, &code) in column.codes().iter().enumerate() {
                        let hit = table.get(code as usize).copied().unwrap_or(false);
                        bits[i / 64] |= (hit as u64) << (i % 64);
                    }
                }
                Kernel::Bool { lane, op, rhs } => {
                    let bits = lane_mut(&mut lane_bits, *lane, words);
                    for (i, event) in events.iter().enumerate() {
                        let hit = match event.value(attr) {
                            Value::Bool(b) => op.eval(b.cmp(rhs)),
                            _ => false,
                        };
                        bits[i / 64] |= (hit as u64) << (i % 64);
                    }
                }
                Kernel::Generic { lane, op, rhs } => {
                    let bits = lane_mut(&mut lane_bits, *lane, words);
                    for (i, event) in events.iter().enumerate() {
                        let hit = event.value(attr).compare(*op, rhs);
                        bits[i / 64] |= (hit as u64) << (i % 64);
                    }
                }
                Kernel::StrEqSet { lanes } => {
                    let column = str_column(relation, attr);
                    // The lane each distinct string sets, if any.
                    let table: Vec<Option<usize>> = column
                        .dict()
                        .iter()
                        .map(|s| {
                            lanes
                                .iter()
                                .find(|(_, rhs)| rhs == s)
                                .map(|(lane, _)| *lane)
                        })
                        .collect();
                    for (i, &code) in column.codes().iter().enumerate() {
                        if let Some(Some(lane)) = table.get(code as usize) {
                            lane_bits[lane * words + i / 64] |= 1u64 << (i % 64);
                        }
                    }
                }
            }
        }

        // Group pass: AND a variable's lanes word-by-word; a variable
        // with no lanes is unconstrained — all-ones.
        let mut group_bits = vec![0u64; num_vars * words];
        for (v, group) in self.var_groups.iter().enumerate() {
            let base = v * words;
            match group.split_first() {
                None => group_bits[base..base + words].fill(!0u64),
                Some((&first, rest)) => {
                    for w in 0..words {
                        let mut acc = lane_bits[first * words + w];
                        for &l in rest {
                            acc &= lane_bits[l * words + w];
                        }
                        group_bits[base + w] = acc;
                    }
                }
            }
        }

        // Filter pass: an event passes iff some variable admits it.
        let mut filter_bits = vec![0u64; words];
        for group in group_bits.chunks_exact(words.max(1)) {
            for (f, g) in filter_bits.iter_mut().zip(group) {
                *f |= g;
            }
        }
        ColumnarBatch {
            len,
            words,
            group_bits,
            filter_bits,
            num_vars,
        }
    }
}

/// The individual (non-shared) kernel for one lane.
fn scalar_kernel(lane: usize, l: &ConstLane) -> Kernel {
    match &l.value {
        Value::Int(rhs) => Kernel::Int {
            lane,
            op: l.op,
            rhs: *rhs,
        },
        Value::Str(rhs) => Kernel::Str {
            lane,
            op: l.op,
            rhs: rhs.clone(),
        },
        Value::Bool(rhs) => Kernel::Bool {
            lane,
            op: l.op,
            rhs: *rhs,
        },
        // Float constants always take the generic compare — the same
        // scanned fallback PatternIndex uses for Float point pins.
        Value::Float(_) => Kernel::Generic {
            lane,
            op: l.op,
            rhs: l.value.clone(),
        },
    }
}

fn lane_mut(lane_bits: &mut [u64], lane: usize, words: usize) -> &mut [u64] {
    &mut lane_bits[lane * words..(lane + 1) * words]
}

/// The code column a `Str` kernel reads. Compile refuses a `Str` constant
/// on any other attribute type, and a relation codes every `Str`
/// attribute, so a missing column is a broken relation, not a fallback.
fn str_column(relation: &Relation, attr: AttrId) -> &StrColumn {
    relation
        .str_column(attr)
        .expect("a Str constant tests a Str attribute, and a relation codes those")
}

/// The admission verdicts a scan takes: the lane pass's bit-vectors over
/// every event of one relation, evaluated before the first event is
/// consumed. Addresses events by scan position — position `i` is the
/// relation's `i`-th retained event.
#[derive(Debug)]
pub(crate) struct ColumnarBatch {
    len: usize,
    words: usize,
    /// Variable-group bit-vectors (AND of the group's lanes):
    /// `group_bits[v*words + i/64]` bit `i%64` = variable `v` admits
    /// event `i`.
    group_bits: Vec<u64>,
    /// Filter verdicts: the OR of the group vectors.
    filter_bits: Vec<u64>,
    num_vars: usize,
}

impl ColumnarBatch {
    /// The lane pass of `pattern`'s constant conditions over `relation`.
    pub(crate) fn of(pattern: &CompiledPattern, relation: &Relation) -> ColumnarBatch {
        ColumnarPlan::new(pattern).evaluate(relation)
    }

    /// Number of events in the evaluated relation.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The admission mask of event `i`: its bit of every variable's group
    /// vector gathered into a mask — here, per event asked about, so that
    /// a relation whose events are mostly dropped never pays for their
    /// masks.
    pub(crate) fn admission(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let (word, bit) = (i / 64, i % 64);
        (0..self.num_vars).fold(0u64, |mask, v| {
            mask | (self.group_bits[v * self.words + word] >> bit & 1) << v
        })
    }

    /// The first position at or after `from` whose event the filter
    /// keeps, or the relation's length when it keeps none of the rest — the
    /// next set bit of the filter vector.
    pub(crate) fn next_passing(&self, from: usize) -> usize {
        if from >= self.len {
            return self.len;
        }
        let mut word = from / 64;
        let mut bits = self.filter_bits[word] & (!0u64 << (from % 64));
        while bits == 0 {
            word += 1;
            if word == self.words {
                return self.len;
            }
            bits = self.filter_bits[word];
        }
        // An unconstrained variable's all-ones group reaches past the
        // relation in the last word.
        (word * 64 + bits.trailing_zeros() as usize).min(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_event::{AttrType, Event, Relation, Schema, Timestamp};
    use ses_pattern::{Pattern, VarId};

    fn schema() -> Schema {
        Schema::builder()
            .attr("L", AttrType::Str)
            .attr("ID", AttrType::Int)
            .build()
            .unwrap()
    }

    fn rel(rows: &[(i64, &str, i64)]) -> Relation {
        let mut r = Relation::new(schema());
        for (ts, l, id) in rows {
            r.push_values(Timestamp::new(*ts), [Value::from(*l), Value::from(*id)])
                .unwrap();
        }
        r
    }

    /// The lane pass must agree with the scalar reference
    /// (`satisfies_var_constants` per variable) on every event, its
    /// filter bits with "the mask is not empty" — and with the mask a
    /// push takes from the predicate index.
    fn assert_matches_scalar(cp: &CompiledPattern, relation: &Relation) {
        let batch = ColumnarBatch::of(cp, relation);
        let n = relation.len();
        assert_eq!(batch.len(), n);
        let passing: Vec<usize> = (0..n).filter(|&i| batch.admission(i) != 0).collect();
        let mut walked = Vec::new();
        let mut at = batch.next_passing(0);
        while at < n {
            walked.push(at);
            at = batch.next_passing(at + 1);
        }
        assert_eq!(walked, passing, "set-bit walk");
        let index = ses_pattern::PatternIndex::build([cp]);
        let mut admitted = Vec::new();
        for i in 0..n {
            let event = relation.event(ses_event::EventId::from(i));
            let mask = batch.admission(i);
            for v in 0..cp.pattern().num_vars() {
                let scalar = cp.satisfies_var_constants(VarId(v as u16), event);
                let bit = mask >> v & 1 != 0;
                assert_eq!(bit, scalar, "var {v} bit diverges at event {i}");
            }
            index.admitted_into(event, &mut admitted);
            let pushed = admitted.first().map_or(0, |&(_, m)| m);
            assert_eq!(pushed, mask, "push and scan masks diverge at event {i}");
        }
    }

    fn two_var_pattern() -> CompiledPattern {
        Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("a", "ID", CmpOp::Gt, 3)
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(ses_event::Duration::ticks(100))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap()
    }

    #[test]
    fn agrees_with_scalar_on_mixed_batch() {
        let cp = two_var_pattern();
        let rows: Vec<(i64, &str, i64)> = (0..40)
            .map(|i| {
                (
                    i,
                    ["A", "B", "X", "A"][i as usize % 4],
                    (i % 7) - 1, // exercises ID > 3 both ways
                )
            })
            .collect();
        assert_matches_scalar(&cp, &rel(&rows));
    }

    #[test]
    fn word_boundary_batches_63_64_65_128_129() {
        let cp = two_var_pattern();
        for n in [63i64, 64, 65, 128, 129] {
            let rows: Vec<(i64, &str, i64)> = (0..n)
                .map(|i| (i, if i % 3 == 0 { "A" } else { "B" }, i % 9))
                .collect();
            let r = rel(&rows);
            assert_eq!(r.len() as i64, n);
            assert_matches_scalar(&cp, &r);
        }
    }

    #[test]
    fn empty_batch_evaluates_cleanly() {
        let batch = ColumnarBatch::of(&two_var_pattern(), &rel(&[]));
        assert_eq!(batch.len(), 0);
        assert_eq!(batch.next_passing(0), 0);
    }

    #[test]
    fn sixty_five_lanes_span_group_words() {
        // 33 variables × 2 conditions each = 66 distinct lanes: the
        // lane count itself crosses 64 while every group stays a small
        // conjunction. Bits must still agree with the scalar oracle.
        let mut b = Pattern::builder().set(|s| {
            let mut s = s;
            for i in 0..33 {
                s = s.var(format!("v{i}"));
            }
            s
        });
        for i in 0..33 {
            // Ne conditions are almost always true → they don't starve
            // the batch, but each (attr, op, value) stays distinct.
            b = b.cond_const(format!("v{i}"), "L", CmpOp::Ne, format!("zz{i}"));
            b = b.cond_const(format!("v{i}"), "ID", CmpOp::Ne, 1000 + i as i64);
        }
        let cp = b
            .within(ses_event::Duration::ticks(1000))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let plan = ColumnarPlan::new(&cp);
        assert_eq!(plan.num_lanes, 66);
        let rows: Vec<(i64, &str, i64)> = (0..70)
            .map(|i| (i, if i == 5 { "zz3" } else { "ok" }, 1000 + (i % 40)))
            .collect();
        assert_matches_scalar(&cp, &rel(&rows));
    }

    #[test]
    fn float_lanes_take_the_generic_kernel() {
        let fschema = Schema::builder()
            .attr("L", AttrType::Str)
            .attr("V", AttrType::Float)
            .build()
            .unwrap();
        let cp = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "V", CmpOp::Eq, 0.0)
            .cond_const("b", "V", CmpOp::Gt, 2.5)
            .within(ses_event::Duration::ticks(100))
            .build()
            .unwrap()
            .compile(&fschema)
            .unwrap();
        let plan = ColumnarPlan::new(&cp);
        assert!(plan
            .kernels
            .iter()
            .all(|(_, k)| matches!(k, Kernel::Generic { .. })));
        let mut r = Relation::new(fschema);
        // -0.0 must satisfy V = 0.0 exactly as the scalar compare does.
        for (ts, v) in [(0i64, 0.0f64), (1, -0.0), (2, 3.5), (3, 1.0)] {
            r.push_values(Timestamp::new(ts), [Value::from("E"), Value::from(v)])
                .unwrap();
        }
        let batch = plan.evaluate(&r);
        assert_eq!(batch.admission(0), 0b01);
        assert_eq!(batch.admission(1), 0b01, "-0.0 == 0.0");
        assert_eq!(batch.admission(2), 0b10);
        assert_eq!(batch.admission(3), 0b00);
    }

    #[test]
    fn str_eq_lanes_share_one_pass() {
        let mut b = Pattern::builder().set(|s| {
            let mut s = s;
            for i in 0..7 {
                s = s.var(format!("m{i}"));
            }
            s
        });
        for (i, l) in ["C", "D", "P", "V", "R", "L", "B"].iter().enumerate() {
            b = b.cond_const(format!("m{i}"), "L", CmpOp::Eq, *l);
        }
        let cp = b
            .within(ses_event::Duration::ticks(1000))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let plan = ColumnarPlan::new(&cp);
        assert!(plan
            .kernels
            .iter()
            .any(|(_, k)| matches!(k, Kernel::StrEqSet { lanes } if lanes.len() == 7)));
        let rows: Vec<(i64, &str, i64)> = (0..30)
            .map(|i| (i, ["C", "D", "X", "B", "R"][i as usize % 5], i))
            .collect();
        assert_matches_scalar(&cp, &rel(&rows));
    }

    #[test]
    fn every_operator_on_a_str_constant_reads_the_table() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let cp = Pattern::builder()
                .set(|s| s.var("a").var("b"))
                .cond_const("a", "L", op, "M")
                .cond_const("b", "L", CmpOp::Eq, "Z")
                .within(ses_event::Duration::ticks(100))
                .build()
                .unwrap()
                .compile(&schema())
                .unwrap();
            let rows: Vec<(i64, &str, i64)> = (0..70)
                .map(|i| (i, ["A", "M", "Z", "", "Ma", "M"][i as usize % 6], i))
                .collect();
            assert_matches_scalar(&cp, &rel(&rows));
        }
    }

    #[test]
    fn a_non_str_value_in_a_str_attribute_is_never_admitted() {
        // Only the unchecked `push_event` lets one in. `L ≠ 'A'` is the
        // operator a careless table would get wrong.
        let cp = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Ne, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(ses_event::Duration::ticks(100))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let mut r = Relation::new(schema());
        for i in 0..20i64 {
            let l = match i % 3 {
                0 => Value::from("A"),
                1 => Value::from("B"),
                _ => Value::from(i),
            };
            r.push_event(Event::new(Timestamp::new(i), vec![l, Value::from(i)]))
                .unwrap();
        }
        assert_matches_scalar(&cp, &r);
        let batch = ColumnarBatch::of(&cp, &r);
        assert_eq!(batch.admission(2), 0, "an Int under L binds nothing");
    }

    #[test]
    fn a_variable_without_constants_admits_every_event() {
        // `free`'s group is all-ones: no event is dropped, and the
        // set-bit walk stops at the batch's end, not the word's.
        let cp = Pattern::builder()
            .set(|s| s.var("a").var("free"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .within(ses_event::Duration::ticks(100))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let r = rel(&(0..20)
            .map(|i| (i, ["A", "Z"][i as usize % 2], i))
            .collect::<Vec<_>>());
        assert_matches_scalar(&cp, &r);
        let batch = ColumnarBatch::of(&cp, &r);
        assert_eq!((0..20).map(|i| batch.admission(i)).min(), Some(0b10));
        assert_eq!(batch.next_passing(20), 20);
    }

    #[test]
    fn a_plan_without_lanes_admits_every_position() {
        // No constant condition at all: the scan still takes the lane
        // pass, which has no lane to run and admits every event to every
        // variable — the mask a push takes for each of them.
        let cp = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .set(|s| s.var("c"))
            .within(ses_event::Duration::ticks(100))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let plan = ColumnarPlan::new(&cp);
        assert_eq!(plan.num_lanes, 0);
        assert!(plan.kernels.is_empty());
        for n in [0i64, 1, 15, 16, 63, 64, 65, 130] {
            let r = rel(&(0..n)
                .map(|i| (i, ["A", "B", "C"][i as usize % 3], i))
                .collect::<Vec<_>>());
            let batch = plan.evaluate(&r);
            let all = (1u64 << cp.pattern().num_vars()) - 1;
            for i in 0..n as usize {
                assert_eq!(batch.admission(i), all, "event {i} of {n}");
                assert_eq!(batch.next_passing(i), i, "event {i} of {n}");
            }
            assert_eq!(batch.next_passing(n as usize), n as usize);
            assert_matches_scalar(&cp, &r);
        }
    }
}
