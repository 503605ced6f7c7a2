//! Columnar admission: batch pre-evaluation of constant conditions into
//! per-variable bitmask vectors.
//!
//! The scalar hot path decides, for every event, which variables it can
//! bind (`satisfies_var_constants`, one typed value comparison per
//! constant condition). That mask is the one admission rule: an event
//! whose mask is empty is dropped before the instance loop — the §4.5
//! filter. The decision depends only on the event's own attributes, so
//! over a batch of events it factors into a *columnar* pass: evaluate
//! each distinct constant condition — a **lane**, from the
//! analyzer-backed [`AdmissionLanes`] enumeration shared with
//! `PatternIndex` — once per event into a `u64` bit-vector (bit *i* =
//! event *i* of the batch), AND a variable's lane vectors word-by-word
//! into its admission-group vector, and OR the group vectors into the
//! filter vector. The instance loop then reads one precomputed mask per
//! event instead of re-running value comparisons per condition.
//!
//! Lane evaluation is type-specialized: `Int`/`Str`/`Bool` constants
//! run monomorphic comparison loops (falling back to the generic
//! [`Value::compare`] on a variant mismatch so outcomes stay identical
//! bit-for-bit), while `Float` constants always take the generic path —
//! the same scanned-fallback discipline `PatternIndex` applies to Float
//! point pins. Multiple `Str`-equality lanes over one attribute (the
//! common "seven medication types on L" shape) share a single pass:
//! distinct constants are mutually exclusive, so the first hit wins.
//!
//! A source at rest offers its `Str` attributes dictionary-coded
//! ([`ses_event::EventSource::str_codes`]). The `Str` kernels then
//! compare each constant with each *distinct* string once, into a small
//! table, and fill their lane bits from the code column — no row and no
//! string is touched per event. Which of the three ways an execution
//! admitted its events is its [`AdmissionArm`].
//!
//! Soundness: a variable's group bit equals the conjunction of exactly
//! the conditions `satisfies_var_constants` evaluates, and the filter
//! vector is the OR of the group vectors — see `docs/columnar.md` for
//! the full argument.

use ses_event::{AttrId, CmpOp, Event, StrCodes, Value};
use ses_pattern::{AdmissionLanes, CompiledPattern, ConstLane};
use std::fmt;
use std::sync::Arc;

/// Batches below this length are admitted per event: the lane pass
/// cannot amortize over a handful of events.
pub(crate) const COLUMNAR_AUTO_MIN_BATCH: usize = 16;

/// The one admission decision: `true` iff a batch of `batch_len` events
/// is admitted through the columnar lane pass rather than per event,
/// given the pattern's constant-lane count (e.g.
/// `AdmissionLanes::of(..).lanes().len()`). Columnar pays off when there
/// are constant conditions to pre-evaluate and enough events to amortize
/// the plan; both arms yield the same admission mask for every event
/// (`tests/columnar_vs_scalar.rs`).
pub fn runs_columnar(num_lanes: usize, batch_len: usize) -> bool {
    num_lanes > 0 && batch_len >= COLUMNAR_AUTO_MIN_BATCH
}

/// How an execution admits its events — which arm of the one rule
/// ([`runs_columnar`]) it took, and for the columnar arm what the lane
/// pass read. Every arm hands the engine the same verdicts
/// (`tests/columnar_vs_scalar.rs`); the arm is reported so that a silent
/// fall from one to another shows somewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionArm {
    /// One typed comparison per constant condition as each event is
    /// consumed: batches below the rule's threshold, patterns without
    /// constant conditions, every streaming `push`.
    PerEvent,
    /// The lane pass, every lane reading the events' rows: micro-batches,
    /// and relations whose constant-tested attributes are not `Str`.
    Rows,
    /// The lane pass with at least one `Str` lane filled from the
    /// source's dictionary-coded column; the other lanes read rows.
    Columns,
}

impl fmt::Display for AdmissionArm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AdmissionArm::PerEvent => "per-event",
            AdmissionArm::Rows => "rows",
            AdmissionArm::Columns => "columns",
        })
    }
}

/// The per-event arm of admission: bit *v* set iff `event` satisfies
/// every constant condition of `VarId(v)`, by one typed comparison per
/// constant condition. An event whose mask is `0` binds nothing and is
/// dropped before the instance loop (§4.5); a variable without constant
/// conditions sets its bit for every event, so then nothing is dropped.
/// Computing the mask once per event amortizes every constant-condition
/// evaluation over all simultaneous instances.
pub(crate) fn var_mask(pattern: &CompiledPattern, event: &Event) -> u64 {
    (0..pattern.pattern().num_vars()).fold(0u64, |mask, v| {
        let ok = pattern.satisfies_var_constants(ses_pattern::VarId(v as u16), event);
        mask | (ok as u64) << v
    })
}

/// One type-specialized lane evaluator.
#[derive(Debug, Clone)]
enum Kernel {
    /// `attr ⟨op⟩ Int` — exact `i64` comparison on `Int` values, `f64`
    /// comparison on `Float` values, `false` otherwise (matching
    /// `Value::try_cmp`).
    Int { lane: usize, op: CmpOp, rhs: i64 },
    /// `attr ⟨op⟩ Str` — `Str` values compare lexicographically, every
    /// other variant is incomparable (`as_f64` is `None` for strings).
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
    /// ≥ 2 `Str`-equality lanes over one attribute, evaluated in a
    /// single pass: distinct constants are mutually exclusive, so the
    /// first match sets its lane bit and ends the scan.
    StrEqSet { lanes: Vec<(usize, Arc<str>)> },
}

/// A compiled columnar evaluation plan for one pattern: its distinct
/// constant-condition lanes (shared derivation with `PatternIndex`),
/// type-specialized kernels, and the lane composition of each variable
/// group.
#[derive(Debug, Clone)]
pub(crate) struct ColumnarPlan {
    /// Kernels grouped per attribute read; order is irrelevant (each
    /// kernel owns its lane bits exclusively).
    kernels: Vec<(ses_event::AttrId, Kernel)>,
    /// Lane ids per positive variable, in `VarId` order. Empty list =
    /// unconstrained variable (admitted everywhere).
    var_groups: Vec<Vec<usize>>,
    num_lanes: usize,
}

impl ColumnarPlan {
    pub(crate) fn new(cp: &CompiledPattern) -> ColumnarPlan {
        let lanes = AdmissionLanes::of(cp);
        let var_groups: Vec<Vec<usize>> = (0..lanes.num_vars())
            .map(|v| lanes.var_group(ses_pattern::VarId(v as u16)).lanes.clone())
            .collect();

        // Collect Str-equality lanes per attribute for the shared pass;
        // everything else gets an individual kernel.
        let mut kernels: Vec<(ses_event::AttrId, Kernel)> = Vec::new();
        // Lane indices paired with their string constants, keyed by attribute.
        type StrEqLanes = Vec<(usize, Arc<str>)>;
        let mut str_eq: Vec<(ses_event::AttrId, StrEqLanes)> = Vec::new();
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

    /// Number of distinct constant-condition lanes.
    pub(crate) fn num_lanes(&self) -> usize {
        self.num_lanes
    }

    /// Evaluates the plan over a batch of `len` events into `out`, whose
    /// buffers are reused across calls. `get` fetches a row by 0-based
    /// batch position; `codes` offers an attribute's dictionary-coded
    /// column over the same positions, or `None` — always `None` for a
    /// micro-batch, which has no column and is not worth one.
    pub(crate) fn evaluate<'e>(
        &self,
        len: usize,
        get: impl Fn(usize) -> &'e Event,
        codes: impl Fn(AttrId) -> Option<StrCodes<'e>>,
        out: &mut ColumnarBatch,
    ) {
        let words = len.div_ceil(64);
        out.len = len;
        out.words = words;
        out.lane_bits.clear();
        out.lane_bits.resize(self.num_lanes * words, 0);
        out.from_columns = false;
        let num_vars = self.var_groups.len();
        out.num_vars = num_vars;

        // Lane pass: one type-specialized sweep per kernel.
        for (attr, kernel) in &self.kernels {
            let attr = *attr;
            match kernel {
                Kernel::Int { lane, op, rhs } => {
                    let bits = lane_mut(&mut out.lane_bits, *lane, words);
                    for i in 0..len {
                        let hit = match get(i).value(attr) {
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
                    let bits = lane_mut(&mut out.lane_bits, *lane, words);
                    if let Some(codes) = codes(attr) {
                        // `NOT_STR` indexes past every table: incomparable.
                        let table: Vec<bool> = codes
                            .dict()
                            .iter()
                            .map(|s| op.eval(s.as_ref().cmp(rhs.as_ref())))
                            .collect();
                        codes.for_each(|i, code| {
                            let hit = table.get(code as usize).copied().unwrap_or(false);
                            bits[i / 64] |= (hit as u64) << (i % 64);
                        });
                        out.from_columns = true;
                        continue;
                    }
                    for i in 0..len {
                        let hit = match get(i).value(attr) {
                            Value::Str(s) => op.eval(s.as_ref().cmp(rhs.as_ref())),
                            _ => false,
                        };
                        bits[i / 64] |= (hit as u64) << (i % 64);
                    }
                }
                Kernel::Bool { lane, op, rhs } => {
                    let bits = lane_mut(&mut out.lane_bits, *lane, words);
                    for i in 0..len {
                        let hit = match get(i).value(attr) {
                            Value::Bool(b) => op.eval(b.cmp(rhs)),
                            _ => false,
                        };
                        bits[i / 64] |= (hit as u64) << (i % 64);
                    }
                }
                Kernel::Generic { lane, op, rhs } => {
                    let bits = lane_mut(&mut out.lane_bits, *lane, words);
                    for i in 0..len {
                        let hit = get(i).value(attr).compare(*op, rhs);
                        bits[i / 64] |= (hit as u64) << (i % 64);
                    }
                }
                Kernel::StrEqSet { lanes } => {
                    if let Some(codes) = codes(attr) {
                        // The lane each distinct string sets, if any.
                        let table: Vec<Option<usize>> = codes
                            .dict()
                            .iter()
                            .map(|s| {
                                lanes
                                    .iter()
                                    .find(|(_, rhs)| rhs == s)
                                    .map(|(lane, _)| *lane)
                            })
                            .collect();
                        codes.for_each(|i, code| {
                            if let Some(Some(lane)) = table.get(code as usize) {
                                out.lane_bits[lane * words + i / 64] |= 1u64 << (i % 64);
                            }
                        });
                        out.from_columns = true;
                        continue;
                    }
                    for i in 0..len {
                        if let Value::Str(s) = get(i).value(attr) {
                            for (lane, rhs) in lanes {
                                if s.as_ref() == rhs.as_ref() {
                                    out.lane_bits[lane * words + i / 64] |= 1u64 << (i % 64);
                                    break; // distinct constants: at most one hits
                                }
                            }
                        }
                    }
                }
            }
        }

        // Group pass: AND a variable's lanes word-by-word; a variable
        // with no lanes is unconstrained — all-ones.
        out.group_bits.clear();
        out.group_bits.resize(num_vars * words, 0);
        for (v, group) in self.var_groups.iter().enumerate() {
            let base = v * words;
            match group.split_first() {
                None => out.group_bits[base..base + words].fill(!0u64),
                Some((&first, rest)) => {
                    for w in 0..words {
                        let mut acc = out.lane_bits[first * words + w];
                        for &l in rest {
                            acc &= out.lane_bits[l * words + w];
                        }
                        out.group_bits[base + w] = acc;
                    }
                }
            }
        }

        // Filter pass: an event passes iff some variable admits it.
        out.filter_bits.clear();
        out.filter_bits.resize(words, 0);
        for group in out.group_bits.chunks_exact(words.max(1)) {
            for (f, g) in out.filter_bits.iter_mut().zip(group) {
                *f |= g;
            }
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

/// The evaluated admission bit-vectors for one batch. All buffers are
/// pooled: `evaluate` clears and refills them, so steady-state batch
/// evaluation allocates nothing once capacities plateau.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnarBatch {
    len: usize,
    words: usize,
    /// Lane-major bit-vectors: `lane_bits[l*words + i/64]` bit `i%64` =
    /// lane `l` holds on batch event `i`.
    lane_bits: Vec<u64>,
    /// Variable-group bit-vectors (AND of the group's lanes).
    group_bits: Vec<u64>,
    /// Filter verdicts: the OR of the group vectors.
    filter_bits: Vec<u64>,
    num_vars: usize,
    /// Some lane was filled from a dictionary-coded column.
    from_columns: bool,
}

impl ColumnarBatch {
    /// The admission mask of batch event `i`: its bit of every
    /// variable's group vector gathered into a mask — here, per event
    /// asked about, so that a batch whose events are mostly dropped never
    /// pays for their masks.
    pub(crate) fn admission(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let (word, bit) = (i / 64, i % 64);
        (0..self.num_vars).fold(0u64, |mask, v| {
            mask | (self.group_bits[v * self.words + word] >> bit & 1) << v
        })
    }

    /// The first position at or after `from` whose event the filter
    /// keeps, or the batch length when it keeps none of the rest — the
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
        // batch in the last word.
        (word * 64 + bits.trailing_zeros() as usize).min(self.len)
    }

    /// Which of the two columnar arms filled this batch.
    pub(crate) fn arm(&self) -> AdmissionArm {
        if self.from_columns {
            AdmissionArm::Columns
        } else {
            AdmissionArm::Rows
        }
    }

    /// Number of events in the evaluated batch.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_event::{AttrType, EventSource, Relation, Schema, Timestamp};
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

    /// Evaluates `plan` over all of `relation`, lanes reading rows only
    /// or the code columns where the relation offers one.
    fn evaluate(
        plan: &ColumnarPlan,
        relation: &Relation,
        columns: bool,
        batch: &mut ColumnarBatch,
    ) {
        plan.evaluate(
            relation.len(),
            |i| relation.event(ses_event::EventId::from(i)),
            |attr| columns.then(|| relation.str_codes(attr)).flatten(),
            batch,
        );
    }

    /// Columnar admission, from rows and from columns, must agree with
    /// the scalar reference (`satisfies_var_constants` per variable) on
    /// every event, and its filter bits with "the mask is not empty" —
    /// and so with the per-event arm, which hands the engine those same
    /// answers.
    fn assert_matches_scalar(cp: &CompiledPattern, relation: &Relation) {
        let plan = ColumnarPlan::new(cp);
        let reads_str = plan
            .kernels
            .iter()
            .any(|(_, k)| matches!(k, Kernel::Str { .. } | Kernel::StrEqSet { .. }));
        let mut batch = ColumnarBatch::default();
        let n = relation.len();
        for columns in [false, true] {
            evaluate(&plan, relation, columns, &mut batch);
            assert_eq!(batch.len(), n);
            let arm = if columns && reads_str {
                AdmissionArm::Columns
            } else {
                AdmissionArm::Rows
            };
            assert_eq!(batch.arm(), arm);
            let passing: Vec<usize> = (0..n).filter(|&i| batch.admission(i) != 0).collect();
            let mut walked = Vec::new();
            let mut at = batch.next_passing(0);
            while at < n {
                walked.push(at);
                at = batch.next_passing(at + 1);
            }
            assert_eq!(walked, passing, "set-bit walk, columns {columns}");
            for i in 0..n {
                let event = relation.event(ses_event::EventId::from(i));
                let mask = batch.admission(i);
                for v in 0..cp.pattern().num_vars() {
                    let scalar = cp.satisfies_var_constants(VarId(v as u16), event);
                    let bit = mask >> v & 1 != 0;
                    assert_eq!(bit, scalar, "var {v} bit diverges at event {i}");
                }
                assert_eq!(var_mask(cp, event), mask, "arms diverge at event {i}");
            }
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
        let cp = two_var_pattern();
        let plan = ColumnarPlan::new(&cp);
        let mut batch = ColumnarBatch::default();
        for columns in [false, true] {
            evaluate(&plan, &rel(&[]), columns, &mut batch);
            assert_eq!(batch.len(), 0);
            assert_eq!(batch.next_passing(0), 0);
        }
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
        assert_eq!(plan.num_lanes(), 66);
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
        let mut batch = ColumnarBatch::default();
        evaluate(&plan, &r, true, &mut batch);
        assert_eq!(batch.arm(), AdmissionArm::Rows, "no lane reads L");
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
        let plan = ColumnarPlan::new(&cp);
        let mut batch = ColumnarBatch::default();
        evaluate(&plan, &r, true, &mut batch);
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
        let mut batch = ColumnarBatch::default();
        evaluate(&ColumnarPlan::new(&cp), &r, false, &mut batch);
        assert_eq!((0..20).map(|i| batch.admission(i)).min(), Some(0b10));
        assert_eq!(batch.next_passing(20), 20);
    }

    #[test]
    fn rule_thresholds() {
        assert!(!runs_columnar(0, 1_000_000), "no lanes");
        assert!(!runs_columnar(5, COLUMNAR_AUTO_MIN_BATCH - 1));
        assert!(runs_columnar(5, COLUMNAR_AUTO_MIN_BATCH));
    }

    #[test]
    fn buffers_are_reused_across_batches() {
        let cp = two_var_pattern();
        let plan = ColumnarPlan::new(&cp);
        let mut batch = ColumnarBatch::default();
        let big = rel(&(0..200)
            .map(|i| (i, if i % 2 == 0 { "A" } else { "B" }, i))
            .collect::<Vec<_>>());
        evaluate(&plan, &big, false, &mut batch);
        let cap = (
            batch.lane_bits.capacity(),
            batch.group_bits.capacity(),
            batch.filter_bits.capacity(),
        );
        // A smaller follow-up batch must fit in the pooled buffers.
        let small = rel(&[(0, "A", 9), (1, "B", 0)]);
        evaluate(&plan, &small, false, &mut batch);
        assert_eq!(batch.len(), 2);
        assert_eq!(
            (
                batch.lane_bits.capacity(),
                batch.group_bits.capacity(),
                batch.filter_bits.capacity(),
            ),
            cap,
            "pooled buffers must not shrink or reallocate"
        );
        assert_matches_scalar(&cp, &small);
    }
}
