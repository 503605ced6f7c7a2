//! The predicate index's verdict against the scalar reference.
//!
//! A push takes its variable mask from [`PatternIndex::admitted_into`]
//! — the bank for all of its patterns at once, a lone `StreamMatcher`
//! through an index over its one pattern — and nothing re-checks it
//! before the engine filters and binds with it. So for every registered
//! pattern and every event the index must list the pattern iff some
//! variable's or negation's constant conjunction holds, and hand it
//! exactly `OR_v satisfies_var_constants(v) << v`.
//!
//! The generated patterns reach every branch of the verdict: `Str`,
//! `Int` and `Bool` point pins (implied groups), pins beside lanes on
//! other attributes (evaluated per hit), variables pinned on two
//! different attributes (masks OR'ed across tables), range-only and
//! `Float` groups (Scanned), cross-typed numeric constants, variables
//! without constants (Every), provably empty conjunctions (Never, or a
//! dropped negation group), and negations (mask-0 admissions).

use proptest::prelude::*;

use ses::pattern::{CompiledNegRhs, CompiledPattern, IndexClass, PatternIndex, Rhs, VarId};
use ses::prelude::*;

/// One attribute of each kind a pin can or cannot take.
fn schema() -> Schema {
    Schema::builder()
        .attr("L", AttrType::Str)
        .attr("ID", AttrType::Int)
        .attr("F", AttrType::Bool)
        .attr("V", AttrType::Float)
        .build()
        .unwrap()
}

const ATTRS: [&str; 4] = ["L", "ID", "F", "V"];

/// `Eq` three times in eight, so that points — and conflicting points
/// — are common.
const OPS: [CmpOp; 8] = [
    CmpOp::Eq,
    CmpOp::Eq,
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// The constant `pick` names for attribute `attr`: strings for `L`,
/// small ints (and one `Float`) for `ID`, both booleans for `F`, both
/// zeros, fractions and one `Int` for `V`.
fn constant(attr: u8, pick: u8) -> Value {
    match attr {
        0 => Value::from(["A", "B", "X"][pick as usize % 3]),
        1 if pick == 5 => Value::from(2.0),
        1 => Value::from(i64::from(pick % 4)),
        2 => Value::from(pick.is_multiple_of(2)),
        _ => match pick % 5 {
            0 => Value::from(-0.0),
            1 => Value::from(0.0),
            2 => Value::from(1.5),
            3 => Value::from(2.0),
            _ => Value::from(2),
        },
    }
}

/// `(attr, op, constant)` codes of one constant condition.
type Cond = (u8, u8, u8);

fn conds(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Cond>> {
    proptest::collection::vec((0u8..4, 0u8..8, 0u8..6), len)
}

/// 1–3 variables (one possibly a group variable) over one or two sets,
/// each with 0–3 constant conditions; with two sets, optionally a
/// negation in the gap with 0–2 constant conditions and optionally a
/// correlated one.
fn pattern_strategy() -> impl Strategy<Value = Pattern> {
    (
        1usize..4,
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::collection::vec(conds(0..4), 3),
        proptest::option::of((conds(0..3), proptest::bool::ANY)),
    )
        .prop_map(|(vars, split, plus, var_conds, negation)| {
            let names: Vec<String> = (0..vars).map(|v| format!("v{v}")).collect();
            // The second set starts at the last variable.
            let split = split && vars > 1;
            let first = if split { vars - 1 } else { vars };
            let mut b = Pattern::builder();
            let head = names[..first].to_vec();
            b = b.set(move |s| {
                for (i, n) in head.iter().enumerate() {
                    if plus && i == 0 {
                        s.plus(n.clone());
                    } else {
                        s.var(n.clone());
                    }
                }
                s
            });
            let negation = negation.filter(|_| split);
            if split {
                if negation.is_some() {
                    b = b.negate("n");
                }
                let tail = names[first].clone();
                b = b.set(move |s| s.var(tail.clone()));
            }
            for (name, cs) in names.iter().zip(&var_conds) {
                for &(attr, op, pick) in cs {
                    b = b.cond_const(
                        name.clone(),
                        ATTRS[attr as usize],
                        OPS[op as usize],
                        constant(attr, pick),
                    );
                }
            }
            if let Some((cs, correlated)) = negation {
                for (attr, op, pick) in cs {
                    b = b.neg_cond_const(
                        "n",
                        ATTRS[attr as usize],
                        OPS[op as usize],
                        constant(attr, pick),
                    );
                }
                if correlated {
                    b = b.neg_cond_vars("n", "ID", CmpOp::Eq, "v0", "ID");
                }
            }
            b.within(Duration::ticks(10)).build().unwrap()
        })
}

/// Events over every value the constants name, and a few they do not.
fn event_strategy() -> impl Strategy<Value = Event> {
    (0u8..4, 0i64..5, proptest::bool::ANY, 0u8..5).prop_map(|(l, id, f, v)| {
        let v = match v {
            0 => Value::from(-0.0),
            1 => Value::from(0.0),
            2 => Value::from(1.5),
            3 => Value::from(2.0),
            _ => Value::from(2),
        };
        let values = vec![
            Value::from(["A", "B", "X", "Z"][l as usize]),
            Value::from(id),
            Value::from(f),
            v,
        ];
        schema().check_row(&values).unwrap();
        Event::new(Timestamp::new(0), values)
    })
}

fn compile(patterns: &[Pattern]) -> Vec<CompiledPattern> {
    patterns
        .iter()
        .map(|p| p.compile(&schema()).unwrap())
        .collect()
}

/// The scalar reference: bit *v* set iff `event` satisfies every
/// constant condition of `VarId(v)`.
fn scalar_mask(cp: &CompiledPattern, event: &Event) -> u64 {
    (0..cp.pattern().num_vars()).fold(0, |mask, v| {
        mask | u64::from(cp.satisfies_var_constants(VarId(v as u16), event)) << v
    })
}

/// `true` iff every constant condition of some negation holds on `event`
/// (vacuously for a negation without one).
fn some_negation_holds(cp: &CompiledPattern, event: &Event) -> bool {
    cp.negations().iter().any(|neg| {
        neg.conditions.iter().all(|c| match &c.rhs {
            CompiledNegRhs::Const(value) => event.value(c.attr).compare(c.op, value),
            CompiledNegRhs::Attr { .. } => true,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// For every pattern of a bank and every event: listed iff some
    /// variable or negation group holds (never, when Θ is provably
    /// unsatisfiable), with exactly the scalar mask; and
    /// [`PatternIndex::verdict`] agrees.
    #[test]
    fn index_verdict_equals_the_scalar_reference(
        patterns in proptest::collection::vec(pattern_strategy(), 1..5),
        events in proptest::collection::vec(event_strategy(), 1..12),
    ) {
        let compiled = compile(&patterns);
        let index = PatternIndex::build(&compiled);
        let mut admitted = Vec::new();
        for event in &events {
            index.admitted_into(event, &mut admitted);
            prop_assert!(
                admitted.windows(2).all(|w| w[0].0 < w[1].0),
                "admissions not ascending and unique: {:?}", admitted
            );
            for (id, cp) in compiled.iter().enumerate() {
                let listed = admitted.iter().find(|&&(i, _)| i == id).map(|&(_, m)| m);
                let mask = scalar_mask(cp, event);
                let expected = if index.class(id) == IndexClass::Never {
                    None
                } else {
                    (mask != 0 || some_negation_holds(cp, event)).then_some(mask)
                };
                prop_assert_eq!(
                    listed, expected,
                    "pattern {} ({:?}) on {:?}", id, index.class(id), event
                );
                prop_assert_eq!(index.verdict(id, event), expected, "verdict of pattern {}", id);
            }
        }
    }
}

/// The generator reaches every class, and pins on each of the `Str`,
/// `Int` and `Bool` attributes.
#[test]
fn the_generator_reaches_every_class() {
    let mut classes = Vec::new();
    let mut pinned = [false; 3];
    for seed in 0..2_000u64 {
        let p = proptest::test_runner::sample(&pattern_strategy(), seed);
        let compiled = compile(std::slice::from_ref(&p));
        let index = PatternIndex::build(&compiled);
        let class = index.class(0);
        if !classes.contains(&class) {
            classes.push(class);
        }
        if class != IndexClass::Indexed {
            continue;
        }
        // A variable whose constant conditions all read one attribute,
        // one of them an equality, is pinned on that attribute.
        for v in 0..p.num_vars() {
            let conds: Vec<_> = p
                .conditions()
                .iter()
                .filter(|c| c.lhs.var.index() == v && matches!(c.rhs, Rhs::Const(_)))
                .collect();
            for (i, attr) in ATTRS[..3].iter().enumerate() {
                pinned[i] |= !conds.is_empty()
                    && conds.iter().all(|c| &*c.lhs.attr == *attr)
                    && conds.iter().any(|c| c.op == CmpOp::Eq);
            }
        }
    }
    for class in [
        IndexClass::Every,
        IndexClass::Never,
        IndexClass::Indexed,
        IndexClass::Scanned,
    ] {
        assert!(classes.contains(&class), "no {class:?} pattern generated");
    }
    assert_eq!(pinned, [true; 3], "Str / Int / Bool pins");
}
