//! Boundary and stress conditions of the engine: the 64-variable limit,
//! zero and unbounded windows, massive timestamp ties, and instance caps.

use ses::prelude::*;

fn schema() -> Schema {
    Schema::builder()
        .attr("ID", AttrType::Int)
        .attr("L", AttrType::Str)
        .build()
        .unwrap()
}

#[test]
fn sixty_four_variables_compile_and_match() {
    // Exactly 64 variables exercises bit 63 of the state bitsets.
    let mut b = Pattern::builder();
    b = b.set(|s| {
        // 63 singleton variables in one set… would need 2^63 states; use
        // 63 sets of one variable plus one more — a chain exercises all
        // 64 bit positions with only 65 states.
        s.var("v0")
    });
    for i in 1..64 {
        b = b.set(move |s| s.var(format!("v{i}")));
    }
    for i in 0..64 {
        b = b.cond_const(format!("v{i}"), "L", CmpOp::Eq, format!("T{i}"));
    }
    let p = b.within(Duration::ticks(1000)).build().unwrap();
    assert_eq!(p.num_vars(), 64);

    let m = Matcher::compile(&p, &schema()).unwrap();
    assert_eq!(m.automaton().num_states(), 65);

    let mut rel = Relation::new(schema());
    for i in 0..64i64 {
        rel.push_values(
            Timestamp::new(i),
            [Value::from(1), Value::from(format!("T{i}"))],
        )
        .unwrap();
    }
    let matches = m.find(&rel);
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].len(), 64);

    // 65 variables must be rejected at build time.
    let mut b = Pattern::builder();
    for i in 0..65 {
        b = b.set(move |s| s.var(format!("w{i}")));
    }
    assert!(b.build().is_err());
}

#[test]
fn zero_window_requires_simultaneity_minus_order() {
    // τ = 0: all events must share one timestamp — but cross-set order is
    // strict, so multi-set patterns can never match…
    let two_sets = Pattern::builder()
        .set(|s| s.var("a"))
        .set(|s| s.var("b"))
        .cond_const("a", "L", CmpOp::Eq, "A")
        .cond_const("b", "L", CmpOp::Eq, "B")
        .within(Duration::ZERO)
        .build()
        .unwrap();
    let mut rel = Relation::new(schema());
    rel.push_values(Timestamp::new(5), [Value::from(1), Value::from("A")])
        .unwrap();
    rel.push_values(Timestamp::new(5), [Value::from(1), Value::from("B")])
        .unwrap();
    let m = Matcher::compile(&two_sets, &schema()).unwrap();
    assert!(
        m.find(&rel).is_empty(),
        "strict inter-set order forbids ties"
    );

    // …while a single-set pattern matches simultaneous events.
    let one_set = Pattern::builder()
        .set(|s| s.var("a").var("b"))
        .cond_const("a", "L", CmpOp::Eq, "A")
        .cond_const("b", "L", CmpOp::Eq, "B")
        .within(Duration::ZERO)
        .build()
        .unwrap();
    let m = Matcher::compile(&one_set, &schema()).unwrap();
    assert_eq!(m.find(&rel).len(), 1);
}

#[test]
fn unbounded_window_never_expires() {
    let p = Pattern::builder()
        .set(|s| s.var("a"))
        .set(|s| s.var("b"))
        .cond_const("a", "L", CmpOp::Eq, "A")
        .cond_const("b", "L", CmpOp::Eq, "B")
        .build() // no .within → Duration::MAX
        .unwrap();
    let mut rel = Relation::new(schema());
    rel.push_values(
        Timestamp::new(i64::MIN / 4),
        [Value::from(1), Value::from("A")],
    )
    .unwrap();
    rel.push_values(
        Timestamp::new(i64::MAX / 4),
        [Value::from(1), Value::from("B")],
    )
    .unwrap();
    let m = Matcher::compile(&p, &schema()).unwrap();
    assert_eq!(m.find(&rel).len(), 1, "half-range span stays within MAX");
}

#[test]
fn heavy_timestamp_ties_are_consistent() {
    // D5-style duplication: five copies of every event at identical
    // timestamps. Matching must stay well-defined and every match valid.
    let base = ses::workload::paper::figure1();
    let d5 = base.duplicate(5);
    let q1 = ses::workload::paper::query_q1();
    let compiled = q1.compile(base.schema()).unwrap();
    let matches = Matcher::compile(&q1, base.schema()).unwrap().find(&d5);
    assert!(!matches.is_empty());
    for m in &matches {
        assert!(ses::core::satisfies_conditions_1_3(
            &compiled,
            &d5,
            m.bindings()
        ));
    }
}

/// Twenty-two variables in one set need 2²² states, past the
/// `DEFAULT_MAX_STATES` = 2²⁰ budget.
#[test]
fn state_budget_guard_via_matcher() {
    let mut b = Pattern::builder();
    b = b.set(|s| {
        for i in 0..22 {
            s.var(format!("v{i}"));
        }
        s
    });
    let p = b.build().unwrap();
    let err = Matcher::compile(&p, &schema()).unwrap_err();
    assert!(err.to_string().contains("states"), "{err}");
    assert!(
        matches!(
            err,
            ses::core::CoreError::TooManyStates { required, limit }
                if required == 1 << 22 && limit == ses::core::DEFAULT_MAX_STATES
        ),
        "{err:?}"
    );
}
