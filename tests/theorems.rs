//! Empirical validation of the complexity theorems (§4.4) at test scale:
//! the measured peak |Ω| respects — and scales like — the proven bounds.

use ses::prelude::*;

fn schema() -> Schema {
    Schema::builder()
        .attr("ID", AttrType::Int)
        .attr("L", AttrType::Str)
        .build()
        .unwrap()
}

/// A relation of `n` medication events of type `ty` at consecutive
/// timestamps, followed by one `B`.
fn uniform_stream(n: usize, ty: &str) -> Relation {
    let mut rel = Relation::new(schema());
    for i in 0..n {
        rel.push_values(Timestamp::new(i as i64), [Value::from(1), Value::from(ty)])
            .unwrap();
    }
    rel.push_values(Timestamp::new(n as i64), [Value::from(1), Value::from("B")])
        .unwrap();
    rel
}

fn peak_omega(pattern: &Pattern, rel: &Relation) -> usize {
    let m = Matcher::compile(pattern, &schema()).unwrap();
    let mut probe = CountingProbe::new();
    m.find_with_probe(rel, &mut probe);
    probe.omega_max
}

/// Peak |Ω| of the paper's automaton (§4.2, no quotient by
/// interchangeable variables) — the one the theorems are about.
fn paper_peak_omega(pattern: &Pattern, rel: &Relation) -> usize {
    let automaton = ses::core::Automaton::build_paper(pattern.compile(&schema()).unwrap()).unwrap();
    let mut probe = CountingProbe::new();
    ses::core::execute(&automaton, rel, EventSelection::default(), &mut probe);
    probe.omega_max
}

/// `n` singleton variables of one set, all of type `M`: Theorem 2's
/// worst case, and one interchangeable class.
fn same_type_singletons(n: usize) -> Pattern {
    let mut b = Pattern::builder().set(move |s| {
        for i in 0..n {
            s.var(format!("v{i}"));
        }
        s
    });
    for i in 0..n {
        b = b.cond_const(format!("v{i}"), "L", CmpOp::Eq, "M");
    }
    b.within(Duration::ticks(1000)).build().unwrap()
}

/// Theorem 1: pairwise mutually exclusive variables ⇒ no branching; |Ω|
/// is bounded by the number of open starts (one per event within τ), not
/// by any factorial term.
#[test]
fn theorem1_exclusive_variables_never_branch() {
    let pattern = Pattern::builder()
        .set(|s| s.var("c").var("d").var("p"))
        .cond_const("c", "L", CmpOp::Eq, "C")
        .cond_const("d", "L", CmpOp::Eq, "D")
        .cond_const("p", "L", CmpOp::Eq, "P")
        .within(Duration::ticks(100))
        .build()
        .unwrap();
    let mut rel = Relation::new(schema());
    for i in 0..30 {
        let ty = ["C", "D", "P"][i % 3];
        rel.push_values(Timestamp::new(i as i64), [Value::from(1), Value::from(ty)])
            .unwrap();
    }
    let m = Matcher::compile(&pattern, &schema()).unwrap();
    let mut probe = CountingProbe::new();
    m.find_with_probe(&rel, &mut probe);
    assert_eq!(probe.instances_branched, 0);
}

/// Theorem 2: `n` non-exclusive singleton variables ⇒ at most `n!`
/// instances *per start*; with a single long window the measured peak
/// for one start stays within `n!`. Measured on the paper's automaton:
/// the matchers run its quotient, which the next test bounds.
#[test]
fn theorem2_factorial_bound() {
    for n in 2..=4usize {
        let pattern = same_type_singletons(n);

        // Theorem 2 bounds the instances descending from ONE start by n!
        // (the paper's analysis assumes a single start instance); with a
        // fresh start per event the simultaneous total is ≤ W·n!.
        let rel = uniform_stream(n, "M");
        let w = rel.len();
        let fact: usize = (1..=n).product();
        let peak = paper_peak_omega(&pattern, &rel);
        assert!(
            peak <= w * fact,
            "n = {n}: peak |Ω| = {peak} exceeds W·n! = {}",
            w * fact
        );
        assert!(
            peak >= fact,
            "n = {n}: expected ≥ {fact} interleavings, got {peak}"
        );
    }
}

/// The quotient by interchangeable variables: the same `n` same-type
/// singletons bind in one order, so each start keeps one interleaving
/// and the peak stays within `W` — while the answer is still the `n!`
/// orderings the paper's automaton finds.
#[test]
fn theorem2_quotient_keeps_one_interleaving_per_start() {
    for n in 2..=5usize {
        let pattern = same_type_singletons(n);
        let rel = uniform_stream(n, "M");
        let w = rel.len();
        let peak = peak_omega(&pattern, &rel);
        assert!(peak <= w, "n = {n}: peak |Ω| = {peak} exceeds W = {w}");
        let matcher = Matcher::compile(&pattern, &schema()).unwrap();
        assert_eq!(matcher.automaton().interchangeable_classes().len(), 1);
        let fact: usize = (1..=n).product();
        assert_eq!(
            matcher.find(&rel).len(),
            fact,
            "n = {n}: one answer, n! orderings"
        );
    }
}

/// Theorem 3 (k = 1): a group variable makes |Ω| grow polynomially with
/// the window size W, while the same pattern without the group variable
/// stays flat — the shape of the paper's Figure 12.
#[test]
fn theorem3_group_variable_scales_with_window() {
    let with_group = Pattern::builder()
        .set(|s| s.var("c").plus("p"))
        .cond_const("c", "L", CmpOp::Eq, "M")
        .cond_const("p", "L", CmpOp::Eq, "M")
        .within(Duration::ticks(10_000))
        .build()
        .unwrap();
    let without_group = Pattern::builder()
        .set(|s| s.var("c").var("p"))
        .cond_const("c", "L", CmpOp::Eq, "M")
        .cond_const("p", "L", CmpOp::Eq, "M")
        .within(Duration::ticks(10_000))
        .build()
        .unwrap();

    let mut grouped = Vec::new();
    let mut plain = Vec::new();
    for w in [8usize, 16, 32] {
        let rel = uniform_stream(w, "M");
        grouped.push(peak_omega(&with_group, &rel));
        plain.push(peak_omega(&without_group, &rel));
    }
    // The group variant grows superlinearly in W…
    assert!(
        grouped[2] as f64 / grouped[0] as f64 > 4.0,
        "group peaks {grouped:?} should grow superlinearly"
    );
    // …and dominates the plain variant ever more strongly.
    assert!(
        grouped[2] > 4 * plain[2],
        "grouped {grouped:?} vs plain {plain:?}"
    );
    // The plain variant grows at most linearly with W.
    assert!(
        plain[2] <= plain[0] * 8,
        "plain peaks {plain:?} should stay ~linear"
    );
}

/// The static analysis' evaluated bounds are upper bounds of the
/// measured peaks for the experiment patterns at small scale.
#[test]
fn predicted_bounds_dominate_measurements() {
    use ses::workload::paper;
    let rel = {
        // Small mixed stream: P's with interleaved B's.
        let mut rel = Relation::new(schema());
        for i in 0..24 {
            let ty = if i % 6 == 5 { "B" } else { "P" };
            rel.push_values(Timestamp::new(i as i64), [Value::from(1), Value::from(ty)])
                .unwrap();
        }
        rel
    };
    for pattern in [paper::exp2_p4(), paper::exp3_p5()] {
        let compiled = pattern.compile(&paper::schema()).unwrap();
        let w = rel.window_size(pattern.within()) as u64;
        // Overall bound: per start instance; multiply by W starts.
        let bound = compiled.analysis().worst_set_bound(w).saturating_mul(w);
        let chemo_rel = {
            let mut r = Relation::new(paper::schema());
            for (i, e) in rel.events().iter().enumerate() {
                r.push_values(
                    Timestamp::new(i as i64),
                    [
                        e.values()[0].clone(),
                        e.values()[1].clone(),
                        Value::from(1.0),
                        Value::from("mg"),
                    ],
                )
                .unwrap();
            }
            r
        };
        let m = Matcher::compile(&pattern, &paper::schema()).unwrap();
        let mut probe = CountingProbe::new();
        m.find_with_probe(&chemo_rel, &mut probe);
        assert!(
            (probe.omega_max as u64) <= bound,
            "{pattern}: measured {} > bound {bound}",
            probe.omega_max
        );
    }
}
