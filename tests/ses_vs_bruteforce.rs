//! Property tests: the SES automaton and the brute-force permutation bank
//! compute identical query answers on singleton patterns with distinct
//! timestamps — plus targeted tests for the two documented divergences
//! (timestamp ties, group variables).

use proptest::prelude::*;

use ses::core::{algorithm1, execute, paper_filter, Automaton, RawMatch};
use ses::prelude::*;

fn schema() -> Schema {
    Schema::builder()
        .attr("ID", AttrType::Int)
        .attr("L", AttrType::Str)
        .build()
        .unwrap()
}

const TYPES: [&str; 4] = ["A", "B", "C", "X"];

/// A random relation with strictly increasing timestamps.
fn relation_strategy() -> impl Strategy<Value = Relation> {
    (
        proptest::collection::vec((0u8..4, 1i64..3), 3..12),
        proptest::collection::vec(1i64..4, 3..12),
    )
        .prop_map(|(rows, gaps)| {
            let mut rel = Relation::new(schema());
            let mut t = 0i64;
            for ((ty, id), gap) in rows.into_iter().zip(gaps) {
                t += gap; // strictly increasing
                rel.push_values(
                    Timestamp::new(t),
                    [Value::from(id), Value::from(TYPES[ty as usize])],
                )
                .unwrap();
            }
            rel
        })
}

/// A random singleton-only pattern: 1–2 sets with 1–3 variables, each
/// constrained to a (possibly shared ⇒ nondeterministic) type.
fn pattern_strategy() -> impl Strategy<Value = Pattern> {
    (
        proptest::collection::vec(proptest::collection::vec(0u8..3, 1..4), 1..3),
        5i64..40,
        proptest::bool::ANY, // add an ID-correlation clique?
    )
        .prop_map(|(sets, within, correlate)| {
            let mut b = Pattern::builder();
            let mut names: Vec<Vec<String>> = Vec::new();
            for (si, set) in sets.iter().enumerate() {
                let set_names: Vec<String> =
                    (0..set.len()).map(|vi| format!("v{si}_{vi}")).collect();
                names.push(set_names.clone());
                b = b.set(move |s| {
                    for n in &set_names {
                        s.var(n.clone());
                    }
                    s
                });
            }
            for (si, set) in sets.iter().enumerate() {
                for (vi, ty) in set.iter().enumerate() {
                    b = b.cond_const(format!("v{si}_{vi}"), "L", CmpOp::Eq, TYPES[*ty as usize]);
                }
            }
            if correlate {
                // Clique over all variables: same ID everywhere.
                let flat: Vec<String> = names.iter().flatten().cloned().collect();
                for i in 1..flat.len() {
                    for j in 0..i {
                        b = b.cond_vars(flat[j].clone(), "ID", CmpOp::Eq, flat[i].clone(), "ID");
                    }
                }
            }
            b.within(Duration::ticks(within)).build().unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The headline equivalence: for singleton patterns over relations
    /// with distinct timestamps, the brute-force bank and the SES
    /// automaton return the same *query answers* (Definition 2 and
    /// Maximal semantics).
    ///
    /// Under `AllRuns` the relation is containment, not equality: the SES
    /// automaton consumes greedily (Algorithm 2 drops the source instance
    /// whenever any transition fires), so a run that needed to *skip* an
    /// event claimed by a sibling transition only survives in the chain
    /// bank, where each order skips independently. Those extra runs bind
    /// later-than-necessary events and are precisely what condition 4
    /// rejects — hence equality after the Definition-2 filter.
    #[test]
    fn bank_equals_ses(rel in relation_strategy(), pat in pattern_strategy()) {
        let schema = schema();
        for semantics in [MatchSemantics::Definition2, MatchSemantics::Maximal] {
            let opts = MatcherOptions { semantics, ..MatcherOptions::default() };
            let ses = Matcher::with_options(&pat, &schema, opts.clone()).unwrap();
            let bank = BruteForce::with_options(&pat, &schema, opts).unwrap();
            let mut a = ses.find(&rel);
            let mut b = bank.find(&rel);
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "semantics {:?}", semantics);
        }
        // AllRuns: SES ⊆ BF.
        let opts = MatcherOptions { semantics: MatchSemantics::AllRuns, ..MatcherOptions::default() };
        let ses = Matcher::with_options(&pat, &schema, opts.clone()).unwrap().find(&rel);
        let bank = BruteForce::with_options(&pat, &schema, opts).unwrap().find(&rel);
        for m in &ses {
            prop_assert!(bank.contains(m), "SES run {} missing from the bank", m);
        }
    }

    /// Filtering never changes the answer (the paper's §4.5 claim): the
    /// paper's Algorithm 1 over every event, the same over the events the
    /// §4.5 filter keeps, and the engine — whose admission mask is the
    /// filter — produce the same raw matches.
    #[test]
    fn filtering_is_transparent(rel in relation_strategy(), pat in pattern_strategy()) {
        let automaton = Automaton::build(pat.compile(&schema()).unwrap()).unwrap();
        let cp = automaton.pattern();
        let sorted = |mut raw: Vec<RawMatch>| {
            raw.sort();
            raw
        };
        let all = (0..rel.len()).map(EventId::from);
        let unfiltered = sorted(algorithm1(&automaton, &rel, all.clone()));
        let kept = all.filter(|&e| paper_filter(cp, rel.event(e)));
        prop_assert_eq!(&sorted(algorithm1(&automaton, &rel, kept)), &unfiltered, "filtered");
        let engine = execute(&automaton, &rel, EventSelection::default(), &mut NoProbe);
        prop_assert_eq!(&sorted(engine), &unfiltered, "engine");
    }

    /// Every match satisfies conditions 1–3 (checked by the independent
    /// reference validator) regardless of semantics.
    #[test]
    fn matches_satisfy_conditions_1_3(rel in relation_strategy(), pat in pattern_strategy()) {
        let schema = schema();
        let compiled = pat.compile(&schema).unwrap();
        for semantics in [MatchSemantics::AllRuns, MatchSemantics::Maximal] {
            let m = Matcher::with_options(
                &pat,
                &schema,
                MatcherOptions { semantics, ..MatcherOptions::default() },
            )
            .unwrap();
            for mat in m.find(&rel) {
                prop_assert!(
                    ses::core::satisfies_conditions_1_3(&compiled, &rel, mat.bindings()),
                    "{} violates conditions 1-3",
                    mat
                );
            }
        }
    }
}

/// Documented divergence 1: with *tied* timestamps inside one set, the
/// SES automaton matches (no intra-set order) but the brute-force chains
/// cannot (every chain boundary demands strict order).
#[test]
fn tie_divergence() {
    let schema = schema();
    let pat = Pattern::builder()
        .set(|s| s.var("a").var("b"))
        .cond_const("a", "L", CmpOp::Eq, "A")
        .cond_const("b", "L", CmpOp::Eq, "B")
        .within(Duration::ticks(10))
        .build()
        .unwrap();
    let mut rel = Relation::new(schema.clone());
    rel.push_values(Timestamp::new(5), [Value::from(1), Value::from("A")])
        .unwrap();
    rel.push_values(Timestamp::new(5), [Value::from(1), Value::from("B")])
        .unwrap();

    let ses = Matcher::compile(&pat, &schema).unwrap().find(&rel);
    assert_eq!(ses.len(), 1, "SES matches the tied pair");
    let bank = BruteForce::compile(&pat, &schema).unwrap().find(&rel);
    assert!(bank.is_empty(), "chains require strict order at boundaries");
}

/// Documented divergence 2: group-variable bindings interleaved with
/// other set variables are found by the SES automaton but not by any
/// chain (the paper's DejaVu/SASE+ critique).
#[test]
fn group_interleaving_divergence() {
    let schema = schema();
    let pat = Pattern::builder()
        .set(|s| s.var("c").plus("p"))
        .set(|s| s.var("b"))
        .cond_const("c", "L", CmpOp::Eq, "C")
        .cond_const("p", "L", CmpOp::Eq, "A")
        .cond_const("b", "L", CmpOp::Eq, "B")
        .within(Duration::ticks(100))
        .build()
        .unwrap();
    // p c p b — the p's straddle c.
    let mut rel = Relation::new(schema.clone());
    for (t, l) in [(0, "A"), (1, "C"), (2, "A"), (3, "B")] {
        rel.push_values(Timestamp::new(t), [Value::from(1), Value::from(l)])
            .unwrap();
    }
    let ses_full = Matcher::compile(&pat, &schema)
        .unwrap()
        .find(&rel)
        .iter()
        .map(Match::len)
        .max()
        .unwrap();
    assert_eq!(ses_full, 4, "SES binds both p's plus c and b");
    let bank = BruteForce::compile(&pat, &schema).unwrap();
    assert!(!bank.is_exact());
    let bank_best = bank.find(&rel).iter().map(Match::len).max().unwrap();
    assert!(bank_best < 4, "no chain can interleave the p's around c");
}
