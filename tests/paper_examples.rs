//! Golden tests pinning the paper's worked examples: Figure 1, Query Q1,
//! Examples 1–4, the Figure 5 automaton, and Figure 10's brute-force bank.

use ses::core::{algorithm1, paper_filter, select, AdmittedLog};
use ses::prelude::*;
use ses::workload::paper;

fn matcher_with(semantics: MatchSemantics) -> Matcher {
    Matcher::with_options(
        &paper::query_q1(),
        &paper::schema(),
        MatcherOptions {
            semantics,
            ..MatcherOptions::default()
        },
    )
    .expect("Q1 compiles")
}

/// Example 1: the intended results for Query Q1 are
/// `{e1, e3, e4, e9, e12}` for patient 1 and
/// `{e6, e7, e8, e10, e11, e13}` for patient 2.
#[test]
fn example1_intended_results() {
    let relation = paper::figure1();
    let q1 = paper::query_q1();
    let matches = matcher_with(MatchSemantics::Maximal).find(&relation);
    let rendered: Vec<String> = matches.iter().map(|m| m.display_with(&q1)).collect();
    assert_eq!(
        rendered,
        vec![
            "{c/e1, d/e3, p+/e4, p+/e9, b/e12}",
            "{p+/e6, d/e7, c/e8, p+/e10, p+/e11, b/e13}",
        ]
    );
}

/// The blood counts e2 and e5 are ignored: they occur during (not after)
/// the medication administrations.
#[test]
fn early_blood_counts_are_not_matched() {
    let relation = paper::figure1();
    for semantics in [
        MatchSemantics::AllRuns,
        MatchSemantics::Definition2,
        MatchSemantics::Maximal,
    ] {
        for m in matcher_with(semantics).find(&relation) {
            assert!(!m.events().any(|e| e == EventId(1) || e == EventId(4)));
        }
    }
}

/// Example 4's violating substitutions never surface:
/// `{…, b/e14}` (e14 instead of the earlier e13) violates condition 4,
/// `{…, p+/e10, b/e13}` without e11 violates maximality (condition 5).
#[test]
fn example4_violations_are_rejected() {
    let relation = paper::figure1();
    let q1 = paper::query_q1();
    for semantics in [MatchSemantics::Definition2, MatchSemantics::Maximal] {
        let rendered: Vec<String> = matcher_with(semantics)
            .find(&relation)
            .iter()
            .map(|m| m.display_with(&q1))
            .collect();
        assert!(
            rendered.iter().all(|s| !s.contains("b/e14")),
            "{rendered:?}"
        );
        assert!(
            !rendered.contains(&"{p+/e6, d/e7, c/e8, p+/e10, b/e13}".to_string()),
            "{rendered:?}"
        );
    }
}

/// Definition 2 read literally still admits the suffix run starting at
/// e7 (it has a different first binding, so condition 5's same-start
/// premise never fires); the paper's prose excludes it, which is what
/// `MatchSemantics::Maximal` implements. This pins the deviation
/// documented in DESIGN.md.
#[test]
fn definition2_admits_the_suffix_run() {
    let relation = paper::figure1();
    let q1 = paper::query_q1();
    let rendered: Vec<String> = matcher_with(MatchSemantics::Definition2)
        .find(&relation)
        .iter()
        .map(|m| m.display_with(&q1))
        .collect();
    assert_eq!(rendered.len(), 3);
    assert!(rendered.contains(&"{d/e7, c/e8, p+/e10, p+/e11, b/e13}".to_string()));
}

/// Example 9: window size W = 14 for the Figure 1 relation at τ = 264 h.
#[test]
fn example9_window_size() {
    assert_eq!(paper::figure1().window_size(Duration::hours(264)), 14);
}

/// Figure 5: the Q1 automaton has 9 states (∅, c, d, p, cd, cp, dp, cdp,
/// cdpb) and 17 transitions, 4 of which are p+ loops.
#[test]
fn figure5_automaton_shape() {
    let m = matcher_with(MatchSemantics::Maximal);
    let a = m.automaton();
    assert_eq!(a.num_states(), 9);
    assert_eq!(a.num_transitions(), 17);
    assert_eq!(a.transitions().iter().filter(|t| t.is_loop).count(), 4);
    assert_eq!(a.state_label(a.start()), "∅");
    assert_eq!(a.state_label(a.accept()), "cp+db");
}

/// Figure 3: the single-set pattern ⟨{b}⟩ compiles to the two-state
/// automaton with one transition.
#[test]
fn figure3_single_variable_automaton() {
    let p = Pattern::builder()
        .set(|s| s.var("b"))
        .cond_const("b", "L", CmpOp::Eq, "B")
        .within(Duration::hours(264))
        .build()
        .unwrap();
    let m = Matcher::compile(&p, &paper::schema()).unwrap();
    assert_eq!(m.automaton().num_states(), 2);
    assert_eq!(m.automaton().num_transitions(), 1);
}

/// Figure 10 / Example 11: the all-singleton variant of Q1 yields a
/// brute-force bank of 3!·1! = 6 chain automata, each with 5 states,
/// and the bank finds the same matches as the SES automaton.
#[test]
fn figure10_brute_force_bank() {
    let p = Pattern::builder()
        .set(|s| s.var("c").var("p").var("d"))
        .set(|s| s.var("b"))
        .cond_const("c", "L", CmpOp::Eq, "C")
        .cond_const("p", "L", CmpOp::Eq, "P")
        .cond_const("d", "L", CmpOp::Eq, "D")
        .cond_const("b", "L", CmpOp::Eq, "B")
        .cond_vars("c", "ID", CmpOp::Eq, "p", "ID")
        .cond_vars("c", "ID", CmpOp::Eq, "d", "ID")
        .cond_vars("p", "ID", CmpOp::Eq, "d", "ID")
        .cond_vars("d", "ID", CmpOp::Eq, "b", "ID")
        .within(Duration::hours(264))
        .build()
        .unwrap();
    let schema = paper::schema();
    let bank = BruteForce::compile(&p, &schema).unwrap();
    assert_eq!(bank.num_automata(), 6);
    for a in bank.automata() {
        assert_eq!(a.num_states(), 5);
    }
    let relation = paper::figure1();
    let mut bank_matches = bank.find(&relation);
    let mut ses_matches = Matcher::compile(&p, &schema).unwrap().find(&relation);
    bank_matches.sort();
    ses_matches.sort();
    assert_eq!(bank_matches, ses_matches);
}

/// The textual query language reproduces the same results.
#[test]
fn query_language_round_trip() {
    let text = "PATTERN PERMUTE(c, p+, d) THEN b \
                WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B' \
                  AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID \
                WITHIN 264 HOURS";
    let pattern = ses::query::parse_pattern(text, TickUnit::Hour).unwrap();
    let relation = paper::figure1();
    let matches = Matcher::compile(&pattern, relation.schema())
        .unwrap()
        .find(&relation);
    assert_eq!(matches.len(), 2);
}

/// Filtering (§4.5) never changes the query answer on the paper's data:
/// the paper's Algorithm 1 over every event and over the events the
/// filter keeps answer as the engine does, whose admission mask is the
/// filter — across all semantics.
#[test]
fn filtering_is_transparent_on_figure1() {
    let relation = paper::figure1();
    for semantics in [
        MatchSemantics::AllRuns,
        MatchSemantics::Definition2,
        MatchSemantics::Maximal,
    ] {
        let m = matcher_with(semantics);
        let automaton = m.automaton();
        let cp = automaton.pattern();
        let admitted = AdmittedLog::of(cp, &relation);
        let answer = |events: Vec<EventId>| {
            let raw = algorithm1(automaton, &relation, events);
            select(raw, &admitted, &relation, cp, semantics)
        };
        let all: Vec<EventId> = (0..relation.len()).map(EventId::from).collect();
        let kept = all
            .iter()
            .copied()
            .filter(|&e| paper_filter(cp, relation.event(e)))
            .collect();
        let found = m.find(&relation);
        assert!(!found.is_empty());
        assert_eq!(answer(all), found, "no filter, {semantics:?}");
        assert_eq!(answer(kept), found, "filter, {semantics:?}");
    }
}

/// Theorem-1 prediction holds on Figure 1: Q1's variables are pairwise
/// mutually exclusive, so |Ω| stays small (no factorial branching).
#[test]
fn theorem1_no_branching_on_q1() {
    let relation = paper::figure1();
    let mut probe = CountingProbe::new();
    matcher_with(MatchSemantics::Maximal).find_with_probe(&relation, &mut probe);
    assert_eq!(probe.instances_branched, 0, "Q1 is deterministic");
}

/// The checkpoint fingerprint of Q1 under every selection × semantics
/// pair. A checkpoint is refused unless its fingerprint equals the
/// restoring matcher's, so a change to any of these values refuses every
/// checkpoint written under that pair.
#[test]
fn q1_checkpoint_fingerprints_are_pinned() {
    use EventSelection::{SkipTillAnyMatch, SkipTillNextMatch};
    use MatchSemantics::{AllRuns, Definition2, Maximal};
    let pins = [
        (SkipTillNextMatch, AllRuns, 0x4cc7_806a_658a_b555),
        (SkipTillNextMatch, Definition2, 0xcb2a_a421_0446_cc61),
        (SkipTillNextMatch, Maximal, 0x262a_56b6_80f9_671d),
        (SkipTillAnyMatch, AllRuns, 0xb907_9eea_7044_612c),
        (SkipTillAnyMatch, Definition2, 0xd960_dcdd_b35d_bd74),
        (SkipTillAnyMatch, Maximal, 0xd2aa_5b9d_15e7_e468),
    ];
    for (selection, semantics, pinned) in pins {
        let options = MatcherOptions {
            selection,
            semantics,
            ..MatcherOptions::default()
        };
        let mut sm =
            StreamMatcher::with_options(&paper::query_q1(), &paper::schema(), options).unwrap();
        let fingerprint: u64 = sm.snapshot().fingerprint;
        assert_eq!(fingerprint, pinned, "{selection:?}/{semantics:?}");
    }
}
