//! Generators shared by the property-test suites (`oracle.rs` and
//! `stream_vs_batch.rs`), so the differential stream-vs-batch harness
//! explores exactly the pattern space the oracle suite validates.

#![allow(dead_code)] // each test binary uses a subset

use proptest::prelude::*;

use ses::prelude::*;

/// Event types drawn by the generators; patterns constrain `L` to the
/// first two so `X` rows exercise the §4.5 filter.
pub const TYPES: [&str; 3] = ["A", "B", "X"];

/// The two-attribute schema all generated relations share.
pub fn schema() -> Schema {
    Schema::builder()
        .attr("L", AttrType::Str)
        .attr("ID", AttrType::Int)
        .build()
        .unwrap()
}

/// Random small relations: types from [`TYPES`], correlation ids in
/// `1..3`, strictly increasing timestamps.
pub fn relation_strategy() -> impl Strategy<Value = Relation> {
    relation_strategy_with(2..7, 1i64..3)
}

/// As [`relation_strategy`], but with configurable length and
/// inter-event gaps. A gap range starting at `0` produces runs of equal
/// timestamps — legal in a stream and a prime source of watermark
/// boundary bugs.
pub fn relation_strategy_with(
    len: std::ops::Range<usize>,
    gaps: std::ops::Range<i64>,
) -> impl Strategy<Value = Relation> {
    (
        proptest::collection::vec((0u8..3, 1i64..3), len.clone()),
        proptest::collection::vec(gaps, len),
    )
        .prop_map(|(rows, gaps)| {
            let mut rel = Relation::new(schema());
            let mut t = 0i64;
            for ((ty, id), gap) in rows.into_iter().zip(gaps) {
                t += gap;
                rel.push_values(
                    Timestamp::new(t),
                    [Value::from(TYPES[ty as usize]), Value::from(id)],
                )
                .unwrap();
            }
            rel
        })
}

/// Relations engineered to flood single adjudication groups: short (so
/// the group-variable subset explosion under skip-till-any-match stays
/// around `2^8`), with zero-gap runs of equal timestamps — the
/// duplicate-timestamp swap candidates and tie-heavy watermark seams the
/// adjudicator's condition-4 interval logic must get exactly right.
pub fn dense_relation_strategy() -> impl Strategy<Value = Relation> {
    relation_strategy_with(5..10, 0..2)
}

/// Patterns whose adjudication groups are *dense*. The leading set
/// carries a group variable, so under [`EventSelection::SkipTillAnyMatch`]
/// every subset of a same-type run that shares its first event lands in
/// one `(first event, first variable)` adjudication group — routinely
/// more than ten candidates per group on [`dense_relation_strategy`]
/// relations. Those candidates form nested containment chains
/// (condition-5 / maximality food) and pairs with equal first and last
/// bindings differing only in the middle (condition-4 prefix/swap food).
pub fn dense_pattern_strategy() -> impl Strategy<Value = Pattern> {
    (
        0u8..2,
        0u8..2,
        proptest::bool::ANY,
        proptest::bool::ANY,
        4i64..20,
    )
        .prop_map(|(ty_a, ty_b, second_set, second_plus, within)| {
            let mut b = Pattern::builder();
            b = b.set(|s| s.plus("a"));
            b = b.cond_const("a", "L", CmpOp::Eq, TYPES[ty_a as usize]);
            if second_set {
                b = b.set(move |s| if second_plus { s.plus("b") } else { s.var("b") });
                b = b.cond_const("b", "L", CmpOp::Eq, TYPES[ty_b as usize]);
            }
            b.within(Duration::ticks(within)).build().unwrap()
        })
}

/// As [`pattern_strategy`], but the gap between the two sets carries a
/// negated variable — typed via `L`, optionally also pinned to the first
/// positive variable's `ID`. Negations make
/// `CompiledPattern::partition_keys` return nothing (a killer event may
/// live under any key), so these patterns exercise exactly the path
/// that cannot shard by key: `PartitionMode::Auto`'s global fallback.
pub fn negated_pattern_strategy() -> impl Strategy<Value = Pattern> {
    (
        proptest::collection::vec((0u8..2, proptest::bool::ANY), 1..3),
        proptest::collection::vec((0u8..2, proptest::bool::ANY), 1..2),
        0u8..3,
        proptest::bool::ANY,
        proptest::bool::ANY,
        4i64..20,
    )
        .prop_map(
            |(first, second, neg_ty, neg_correlate, correlate, within)| {
                let sets = [first, second];
                let mut b = Pattern::builder();
                for (si, set) in sets.iter().enumerate() {
                    let vars: Vec<(String, bool)> = set
                        .iter()
                        .enumerate()
                        .map(|(vi, (_, plus))| (format!("v{si}_{vi}"), *plus))
                        .collect();
                    b = b.set(move |s| {
                        for (n, plus) in &vars {
                            if *plus {
                                s.plus(n.clone());
                            } else {
                                s.var(n.clone());
                            }
                        }
                        s
                    });
                    if si == 0 {
                        b = b.negate("n0");
                    }
                }
                let mut names: Vec<String> = Vec::new();
                for (si, set) in sets.iter().enumerate() {
                    for (vi, (ty, _)) in set.iter().enumerate() {
                        b = b.cond_const(
                            format!("v{si}_{vi}"),
                            "L",
                            CmpOp::Eq,
                            TYPES[*ty as usize],
                        );
                        names.push(format!("v{si}_{vi}"));
                    }
                }
                b = b.neg_cond_const("n0", "L", CmpOp::Eq, TYPES[neg_ty as usize]);
                if neg_correlate {
                    b = b.neg_cond_vars("n0", "ID", CmpOp::Eq, names[0].clone(), "ID");
                }
                // Same greedy-safety rule as `pattern_strategy`.
                let has_group = sets.iter().flatten().any(|(_, plus)| *plus);
                if correlate && !has_group {
                    for i in 1..names.len() {
                        for j in 0..i {
                            b = b.cond_vars(
                                names[j].clone(),
                                "ID",
                                CmpOp::Eq,
                                names[i].clone(),
                                "ID",
                            );
                        }
                    }
                }
                b.within(Duration::ticks(within)).build().unwrap()
            },
        )
}

/// Patterns for the analyzer differential suite: 1–2 sets, ≤ 3 plain
/// variables (no groups, so every selection strategy is complete), each
/// variable optionally typed via `L`, plus random constant and order
/// conditions on `ID`. The extra conditions make every analyzer pass
/// fire with useful frequency: overlapping constants trigger SES002
/// redundancy, contradictory ones SES001 emptiness (both the original
/// and the rewritten pattern must then match nothing), and `≤`/`<`/`=`
/// links between variables feed constant propagation.
pub fn analyzer_pattern_strategy() -> impl Strategy<Value = Pattern> {
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    const LINK_OPS: [CmpOp; 3] = [CmpOp::Eq, CmpOp::Le, CmpOp::Lt];
    (
        proptest::collection::vec(
            proptest::collection::vec((0u8..2, proptest::bool::ANY), 1..3),
            1..3,
        ),
        4i64..20,
        proptest::collection::vec((0u8..3, 0u8..6, 0i64..4), 0..4),
        proptest::collection::vec((0u8..3, 0u8..3, 0u8..3), 0..3),
    )
        .prop_filter("≤3 vars", |(sets, ..)| {
            sets.iter().map(Vec::len).sum::<usize>() <= 3
        })
        .prop_map(|(sets, within, consts, links)| {
            let mut b = Pattern::builder();
            for (si, set) in sets.iter().enumerate() {
                let vars: Vec<String> = (0..set.len()).map(|vi| format!("v{si}_{vi}")).collect();
                b = b.set(move |s| {
                    for n in &vars {
                        s.var(n.clone());
                    }
                    s
                });
            }
            let mut names: Vec<String> = Vec::new();
            for (si, set) in sets.iter().enumerate() {
                for (vi, (ty, typed)) in set.iter().enumerate() {
                    let name = format!("v{si}_{vi}");
                    if *typed {
                        b = b.cond_const(name.clone(), "L", CmpOp::Eq, TYPES[*ty as usize]);
                    }
                    names.push(name);
                }
            }
            for (var, op, c) in consts {
                let v = &names[var as usize % names.len()];
                b = b.cond_const(v.clone(), "ID", OPS[op as usize], c);
            }
            for (op, from, to) in links {
                let (f, t) = (from as usize % names.len(), to as usize % names.len());
                if f != t {
                    b = b.cond_vars(
                        names[f].clone(),
                        "ID",
                        LINK_OPS[op as usize],
                        names[t].clone(),
                        "ID",
                    );
                }
            }
            b.within(Duration::ticks(within)).build().unwrap()
        })
}

/// Small *sets* of correlated patterns for the multi-pattern bank
/// suites: 1–4 patterns drawn from [`pattern_strategy`] (a set of one
/// makes bank-of-one ≡ a lone `StreamMatcher` part of every bank
/// property), so they share
/// event types from [`TYPES`] (overlapping routing), plus optionally
/// one rider that takes a branch of the predicate index's verdict the
/// `L`-pinned patterns do not:
///
/// * a pattern the index routes nothing to, either pinned to a constant
///   `ID` no generated relation carries (ids are `1..3`, the pin is `7`),
///   or provably unsatisfiable (`ID > 10 ∧ ID < 5`) — a matcher that
///   runs no engine and whose heartbeat could only ever evict;
/// * a pattern pinned on `ID` alone (`f.ID = 1`), found in the `Int`
///   table beside the others' `Str` pins;
/// * a range-only pattern (`f.ID > 1`), whose group is evaluated on
///   every event (Scanned);
/// * `a THEN NOT n THEN b` with `n.L = 'X'`: `X` rows are admitted only
///   through the negation, with mask `0`;
/// * a set `{f, g}` whose `g` has no constant condition: every event is
///   admitted, `g`'s bit always set (Every).
pub fn pattern_set_strategy() -> impl Strategy<Value = Vec<Pattern>> {
    (proptest::collection::vec(pattern_strategy(), 1..4), 0u8..7).prop_map(
        |(mut patterns, rider)| {
            let f = || Pattern::builder().set(|s| s.var("f"));
            let typed = || f().cond_const("f", "L", CmpOp::Eq, TYPES[0]);
            let rider = match rider {
                1 => typed().cond_const("f", "ID", CmpOp::Eq, 7),
                2 => {
                    typed()
                        .cond_const("f", "ID", CmpOp::Gt, 10)
                        .cond_const("f", "ID", CmpOp::Lt, 5)
                }
                3 => f().cond_const("f", "ID", CmpOp::Eq, 1),
                4 => f().cond_const("f", "ID", CmpOp::Gt, 1),
                5 => Pattern::builder()
                    .set(|s| s.var("a"))
                    .negate("n")
                    .set(|s| s.var("b"))
                    .cond_const("a", "L", CmpOp::Eq, TYPES[0])
                    .cond_const("b", "L", CmpOp::Eq, TYPES[1])
                    .neg_cond_const("n", "L", CmpOp::Eq, TYPES[2]),
                6 => Pattern::builder().set(|s| s.var("f").var("g")).cond_const(
                    "f",
                    "L",
                    CmpOp::Eq,
                    TYPES[0],
                ),
                _ => return patterns,
            };
            patterns.push(rider.within(Duration::ticks(5)).build().unwrap());
            patterns
        },
    )
}

/// Rows for [`paced_relation`]: `(type, id, pattern pick, pace pick)`.
pub type PacedRows = Vec<(u8, i64, u8, u8)>;

/// Random [`PacedRows`] of a length in `len`.
pub fn paced_rows_strategy(len: std::ops::Range<usize>) -> impl Strategy<Value = PacedRows> {
    proptest::collection::vec((0u8..3, 1i64..3, 0u8..8, 0u8..12), len)
}

/// A relation whose inter-event gaps are paced by the windows of the
/// very `patterns` it will be matched against: each row advances the
/// clock by nothing (a tie), a tick or two, or — measured in the window
/// `τ` of the pattern it picks — `τ − 1`, `τ`, `τ + 1`, `2τ`, `2τ + 1`,
/// `2τ + 2` or `7τ`. Those are the instants at which a matcher's
/// watermark work comes due (sweep and adjudication one tick past `τ`,
/// killer pruning one past `2τ`), so a bank that gates heartbeats on a
/// deadline meets events tied exactly at, one before and one after each
/// of them, and idle stretches far longer than any window.
pub fn paced_relation(patterns: &[Pattern], rows: &PacedRows) -> Relation {
    let mut rel = Relation::new(schema());
    let mut t = 0i64;
    for &(ty, id, which, pace) in rows {
        let tau = patterns[which as usize % patterns.len()]
            .within()
            .as_ticks();
        t += [
            0,
            0,
            1,
            1,
            2,
            tau - 1,
            tau,
            tau + 1,
            2 * tau,
            2 * tau + 1,
            2 * tau + 2,
            7 * tau,
        ][pace as usize];
        rel.push_values(
            Timestamp::new(t),
            [Value::from(TYPES[ty as usize]), Value::from(id)],
        )
        .unwrap();
    }
    rel
}

/// As [`pattern_set_strategy`], but with a tunable overlap knob:
/// `overlap_pct`% of the generated patterns (rounded up) are rebuilt to
/// open with one common leading event set — identical declaration
/// order, types, and window τ — and to end in a typed suffix variable
/// drawn from three types. Where two suffixes coincide the patterns are
/// twins; where they differ the patterns overlap in everything but
/// their last set. Either way each runs a `PatternBank` matcher of its
/// own. The differential suites get twins, their near-twins, and
/// untouched independents in one set.
pub fn pattern_set_strategy_with_overlap(overlap_pct: u8) -> impl Strategy<Value = Vec<Pattern>> {
    (
        pattern_set_strategy(),
        proptest::collection::vec((0u8..2, proptest::bool::ANY), 1..3),
        4i64..20,
        proptest::collection::vec(0u8..3, 8),
        proptest::bool::ANY,
    )
        .prop_map(
            move |(mut patterns, prefix, within, suffix_tys, correlate)| {
                let n = patterns.len();
                let k = n.min((n * overlap_pct as usize).div_ceil(100));
                for (i, pattern) in patterns.iter_mut().take(k).enumerate() {
                    let mut b = Pattern::builder();
                    let vars: Vec<(String, bool)> = prefix
                        .iter()
                        .enumerate()
                        .map(|(vi, (_, plus))| (format!("s{vi}"), *plus))
                        .collect();
                    let set_vars = vars.clone();
                    b = b.set(move |s| {
                        for (name, plus) in &set_vars {
                            if *plus {
                                s.plus(name.clone());
                            } else {
                                s.var(name.clone());
                            }
                        }
                        s
                    });
                    b = b.set(|s| s.var("t"));
                    for (vi, (ty, _)) in prefix.iter().enumerate() {
                        b = b.cond_const(format!("s{vi}"), "L", CmpOp::Eq, TYPES[*ty as usize]);
                    }
                    b = b.cond_const(
                        "t",
                        "L",
                        CmpOp::Eq,
                        TYPES[suffix_tys[i % suffix_tys.len()] as usize],
                    );
                    // Same greedy-safety rule as `pattern_strategy`.
                    let has_group = prefix.iter().any(|(_, plus)| *plus);
                    if correlate && !has_group {
                        b = b.cond_vars("s0", "ID", CmpOp::Eq, "t", "ID");
                    }
                    *pattern = b.within(Duration::ticks(within)).build().unwrap();
                }
                patterns
            },
        )
}

/// The class [`pattern_strategy`] leaves out: 1–2 sets of 2–3
/// variables typed as there, one of them a group variable `p+` with an
/// `ID` equality on a variable that can bind after it — in its own set
/// or a later one. Greedy skip-till-next-match is not complete here (the
/// `p+` loop can absorb an event whose correlate binds later);
/// skip-till-any-match is held to the oracle on it.
pub fn correlated_group_pattern_strategy() -> impl Strategy<Value = Pattern> {
    (
        proptest::collection::vec(
            proptest::collection::vec((0u8..2, proptest::bool::ANY), 1..3),
            1..3,
        ),
        4i64..20,
        0usize..3,
        0usize..3,
    )
        .prop_filter("2–3 vars", |(sets, ..)| {
            (2..=3).contains(&sets.iter().map(Vec::len).sum::<usize>())
        })
        .prop_map(|(mut sets, within, group_pick, partner_pick)| {
            // `(set, index in set)` of every variable, in declaration order.
            let vars: Vec<(usize, usize)> = sets
                .iter()
                .enumerate()
                .flat_map(|(si, set)| (0..set.len()).map(move |vi| (si, vi)))
                .collect();
            let partners_of = |g: usize| -> Vec<usize> {
                (0..vars.len())
                    .filter(|&j| j != g && vars[j].0 >= vars[g].0)
                    .collect()
            };
            // The first variable always has one: there are two or more.
            let groups: Vec<usize> = (0..vars.len())
                .filter(|&g| !partners_of(g).is_empty())
                .collect();
            let g = groups[group_pick % groups.len()];
            let partners = partners_of(g);
            let partner = partners[partner_pick % partners.len()];
            sets[vars[g].0][vars[g].1].1 = true;
            let name = |(si, vi): (usize, usize)| format!("v{si}_{vi}");
            let mut b = Pattern::builder();
            for (si, set) in sets.iter().enumerate() {
                let set: Vec<(String, bool)> = set
                    .iter()
                    .enumerate()
                    .map(|(vi, &(_, plus))| (name((si, vi)), plus))
                    .collect();
                b = b.set(move |s| {
                    for (n, plus) in &set {
                        if *plus {
                            s.plus(n.clone());
                        } else {
                            s.var(n.clone());
                        }
                    }
                    s
                });
            }
            for &(si, vi) in &vars {
                b = b.cond_const(
                    name((si, vi)),
                    "L",
                    CmpOp::Eq,
                    TYPES[sets[si][vi].0 as usize],
                );
            }
            b = b.cond_vars(name(vars[g]), "ID", CmpOp::Eq, name(vars[partner]), "ID");
            b.within(Duration::ticks(within)).build().unwrap()
        })
}

/// Tiny patterns: 1–2 sets, ≤ 3 variables total, constant type
/// conditions (possibly overlapping ⇒ nondeterminism), optionally a
/// group variable and an ID-equality clique (greedy-safe correlation).
pub fn pattern_strategy() -> impl Strategy<Value = Pattern> {
    (
        proptest::collection::vec(
            proptest::collection::vec((0u8..2, proptest::bool::ANY), 1..3),
            1..3,
        ),
        4i64..20,
        proptest::bool::ANY,
    )
        .prop_filter("≤3 vars", |(sets, _, _)| {
            sets.iter().map(Vec::len).sum::<usize>() <= 3
        })
        .prop_map(|(sets, within, correlate)| {
            let mut b = Pattern::builder();
            for (si, set) in sets.iter().enumerate() {
                let vars: Vec<(String, bool)> = set
                    .iter()
                    .enumerate()
                    .map(|(vi, (_, plus))| (format!("v{si}_{vi}"), *plus))
                    .collect();
                b = b.set(move |s| {
                    for (n, plus) in &vars {
                        if *plus {
                            s.plus(n.clone());
                        } else {
                            s.var(n.clone());
                        }
                    }
                    s
                });
            }
            let mut names: Vec<String> = Vec::new();
            for (si, set) in sets.iter().enumerate() {
                for (vi, (ty, _)) in set.iter().enumerate() {
                    b = b.cond_const(format!("v{si}_{vi}"), "L", CmpOp::Eq, TYPES[*ty as usize]);
                    names.push(format!("v{si}_{vi}"));
                }
            }
            // Correlate only when the pattern has no group variables: a
            // correlated group loop can absorb an incompatible event
            // *before* the correlating variable binds, derailing greedy
            // execution — Definition 2 then admits matches Algorithm 1
            // cannot find (skip-till-any-match recovers them; see
            // `any_match_maximal_equals_oracle`).
            let has_group = sets.iter().flatten().any(|(_, plus)| *plus);
            if correlate && !has_group {
                for i in 1..names.len() {
                    for j in 0..i {
                        b = b.cond_vars(names[j].clone(), "ID", CmpOp::Eq, names[i].clone(), "ID");
                    }
                }
            }
            b.within(Duration::ticks(within)).build().unwrap()
        })
}

/// Patterns whose first set holds one class of 2–3 interchangeable
/// singletons (`m0`, `m1`, `m2`, all of one type) beside an optional
/// group variable `g+` (placed anywhere among them, so the members' ids
/// need not be contiguous) and an optional singleton `x` of its own type
/// declared first, optionally followed by a set `{t}` and a negation `n`
/// guarding the gap before it. Every variable condition is
/// invariant under permuting the members: none, a clique `mi.ID = mj.ID`,
/// a star `mi.ID = hub.ID` through `t` or `g` (the hub joined to `t`
/// when both exist), or pairwise `mi.ID != mj.ID` — so `Θ` really is
/// symmetric, which [`pattern_strategy`] only rarely makes it.
pub fn symmetric_pattern_strategy() -> impl Strategy<Value = Pattern> {
    (
        (2usize..4, 0u8..2),
        proptest::option::of((0u8..2, 0usize..4)),
        proptest::option::of(0u8..2),
        0u8..4,
        (proptest::bool::ANY, proptest::bool::ANY),
        3i64..15,
    )
        .prop_map(
            |((k, member_ty), group, tail, correlate, (negate, lead), within)| {
                let members: Vec<String> = (0..k).map(|i| format!("m{i}")).collect();
                let mut b = Pattern::builder();
                {
                    let members = members.clone();
                    b = b.set(move |s| {
                        if lead {
                            s.var("x");
                        }
                        for (i, m) in members.iter().enumerate() {
                            if group.is_some_and(|(_, at)| at.min(k) == i) {
                                s.plus("g");
                            }
                            s.var(m.clone());
                        }
                        if group.is_some_and(|(_, at)| at >= k) {
                            s.plus("g");
                        }
                        s
                    });
                }
                let negate = negate && tail.is_some();
                if negate {
                    b = b.negate("n");
                }
                if tail.is_some() {
                    b = b.set(|s| s.var("t"));
                }
                for m in &members {
                    b = b.cond_const(m.clone(), "L", CmpOp::Eq, TYPES[member_ty as usize]);
                }
                if lead {
                    b = b.cond_const("x", "L", CmpOp::Eq, TYPES[1 - member_ty as usize]);
                }
                if let Some((ty, _)) = group {
                    b = b.cond_const("g", "L", CmpOp::Eq, TYPES[ty as usize]);
                }
                if let Some(ty) = tail {
                    b = b.cond_const("t", "L", CmpOp::Eq, TYPES[ty as usize]);
                }
                if negate {
                    b = b.neg_cond_const("n", "L", CmpOp::Eq, TYPES[2]);
                }
                let hub = if tail.is_some() {
                    Some("t")
                } else if group.is_some() {
                    Some("g")
                } else {
                    None
                };
                match (correlate, hub) {
                    (1, _) | (2, None) => {
                        for i in 0..k {
                            for j in i + 1..k {
                                b = b.cond_vars(
                                    members[i].clone(),
                                    "ID",
                                    CmpOp::Eq,
                                    members[j].clone(),
                                    "ID",
                                );
                            }
                        }
                    }
                    (2, Some(hub)) => {
                        for m in &members {
                            b = b.cond_vars(m.clone(), "ID", CmpOp::Eq, hub, "ID");
                        }
                        if hub == "t" && group.is_some() {
                            b = b.cond_vars("g", "ID", CmpOp::Eq, "t", "ID");
                        }
                    }
                    (3, _) => {
                        for i in 0..k {
                            for j in i + 1..k {
                                b = b.cond_vars(
                                    members[j].clone(),
                                    "ID",
                                    CmpOp::Ne,
                                    members[i].clone(),
                                    "ID",
                                );
                            }
                        }
                    }
                    _ => {}
                }
                b.within(Duration::ticks(within)).build().unwrap()
            },
        )
}
