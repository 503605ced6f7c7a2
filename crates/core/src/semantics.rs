//! Match selection semantics — conditions 4 and 5 of Definition 2.
//!
//! Algorithm 1 emits the buffer of every accepting automaton run. With
//! nondeterminism (variables that are not pairwise mutually exclusive) and
//! with overlapping starts, the raw runs are a superset of the paper's
//! intended query answers. This module post-filters them. Three modes:
//!
//! * [`MatchSemantics::AllRuns`] — every distinct accepting run, i.e. the
//!   literal output of the paper's Algorithm 1 (conditions 1–3 only).
//! * [`MatchSemantics::Definition2`] — adds conditions 4 and 5:
//!   - **Condition 4 (skip-till-next-match)**: γ is rejected when some
//!     variable `v'` could have been bound to a strictly earlier event
//!     `e''` (with `minT(γ).T < e''.T < e'.T`) by a run that *agrees with
//!     γ on everything before `e''`*. Two sound tests implement this:
//!     the **swap** test (replacing `v'/e'` by `v'/e''` still satisfies
//!     conditions 1–3 — the agreeing run is γ itself minus the swap) and
//!     the **prefix** test (another candidate binds `v'/e''` and has
//!     exactly γ's bindings before `e''`). *Interpretation note*: read
//!     literally, condition 4 quantifies over bindings in arbitrary
//!     `γ' ∈ Γ`, which would reject the paper's own worked answer for
//!     patient 1 (patient 2's `p/e6` falls between `p/e4` and `p/e9`);
//!     the paper's explanation and Example 4 make clear the intended
//!     reading is the earliest *compatible* binding, which the
//!     prefix-agreement formulation captures. See DESIGN.md.
//!   - **Condition 5 (MAXIMAL, greedy)**: γ is rejected if it is a proper
//!     subset of another candidate with the same first binding.
//! * [`MatchSemantics::Maximal`] — [`MatchSemantics::Definition2`] plus
//!   global proper-subset removal. This reproduces the paper's stated Q1
//!   answers exactly: Definition 2 still admits *suffix* matches (e.g.
//!   `{d/e7, c/e8, p/e10, p/e11, b/e13}` in Figure 1, a strict subset of
//!   patient 2's answer that starts one event later), which the paper's
//!   prose — "(1) the earliest possible matching events and (2) the
//!   maximal number of matching events" — clearly excludes.

use ses_event::{EventId, Relation, Timestamp};
use ses_pattern::{CompiledPattern, VarId};

use crate::adjudicate::{GroupIndex, SurvivorStore, ViableIndex};
use crate::engine::RawMatch;
use crate::matches::Match;
use crate::reference::satisfies_conditions_1_3;

/// Which substitutions [`select`] returns. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchSemantics {
    /// Every distinct accepting run of Algorithm 1 (conditions 1–3 only).
    AllRuns,
    /// Conditions 1–5 of Definition 2 (swap interpretation of cond. 4).
    Definition2,
    /// [`MatchSemantics::Definition2`] plus global subset removal — the
    /// paper's worked query answers. The default.
    #[default]
    Maximal,
}

/// Which adjudicator implementation evaluates conditions 4–5 and
/// maximality. Both produce identical matches and identical streaming
/// emission schedules — `tests/adjudicator_vs_bruteforce.rs` proves it —
/// so this is a deployment knob, deliberately excluded from the
/// checkpoint fingerprint like [`crate::ColumnarMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdjudicationMode {
    /// Sorted-group sweep over posting-list/prefix-hash indexes with a
    /// bounded viable-event scan for condition 4 (see
    /// `docs/adjudication.md`). The default.
    #[default]
    Indexed,
    /// The original all-pairs scans, quadratic in the group size and
    /// linear in the retained relation per binding. Kept as the
    /// differential-test oracle and benchmark baseline.
    Pairwise,
}

/// Applies the selected semantics to the engine's raw matches using the
/// default [`AdjudicationMode::Indexed`] adjudicator.
pub fn select(
    raw: Vec<RawMatch>,
    relation: &Relation,
    pattern: &CompiledPattern,
    semantics: MatchSemantics,
) -> Vec<Match> {
    select_with(
        raw,
        relation,
        pattern,
        semantics,
        AdjudicationMode::default(),
    )
}

/// [`select`] with an explicit adjudicator implementation.
pub fn select_with(
    raw: Vec<RawMatch>,
    relation: &Relation,
    pattern: &CompiledPattern,
    semantics: MatchSemantics,
    adjudication: AdjudicationMode,
) -> Vec<Match> {
    let mut candidates: Vec<Match> = raw.into_iter().map(Match::from_raw).collect();
    candidates.sort();
    candidates.dedup();
    if semantics == MatchSemantics::AllRuns {
        return candidates;
    }

    // Conditions 4 and 5 are closed within first-binding groups (see
    // [`Adjudicator`]), and a Maximal killer's first binding never
    // follows its victim's — so adjudicating the groups in ascending
    // first-binding order reproduces the global filter exactly. Batch
    // and streaming share this code path, which is what makes the
    // stream-vs-batch differential suite a structural equivalence.
    let mut groups: std::collections::BTreeMap<GroupKey, Vec<Match>> =
        std::collections::BTreeMap::new();
    for m in candidates {
        groups.entry(group_key(&m)).or_default().push(m);
    }
    let mut adjudicator = Adjudicator::new(semantics, adjudication);
    let mut out = Vec::new();
    for (_, group) in groups {
        out.extend(adjudicator.adjudicate_group(group, relation, pattern));
    }
    // Group order is event-major; restore the canonical match order.
    out.sort();
    out
}

/// A candidate group key: the first binding in `(event, variable)` order.
/// Event ids are chronological, so ascending keys are ascending `minT`.
pub(crate) type GroupKey = (EventId, VarId);

/// The group a candidate belongs to for adjudication purposes.
pub(crate) fn group_key(m: &Match) -> GroupKey {
    let (var, event) = m.bindings()[0];
    (event, var)
}

/// Incremental application of conditions 4–5 and maximality, one
/// first-binding group at a time.
///
/// Feeding groups in ascending [`GroupKey`] order yields exactly the
/// matches the one-shot global filter produces, because the quantifiers
/// of Definition 2 decompose along first bindings:
///
/// * **Condition 4 (prefix test)** — an agreeing run shares every
///   binding of γ strictly before the alternative's timestamp, and the
///   alternative lies strictly after `minT(γ)`; agreement therefore
///   forces the same first binding. The swap test needs no candidate set
///   at all. Both are closed within the group.
/// * **Condition 5** — quantifies over candidates with the same first
///   binding by definition.
/// * **Maximality** — a killer `γ' ⊋ γ` contains γ's first binding, so
///   its own first binding cannot be later: killers live in the same or
///   an earlier group. Earlier groups' Definition-2 survivors are
///   accumulated; later groups can never retroactively kill an emitted
///   match.
///
/// For streaming, a group is adjudicated once the watermark makes it
/// complete (no run starting at `minT` can still grow once
/// `watermark − minT > τ`), and accumulated survivors are prunable once
/// `minT < watermark − 2τ` — any later victim's window reaches back at
/// most τ before its own `minT`, which is itself at least
/// `watermark − τ`.
#[derive(Debug)]
pub(crate) struct Adjudicator {
    semantics: MatchSemantics,
    mode: AdjudicationMode,
    /// Definition-2 survivors of adjudicated groups, kept (with their
    /// `minT`) as potential Maximal killers for later groups.
    survivors: SurvivorStore,
    /// Per-variable viable-event cache for the indexed condition-4 swap
    /// scan, extended monotonically as groups arrive. Rebuilt lazily
    /// after a snapshot restore; never part of the snapshot itself.
    viable: ViableIndex,
}

impl Adjudicator {
    /// An adjudicator with no groups processed yet.
    pub(crate) fn new(semantics: MatchSemantics, mode: AdjudicationMode) -> Adjudicator {
        Adjudicator {
            semantics,
            mode,
            survivors: SurvivorStore::new(),
            viable: ViableIndex::new(),
        }
    }

    /// Adjudicates one complete group of candidates (all sharing a first
    /// binding). Groups must arrive in ascending [`GroupKey`] order, and
    /// candidates must satisfy conditions 1–3 (engine-produced raw
    /// matches do by construction — the indexed swap test relies on it).
    /// Returns the group's final matches under the configured semantics.
    pub(crate) fn adjudicate_group(
        &mut self,
        group: Vec<Match>,
        relation: &Relation,
        pattern: &CompiledPattern,
    ) -> Vec<Match> {
        let mut group = group;
        group.sort();
        group.dedup();
        if group.is_empty() || self.semantics == MatchSemantics::AllRuns {
            return group;
        }
        match self.mode {
            AdjudicationMode::Pairwise => self.adjudicate_pairwise(group, relation, pattern),
            AdjudicationMode::Indexed => self.adjudicate_indexed(group, relation, pattern),
        }
    }

    /// The legacy all-pairs adjudication — the oracle the indexed path
    /// is differentially tested against.
    fn adjudicate_pairwise(
        &mut self,
        group: Vec<Match>,
        relation: &Relation,
        pattern: &CompiledPattern,
    ) -> Vec<Match> {
        let kept: Vec<Match> = group
            .iter()
            .filter(|m| {
                survives_condition_4(m, relation, pattern, &group)
                    && survives_condition_5(m, &group)
            })
            .cloned()
            .collect();

        if self.semantics == MatchSemantics::Definition2 {
            return kept;
        }

        // Maximal: drop matches properly contained in a same-group or
        // earlier-group Definition-2 survivor, then remember this
        // group's survivors as killers for later groups.
        let finals: Vec<Match> = kept
            .iter()
            .filter(|m| {
                !kept.iter().any(|o| m.is_proper_subset_of(o)) && !self.survivors.kills_pairwise(m)
            })
            .cloned()
            .collect();
        for m in kept {
            let min_ts = relation.event(m.first_event()).ts();
            self.survivors.push(min_ts, m);
        }
        finals
    }

    /// The indexed adjudication: identical verdicts in sorted group
    /// order, via the structures in [`crate::adjudicate`].
    fn adjudicate_indexed(
        &mut self,
        group: Vec<Match>,
        relation: &Relation,
        pattern: &CompiledPattern,
    ) -> Vec<Match> {
        let gi = GroupIndex::build(&group, relation);
        self.viable
            .ensure_cover(pattern, relation, gi.cover_needed());
        let kept: Vec<bool> = (0..group.len())
            .map(|i| {
                gi.survives_condition_4(i, relation, pattern, &self.viable)
                    && gi.survives_condition_5(i)
            })
            .collect();

        if self.semantics == MatchSemantics::Definition2 {
            return group
                .into_iter()
                .zip(kept)
                .filter_map(|(m, k)| k.then_some(m))
                .collect();
        }

        let finals: Vec<Match> = (0..group.len())
            .filter(|&i| {
                kept[i]
                    && !gi.dominated_by_kept(i, &kept)
                    && !self.survivors.kills_indexed(&group[i])
            })
            .map(|i| group[i].clone())
            .collect();
        let min_ts = relation.event(group[0].first_event()).ts();
        for (m, k) in group.into_iter().zip(kept) {
            if k {
                self.survivors.push(min_ts, m);
            }
        }
        finals
    }

    /// Discards accumulated survivors whose `minT` precedes `cutoff` —
    /// they can no longer kill any group still to come. Used by the
    /// streaming matcher to bound memory; harmless to never call.
    pub(crate) fn prune_survivors(&mut self, cutoff: Timestamp) {
        self.survivors.prune(cutoff);
    }

    /// Number of retained killer candidates (streaming memory probe).
    pub(crate) fn survivor_count(&self) -> usize {
        self.survivors.live().len()
    }

    /// `minT` of the oldest retained killer — the next one
    /// [`Adjudicator::prune_survivors`] will drop.
    pub(crate) fn oldest_survivor(&self) -> Option<Timestamp> {
        self.survivors.live().first().map(|&(min_ts, _)| min_ts)
    }

    /// The retained killers with their `minT` — read by the streaming
    /// matcher's snapshot.
    pub(crate) fn survivors(&self) -> &[(Timestamp, Match)] {
        self.survivors.live()
    }

    /// Replaces the killer set wholesale — the restore counterpart of
    /// [`Adjudicator::survivors`].
    pub(crate) fn restore_survivors(&mut self, survivors: Vec<(Timestamp, Match)>) {
        self.survivors.restore(survivors);
    }
}

/// Condition 4: no variable of γ could have bound a strictly earlier
/// in-extent event via an agreeing-prefix run. Implemented as the union
/// of the swap test (against the full `Γ`, via direct validity checking)
/// and the prefix test (against the accepted candidate set).
fn survives_condition_4(
    m: &Match,
    relation: &Relation,
    pattern: &CompiledPattern,
    candidates: &[Match],
) -> bool {
    let min_ts = relation.event(m.first_event()).ts();
    for &(var, event) in m.bindings() {
        let bound_ts = relation.event(event).ts();
        // Candidate earlier events strictly inside (minT, e.T). Event ids
        // are chronological, so a linear scan up to `event` suffices.
        // Start at the first retained event: anything evicted is older
        // than `minT` of every live candidate and would be skipped anyway.
        for alt_idx in relation.first_index()..event.index() {
            let alt = EventId::from(alt_idx);
            let alt_ts = relation.event(alt).ts();
            if alt_ts <= min_ts || alt_ts >= bound_ts {
                continue;
            }
            if m.events().any(|e| e == alt) {
                continue; // already used in γ (possibly by another variable)
            }
            if swap_is_valid(m, var, event, alt, relation, pattern)
                || prefix_alternative_exists(m, var, alt, alt_ts, relation, candidates)
            {
                return false;
            }
        }
    }
    true
}

/// `true` iff some candidate binds `var/alt` and agrees with `m` on every
/// binding strictly before `alt`'s timestamp (stream position for ties).
fn prefix_alternative_exists(
    m: &Match,
    var: VarId,
    alt: EventId,
    alt_ts: Timestamp,
    relation: &Relation,
    candidates: &[Match],
) -> bool {
    let prefix_of = |x: &Match| -> Vec<(VarId, EventId)> {
        x.bindings()
            .iter()
            .copied()
            .filter(|&(_, e)| relation.event(e).ts() < alt_ts)
            .collect()
    };
    let m_prefix = prefix_of(m);
    candidates
        .iter()
        .any(|other| other.contains(var, alt) && prefix_of(other) == m_prefix)
}

/// Checks whether γ with binding `var/event` replaced by `var/alt`
/// satisfies conditions 1–3.
fn swap_is_valid(
    m: &Match,
    var: VarId,
    event: EventId,
    alt: EventId,
    relation: &Relation,
    pattern: &CompiledPattern,
) -> bool {
    let mut bindings: Vec<(VarId, EventId)> = m
        .bindings()
        .iter()
        .map(|&(v, e)| {
            if v == var && e == event {
                (v, alt)
            } else {
                (v, e)
            }
        })
        .collect();
    bindings.sort_unstable_by_key(|&(v, e)| (e, v));
    satisfies_conditions_1_3(pattern, relation, &bindings)
}

/// Condition 5: not a proper subset of another candidate with the same
/// first binding.
fn survives_condition_5(m: &Match, all: &[Match]) -> bool {
    let first = m.bindings()[0];
    !all.iter()
        .any(|other| other.bindings()[0] == first && m.is_proper_subset_of(other))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_event::{AttrType, CmpOp, Duration, Schema, Timestamp, Value};
    use ses_pattern::Pattern;

    fn schema() -> Schema {
        Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .build()
            .unwrap()
    }

    fn rel(rows: &[(i64, i64, &str)]) -> Relation {
        let mut r = Relation::new(schema());
        for (ts, id, l) in rows {
            r.push_values(Timestamp::new(*ts), [Value::from(*id), Value::from(*l)])
                .unwrap();
        }
        r
    }

    fn raw(bindings: &[(u16, u32)]) -> RawMatch {
        let mut b: Vec<(VarId, EventId)> = bindings
            .iter()
            .map(|&(v, e)| (VarId(v), EventId(e)))
            .collect();
        b.sort_unstable_by_key(|&(var, ev)| (ev, var));
        RawMatch { bindings: b }
    }

    fn ab_pattern() -> CompiledPattern {
        // a then b, same ID.
        Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
            .within(Duration::ticks(100))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap()
    }

    fn pb_pattern() -> CompiledPattern {
        // p+ then b.
        Pattern::builder()
            .set(|s| s.plus("p"))
            .set(|s| s.var("b"))
            .cond_const("p", "L", CmpOp::Eq, "P")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(100))
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap()
    }

    #[test]
    fn all_runs_dedups_identical() {
        let cp = ab_pattern();
        let r = rel(&[(0, 1, "A"), (1, 1, "B")]);
        let out = select(
            vec![raw(&[(0, 0), (1, 1)]), raw(&[(0, 0), (1, 1)])],
            &r,
            &cp,
            MatchSemantics::AllRuns,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn condition4_rejects_later_than_necessary_binding() {
        let cp = ab_pattern();
        // A@0, B@1, B@2 (same ID): {a/e1, b/e3} can swap b to e2 → drop;
        // {a/e1, b/e2} survives.
        let r = rel(&[(0, 1, "A"), (1, 1, "B"), (2, 1, "B")]);
        let out = select(
            vec![raw(&[(0, 0), (1, 1)]), raw(&[(0, 0), (1, 2)])],
            &r,
            &cp,
            MatchSemantics::Definition2,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].last_event(), EventId(1));
    }

    #[test]
    fn condition4_swap_respects_other_conditions() {
        let cp = ab_pattern();
        // The earlier B belongs to a different patient: the swap violates
        // a.ID = b.ID, so the later binding is legitimate.
        let r = rel(&[(0, 1, "A"), (1, 2, "B"), (2, 1, "B")]);
        let out = select(
            vec![raw(&[(0, 0), (1, 2)])],
            &r,
            &cp,
            MatchSemantics::Definition2,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn condition4_alternative_before_min_is_harmless() {
        let cp = pb_pattern();
        // P@0 P@1 B@2: the suffix run {p/e2, b/e3} has an earlier P at e1,
        // but e1.T ≤ minT(γ)... it *is* before the start → cannot violate.
        let r = rel(&[(0, 1, "P"), (1, 1, "P"), (2, 1, "B")]);
        let out = select(
            vec![raw(&[(0, 0), (0, 1), (1, 2)]), raw(&[(0, 1), (1, 2)])],
            &r,
            &cp,
            MatchSemantics::Definition2,
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn maximal_drops_suffix_runs() {
        let cp = pb_pattern();
        let r = rel(&[(0, 1, "P"), (1, 1, "P"), (2, 1, "B")]);
        let out = select(
            vec![raw(&[(0, 0), (0, 1), (1, 2)]), raw(&[(0, 1), (1, 2)])],
            &r,
            &cp,
            MatchSemantics::Maximal,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 3);
    }

    #[test]
    fn condition5_drops_nonmaximal_same_start() {
        let cp = pb_pattern();
        // Non-greedy run {p/e1, b/e3} is a proper subset of the greedy
        // {p/e1, p/e2, b/e3} with the same first binding.
        let r = rel(&[(0, 1, "P"), (1, 1, "P"), (2, 1, "B")]);
        let out = select(
            vec![raw(&[(0, 0), (1, 2)]), raw(&[(0, 0), (0, 1), (1, 2)])],
            &r,
            &cp,
            MatchSemantics::Definition2,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 3);
    }

    #[test]
    fn condition5_keeps_subsets_with_different_start() {
        let cp = pb_pattern();
        let r = rel(&[(0, 1, "P"), (1, 1, "P"), (2, 1, "B")]);
        let out = select(
            vec![
                raw(&[(0, 0), (0, 1), (1, 2)]),
                raw(&[(0, 1), (1, 2)]), // different first binding
            ],
            &r,
            &cp,
            MatchSemantics::Definition2,
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_input() {
        let cp = ab_pattern();
        let r = rel(&[]);
        for sem in [
            MatchSemantics::AllRuns,
            MatchSemantics::Definition2,
            MatchSemantics::Maximal,
        ] {
            assert!(select(vec![], &r, &cp, sem).is_empty());
        }
    }

    const BOTH_BACKENDS: [AdjudicationMode; 2] =
        [AdjudicationMode::Indexed, AdjudicationMode::Pairwise];

    #[test]
    fn condition4_duplicate_timestamp_is_no_swap() {
        let cp = ab_pattern();
        // A@0, then two same-ID Bs sharing ts 5: neither B is *strictly*
        // earlier than the other, so condition 4 cannot swap either
        // binding away — both candidates survive Definition 2.
        let r = rel(&[(0, 1, "A"), (5, 1, "B"), (5, 1, "B")]);
        let group = vec![raw(&[(0, 0), (1, 1)]), raw(&[(0, 0), (1, 2)])];
        for mode in BOTH_BACKENDS {
            let out = select_with(group.clone(), &r, &cp, MatchSemantics::Definition2, mode);
            assert_eq!(out.len(), 2, "{mode:?}");
        }
    }

    #[test]
    fn condition4_swap_fires_across_duplicate_timestamps() {
        let cp = ab_pattern();
        // A@0, B@1, B@1, B@2 (same ID): the B@2 binding has two valid
        // strictly-earlier alternatives (the tied pair at ts 1) → it is
        // later than necessary and drops; the tied pair itself survives,
        // since equal timestamps are not "earlier".
        let r = rel(&[(0, 1, "A"), (1, 1, "B"), (1, 1, "B"), (2, 1, "B")]);
        let group = vec![
            raw(&[(0, 0), (1, 1)]),
            raw(&[(0, 0), (1, 2)]),
            raw(&[(0, 0), (1, 3)]),
        ];
        for mode in BOTH_BACKENDS {
            let out = select_with(group.clone(), &r, &cp, MatchSemantics::Definition2, mode);
            assert_eq!(out.len(), 2, "{mode:?}");
            assert!(
                out.iter().all(|m| m.last_event() != EventId(3)),
                "{mode:?}: the later-than-necessary binding survived"
            );
        }
    }

    #[test]
    fn condition5_drops_whole_nested_chain() {
        let cp = pb_pattern();
        // A nested containment chain sharing one first binding: every
        // proper prefix run is condition-5 food; only the full run stays.
        let r = rel(&[(0, 1, "P"), (1, 1, "P"), (2, 1, "P"), (3, 1, "B")]);
        let group = vec![
            raw(&[(0, 0), (1, 3)]),
            raw(&[(0, 0), (0, 1), (1, 3)]),
            raw(&[(0, 0), (0, 1), (0, 2), (1, 3)]),
        ];
        for mode in BOTH_BACKENDS {
            let out = select_with(group.clone(), &r, &cp, MatchSemantics::Definition2, mode);
            assert_eq!(out.len(), 1, "{mode:?}");
            assert_eq!(out[0].len(), 4, "{mode:?}");
        }
    }

    #[test]
    fn survivor_pruning_cutoff_is_exact() {
        // Streaming prunes survivors at `watermark − 2τ`; a survivor
        // whose minT sits exactly on the cutoff must be retained (a
        // later candidate can still tie into its window), one tick past
        // it must go. Both backends agree on the boundary.
        let cp = ab_pattern();
        let r = rel(&[(10, 1, "A"), (11, 1, "B")]);
        for mode in BOTH_BACKENDS {
            let mut adj = Adjudicator::new(MatchSemantics::Maximal, mode);
            let kept = adj.adjudicate_group(
                vec![Match::from_bindings(vec![
                    (VarId(0), EventId(0)),
                    (VarId(1), EventId(1)),
                ])],
                &r,
                &cp,
            );
            assert_eq!(kept.len(), 1, "{mode:?}");
            assert_eq!(adj.survivor_count(), 1, "{mode:?}");
            adj.prune_survivors(Timestamp::new(10));
            assert_eq!(adj.survivor_count(), 1, "{mode:?}: cutoff == minT dropped");
            adj.prune_survivors(Timestamp::new(11));
            assert_eq!(adj.survivor_count(), 0, "{mode:?}: cutoff > minT retained");
        }
    }
}
