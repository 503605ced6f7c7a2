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
//!
//! The filter pays for its candidates, not for the relation. Which
//! events could stand in for a binding (the swap test's *viable* events)
//! is read off the scan's own admission verdicts — the [`AdmittedLog`]
//! [`select`] takes beside the raw matches, the verdict of each push in
//! a stream — never re-derived by evaluating constant conditions over
//! the relation; see [`crate::adjudicate`].

use ses_event::{Event, EventId, Relation, Timestamp};
use ses_pattern::{CompiledPattern, VarId};

use crate::adjudicate::{
    binding_timestamps, survives_swaps, GroupIndex, SurvivorStore, ViableIndex,
};
use crate::engine::{AdmittedLog, RawMatch};
use crate::matches::Match;

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

/// Applies the selected semantics to the engine's raw matches.
///
/// `admitted` is the log of the scan that produced `raw` ([`crate::scan`],
/// or [`AdmittedLog::of`] over `relation` when the raw matches come from
/// elsewhere): the condition-4 swap test draws its alternatives from it
/// and evaluates no constant condition of its own.
pub fn select(
    raw: Vec<RawMatch>,
    admitted: &AdmittedLog,
    relation: &Relation,
    pattern: &CompiledPattern,
    semantics: MatchSemantics,
) -> Vec<Match> {
    let mut candidates: Vec<Match> = raw.into_iter().map(Match::from_raw).collect();
    if semantics == MatchSemantics::AllRuns {
        candidates.sort();
        candidates.dedup();
        return candidates;
    }

    // Conditions 4 and 5 are closed within first-binding groups (see
    // [`Adjudicator`]), and a Maximal killer's first binding never
    // follows its victim's — so adjudicating the groups in ascending
    // first-binding order reproduces the global filter exactly
    // (`tests/adjudicator_vs_bruteforce.rs` checks it against
    // [`crate::reference::select_pairwise`]). Batch and streaming share
    // this code path, which is what makes the stream-vs-batch
    // differential suite a structural equivalence.
    //
    // One sort serves both orders: group-major, canonical within a group.
    candidates.sort_unstable_by(|a, b| group_key(a).cmp(&group_key(b)).then_with(|| a.cmp(b)));
    candidates.dedup();
    let mut adjudicator = Adjudicator::new(semantics, pattern);
    for &(id, vars) in admitted.entries() {
        adjudicator.admit(pattern, id, relation.event(id), vars);
    }
    let tau = pattern.pattern().within().as_ticks();
    let mut out = Vec::new();
    let mut rest = candidates.into_iter().peekable();
    while let Some(first) = rest.next() {
        let key = group_key(&first);
        let mut group = vec![first];
        while let Some(m) = rest.next_if(|m| group_key(m) == key) {
            group.push(m);
        }
        // A killer of this group, or of any later one, starts within τ
        // before the group does (τ may be `Duration::MAX`: saturate).
        let min_ts = relation.event(key.0).ts().ticks();
        adjudicator.prune_survivors(Timestamp::new(min_ts.saturating_sub(tau)));
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
///   an earlier group. Earlier groups' *finals* are accumulated; later
///   groups can never retroactively kill an emitted match.
///
/// The killer store holds finals only, not every Definition-2 survivor.
/// Let `x ⊊ m ⊊ o`, where `m` is a Definition-2 survivor killed by `o`.
/// Then `x ⊊ o`, and `o` binds `x`'s first event inside its own window,
/// so `minT(o) ≥ minT(x) − τ`: `o` is live under the batch cutoff
/// (`minT(group) − τ`) and the stream cutoff (`watermark − 2τ`) alike. If
/// `o` was itself killed, the same holds for its killer; by induction
/// over groups every such `o` has a live final superset in the store, so
/// dropping `m` changes no kill answer.
///
/// For streaming, a group is adjudicated once the watermark makes it
/// complete (no run starting at `minT` can still grow once
/// `watermark − minT > τ`), and accumulated finals are prunable once
/// `minT < watermark − 2τ` — any later victim's window reaches back at
/// most τ before its own `minT`, which is itself at least
/// `watermark − τ`.
#[derive(Debug)]
pub(crate) struct Adjudicator {
    semantics: MatchSemantics,
    /// Finals of adjudicated groups, kept (with their `minT`) as
    /// potential Maximal killers for later groups.
    survivors: SurvivorStore,
    /// Per-variable viable events for the condition-4 swap scan, fed by
    /// [`Adjudicator::admit`]. Never part of a snapshot: a restored
    /// matcher re-admits its retained events.
    viable: ViableIndex,
}

impl Adjudicator {
    /// An adjudicator with no groups processed and no events admitted
    /// yet.
    pub(crate) fn new(semantics: MatchSemantics, pattern: &CompiledPattern) -> Adjudicator {
        Adjudicator {
            semantics,
            survivors: SurvivorStore::new(),
            viable: ViableIndex::new(pattern),
        }
    }

    /// Takes note of an event the scan admitted: `vars` is its admission
    /// verdict's `viable_vars` (zero notes nothing). Every admitted event a group's
    /// window can contain must have been noted, in ascending id order,
    /// before the group is adjudicated — the scan is always ahead of the
    /// groups it completes, so noting each event as it is admitted (a
    /// stream) or the whole log up front (batch) both do.
    pub(crate) fn admit(
        &mut self,
        pattern: &CompiledPattern,
        id: EventId,
        event: &Event,
        vars: u64,
    ) {
        if self.semantics != MatchSemantics::AllRuns {
            self.viable.admit(pattern, id, event, vars);
        }
    }

    /// Forgets admitted events the relation has evicted (ids below
    /// `first`); no group still to come can reach them.
    pub(crate) fn evict_before(&mut self, first: usize) {
        self.viable.evict_before(first);
    }

    /// Adjudicates one complete group of candidates (all sharing a first
    /// binding), given in canonical sorted order without duplicates.
    /// Groups must arrive in ascending [`GroupKey`] order, and
    /// candidates must satisfy conditions 1–3 (engine-produced raw
    /// matches do by construction — the swap test relies on it).
    /// Returns the group's final matches under the configured semantics:
    /// the verdicts of [`crate::reference::select_pairwise`], reached in
    /// one sweep over the sorted group via the indexes of
    /// [`crate::adjudicate`].
    pub(crate) fn adjudicate_group(
        &mut self,
        mut group: Vec<Match>,
        relation: &Relation,
        pattern: &CompiledPattern,
    ) -> Vec<Match> {
        debug_assert!(group.windows(2).all(|w| w[0] < w[1]));
        if group.is_empty() || self.semantics == MatchSemantics::AllRuns {
            return group;
        }
        let maximal = self.semantics == MatchSemantics::Maximal;
        if let [m] = &group[..] {
            // A lone candidate has nothing to be compared with: condition 5
            // and the prefix test are vacuous, so it needs no index.
            let ts = binding_timestamps(m, relation);
            if !survives_swaps(m, &ts, relation, pattern, &self.viable)
                || (maximal && self.survivors.kills(m))
            {
                group.clear();
            }
        } else {
            // Under Maximal a killed candidate is out whatever conditions
            // 4–5 say, so the kill query runs first; a group it empties
            // builds no index. Condition-5 killers and prefix offers stay
            // the whole group.
            let mut alive: Vec<bool> = group
                .iter()
                .map(|m| !maximal || !self.survivors.kills(m))
                .collect();
            if alive.contains(&true) {
                let gi = GroupIndex::build(&group, relation, pattern.pattern().num_vars());
                for (i, a) in alive.iter_mut().enumerate() {
                    *a = *a
                        && gi.survives_condition_4(i, relation, pattern, &self.viable)
                        && gi.survives_condition_5(i);
                }
            }
            let mut verdicts = alive.into_iter();
            group.retain(|_| verdicts.next().expect("one verdict per candidate"));
        }

        // Only finals enter the killer store (see the type docs).
        if maximal {
            if let Some(first) = group.first() {
                let min_ts = relation.event(first.first_event()).ts();
                for m in &group {
                    self.survivors.push(min_ts, m.clone());
                }
            }
        }
        group
    }

    /// Discards accumulated survivors whose `minT` precedes `cutoff` —
    /// they can no longer kill any group still to come.
    pub(crate) fn prune_survivors(&mut self, cutoff: Timestamp) {
        self.survivors.prune(cutoff);
    }

    /// Number of retained killer candidates (streaming memory probe).
    pub(crate) fn survivor_count(&self) -> usize {
        self.survivors.live().len()
    }

    /// The per-variable viable-event lists, for tests.
    #[cfg(test)]
    pub(crate) fn viable_lists(&self) -> &[Vec<(EventId, Timestamp)>] {
        self.viable.lists()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::select_pairwise;
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

    /// [`super::select`] with the log the scan of `r` would have handed
    /// it — the hand-made candidates below come from no scan.
    fn select(
        raw: Vec<RawMatch>,
        r: &Relation,
        cp: &CompiledPattern,
        semantics: MatchSemantics,
    ) -> Vec<Match> {
        let admitted = AdmittedLog::of(cp, crate::FilterMode::Paper, r);
        super::select(raw, &admitted, r, cp, semantics)
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

    /// [`select`] under Definition 2, checked against the pairwise
    /// reference on the way out.
    fn select_def2(group: Vec<RawMatch>, r: &Relation, cp: &CompiledPattern) -> Vec<Match> {
        let out = select(group.clone(), r, cp, MatchSemantics::Definition2);
        let reference = select_pairwise(group, r, cp, MatchSemantics::Definition2);
        assert_eq!(out, reference, "sweep diverged from the pairwise reference");
        out
    }

    #[test]
    fn condition4_duplicate_timestamp_is_no_swap() {
        let cp = ab_pattern();
        // A@0, then two same-ID Bs sharing ts 5: neither B is *strictly*
        // earlier than the other, so condition 4 cannot swap either
        // binding away — both candidates survive Definition 2.
        let r = rel(&[(0, 1, "A"), (5, 1, "B"), (5, 1, "B")]);
        let group = vec![raw(&[(0, 0), (1, 1)]), raw(&[(0, 0), (1, 2)])];
        assert_eq!(select_def2(group, &r, &cp).len(), 2);
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
        let out = select_def2(group, &r, &cp);
        assert_eq!(out.len(), 2);
        assert!(
            out.iter().all(|m| m.last_event() != EventId(3)),
            "the later-than-necessary binding survived"
        );
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
        let out = select_def2(group, &r, &cp);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 4);
    }

    #[test]
    fn survivor_pruning_cutoff_is_exact() {
        // Streaming prunes survivors at `watermark − 2τ`; a survivor
        // whose minT sits exactly on the cutoff must be retained (a
        // later candidate can still tie into its window), one tick past
        // it must go.
        let cp = ab_pattern();
        let r = rel(&[(10, 1, "A"), (11, 1, "B")]);
        let mut adj = Adjudicator::new(MatchSemantics::Maximal, &cp);
        let kept = adj.adjudicate_group(
            vec![Match::from_bindings(vec![
                (VarId(0), EventId(0)),
                (VarId(1), EventId(1)),
            ])],
            &r,
            &cp,
        );
        assert_eq!(kept.len(), 1);
        assert_eq!(adj.survivor_count(), 1);
        adj.prune_survivors(Timestamp::new(10));
        assert_eq!(adj.survivor_count(), 1, "cutoff == minT dropped");
        adj.prune_survivors(Timestamp::new(11));
        assert_eq!(adj.survivor_count(), 0, "cutoff > minT retained");
    }
}
