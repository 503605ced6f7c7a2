//! Indexed adjudication structures — the O(R log R)-style formulation of
//! conditions 4–5 and maximality behind [`crate::select`] and the
//! streaming matcher.
//!
//! The reference filter [`crate::select_pairwise`] re-derives every
//! quantifier of Definition 2 from scratch per candidate: condition 4
//! scans the whole retained relation per binding, the prefix test
//! re-materializes binding prefixes per (candidate × alternative), and
//! condition 5 / maximality compare all candidate pairs. This module
//! replaces those scans with three indexes, each *exact* — pre-filters
//! narrow the witness space, and every surviving witness is verified
//! against the very predicate the reference evaluates:
//!
//! * [`ViableIndex`] — per-variable sorted lists of *viable* events
//!   (events satisfying the variable's constant and self-conditions).
//!   Swap alternatives for a binding `v/e` can only be viable events in
//!   the open interval dictated by condition 2, so the relation scan
//!   collapses to a binary-searched slice. The lists are filled from the
//!   scan's own admission verdicts ([`crate::AdmittedLog`] in batch, the
//!   push that admits in a stream) and from nothing else: this module
//!   evaluates no constant condition and never walks the relation. That
//!   is sound because `var_ok` bit *v* ⇔ all of *v*'s constant
//!   conditions hold, and the §4.5 filter drops an event only when no
//!   bit is set — so admitted ∧ self-conditions is exactly the viable
//!   set. Filling costs
//!   O(admitted events), not O(relation × variables).
//! * [`GroupIndex`] — per adjudication group: posting lists
//!   `(var, event) → candidates` drive the condition-5 subset check,
//!   which is within-group maximality too (a subset victim must appear
//!   in every posting list of its killer, so the *least frequent*
//!   binding of a candidate bounds the killer search), and a prefix-hash map
//!   `(var, alt, hash(bindings before alt)) → candidates` answers the
//!   condition-4 prefix-agreement test with one lookup per alternative
//!   (hash hits are confirmed by exact slice comparison, so collisions
//!   cannot flip a verdict). Candidates sort by (start asc, end desc)
//!   within a group — `Match`'s canonical order — so every potential
//!   killer is indexed before its victims are queried, making the
//!   single sweep over the sorted group exact. A group of one builds no
//!   index: with no other candidate, condition 5 and the prefix test are
//!   vacuous, and the swap test ([`survives_swaps`]) needs none.
//! * [`SurvivorStore`] — the accumulated *finals* (emitted matches) that
//!   act as cross-group Maximal killers. A Definition-2 survivor `m`
//!   killed by `o` is not kept: a later `x ⊊ m` is also `⊊ o`, and `o`
//!   binds `x`'s first event, so `minT(o) ≥ minT(x) − τ` keeps `o` (or,
//!   by induction, the final that killed it) live under either cutoff
//!   below. Under Maximal the adjudicator asks [`SurvivorStore::kills`]
//!   before anything else, and a group whose every candidate is killed
//!   builds no [`GroupIndex`]. Groups arrive in ascending `minT`
//!   order, so pruning is a head-offset advance (keeping
//!   [`SurvivorStore::live`] a contiguous slice — the streaming snapshot
//!   format is unchanged), and the same posting-list trick bounds the
//!   killer search; a binding never seen in any survivor refutes
//!   subsumption in O(1). A killer `γ′ ⊋ γ` binds γ's first event inside
//!   its own window, so `minT(γ) − τ ≤ minT(γ′) ≤ minT(γ)`: batch prunes
//!   below `minT(group) − τ` before each group, a stream below
//!   `watermark − 2τ` at each push, and both hold O(window) survivors.
//!
//! Worst-case inputs (R candidates sharing almost every binding) can
//! still force O(R²) verified comparisons — binding-set containment is
//! strictly harder than interval containment — but the pre-filters make
//! the expected cost near-linear in the posting-list sizes, and the
//! early-exit discipline (first verified killer wins) keeps dense nested
//! chains linear. See `docs/adjudication.md` for the correctness
//! argument and the measured speedups.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use ses_event::{Event, EventId, Relation, Timestamp};
use ses_pattern::{CompiledPattern, CompiledRhs, VarId};

use crate::matches::Match;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Folds one binding into a running FNV-1a hash. Used for prefix-hash
/// keys; exact slice comparison confirms every hit.
fn fnv_binding(mut h: u64, var: VarId, event: EventId) -> u64 {
    for b in var.0.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    for b in event.0.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hasher for this module's maps, whose keys are a few small integers
/// the engine assigned (`VarId`, `EventId`, a prefix hash) — nothing an
/// input could craft to collide, so SipHash's keyed rounds buy nothing.
/// One rotate-xor-multiply per integer written.
#[derive(Default)]
struct IdHasher(u64);

impl IdHasher {
    fn mix(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// `true` iff the canonically ordered `bindings` bind `event` (to any
/// variable). Events in a substitution are distinct, so the event
/// component is strictly increasing and binary-searchable.
fn binds_event(bindings: &[(VarId, EventId)], event: EventId) -> bool {
    let i = bindings.partition_point(|&(_, e)| e < event);
    i < bindings.len() && bindings[i].1 == event
}

/// A binary condition as seen from one of its two variables: the
/// condition index, the partner variable, and whether this variable is
/// the left-hand side.
type BinaryUse = (usize, VarId, bool);

/// Per-variable viable-event lists plus the per-pattern condition
/// analysis they are built from, owned by the adjudicator and filled
/// from admission verdicts only ([`ViableIndex::admit`]).
///
/// An event is *viable* for variable `v` iff it satisfies every constant
/// condition and self-condition on `v` — exactly the unary part of
/// condition 1, which [`crate::satisfies_conditions_1_3`] also enforces,
/// so viability is necessary for any swap to be valid.
#[derive(Debug)]
pub(crate) struct ViableIndex {
    /// Sorted `(event, ts)` per variable; ids ascend and timestamps are
    /// non-decreasing (relation push order), so both are binary-searchable.
    lists: Vec<Vec<(EventId, Timestamp)>>,
    /// Indices into `pattern.conditions()` of each variable's
    /// self-conditions `v.A φ v.B` — the one unary kind an admission
    /// verdict does not cover.
    self_conds: Vec<Vec<usize>>,
    /// Each variable's binary conditions, from that variable's side.
    binary: Vec<Vec<BinaryUse>>,
    /// The set each variable belongs to.
    var_set: Vec<usize>,
}

impl ViableIndex {
    pub(crate) fn new(pattern: &CompiledPattern) -> ViableIndex {
        let p = pattern.pattern();
        let nv = p.num_vars();
        let mut self_conds = vec![Vec::new(); nv];
        let mut binary = vec![Vec::new(); nv];
        for (ci, c) in pattern.conditions().iter().enumerate() {
            if let CompiledRhs::Attr { var, .. } = &c.rhs {
                if *var == c.lhs_var {
                    self_conds[c.lhs_var.index()].push(ci);
                } else {
                    binary[c.lhs_var.index()].push((ci, *var, true));
                    binary[var.index()].push((ci, c.lhs_var, false));
                }
            }
        }
        let mut var_set = vec![0; nv];
        for s in 0..p.num_sets() {
            for &v in p.set(s) {
                var_set[v.index()] = s;
            }
        }
        ViableIndex {
            lists: vec![Vec::new(); nv],
            self_conds,
            binary,
            var_set,
        }
    }

    /// The set index of `var`.
    pub(crate) fn set_of(&self, var: VarId) -> usize {
        self.var_set[var.index()]
    }

    /// The binary conditions involving `var`.
    fn binary_of(&self, var: VarId) -> &[BinaryUse] {
        &self.binary[var.index()]
    }

    /// Appends admitted event `id` to the list of every variable in
    /// `vars` (its admission mask) whose self-conditions it also
    /// satisfies. Ids must arrive ascending.
    pub(crate) fn admit(
        &mut self,
        pattern: &CompiledPattern,
        id: EventId,
        event: &Event,
        vars: u64,
    ) {
        let conds = pattern.conditions();
        let mut rest = vars;
        while rest != 0 {
            let v = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if self.self_conds[v]
                .iter()
                .all(|&ci| conds[ci].eval_vars(event, event))
            {
                debug_assert!(self.lists[v].last().is_none_or(|&(e, _)| e < id));
                self.lists[v].push((id, event.ts()));
            }
        }
    }

    /// Drops the entries of events the relation has evicted (ids below
    /// `first`). The streaming matcher calls this whenever its relation
    /// compacts — [`Relation::evict_before`]'s hysteresis is the
    /// amortization — so the lists stay O(retained events) whether or
    /// not a group ever arrives.
    pub(crate) fn evict_before(&mut self, first: usize) {
        for list in &mut self.lists {
            let cut = list.partition_point(|&(e, _)| e.index() < first);
            list.drain(..cut);
        }
    }

    /// The viable events for `var` with `lo < ts < hi` (both strict, per
    /// conditions 2 and 4).
    fn viable_between(&self, var: VarId, lo: Timestamp, hi: Timestamp) -> &[(EventId, Timestamp)] {
        let list = &self.lists[var.index()];
        let a = list.partition_point(|&(_, t)| t <= lo);
        let b = list.partition_point(|&(_, t)| t < hi);
        &list[a..b.max(a)]
    }

    /// The per-variable lists, for tests.
    #[cfg(test)]
    pub(crate) fn lists(&self) -> &[Vec<(EventId, Timestamp)>] {
        &self.lists
    }

    /// The reference the admission-fed lists are tested against: every
    /// retained event of `relation` classified from scratch, one
    /// evaluation per unary condition per variable — the relation scan
    /// this index used to run in production.
    #[cfg(test)]
    pub(crate) fn classify(
        pattern: &CompiledPattern,
        relation: &Relation,
    ) -> Vec<Vec<(EventId, Timestamp)>> {
        let conds = pattern.conditions();
        let mut lists = vec![Vec::new(); pattern.pattern().num_vars()];
        for (i, ev) in relation.events().iter().enumerate() {
            for (v, list) in lists.iter_mut().enumerate() {
                let viable =
                    conds
                        .iter()
                        .filter(|c| c.lhs_var.index() == v)
                        .all(|c| match &c.rhs {
                            CompiledRhs::Const(_) => c.eval_const(ev),
                            CompiledRhs::Attr { var, .. } => {
                                *var != c.lhs_var || c.eval_vars(ev, ev)
                            }
                        });
                if viable {
                    list.push((EventId::from(relation.first_index() + i), ev.ts()));
                }
            }
        }
        lists
    }
}

/// Per-group indexes over one sorted, deduplicated adjudication group
/// (all candidates share a first binding, hence `minT`).
pub(crate) struct GroupIndex<'g> {
    group: &'g [Match],
    /// Per candidate: its bindings' timestamps, in canonical order.
    ts: Vec<Vec<Timestamp>>,
    /// Per candidate: running FNV-1a prefix hashes, `phash[i][j]` =
    /// hash of the first `j` bindings.
    phash: Vec<Vec<u64>>,
    /// `(var, event) → candidate indices` (ascending) over the full
    /// group — condition-5 killers are the *raw* group, including
    /// candidates that themselves fail condition 4.
    postings: IdMap<(VarId, EventId), Vec<u32>>,
    /// `(var, alt, hash of bindings strictly before alt.ts) → candidates
    /// binding var/alt with that prefix` — the condition-4 prefix test.
    prefix: IdMap<(VarId, EventId, u64), Vec<u32>>,
    /// Distinct events bound to each variable (by `VarId` index) by any
    /// candidate, sorted.
    var_alts: Vec<Vec<(EventId, Timestamp)>>,
    min_ts: Timestamp,
}

impl<'g> GroupIndex<'g> {
    /// Indexes a group of two or more candidates — a lone one is judged
    /// by [`survives_swaps`] alone. Candidates must be in sorted canonical
    /// order without duplicates (`adjudicate_group` requires it of its
    /// callers).
    pub(crate) fn build(
        group: &'g [Match],
        relation: &Relation,
        num_vars: usize,
    ) -> GroupIndex<'g> {
        let min_ts = relation.event(group[0].first_event()).ts();
        let mut ts = Vec::with_capacity(group.len());
        let mut phash = Vec::with_capacity(group.len());
        let mut postings: IdMap<(VarId, EventId), Vec<u32>> = IdMap::default();
        let mut prefix: IdMap<(VarId, EventId, u64), Vec<u32>> = IdMap::default();
        for (i, m) in group.iter().enumerate() {
            let b = m.bindings();
            let mts = binding_timestamps(m, relation);
            let mut ph = Vec::with_capacity(b.len() + 1);
            ph.push(FNV_OFFSET);
            for &(v, e) in b {
                ph.push(fnv_binding(*ph.last().expect("seeded"), v, e));
            }
            for (j, &(v, e)) in b.iter().enumerate() {
                postings.entry((v, e)).or_default().push(i as u32);
                if mts[j] > min_ts {
                    let boundary = mts.partition_point(|&t| t < mts[j]);
                    prefix
                        .entry((v, e, ph[boundary]))
                        .or_default()
                        .push(i as u32);
                }
            }
            ts.push(mts);
            phash.push(ph);
        }
        let mut var_alts = vec![Vec::new(); num_vars];
        for &(v, e) in postings.keys() {
            var_alts[v.index()].push((e, relation.event(e).ts()));
        }
        for list in &mut var_alts {
            list.sort_unstable();
        }
        GroupIndex {
            group,
            ts,
            phash,
            postings,
            prefix,
            var_alts,
            min_ts,
        }
    }

    /// Condition 4 for candidate `i`: no variable could have bound a
    /// strictly earlier in-extent event via an agreeing-prefix candidate
    /// or a valid swap. Exact equivalent of the reference's
    /// `survives_condition_4` for candidates satisfying conditions 1–3
    /// (which engine-produced raw matches do by construction).
    pub(crate) fn survives_condition_4(
        &self,
        i: usize,
        relation: &Relation,
        pattern: &CompiledPattern,
        viable: &ViableIndex,
    ) -> bool {
        self.survives_prefix_test(i)
            && survives_swaps(&self.group[i], &self.ts[i], relation, pattern, viable)
    }

    /// The prefix test: for no binding `var/e` of candidate `i` does
    /// another candidate bind `var` to an event strictly inside
    /// `(minT, e.T)` that `i` leaves unbound, with exactly `i`'s bindings
    /// before it.
    fn survives_prefix_test(&self, i: usize) -> bool {
        let b = self.group[i].bindings();
        let ts = &self.ts[i];
        let ph = &self.phash[i];
        for (j, &(var, _)) in b.iter().enumerate() {
            let bound_ts = ts[j];
            if bound_ts <= self.min_ts {
                continue; // no room strictly inside (minT, e.T)
            }
            let alts = &self.var_alts[var.index()];
            let lo = alts.partition_point(|&(_, t)| t <= self.min_ts);
            let hi = alts.partition_point(|&(_, t)| t < bound_ts);
            for &(alt, alt_ts) in &alts[lo..hi.max(lo)] {
                if binds_event(b, alt) {
                    continue; // already used in γ (possibly by another variable)
                }
                let boundary = ts.partition_point(|&t| t < alt_ts);
                if let Some(offers) = self.prefix.get(&(var, alt, ph[boundary])) {
                    for &o in offers {
                        let ob = self.group[o as usize].bindings();
                        let oboundary = self.ts[o as usize].partition_point(|&t| t < alt_ts);
                        if ob[..oboundary] == b[..boundary] {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Condition 5 for candidate `i`: not a proper subset of *any* group
    /// candidate (all share the first binding by construction). A
    /// superset must appear in the posting list of every binding of `i`;
    /// the least frequent binding bounds the search.
    pub(crate) fn survives_condition_5(&self, i: usize) -> bool {
        let m = &self.group[i];
        let list = m
            .bindings()
            .iter()
            .map(|bind| &self.postings[bind])
            .min_by_key(|l| l.len())
            .expect("matches are non-empty");
        !list.iter().any(|&o| {
            let o = o as usize;
            o != i && self.group[o].len() > m.len() && m.is_proper_subset_of(&self.group[o])
        })
    }
}

/// The timestamps of `m`'s bindings, in canonical order.
pub(crate) fn binding_timestamps(m: &Match, relation: &Relation) -> Vec<Timestamp> {
    m.events().map(|e| relation.event(e).ts()).collect()
}

/// The condition-4 swap test for candidate `m`, whose bindings' timestamps
/// are `ts`: for no binding `var/e` is there a viable event for `var`
/// strictly earlier than `e`, inside the interval condition 2 allows and
/// unbound by `m`, that satisfies `var`'s binary conditions against `m`'s
/// other bindings (see docs/adjudication.md for why conditions 2–3
/// collapse to the interval). Needs no other candidate, so a group of one
/// runs it alone.
pub(crate) fn survives_swaps(
    m: &Match,
    ts: &[Timestamp],
    relation: &Relation,
    pattern: &CompiledPattern,
    viable: &ViableIndex,
) -> bool {
    let b = m.bindings();
    let min_ts = ts[0];
    // Per-set temporal extent of m, for the condition-2 bounds of swap
    // alternatives.
    let nsets = pattern.pattern().num_sets();
    let mut set_min: Vec<Option<Timestamp>> = vec![None; nsets];
    let mut set_max: Vec<Option<Timestamp>> = vec![None; nsets];
    for (j, &(v, _)) in b.iter().enumerate() {
        let s = viable.set_of(v);
        set_min[s] = Some(set_min[s].map_or(ts[j], |t: Timestamp| t.min(ts[j])));
        set_max[s] = Some(set_max[s].map_or(ts[j], |t: Timestamp| t.max(ts[j])));
    }
    for (j, &(var, _)) in b.iter().enumerate() {
        let bound_ts = ts[j];
        if bound_ts <= min_ts {
            continue; // no room strictly inside (minT, e.T)
        }
        let si = viable.set_of(var);
        let mut lo_ts = min_ts;
        if si > 0 {
            if let Some(t) = set_max[si - 1] {
                lo_ts = lo_ts.max(t);
            }
        }
        let mut hi_ts = bound_ts;
        if si + 1 < nsets {
            if let Some(t) = set_min[si + 1] {
                hi_ts = hi_ts.min(t);
            }
        }
        for &(alt, _) in viable.viable_between(var, lo_ts, hi_ts) {
            if binds_event(b, alt) {
                continue;
            }
            if swap_binary_ok(m, var, alt, relation, pattern, viable) {
                return false;
            }
        }
    }
    true
}

/// The binary-condition part of swap validity: `alt` (replacing one of
/// `var`'s bindings) must satisfy every binary condition involving `var`
/// against all of m's bindings of the partner variable. Unary conditions
/// are pre-filtered by [`ViableIndex`]; conditions not involving `var` are
/// untouched by the swap.
fn swap_binary_ok(
    m: &Match,
    var: VarId,
    alt: EventId,
    relation: &Relation,
    pattern: &CompiledPattern,
    viable: &ViableIndex,
) -> bool {
    let ae = relation.event(alt);
    let conds = pattern.conditions();
    for &(ci, partner, lhs_is_var) in viable.binary_of(var) {
        let c = &conds[ci];
        for e in m.events_of(partner) {
            let pe = relation.event(e);
            let ok = if lhs_is_var {
                c.eval_vars(ae, pe)
            } else {
                c.eval_vars(pe, ae)
            };
            if !ok {
                return false;
            }
        }
    }
    true
}

/// Accumulated finals — the cross-group Maximal killer set — with
/// posting lists for indexed kill queries and a head offset
/// so pruning never reindexes.
///
/// Groups arrive in ascending first-binding order, so pushed `minT`s are
/// non-decreasing and pruning at a cutoff is exactly a prefix drop; the
/// live survivors stay one contiguous slice — the order the streaming
/// snapshot format (`StreamSnapshot::survivors`) stores them in.
#[derive(Debug, Default)]
pub(crate) struct SurvivorStore {
    items: Vec<(Timestamp, Match)>,
    /// Per item: its [`signature`] and length. Derived from `items` and
    /// never snapshotted; compaction and restore recompute them.
    shapes: Vec<(u64, usize)>,
    head: usize,
    postings: IdMap<(VarId, EventId), Vec<u32>>,
}

/// A one-word Bloom signature of `m`'s bindings: one bit per binding. A
/// subset's bits are a subset of its superset's, so a bit of `m` that `o`
/// lacks refutes `m ⊊ o` without a walk over either.
fn signature(m: &Match) -> u64 {
    m.bindings().iter().fold(0, |sig, &(var, event)| {
        let h = (u64::from(event.0) << 16 | u64::from(var.0)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        sig | 1 << (h >> 58)
    })
}

impl SurvivorStore {
    pub(crate) fn new() -> SurvivorStore {
        SurvivorStore::default()
    }

    /// Appends a survivor. `min_ts` must be non-decreasing across pushes
    /// (guaranteed by ascending group order).
    pub(crate) fn push(&mut self, min_ts: Timestamp, m: Match) {
        debug_assert!(self.items.last().is_none_or(|&(t, _)| t <= min_ts));
        let idx = self.items.len() as u32;
        for &bind in m.bindings() {
            self.postings.entry(bind).or_default().push(idx);
        }
        self.shapes.push((signature(&m), m.len()));
        self.items.push((min_ts, m));
    }

    /// Drops survivors with `minT < cutoff` by advancing the head;
    /// compacts storage once the dead prefix dominates.
    pub(crate) fn prune(&mut self, cutoff: Timestamp) {
        self.head += self.items[self.head..].partition_point(|&(t, _)| t < cutoff);
        if self.head > 1024 && self.head * 2 >= self.items.len() {
            self.items.drain(..self.head);
            self.reindex();
        }
    }

    /// The live survivors, oldest first.
    pub(crate) fn live(&self) -> &[(Timestamp, Match)] {
        &self.items[self.head..]
    }

    /// Replaces the survivor set wholesale (snapshot restore).
    pub(crate) fn restore(&mut self, items: Vec<(Timestamp, Match)>) {
        self.items = items;
        self.reindex();
    }

    /// Rebuilds everything but `items` from them, every item live.
    fn reindex(&mut self) {
        self.head = 0;
        self.postings.clear();
        for (i, (_, m)) in self.items.iter().enumerate() {
            for &bind in m.bindings() {
                self.postings.entry(bind).or_default().push(i as u32);
            }
        }
        self.shapes = self
            .items
            .iter()
            .map(|(_, m)| (signature(m), m.len()))
            .collect();
    }

    /// Kill query: is `m` a proper subset of a live survivor?
    /// Any binding absent from every survivor refutes it immediately;
    /// otherwise the least frequent binding's posting list is verified,
    /// walking only survivors longer than `m` whose signature covers its.
    pub(crate) fn kills(&self, m: &Match) -> bool {
        if self.items.len() == self.head {
            return false;
        }
        let mut best: Option<&Vec<u32>> = None;
        for bind in m.bindings() {
            match self.postings.get(bind) {
                None => return false,
                Some(list) => {
                    if best.is_none_or(|b| list.len() < b.len()) {
                        best = Some(list);
                    }
                }
            }
        }
        let list = best.expect("matches are non-empty");
        let start = list.partition_point(|&i| (i as usize) < self.head);
        let sig = signature(m);
        list[start..].iter().any(|&i| {
            let (o_sig, o_len) = self.shapes[i as usize];
            o_len > m.len() && sig & !o_sig == 0 && m.is_proper_subset_of(&self.items[i as usize].1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(bindings: &[(u16, u32)]) -> Match {
        Match::from_bindings(
            bindings
                .iter()
                .map(|&(v, e)| (VarId(v), EventId(e)))
                .collect(),
        )
    }

    #[test]
    fn survivor_store_prunes_as_a_prefix_and_keeps_killing() {
        let mut s = SurvivorStore::new();
        for t in 0..10i64 {
            s.push(Timestamp::new(t), m(&[(0, t as u32), (1, t as u32 + 100)]));
        }
        assert_eq!(s.live().len(), 10);
        let victim = m(&[(0, 7)]);
        assert!(s.kills(&victim));

        s.prune(Timestamp::new(8));
        assert_eq!(s.live().len(), 2);
        assert_eq!(s.live()[0].0, Timestamp::new(8));
        // The victim's only potential killers were pruned.
        assert!(!s.kills(&victim));
        assert!(s.kills(&m(&[(0, 9)])));
    }

    #[test]
    fn survivor_store_compacts_without_changing_answers() {
        let mut s = SurvivorStore::new();
        for t in 0..3000i64 {
            s.push(Timestamp::new(t), m(&[(0, t as u32), (1, 90_000)]));
        }
        s.prune(Timestamp::new(2500));
        assert_eq!(s.live().len(), 500);
        assert!(s.head == 0, "compaction should have run");
        assert!(!s.kills(&m(&[(0, 100)])));
        assert!(s.kills(&m(&[(0, 2600)])));
        // A binding no survivor has refutes in O(1).
        assert!(!s.kills(&m(&[(5, 2600)])));
    }

    #[test]
    fn restore_round_trips_live_set() {
        let mut s = SurvivorStore::new();
        s.push(Timestamp::new(1), m(&[(0, 1), (1, 2)]));
        s.push(Timestamp::new(3), m(&[(0, 3), (1, 4)]));
        s.prune(Timestamp::new(2));
        let saved: Vec<_> = s.live().to_vec();

        let mut r = SurvivorStore::new();
        r.restore(saved);
        assert_eq!(r.live().len(), 1);
        assert!(r.kills(&m(&[(0, 3)])));
        assert!(!r.kills(&m(&[(0, 1)])));
    }

    // ── The admitted log is the viable lists ─────────────────────────
    //
    // `ViableIndex` is filled from admission verdicts and from nothing
    // else; `ViableIndex::classify` is the relation scan it replaced.
    // Wherever a verdict is produced — a batch scan in either admission
    // arm, the workers of both split strategies, every push flavor of a
    // stream, a restored stream — the lists must be the reference's.

    use crate::engine::{scan, AdmittedLog};
    use crate::matcher::{Matcher, MatcherOptions};
    use crate::parallel::{scan_partitioned, scan_time_sliced};
    use crate::{MatchSemantics, NoProbe, StreamMatcher};
    use proptest::prelude::*;
    use ses_event::{AttrType, CmpOp, Duration, Schema, Value};
    use ses_pattern::Pattern;

    fn schema() -> Schema {
        Schema::builder()
            .attr("L", AttrType::Str)
            .attr("ID", AttrType::Int)
            .attr("V", AttrType::Int)
            .build()
            .unwrap()
    }

    /// `(label, ID, V, gap to the previous event)`; a zero gap is a
    /// duplicate timestamp.
    type Row = (u8, i64, i64, i64);

    fn rows_strategy(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Row>> {
        proptest::collection::vec((0u8..3, 0i64..3, 0i64..3, 0i64..3), len)
    }

    fn events(rows: &[Row]) -> Vec<Event> {
        let mut t = 0;
        rows.iter()
            .map(|&(label, id, v, gap)| {
                t += gap;
                Event::new(
                    Timestamp::new(t),
                    vec![
                        Value::from(["A", "B", "X"][label as usize]),
                        Value::from(id),
                        Value::from(v),
                    ],
                )
            })
            .collect()
    }

    fn relation(rows: &[Row]) -> Relation {
        let mut rel = Relation::new(schema());
        for event in events(rows) {
            rel.push_event(event).unwrap();
        }
        rel
    }

    /// One variable: its `L` constant if it has one, whether it also
    /// carries `ID >= 1` (so `Paper` and `PerVariable` differ), whether
    /// it carries the self-condition `ID <= V`. Neither constant is a
    /// variable with no constant: the filter downgrades to `Off`.
    type VarSpec = (Option<u8>, bool, bool);

    fn pattern_strategy() -> impl Strategy<Value = Pattern> {
        let var = (
            proptest::option::of(0u8..2),
            proptest::bool::ANY,
            proptest::bool::ANY,
        );
        (
            proptest::collection::vec(proptest::collection::vec(var, 1..3), 1..3),
            3i64..9,
        )
            .prop_map(|(sets, tau): (Vec<Vec<VarSpec>>, i64)| {
                let mut b = Pattern::builder();
                for (si, set) in sets.iter().enumerate() {
                    let n = set.len();
                    b = b.set(move |s| (0..n).fold(s, |s, vi| s.var(format!("v{si}_{vi}"))));
                }
                for (si, set) in sets.iter().enumerate() {
                    for (vi, &(label, id_const, self_cond)) in set.iter().enumerate() {
                        let name = format!("v{si}_{vi}");
                        if let Some(l) = label {
                            b = b.cond_const(name.clone(), "L", CmpOp::Eq, ["A", "B"][l as usize]);
                        }
                        if id_const {
                            b = b.cond_const(name.clone(), "ID", CmpOp::Ge, 1);
                        }
                        if self_cond {
                            b = b.cond_vars(name.clone(), "ID", CmpOp::Le, name, "V");
                        }
                    }
                }
                b.within(Duration::ticks(tau)).build().unwrap()
            })
    }

    fn options() -> MatcherOptions {
        MatcherOptions {
            semantics: MatchSemantics::Definition2,
            ..MatcherOptions::default()
        }
    }

    /// The lists a fresh index holds after consuming `log`.
    fn lists_of(
        log: &AdmittedLog,
        pattern: &CompiledPattern,
        rel: &Relation,
    ) -> Vec<Vec<(EventId, Timestamp)>> {
        let mut index = ViableIndex::new(pattern);
        for &(id, vars) in log.entries() {
            index.admit(pattern, id, rel.event(id), vars);
        }
        index.lists().to_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// (a) A batch scan: relations shorter than 16 events admit per
        /// event, longer ones through the columnar pass (when the
        /// pattern has a constant at all); (b) both split strategies,
        /// whose workers remap view-local logs and whose coordinator
        /// merges them, folding the τ-overlap duplicates.
        #[test]
        fn batch_and_split_scans_log_the_viable_lists(
            pat in pattern_strategy(),
            rows in rows_strategy(0..40),
            slices in 1usize..5,
        ) {
            let rel = relation(&rows);
            let matcher = Matcher::with_options(&pat, &schema(), options()).unwrap();
            let cp = matcher.automaton().pattern();
            let reference = ViableIndex::classify(cp, &rel);

            let selection = matcher.options().selection;
            let (_, log) = scan(matcher.automaton(), &rel, selection, &mut NoProbe);
            prop_assert_eq!(&lists_of(&log, cp, &rel), &reference, "global scan");
            prop_assert_eq!(&AdmittedLog::of(cp, &rel), &log, "`of` is the scan's log");

            let key = schema().attr_id("ID").unwrap();
            let split = scan_partitioned(&matcher, &rel, key, Some(2), &mut NoProbe, || NoProbe);
            prop_assert_eq!(&split.admitted, &log, "partitioned");
            let split = scan_time_sliced(&matcher, &rel, Some(slices), &mut NoProbe, || NoProbe);
            prop_assert_eq!(&split.admitted, &log, "{} slices", slices);
        }

        /// (c) A stream mid-flight, under eviction: after every push —
        /// single, a batch long enough for the columnar pass, or a
        /// heartbeat — the lists are the reference's over the retained
        /// events; (d) and so are a restored matcher's, at the restore
        /// and after every later push.
        #[test]
        fn streams_admit_the_viable_lists_of_what_they_retain(
            pat in pattern_strategy(),
            rows in rows_strategy(1..60),
            chunks in proptest::collection::vec(0usize..4, 1..12),
            cut in 0usize..60,
        ) {
            let all = events(&rows);
            let mut sm = StreamMatcher::with_options(&pat, &schema(), options()).unwrap();
            let mut restored = false;
            let mut next = 0;
            let mut chunk = chunks.iter().cycle();
            while next < all.len() {
                // 0: one event; 1: a sub-threshold batch; 2: a
                // columnar batch; 3: a heartbeat, then one event.
                let take = match chunk.next().unwrap() {
                    1 => 3,
                    2 => 20,
                    _ => 1,
                }
                .min(all.len() - next);
                let batch = all[next..next + take].to_vec();
                if take == 1 {
                    let event = batch.into_iter().next().unwrap();
                    sm.advance_watermark(event.ts());
                    sm.push_event(event).unwrap();
                } else {
                    sm.push_batch(batch).unwrap();
                }
                next += take;
                if !restored && next >= cut {
                    let snap = sm.snapshot();
                    sm = StreamMatcher::restore(&pat, &schema(), options(), &snap).unwrap();
                    restored = true;
                }
                let reference = ViableIndex::classify(sm.compiled(), sm.relation());
                prop_assert_eq!(
                    sm.viable_lists(), &reference[..],
                    "{} of {} pushed, {} evicted", next, all.len(), sm.evicted_events()
                );
            }
        }
    }

    // ── Subset walk and store pruning ────────────────────────────────

    /// Canonical binding sets over a handful of events and variables,
    /// so equal sets, same-event-different-variable pairs, prefixes,
    /// suffixes and interleavings all turn up.
    fn bindings_strategy() -> impl Strategy<Value = Vec<(u16, u32)>> {
        proptest::collection::vec((0u16..3, 0u32..6), 1..8)
    }

    fn distinct(mut b: Vec<(u16, u32)>) -> Vec<(u16, u32)> {
        b.sort_unstable();
        b.dedup();
        b
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn subset_walk_is_the_naive_definition(
            a in bindings_strategy(),
            b in bindings_strategy(),
            drop in proptest::collection::vec(proptest::bool::ANY, 8),
        ) {
            let naive = |x: &Match, y: &Match| {
                x.len() < y.len() && x.bindings().iter().all(|bind| y.bindings().contains(bind))
            };
            let (a, b) = (distinct(a), distinct(b));
            // `sub` ⊆ `a` by construction: prefixes, suffixes,
            // interleavings, `a` itself, a missing last binding.
            let sub: Vec<(u16, u32)> = a
                .iter()
                .zip(&drop)
                .filter_map(|(&bind, &d)| (!d).then_some(bind))
                .collect();
            // The same events under shifted variables.
            let shifted: Vec<(u16, u32)> = a.iter().map(|&(v, e)| ((v + 1) % 3, e)).collect();
            let sets: Vec<Match> = [a, b, sub, shifted]
                .into_iter()
                .filter(|s| !s.is_empty())
                .map(|s| m(&s))
                .collect();
            for x in &sets {
                for y in &sets {
                    prop_assert_eq!(x.is_proper_subset_of(y), naive(x, y), "{} ⊊ {}", x, y);
                }
            }
        }

        /// Batch `select` prunes the store below `minT(group) − τ`
        /// before each group; a store never pruned gives every kill
        /// query the same answer, as long as matches span at most τ —
        /// which is what makes the cutoff safe.
        #[test]
        fn pruning_the_store_per_group_changes_no_kill(
            input in store_groups_strategy(),
        ) {
            let (tau, groups) = input;
            let mut pruned = SurvivorStore::new();
            let mut unpruned = SurvivorStore::new();
            for (min_t, group) in store_groups(tau, groups) {
                pruned.prune(Timestamp::new(min_t - tau));
                for c in &group {
                    prop_assert_eq!(pruned.kills(c), unpruned.kills(c), "{} at minT {}", c, min_t);
                }
                for c in group {
                    pruned.push(Timestamp::new(min_t), c.clone());
                    unpruned.push(Timestamp::new(min_t), c);
                }
            }
        }

        /// The posting lists and the signature prefilter skip only
        /// survivors that cannot contain the victim: `kills` is a scan
        /// of every live survivor, pruned or not.
        #[test]
        fn kills_is_a_scan_of_the_live_survivors(
            input in store_groups_strategy(),
            prune in proptest::bool::ANY,
        ) {
            let (tau, groups) = input;
            let mut store = SurvivorStore::new();
            for (min_t, group) in store_groups(tau, groups) {
                if prune {
                    store.prune(Timestamp::new(min_t - tau));
                }
                for c in &group {
                    let naive = store.live().iter().any(|(_, o)| c.is_proper_subset_of(o));
                    prop_assert_eq!(store.kills(c), naive, "{} at minT {}", c, min_t);
                }
                for c in group {
                    store.push(Timestamp::new(min_t), c);
                }
            }
        }
    }

    /// Per group: the gap to the previous group's `minT`, and candidates
    /// as `(var, offset from minT)` lists (each within τ after clamping).
    type GroupSpecs = Vec<(i64, Vec<Vec<(u16, i64)>>)>;

    /// `(τ, groups)`.
    fn store_groups_strategy() -> impl Strategy<Value = (i64, GroupSpecs)> {
        (
            1i64..6,
            proptest::collection::vec(
                (
                    0i64..4,
                    proptest::collection::vec(
                        proptest::collection::vec((0u16..2, 0i64..6), 0..4),
                        1..4,
                    ),
                ),
                1..10,
            ),
        )
    }

    /// The groups of [`store_groups_strategy`] as `(minT, candidates)`,
    /// in ascending `minT`. Event ids stand in for timestamps (one event
    /// per tick).
    fn store_groups(tau: i64, groups: GroupSpecs) -> Vec<(i64, Vec<Match>)> {
        let mut min_t = 0i64;
        groups
            .into_iter()
            .map(|(gap, candidates)| {
                min_t += gap;
                let group = candidates
                    .into_iter()
                    .map(|rest| {
                        let mut b = vec![(0u16, min_t as u32)];
                        b.extend(
                            rest.into_iter()
                                .map(|(v, off)| (v, (min_t + 1 + off.min(tau - 1)) as u32)),
                        );
                        m(&distinct(b))
                    })
                    .collect();
                (min_t, group)
            })
            .collect()
    }
}
