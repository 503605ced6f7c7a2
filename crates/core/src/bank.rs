//! Multi-pattern shared execution: N patterns, one stream, one push.
//!
//! A [`PatternBank`] registers N compiled patterns against a single
//! event stream. Each event is pushed **once**; an event→pattern
//! predicate index ([`ses_pattern::PatternIndex`]) built from the
//! patterns' analyzer-derived constant constraints routes it to the
//! patterns it could possibly advance. Every other pattern only has to
//! learn the time, and only at the instants that change anything for
//! it: it receives a watermark heartbeat
//! ([`StreamMatcher::advance_watermark`]) once the stream's clock
//! reaches its [`StreamMatcher::next_deadline`], so its pending matches
//! finalize and its window evicts on time. A push therefore costs what
//! it admits plus what has come due, not the number of patterns
//! registered.
//!
//! # Why skipping is sound
//!
//! The index admits an event to a pattern when it fully satisfies the
//! constant-condition conjunction of at least one variable or negation.
//! An event admitted by *no* group can neither bind (every transition
//! evaluates all of its variable's conditions) nor kill (a negation
//! whose constant conjunction fails cannot be violated), so the only
//! thing the pattern must learn from it is the time: the heartbeat
//! performs exactly the sweep/adjudicate/evict work a push at that
//! timestamp would, and a push at a timestamp equal to the watermark is
//! still accepted — admitted ties are never rejected. Below the
//! matcher's deadline that work is provably empty, so withholding the
//! heartbeat until then changes nothing either. Per-pattern
//! output is therefore identical — matches *and* order — to N
//! independent [`StreamMatcher`]s each fed every event, which is
//! precisely what `tests/bank_vs_independent.rs` proves differentially.
//! The full argument lives in `docs/patternbank.md`.
//!
//! # Structural sharing
//!
//! With [`PatternBankBuilder::with_sharing`] the bank additionally runs
//! a cross-pattern static analysis ([`ses_pattern::SharingPlan`]) over
//! the compiled patterns and shares execution structure two ways:
//!
//! * **Deduplication** — a pattern whose declaration-order evaluation
//!   form and execution options are identical to an earlier one runs no
//!   automaton at all; it re-emits its leader's matches (already in
//!   global event ids) push-for-push. Identical evaluation form means
//!   identical pushes produce identical emissions, so the re-emitted
//!   stream *is* the member's own answer.
//! * **Shared prefixes** — patterns agreeing on their leading event
//!   sets (same sets, same conditions over those sets' variables, same
//!   window τ) evaluate the common prefix **once**: a *pool* matcher
//!   built from the group leader's automaton simulates the prefix for
//!   the whole group, and after every push the instances that arrived
//!   at the prefix-boundary state are harvested and injected into each
//!   member (which runs with start-state spawning suppressed, see
//!   [`crate::ExecOptions::spawn_start`]). A prefix group advances in
//!   lockstep — an event admitted to *any* member is pushed to the pool
//!   and to *every* member — so pool-local and member-local event ids
//!   coincide and harvested buffers transfer verbatim.
//!
//! Sharing never changes output: `tests/bank_vs_independent.rs` runs
//! the same differential with sharing on, and the soundness argument
//! (prefix states only evaluate shared conditions; the boundary is
//! harvested before the pool could evolve it with *its* suffix; the
//! engine emits only on expiry or flush, never on reaching the accept
//! state) lives in `docs/patternbank.md` next to the index argument.
//! Per-pattern *statistics* may differ under sharing (a prefix member's
//! hits include lockstep pushes; a dedup member reports its leader's
//! matcher counters).
//!
//! # Key sharding
//!
//! A pattern that proves a partition key (see
//! [`ses_pattern::CompiledPattern::partition_keys`]) can be registered
//! on N hash *lanes* ([`PatternBankBuilder::register_lanes`]): N entries
//! running the same compiled pattern and reporting one pattern id, each
//! admitted only the events whose `hash(key) % N` is its lane — ANDed
//! with the index's verdict — and heartbeat by the other pushes like
//! any skipped pattern, so a
//! match on an idle key still finalizes on time. No match spans two key
//! values, adjudication verdicts only compare matches sharing a first
//! binding, and skip-till-next-match swap candidates must satisfy the
//! key equality, so every lane's answer is exact on its own and the
//! union is the unsharded answer, push for push (`docs/parallel.md`).
//! Per-lane `|Ω|` shrinks to the lane's own keys, which is the point:
//! the per-event instance loop is what a push costs. Lanes take no part
//! in the sharing plan — they are evaluation-identical by construction
//! and would be deduplicated back into one matcher.
//!
//! # Event ids
//!
//! Matches are reported in **global** event ids (arrival order across
//! the whole stream), even though each entry's relation holds only the
//! events admitted to it.

use std::cmp::{Ordering, Reverse};
use std::collections::hash_map::DefaultHasher;
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};

use ses_event::{AttrId, Event, EventError, EventId, PartitionKey, Schema, Timestamp, Value};
use ses_pattern::{IndexClass, Pattern, PatternIndex, ShareConstraint, ShareRole, SharingPlan};

use crate::automaton::Automaton;
use crate::buffer::Buffer;
use crate::error::CoreError;
use crate::matcher::{
    compile_pattern, resolve_partition, MatcherOptions, PartitionMode, PartitionStrategy,
};
use crate::matches::Match;
use crate::probe::{NoProbe, Probe};
use crate::semantics::group_key;
use crate::snapshot::{options_compat, BankPatternSnapshot, BankRole, BankSnapshot};
use crate::state::{StateId, StateSet};
use crate::stream::StreamMatcher;

/// How a registered pattern executes.
#[derive(Debug)]
enum Exec {
    /// Runs its own stream matcher (boxed: the matcher dwarfs the
    /// dedup variant).
    Own(Box<StreamMatcher>),
    /// Evaluation-identical to the pattern at `leader`; runs nothing
    /// and re-emits the leader's matches.
    Dedup { leader: usize },
}

/// One registered pattern — or one hash lane of a key-sharded one: its
/// execution mode plus the map from its local event ids back to global
/// ones, and the routing counters.
#[derive(Debug)]
struct Entry {
    name: String,
    /// The pattern id this entry's matches are reported under; the
    /// lanes of one sharded pattern share it.
    pattern: usize,
    exec: Exec,
    /// Pattern ids of the dedup members re-emitting this entry's
    /// matches.
    followers: Vec<usize>,
    /// The prefix pool this entry is a member of.
    pool: Option<usize>,
    /// Global ids of the events admitted to this pattern, indexed by
    /// `local - base`. Empty for a dedup member.
    ids: Vec<EventId>,
    /// The pattern relation's first retained local index; `ids` is
    /// pruned to it whenever the matcher evicts.
    base: usize,
    /// Peak `|Ω|` observed on this pattern (including injected forks).
    peak_omega: usize,
    /// Events routed into the matcher (for a dedup member: events the
    /// index admitted to it).
    hits: u64,
    /// Global id of the first event pushed after this entry registered
    /// (see [`Entry::seen`]); what it saw and did not hit, it skipped.
    since: usize,
    /// Heartbeats pushes executed on this entry's matcher since the
    /// bank was built or restored.
    beats: u64,
}

/// A shared-prefix pool: one matcher simulating the common prefix for a
/// whole group, plus where to harvest and where to inject.
#[derive(Debug)]
struct Pool {
    /// A clone of the group leader's automaton, spawning normally. Its
    /// instances never pass the prefix boundary (harvested first) and
    /// it never emits (strict-prefix states are never accepting).
    sm: StreamMatcher,
    /// The boundary state (all prefix variables bound) in the pool's
    /// automaton.
    boundary: StateId,
    /// Participating pattern indices (including the leader).
    members: Vec<usize>,
    /// The boundary state in each member's automaton, aligned with
    /// `members`.
    member_boundary: Vec<StateId>,
}

/// The consecutive entries `first..first + of` are the hash lanes of one
/// key-sharded pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaneGroup {
    first: usize,
    of: usize,
    /// The pattern id the lanes report under.
    pattern: usize,
    /// The proven partition key events are hash-routed by.
    key: AttrId,
}

impl LaneGroup {
    /// The lane (`0..of`) `event` belongs to. `DefaultHasher::new()` is
    /// keyed with constants, so a restored bank routes replayed events
    /// to the lanes that hold their keys' state.
    fn lane_of(&self, event: &Event) -> usize {
        let mut h = DefaultHasher::new();
        PartitionKey::of(event.value(self.key)).hash(&mut h);
        (h.finish() as usize) % self.of
    }
}

/// What one push does with an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Todo {
    /// Nothing: not admitted, and below its heartbeat deadline.
    Idle,
    /// Admitted by the index (and, for a lane, by the key hash): push.
    Routed,
    /// Admitted to a sibling of its prefix group only: store the event
    /// for id alignment without running the engine.
    Aligned,
    /// Its heartbeat deadline has come.
    Beat,
}

/// Routing scratch the bank owns so that a push allocates none of it.
#[derive(Debug, Default)]
struct Scratch {
    /// The entries the push touches.
    work: Vec<usize>,
    /// What the push does with each entry; all `Idle` between pushes.
    todo: Vec<Todo>,
    /// The prefix pools the push touches.
    pool_work: Vec<usize>,
    /// What the push does with each pool — `Routed`: store the event,
    /// `Beat`: heartbeat; all `Idle` between pushes.
    pool_todo: Vec<Todo>,
}

/// When each of a set of matchers next needs a heartbeat: a min-heap of
/// alarms, so a push pays for the matchers that have come due and not
/// for a look at each one registered.
///
/// A matcher's deadline moves with every push it receives — almost
/// always later. Rather than re-key the heap each time, a matcher keeps
/// at most one live *alarm*, never set later than its deadline: moving
/// the deadline later leaves the alarm alone, and an alarm that rings
/// early is simply re-set to the deadline of the day. Only a deadline
/// moving *earlier* than the alarm (a fork injected into an idle prefix
/// member, say) queues a second entry; the superseded one is recognized
/// by its time when it surfaces and dropped. Ringing early is always
/// safe — a heartbeat below the deadline does nothing — ringing late
/// never happens.
#[derive(Debug, Default)]
struct Deadlines {
    /// Matcher `i`'s [`StreamMatcher::next_deadline`] as of the last
    /// time the bank touched it; `Timestamp::MAX` for none.
    due: Vec<Timestamp>,
    /// When matcher `i`'s live alarm rings (`<= due[i]`);
    /// `Timestamp::MAX` for no alarm.
    alarm: Vec<Timestamp>,
    /// `(time, matcher)` alarms, earliest first — the live ones and the
    /// superseded ones not yet surfaced.
    heap: BinaryHeap<Reverse<(Timestamp, usize)>>,
}

impl Deadlines {
    /// Replaces every deadline.
    fn reset(&mut self, deadlines: impl Iterator<Item = Option<Timestamp>>) {
        self.due.clear();
        self.alarm.clear();
        self.heap.clear();
        for (i, deadline) in deadlines.enumerate() {
            self.due.push(Timestamp::MAX);
            self.alarm.push(Timestamp::MAX);
            self.set(i, deadline);
        }
    }

    /// Records matcher `i`'s new deadline.
    fn set(&mut self, i: usize, deadline: Option<Timestamp>) {
        let deadline = deadline.unwrap_or(Timestamp::MAX);
        self.due[i] = deadline;
        if deadline < self.alarm[i] {
            self.alarm[i] = deadline;
            self.heap.push(Reverse((deadline, i)));
        }
    }

    /// Calls `beat` for every matcher whose deadline `ts` has reached.
    /// The caller [`Deadlines::set`]s each one's new deadline afterwards.
    fn for_each_due(&mut self, ts: Timestamp, mut beat: impl FnMut(usize)) {
        while let Some(&Reverse((at, i))) = self.heap.peek() {
            if at > ts {
                break;
            }
            self.heap.pop();
            if at != self.alarm[i] {
                continue; // superseded by an earlier alarm
            }
            self.alarm[i] = Timestamp::MAX;
            if self.due[i] <= ts {
                beat(i);
            } else {
                self.set(i, Some(self.due[i]));
            }
        }
    }
}

/// The order one stream matcher emits a push's matches in: adjudication
/// groups ascending by first binding, each group in canonical order.
/// Lanes partition the groups, so sorting their concatenated output by
/// this restores exactly what the unsharded matcher would have emitted.
fn emission_order(a: &Match, b: &Match) -> Ordering {
    group_key(a).cmp(&group_key(b)).then_with(|| a.cmp(b))
}

/// Puts each sharded pattern's matches — its lanes' outputs, one after
/// the other in the pattern-ordered `out` — into `order`: the lanes
/// then report as the one pattern they are.
fn sort_lane_output(
    lanes: &[LaneGroup],
    out: &mut [(usize, Match)],
    order: fn(&Match, &Match) -> Ordering,
) {
    for g in lanes {
        let lo = out.partition_point(|(p, _)| *p < g.pattern);
        let hi = out.partition_point(|(p, _)| *p <= g.pattern);
        out[lo..hi].sort_by(|a, b| order(&a.1, &b.1));
    }
}

/// Rewrites a pattern-local match into global event ids.
fn remap(ids: &[EventId], base: usize, m: &Match) -> Match {
    Match::from_bindings(
        m.bindings()
            .iter()
            .map(|&(v, e)| (v, ids[e.index() - base]))
            .collect(),
    )
}

impl Entry {
    /// An entry that has pushed nothing yet, registered when the bank
    /// had consumed `since` events.
    fn new(name: String, pattern: usize, exec: Exec, since: usize) -> Entry {
        Entry {
            name,
            pattern,
            exec,
            followers: Vec::new(),
            pool: None,
            ids: Vec::new(),
            base: 0,
            peak_omega: 0,
            hits: 0,
            since,
            beats: 0,
        }
    }

    /// Events pushed since this entry registered, of the `consumed` the
    /// bank has taken in all: its hits plus its skips.
    fn seen(&self, consumed: usize) -> u64 {
        (consumed - self.since) as u64
    }

    /// `Some(leader)` iff this pattern is deduplicated into another.
    fn leader(&self) -> Option<usize> {
        match self.exec {
            Exec::Dedup { leader } => Some(leader),
            Exec::Own(_) => None,
        }
    }

    /// The entry's own matcher, if it runs one.
    fn own(&self) -> Option<&StreamMatcher> {
        match &self.exec {
            Exec::Own(sm) => Some(sm),
            Exec::Dedup { .. } => None,
        }
    }

    /// The entry's own matcher, which the caller knows it runs.
    fn own_mut(&mut self) -> &mut StreamMatcher {
        match &mut self.exec {
            Exec::Own(sm) => sm,
            Exec::Dedup { .. } => unreachable!("a dedup member runs no matcher"),
        }
    }

    /// Pushes the event — its row already checked against the bank's
    /// schema — into this entry's own matcher and emits what that
    /// finalizes.
    fn push_own<P: Probe>(
        &mut self,
        event: Event,
        global: usize,
        probe: &mut P,
        out: &mut Vec<(usize, Match)>,
    ) -> Result<(), EventError> {
        self.ids.push(EventId::from(global));
        let sm = self.own_mut();
        let emitted = sm.push_checked_event(event, probe)?;
        let omega = sm.active_instances();
        self.peak_omega = self.peak_omega.max(omega);
        self.emit(emitted, out);
        Ok(())
    }

    /// Pushes an event the bank's index proved cannot bind here —
    /// storing it so local event ids stay aligned with the entry's
    /// prefix pool, advancing time, but never running the engine — and
    /// emits what that finalizes.
    fn skip_own<P: Probe>(
        &mut self,
        event: Event,
        global: usize,
        probe: &mut P,
        out: &mut Vec<(usize, Match)>,
    ) -> Result<(), EventError> {
        self.ids.push(EventId::from(global));
        let emitted = self.own_mut().skip_checked_event(event, probe)?;
        self.emit(emitted, out);
        Ok(())
    }

    /// Heartbeats this entry's own matcher and emits what that
    /// finalizes. Does not touch the routing counters.
    fn beat_own<P: Probe>(&mut self, ts: Timestamp, probe: &mut P, out: &mut Vec<(usize, Match)>) {
        let emitted = self.own_mut().advance_watermark_with_probe(ts, probe);
        self.emit(emitted, out);
    }

    /// Appends the matches this entry's matcher just `emitted` to `out`
    /// in global event ids — under its own pattern id and under that of
    /// every dedup member re-emitting them — and drops the id-map
    /// entries of whatever the matcher evicted meanwhile.
    fn emit(&mut self, emitted: Vec<Match>, out: &mut Vec<(usize, Match)>) {
        for m in &emitted {
            let m = remap(&self.ids, self.base, m);
            out.extend(self.followers.iter().map(|&f| (f, m.clone())));
            out.push((self.pattern, m));
        }
        self.prune();
    }

    /// Ends the entry's stream: flushes its own matcher, if it runs one,
    /// and emits what that finalizes.
    fn finish(mut self, out: &mut Vec<(usize, Match)>) {
        // The flush consumes the matcher while `emit` wants the rest of
        // the entry: leave a matcher-less stand-in behind.
        let leader = self.pattern;
        if let Exec::Own(sm) = std::mem::replace(&mut self.exec, Exec::Dedup { leader }) {
            self.emit(sm.finish(), out);
        }
    }

    /// Drops id-map entries for events the matcher has evicted.
    fn prune(&mut self) {
        let Exec::Own(sm) = &self.exec else { return };
        let first = sm.relation().first_index();
        if first > self.base {
            self.ids.drain(..first - self.base);
            self.base = first;
        }
    }
}

/// Point-in-time routing and matching statistics for one registered
/// pattern — the rows `ses-cli bank --stats` prints. A dedup member
/// reports its leader's matcher counters (they share one matcher) with
/// its own hit/skip routing counts; a key-sharded pattern reports the
/// sums over its lanes (peak `|Ω|`: the largest lane's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternStats {
    /// The name the pattern was registered under.
    pub name: String,
    /// How the predicate index routes events to this pattern.
    pub class: IndexClass,
    /// Hash lanes the pattern runs on (1 unless key-sharded).
    pub lanes: usize,
    /// Events pushed into the pattern's matcher by its own index
    /// admission.
    pub hits: u64,
    /// Events skipped — everything the pattern has seen since it
    /// registered that was not a hit: the pattern learned the time at
    /// most (see `heartbeats`), or — for prefix members — took an
    /// alignment push a sibling's admission forced, which stores the
    /// event without running this pattern's engine.
    pub skips: u64,
    /// Heartbeats pushes actually executed on the pattern's matcher
    /// since the bank was built or restored: a skip costs one only once
    /// the clock reaches the matcher's deadline, so this stays far below
    /// `skips`.
    pub heartbeats: u64,
    /// Matches finalized by pushes so far.
    pub emitted: usize,
    /// Current `|Ω|`.
    pub active_instances: usize,
    /// Peak `|Ω|` observed.
    pub peak_omega: usize,
    /// Events currently retained in the pattern's relation.
    pub retained_events: usize,
    /// Events evicted from the pattern's relation.
    pub evicted_events: usize,
}

/// A compiled registration awaiting [`assemble`]: one per entry.
#[derive(Debug)]
struct Built {
    name: String,
    pattern: usize,
    sm: StreamMatcher,
}

/// Computes the sharing plan for a set of built matchers: the pattern
/// the engine actually evaluates (after analyzer rewrites), constrained
/// by options compatibility and compile-time satisfiability. Lanes
/// share nothing: the plan would deduplicate them back into one matcher.
fn compute_plan(built: &[Built], lanes: &[LaneGroup]) -> SharingPlan {
    let patterns: Vec<&Pattern> = built.iter().map(|b| b.sm.compiled().pattern()).collect();
    let laned = |i: usize| lanes.iter().any(|g| (g.first..g.first + g.of).contains(&i));
    let constraints: Vec<ShareConstraint> = built
        .iter()
        .enumerate()
        .map(|(i, b)| ShareConstraint {
            compat: options_compat(b.sm.options()),
            allow_dedup: !laned(i),
            // The stream matcher short-circuits unsatisfiable patterns
            // (no engine runs), so they must not anchor a prefix pool.
            allow_prefix: !laned(i) && b.sm.compiled().is_satisfiable(),
        })
        .collect();
    SharingPlan::compute(&patterns, &constraints)
}

/// The per-entry roles a snapshot records, derived from a plan and the
/// lane groups.
fn derive_roles(plan: &SharingPlan, lanes: &[LaneGroup], n: usize) -> Vec<BankRole> {
    let mut roles: Vec<BankRole> = (0..n)
        .map(|i| match plan.roles[i] {
            ShareRole::DedupMember { leader } => BankRole::DedupMember {
                leader: leader as u32,
            },
            _ => match plan.prefix_group_of(i) {
                Some(g) => BankRole::PrefixMember { pool: g as u32 },
                None => BankRole::Plain,
            },
        })
        .collect();
    for g in lanes {
        for lane in 0..g.of {
            roles[g.first + lane] = BankRole::Lane {
                key: g.key,
                lane: lane as u32,
                of: g.of as u32,
            };
        }
    }
    roles
}

/// Builds the predicate index. A dedup member is indexed by its
/// *leader's* compiled pattern — the one whose emissions it re-emits —
/// so its routing statistics describe the automaton answering for it.
fn build_index(built: &[Built], plan: &SharingPlan) -> PatternIndex {
    PatternIndex::build((0..built.len()).map(|i| {
        let src = match plan.roles[i] {
            ShareRole::DedupMember { leader } => leader,
            _ => i,
        };
        built[src].sm.compiled()
    }))
}

/// Turns built matchers plus a plan into runtime entries and pools:
/// dedup members drop their matcher, prefix members stop spawning, and
/// each prefix group gets a pool cloned from its leader's automaton.
fn assemble(built: Vec<Built>, plan: &SharingPlan) -> (Vec<Entry>, Vec<Pool>) {
    let mut sms: Vec<(String, usize, Option<StreamMatcher>)> = built
        .into_iter()
        .map(|b| (b.name, b.pattern, Some(b.sm)))
        .collect();
    let mut pools = Vec::with_capacity(plan.prefix_groups.len());
    for group in &plan.prefix_groups {
        // Shared leading variables are `VarId`s 0..vars in every member
        // (declaration order), so the boundary state — all prefix
        // variables bound — is the same bitset everywhere.
        debug_assert!(group.vars < 64, "a proper prefix leaves a suffix variable");
        let boundary_set = StateSet::from_bits((1u64 << group.vars) - 1);
        let leader = sms[group.leader]
            .2
            .as_ref()
            .expect("prefix leader runs its own automaton");
        let sm =
            StreamMatcher::from_automaton(leader.automaton().clone(), leader.options().clone());
        let boundary = sm
            .automaton()
            .state_for(boundary_set)
            .expect("prefix boundary is a state of the leader's automaton");
        let member_boundary = group
            .members
            .iter()
            .map(|&m| {
                sms[m]
                    .2
                    .as_ref()
                    .expect("prefix members run their own automata")
                    .automaton()
                    .state_for(boundary_set)
                    .expect("prefix boundary is a state of every member's automaton")
            })
            .collect();
        for &m in &group.members {
            sms[m].2.as_mut().unwrap().set_spawn(false);
        }
        pools.push(Pool {
            sm,
            boundary,
            members: group.members.clone(),
            member_boundary,
        });
    }
    let mut entries: Vec<Entry> = sms
        .into_iter()
        .zip(&plan.roles)
        .map(|((name, pattern, sm), role)| {
            let exec = match role {
                ShareRole::DedupMember { leader } => Exec::Dedup { leader: *leader },
                _ => Exec::Own(Box::new(sm.expect("non-dedup patterns keep their matcher"))),
            };
            Entry::new(name, pattern, exec, 0)
        })
        .collect();
    for (g, group) in plan.prefix_groups.iter().enumerate() {
        for &m in &group.members {
            entries[m].pool = Some(g);
        }
    }
    for i in 0..entries.len() {
        if let Some(leader) = entries[i].leader() {
            let member = entries[i].pattern;
            entries[leader].followers.push(member);
        }
    }
    (entries, pools)
}

/// The proven key a pattern's lanes are hash-routed by, or why there is
/// none: a sharded stream over an unproven key would silently lose
/// cross-partition matches, and time slicing is batch-only — a stream
/// has no slice-end flush point, and every lane would need every event.
fn resolve_lane_key(
    compiled: &ses_pattern::CompiledPattern,
    options: &MatcherOptions,
) -> Result<AttrId, CoreError> {
    if let PartitionStrategy::Key(key) = resolve_partition(compiled, options)? {
        return Ok(key);
    }
    let reason = match options.partition {
        PartitionMode::Off => {
            "partition mode is `Off`; lanes need a key — use `register` for a global stream"
        }
        PartitionMode::Auto | PartitionMode::TimeAuto if !options.flush_at_end => {
            "partitioned execution requires `flush_at_end`"
        }
        PartitionMode::TimeAuto => {
            "the pattern proves no partition key, and time-sliced execution is batch-only — \
             a stream has no slice-end flush point"
        }
        _ => "the pattern proves no partition key",
    };
    Err(CoreError::UnprovenPartitionKey {
        attr: "<auto>".to_string(),
        reason: reason.to_string(),
    })
}

/// Panics unless `sm` was compiled against `schema` — the invariant that
/// lets the bank check a row once for all of its matchers.
fn assert_shares_schema(sm: &StreamMatcher, schema: &Schema) {
    assert!(
        sm.compiled().schema() == schema,
        "a bank's matchers are compiled against the bank's schema"
    );
}

/// Builder for a [`PatternBank`]; see [`PatternBank::builder`].
#[derive(Debug)]
pub struct PatternBankBuilder {
    schema: Schema,
    entries: Vec<Built>,
    lanes: Vec<LaneGroup>,
    share: bool,
}

impl PatternBankBuilder {
    /// Compiles `pattern` against the bank's schema and registers it
    /// under `name`. Patterns are identified by their zero-based
    /// registration order in push results and statistics.
    pub fn register(
        mut self,
        name: impl Into<String>,
        pattern: &Pattern,
        options: MatcherOptions,
    ) -> Result<PatternBankBuilder, CoreError> {
        let sm = StreamMatcher::with_options(pattern, &self.schema, options)?;
        self.add(name.into(), self.next_pattern(), sm);
        Ok(self)
    }

    /// Queues one compiled entry. A push checks its row against the
    /// bank's schema once and then trusts it in every matcher, so every
    /// matcher must have been compiled against that very schema.
    fn add(&mut self, name: String, pattern: usize, sm: StreamMatcher) {
        assert_shares_schema(&sm, &self.schema);
        self.entries.push(Built { name, pattern, sm });
    }

    /// As [`PatternBankBuilder::register`], but key-sharded: the
    /// pattern runs on `lanes` hash lanes (clamped to at least one),
    /// each seeing only the events whose partition key hashes to it
    /// (see the module docs). The key is the one
    /// [`MatcherOptions::partition`] resolves to — `Auto`/`TimeAuto`
    /// with a provable key, or a proven explicit `Key`; fails with
    /// [`CoreError::UnprovenPartitionKey`] otherwise
    /// ([`PatternBank::lane_key`] asks without registering).
    pub fn register_lanes(
        mut self,
        name: impl Into<String>,
        pattern: &Pattern,
        options: MatcherOptions,
        lanes: usize,
    ) -> Result<PatternBankBuilder, CoreError> {
        let compiled = compile_pattern(pattern, &self.schema, &options)?;
        let key = resolve_lane_key(&compiled, &options)?;
        let automaton = Automaton::build_with_limit(compiled, options.max_states)?;
        let name = name.into();
        let pattern = self.next_pattern();
        let of = lanes.max(1);
        self.lanes.push(LaneGroup {
            first: self.entries.len(),
            of,
            pattern,
            key,
        });
        for _ in 0..of {
            let sm = StreamMatcher::from_automaton(automaton.clone(), options.clone());
            self.add(name.clone(), pattern, sm);
        }
        Ok(self)
    }

    /// The id the next registered pattern reports under (the lanes of
    /// one pattern count once).
    fn next_pattern(&self) -> usize {
        self.entries.last().map_or(0, |b| b.pattern + 1)
    }

    /// Enables or disables structural sharing (off by default): at
    /// build time a [`SharingPlan`] is computed over the compiled
    /// patterns, deduplicating evaluation-identical ones and running
    /// common sequencing prefixes once per group (see the module docs).
    /// Output is identical either way; only statistics may differ.
    pub fn with_sharing(mut self, on: bool) -> PatternBankBuilder {
        self.share = on;
        self
    }

    /// Builds the bank, constructing the sharing plan (if enabled) and
    /// the predicate index from the compiled patterns exactly as the
    /// matchers will run them (after any analyzer rewrites).
    pub fn build(self) -> PatternBank {
        let built = self.entries;
        let plan = if self.share && built.len() > 1 {
            compute_plan(&built, &self.lanes)
        } else {
            SharingPlan::trivial(built.len())
        };
        let index = build_index(&built, &plan);
        let (entries, pools) = assemble(built, &plan);
        let mut bank = PatternBank {
            entries,
            lanes: self.lanes,
            pools,
            plan,
            index,
            schema: self.schema,
            watermark: None,
            last_ts: None,
            next_id: 0,
            ties: 0,
            emitted: 0,
            scratch: Scratch::default(),
            entry_due: Deadlines::default(),
            pool_due: Deadlines::default(),
        };
        bank.reschedule();
        bank
    }
}

/// N patterns sharing one event stream: push each event once, receive
/// per-pattern finalized matches.
///
/// ```
/// use ses_event::{AttrType, CmpOp, Duration, Schema, Timestamp, Value};
/// use ses_pattern::Pattern;
/// use ses_core::{MatcherOptions, PatternBank};
///
/// let schema = Schema::builder().attr("L", AttrType::Str).build().unwrap();
/// let pair = |x: &str, y: &str| {
///     Pattern::builder()
///         .set(|s| s.var("a").var("b"))
///         .cond_const("a", "L", CmpOp::Eq, x)
///         .cond_const("b", "L", CmpOp::Eq, y)
///         .within(Duration::ticks(5))
///         .build()
///         .unwrap()
/// };
/// let mut bank = PatternBank::builder(&schema)
///     .register("ab", &pair("A", "B"), MatcherOptions::default())
///     .unwrap()
///     .register("cd", &pair("C", "D"), MatcherOptions::default())
///     .unwrap()
///     .build();
/// for (t, l) in [(0, "A"), (1, "B"), (2, "C"), (3, "D")] {
///     bank.push(Timestamp::new(t), [Value::from(l)]).unwrap();
/// }
/// let out = bank.finish();
/// assert_eq!(out.len(), 2);
/// assert_eq!(out[0].0, 0); // pattern "ab" matched
/// assert_eq!(out[1].0, 1); // pattern "cd" matched
/// ```
#[derive(Debug)]
pub struct PatternBank {
    entries: Vec<Entry>,
    /// Which runs of `entries` are the hash lanes of one pattern (empty
    /// for an unsharded bank).
    lanes: Vec<LaneGroup>,
    /// Shared-prefix pools, aligned with `plan.prefix_groups`.
    pools: Vec<Pool>,
    /// The structural-sharing plan the bank executes (trivial when
    /// sharing is off or nothing shares).
    plan: SharingPlan,
    index: PatternIndex,
    schema: Schema,
    /// The bank's clock: max of pushed and heartbeat timestamps; pushes
    /// behind it are rejected.
    watermark: Option<Timestamp>,
    /// Timestamp of the last pushed event (may trail the watermark).
    last_ts: Option<Timestamp>,
    /// Next global event id (= events consumed).
    next_id: usize,
    /// Events tied at `last_ts` — tracked explicitly because skipped
    /// events appear in no pattern's relation.
    ties: usize,
    /// Matches emitted by pushes and heartbeats so far.
    emitted: usize,
    scratch: Scratch,
    /// Heartbeat deadlines of the entries' own matchers (none for a
    /// dedup member), indexed like `entries`.
    entry_due: Deadlines,
    /// Heartbeat deadlines of the prefix pools, indexed like `pools`.
    pool_due: Deadlines,
}

impl PatternBank {
    /// Starts building a bank over `schema`.
    pub fn builder(schema: &Schema) -> PatternBankBuilder {
        PatternBankBuilder {
            schema: schema.clone(),
            entries: Vec::new(),
            lanes: Vec::new(),
            share: false,
        }
    }

    /// The partition key [`PatternBankBuilder::register_lanes`] would
    /// shard `pattern` by under `options`, or its reason for refusing.
    pub fn lane_key(
        pattern: &Pattern,
        schema: &Schema,
        options: &MatcherOptions,
    ) -> Result<AttrId, CoreError> {
        resolve_lane_key(&compile_pattern(pattern, schema, options)?, options)
    }

    /// Number of registered patterns (the lanes of one count once).
    pub fn len(&self) -> usize {
        self.entries.last().map_or(0, |e| e.pattern + 1)
    }

    /// `true` iff no pattern is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The first entry of every pattern, in id order (a sharded
    /// pattern's lanes follow its first entry).
    fn firsts(&self) -> impl Iterator<Item = (usize, &Entry)> {
        self.entries
            .iter()
            .enumerate()
            .filter(|&(i, e)| i == 0 || self.entries[i - 1].pattern != e.pattern)
    }

    /// The names the patterns were registered under, in id order.
    pub fn names(&self) -> Vec<&str> {
        self.firsts().map(|(_, e)| e.name.as_str()).collect()
    }

    /// How the predicate index routes events to pattern `id`.
    pub fn index_class(&self, id: usize) -> IndexClass {
        let (first, _) = self.firsts().nth(id).expect("pattern id in range");
        self.index.class(first)
    }

    /// The structural-sharing plan the bank executes. Trivial unless
    /// the bank was built with [`PatternBankBuilder::with_sharing`] and
    /// the analysis found something to share.
    pub fn sharing_plan(&self) -> &SharingPlan {
        &self.plan
    }

    /// `true` iff any execution structure is actually shared.
    pub fn sharing_active(&self) -> bool {
        !self.plan.is_trivial()
    }

    /// Pushes one event (timestamps must be non-decreasing) and returns
    /// the matches this finalizes as `(pattern id, match)` pairs —
    /// grouped by pattern in registration order, each pattern's matches
    /// in its own emission order, with global event ids.
    pub fn push(
        &mut self,
        ts: Timestamp,
        values: impl Into<Vec<Value>>,
    ) -> Result<Vec<(usize, Match)>, EventError> {
        self.push_with_probe(ts, values, &mut NoProbe)
    }

    /// [`PatternBank::push`] with an instrumentation probe. The probe
    /// observes the receiving matchers' engine events plus the bank's
    /// routing decisions ([`Probe::index_hits`] / [`Probe::index_skips`]).
    pub fn push_with_probe<P: Probe>(
        &mut self,
        ts: Timestamp,
        values: impl Into<Vec<Value>>,
        probe: &mut P,
    ) -> Result<Vec<(usize, Match)>, EventError> {
        let values = values.into();
        self.schema.check_row(&values)?;
        if let Some(w) = self.watermark {
            if ts < w {
                return Err(EventError::OutOfOrder {
                    previous: w.ticks(),
                    got: ts.ticks(),
                });
            }
        }
        // The one copy of the row: every receiving matcher stores a
        // clone of the event, which shares it.
        let event = Event::new(ts, values);
        self.route(&event, probe);
        let pushed = self.execute(&event, probe);
        self.settle();
        let mut out = pushed?;
        self.ties = if self.last_ts == Some(ts) {
            self.ties + 1
        } else {
            1
        };
        self.watermark = Some(ts);
        self.last_ts = Some(ts);
        self.next_id += 1;
        sort_lane_output(&self.lanes, &mut out, emission_order);
        self.emitted += out.len();
        Ok(out)
    }

    /// Decides what the push of `event` does with every entry it
    /// touches, into the scratch: the index's admissions narrowed by the
    /// key hash of sharded patterns, the prefix siblings those drag
    /// along, and whoever's heartbeat deadline the event's timestamp
    /// reaches. Everyone else is left alone.
    fn route<P: Probe>(&mut self, event: &Event, probe: &mut P) {
        let Scratch {
            work,
            todo,
            pool_work,
            pool_todo,
        } = &mut self.scratch;
        let ts = event.ts();
        let n = self.entries.len();
        self.index.admitted_into(event, work);
        // Key sharding: of a sharded pattern's lanes — one compiled
        // pattern, so the index admits all of them or none — only the
        // one the event's key hashes to may receive it.
        for g in &self.lanes {
            let lo = work.partition_point(|&i| i < g.first);
            let hi = work.partition_point(|&i| i < g.first + g.of);
            if lo < hi {
                debug_assert_eq!(hi - lo, g.of, "the index split a pattern's lanes");
                work[lo] = g.first + g.lane_of(event);
                work.drain(lo + 1..hi);
            }
        }
        let hits = work.len();
        probe.index_hits(hits);
        probe.index_skips(n - hits);
        for &i in work.iter() {
            todo[i] = Todo::Routed;
        }
        // A prefix group advances in lockstep: an event admitted to any
        // member is pushed to the pool and to every member, keeping
        // their local event ids aligned so harvested prefix buffers
        // transfer verbatim. For the members this is sound for the same
        // reason skipping is: an event no member's index admits cannot
        // bind anywhere in the group.
        pool_work.clear();
        for k in 0..hits {
            let Some(p) = self.entries[work[k]].pool else {
                continue;
            };
            if pool_todo[p] == Todo::Idle {
                pool_todo[p] = Todo::Routed;
                pool_work.push(p);
                for &m in &self.pools[p].members {
                    if todo[m] == Todo::Idle {
                        todo[m] = Todo::Aligned;
                        work.push(m);
                    }
                }
            }
        }
        // Whoever the event is not stored in but whose deadline its
        // timestamp reaches gets the heartbeat; a matcher that stores it
        // learns the time from that.
        self.pool_due.for_each_due(ts, |p| {
            if pool_todo[p] == Todo::Idle {
                pool_todo[p] = Todo::Beat;
                pool_work.push(p);
            }
        });
        self.entry_due.for_each_due(ts, |i| {
            if todo[i] == Todo::Idle {
                todo[i] = Todo::Beat;
                work.push(i);
            }
        });
    }

    /// Carries out what [`PatternBank::route`] decided — the entries are
    /// independent of each other, so in whatever order it listed them —
    /// and returns what that finalizes, grouped by pattern in
    /// registration order.
    fn execute<P: Probe>(
        &mut self,
        event: &Event,
        probe: &mut P,
    ) -> Result<Vec<(usize, Match)>, EventError> {
        let ts = event.ts();
        let Scratch {
            work,
            todo,
            pool_work,
            pool_todo,
        } = &self.scratch;
        // Pools run first: simulate the shared prefix, then harvest the
        // instances that arrived at the boundary *before* the pool
        // could evolve them further with its own suffix transitions.
        // An event some member's index did *not* admit provably binds
        // no variable of that member — in particular none of the
        // shared prefix variables — so the pool only stores it for id
        // alignment (`skip_checked_event`) instead of running its
        // engine.
        let mut forks: Vec<(usize, Vec<Buffer>)> = Vec::new();
        for &p in pool_work {
            let pool = &mut self.pools[p];
            if pool_todo[p] == Todo::Beat {
                // Heartbeats never create boundary arrivals (the sweep
                // only retires instances), so there is nothing to
                // harvest.
                let beat = pool.sm.advance_watermark(ts);
                debug_assert!(beat.is_empty(), "prefix pool emitted a match");
                continue;
            }
            // Cannot fail: the pool's watermark never exceeds the
            // bank's (pushes and heartbeats only ever move it there).
            let emitted = if pool.members.iter().all(|&m| todo[m] == Todo::Routed) {
                pool.sm.push_checked_event(event.clone(), &mut NoProbe)?
            } else {
                pool.sm.skip_checked_event(event.clone(), &mut NoProbe)?
            };
            debug_assert!(emitted.is_empty(), "prefix pool emitted a match");
            let harvest = pool.sm.take_instances_at(pool.boundary);
            if !harvest.is_empty() {
                forks.push((p, harvest));
            }
        }
        let mut out = Vec::new();
        for &i in work {
            let entry = &mut self.entries[i];
            match todo[i] {
                Todo::Routed => {
                    entry.hits += 1;
                    if entry.leader().is_none() {
                        entry.push_own(event.clone(), self.next_id, probe, &mut out)?;
                    }
                }
                // Lockstep alignment only: a sibling's index admission
                // forced the push, but this entry's own index proved
                // the event binds nothing here, so the engine need not
                // run.
                Todo::Aligned => entry.skip_own(event.clone(), self.next_id, probe, &mut out)?,
                Todo::Beat => {
                    entry.beats += 1;
                    entry.beat_own(ts, probe, &mut out);
                }
                Todo::Idle => unreachable!("routing lists only entries it gave work"),
            }
        }
        // Inject the boundary forks *after* the members' own pushes: an
        // injected run bound its last prefix variable to this event and
        // must not consume it again.
        for (p, harvest) in forks {
            let pool = &self.pools[p];
            for (&m, &mb) in pool.members.iter().zip(&pool.member_boundary) {
                let entry = &mut self.entries[m];
                let sm = entry.own_mut();
                sm.inject_instances_at(mb, harvest.iter().cloned());
                let omega = sm.active_instances();
                entry.peak_omega = entry.peak_omega.max(omega);
            }
        }
        // Stable, so each pattern keeps its emission order — and a dedup
        // member, whose clones were emitted beside its leader's
        // originals, the leader's.
        out.sort_by_key(|&(pattern, _)| pattern);
        Ok(out)
    }

    /// Re-reads the heartbeat deadline of every matcher the push
    /// touched — after fork injection, which can lower a member's — and
    /// returns the scratch to its between-pushes state.
    fn settle(&mut self) {
        for &i in &self.scratch.work {
            self.scratch.todo[i] = Todo::Idle;
            if let Some(sm) = self.entries[i].own() {
                self.entry_due.set(i, sm.next_deadline());
            }
        }
        for &p in &self.scratch.pool_work {
            self.scratch.pool_todo[p] = Todo::Idle;
            self.pool_due.set(p, self.pools[p].sm.next_deadline());
        }
    }

    /// Sizes the routing scratch to the registered entries and re-reads
    /// every matcher's heartbeat deadline.
    fn reschedule(&mut self) {
        self.scratch.todo.resize(self.entries.len(), Todo::Idle);
        self.scratch.pool_todo.resize(self.pools.len(), Todo::Idle);
        self.entry_due.reset(
            self.entries
                .iter()
                .map(|e| e.own().and_then(StreamMatcher::next_deadline)),
        );
        self.pool_due
            .reset(self.pools.iter().map(|p| p.sm.next_deadline()));
    }

    /// Advances every pattern's watermark to `ts` without pushing an
    /// event — finalizing and evicting exactly as a push at `ts` would —
    /// and returns the matches that finalizes. No-op for patterns
    /// already at or past `ts`. Subsequent pushes before `ts` are
    /// rejected as out of order.
    pub fn advance_watermark(&mut self, ts: Timestamp) -> Vec<(usize, Match)> {
        // Heartbeats never create boundary arrivals (the sweep only
        // retires instances), so there is nothing to harvest.
        for pool in &mut self.pools {
            let beat = pool.sm.advance_watermark(ts);
            debug_assert!(beat.is_empty(), "prefix pool emitted a match");
        }
        let mut out = Vec::new();
        for entry in &mut self.entries {
            if entry.leader().is_none() {
                entry.beat_own(ts, &mut NoProbe, &mut out);
            }
        }
        out.sort_by_key(|&(pattern, _)| pattern);
        self.reschedule();
        if self.watermark.is_some_and(|w| ts > w) {
            self.watermark = Some(ts);
        }
        sort_lane_output(&self.lanes, &mut out, emission_order);
        self.emitted += out.len();
        out
    }

    /// Brings every matcher whose heartbeats pushes have withheld to the
    /// bank's clock, so that each one's recorded watermark is the
    /// bank's. Below its deadline a heartbeat finalizes and evicts
    /// nothing — which is why it could be withheld.
    fn flush_deferred(&mut self) {
        if let Some(w) = self.watermark {
            let flushed = self.advance_watermark(w);
            debug_assert!(
                flushed.is_empty(),
                "a heartbeat was withheld past its deadline"
            );
        }
    }

    /// Ends the stream: flushes and adjudicates every pattern's
    /// remaining state and returns the matches not already emitted by
    /// pushes — together with those, each pattern's exact batch answer.
    pub fn finish(mut self) -> Vec<(usize, Match)> {
        self.flush_deferred();
        let PatternBank {
            entries,
            lanes,
            pools,
            ..
        } = self;
        for pool in pools {
            let leftovers = pool.sm.finish();
            debug_assert!(leftovers.is_empty(), "prefix pool emitted a match");
        }
        let mut out = Vec::new();
        for entry in entries {
            entry.finish(&mut out);
        }
        out.sort_by_key(|&(pattern, _)| pattern);
        // A matcher's flush is in canonical match order, so the lanes'
        // merged flush is too.
        sort_lane_output(&lanes, &mut out, Match::cmp);
        out
    }

    /// The bank's clock: the latest pushed or heartbeat timestamp.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.watermark
    }

    /// Matches emitted by pushes and heartbeats so far (excludes
    /// [`PatternBank::finish`]).
    pub fn emitted_so_far(&self) -> usize {
        self.emitted
    }

    /// Events consumed so far (each counted once, however many patterns
    /// it was routed to).
    pub fn consumed_events(&self) -> usize {
        self.next_id
    }

    /// Events a log replay from the last pushed timestamp must skip —
    /// the bank-level counterpart of
    /// [`StreamMatcher::ties_at_watermark`]. Tracked explicitly: skipped
    /// events appear in no pattern's relation, so no relation can
    /// recover the count.
    pub fn ties_at_watermark(&self) -> usize {
        if self.last_ts.is_some() {
            self.ties
        } else {
            0
        }
    }

    /// Active instances summed over all patterns (and prefix pools).
    pub fn active_instances(&self) -> usize {
        self.entries
            .iter()
            .filter_map(|e| e.own().map(StreamMatcher::active_instances))
            .sum::<usize>()
            + self
                .pools
                .iter()
                .map(|p| p.sm.active_instances())
                .sum::<usize>()
    }

    /// Events retained, summed over all patterns and prefix pools (an
    /// event admitted to k matchers is counted k times).
    pub fn retained_events(&self) -> usize {
        self.entries
            .iter()
            .filter_map(|e| e.own().map(StreamMatcher::retained_events))
            .sum::<usize>()
            + self
                .pools
                .iter()
                .map(|p| p.sm.retained_events())
                .sum::<usize>()
    }

    /// Events pushed into matchers, summed over all patterns — the
    /// quantity the index exists to reduce (from `patterns × events`).
    pub fn total_hits(&self) -> u64 {
        self.entries.iter().map(|e| e.hits).sum()
    }

    /// Events skipped, summed over all patterns.
    pub fn total_skips(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.seen(self.next_id) - e.hits)
            .sum()
    }

    /// Routing and matching statistics per pattern, in id order.
    pub fn stats(&self) -> Vec<PatternStats> {
        self.firsts()
            .map(|(i, e)| {
                let lanes = self.lanes.iter().find(|g| g.first == i).map_or(1, |g| g.of);
                // A dedup member's matcher-derived numbers come from the
                // automaton answering for it (lanes never deduplicate).
                let runs = match e.leader() {
                    Some(leader) => &self.entries[leader..=leader],
                    None => &self.entries[i..i + lanes],
                };
                let sms = || {
                    runs.iter()
                        .map(|r| r.own().expect("leaders and lanes run their own automata"))
                };
                // Each event the pattern has seen hit at most one lane.
                let hits: u64 = self.entries[i..i + lanes].iter().map(|l| l.hits).sum();
                PatternStats {
                    name: e.name.clone(),
                    class: self.index.class(i),
                    lanes,
                    hits,
                    skips: e.seen(self.next_id) - hits,
                    heartbeats: runs.iter().map(|r| r.beats).sum(),
                    emitted: sms().map(StreamMatcher::emitted_so_far).sum(),
                    active_instances: sms().map(StreamMatcher::active_instances).sum(),
                    peak_omega: runs.iter().map(|r| r.peak_omega).max().unwrap_or(0),
                    retained_events: sms().map(StreamMatcher::retained_events).sum(),
                    evicted_events: sms().map(StreamMatcher::evicted_events).sum(),
                }
            })
            .collect()
    }

    /// Captures the complete dynamic state of every pattern (and prefix
    /// pool) plus the bank's routing bookkeeping under one manifest.
    /// Unshared banks record all-`Plain` roles and no pools, keeping
    /// their serialized layout unchanged.
    ///
    /// Heartbeats that pushes withheld are delivered first, so the
    /// snapshot is the one a bank heartbeating every pattern on every
    /// push would have taken.
    pub fn snapshot(&mut self) -> BankSnapshot {
        self.flush_deferred();
        let roles = derive_roles(&self.plan, &self.lanes, self.entries.len());
        let next_id = self.next_id;
        BankSnapshot {
            watermark: self.watermark,
            last_ts: self.last_ts,
            next_id: self.next_id as u64,
            ties: self.ties as u64,
            emitted: self.emitted as u64,
            use_index: true,
            patterns: self
                .entries
                .iter_mut()
                .map(|e| BankPatternSnapshot {
                    name: e.name.clone(),
                    matcher: match &mut e.exec {
                        Exec::Own(sm) => Some(sm.snapshot()),
                        Exec::Dedup { .. } => None,
                    },
                    ids: e.ids.clone(),
                    base: e.base as u64,
                    peak_omega: e.peak_omega as u64,
                    hits: e.hits,
                    skips: e.seen(next_id) - e.hits,
                })
                .collect(),
            roles,
            pools: self.pools.iter_mut().map(|p| p.sm.snapshot()).collect(),
        }
    }

    /// Rebuilds a bank from the `(name, pattern, options)` specs it was
    /// built with and a [`BankSnapshot`] taken from it. Specs must match
    /// the snapshot in count, order, and name; each pattern's
    /// fingerprint must agree; and the lanes and sharing plan recomputed
    /// from the specs must reproduce the recorded roles and pool count.
    /// Fails with [`CoreError::SnapshotMismatch`] on any disagreement.
    /// Each pattern's lane count is restored from the snapshot (a
    /// sharded pattern's options must still resolve to the key it was
    /// sharded by); sharing is re-enabled iff the snapshot recorded any
    /// shared structure; [`BankSnapshot::use_index`] is ignored.
    pub fn restore(
        specs: &[(String, Pattern, MatcherOptions)],
        schema: &Schema,
        snapshot: &BankSnapshot,
    ) -> Result<PatternBank, CoreError> {
        let mismatch = |reason: String| CoreError::SnapshotMismatch { reason };
        if !snapshot.roles.is_empty() && snapshot.roles.len() != snapshot.patterns.len() {
            return Err(mismatch(format!(
                "snapshot carries {} sharing roles for {} patterns",
                snapshot.roles.len(),
                snapshot.patterns.len()
            )));
        }
        let mut builder = PatternBank::builder(schema);
        for (name, pattern, options) in specs {
            // The next unclaimed snapshot entry says how this spec ran.
            let at = builder.entries.len();
            builder = match snapshot.roles.get(at) {
                Some(&BankRole::Lane { of, .. }) => {
                    // Bound the count before compiling that many lanes.
                    if of as usize > snapshot.patterns.len() - at {
                        return Err(mismatch(format!(
                            "pattern `{name}`: snapshot claims {of} lanes but holds only {} \
                             more entries",
                            snapshot.patterns.len() - at
                        )));
                    }
                    builder.register_lanes(name.clone(), pattern, options.clone(), of as usize)?
                }
                _ => builder.register(name.clone(), pattern, options.clone())?,
            };
        }
        let PatternBankBuilder {
            entries: built,
            lanes,
            ..
        } = builder;
        if built.len() != snapshot.patterns.len() {
            return Err(mismatch(format!(
                "snapshot holds {} patterns, but {} were registered",
                snapshot.patterns.len(),
                built.len()
            )));
        }
        for (i, (b, ps)) in built.iter().zip(&snapshot.patterns).enumerate() {
            if b.name != ps.name {
                return Err(mismatch(format!(
                    "pattern {i} is registered as `{}`, but the snapshot calls it `{}`",
                    b.name, ps.name
                )));
            }
        }
        let shared = !snapshot.pools.is_empty()
            || snapshot.roles.iter().any(|r| {
                matches!(
                    r,
                    BankRole::DedupMember { .. } | BankRole::PrefixMember { .. }
                )
            });
        let plan = if shared && built.len() > 1 {
            compute_plan(&built, &lanes)
        } else {
            SharingPlan::trivial(built.len())
        };
        // The dynamic state only makes sense under the roles it was
        // captured in; the plan is deterministic, so recomputing it from
        // the same specs must reproduce them.
        let expected = derive_roles(&plan, &lanes, built.len());
        if !snapshot.roles.is_empty() && snapshot.roles != expected {
            return Err(mismatch(
                "snapshot roles disagree with the lanes and sharing plan recomputed from \
                 the registered patterns"
                    .to_string(),
            ));
        }
        if snapshot.roles.is_empty() && expected.iter().any(|r| !matches!(r, BankRole::Plain)) {
            return Err(mismatch(
                "snapshot was taken without sharing, but the recomputed plan shares \
                 structure"
                    .to_string(),
            ));
        }
        if plan.prefix_groups.len() != snapshot.pools.len() {
            return Err(mismatch(format!(
                "snapshot holds {} prefix pools, but the recomputed plan needs {}",
                snapshot.pools.len(),
                plan.prefix_groups.len()
            )));
        }
        let index = build_index(&built, &plan);
        let (mut entries, mut pools) = assemble(built, &plan);
        for (entry, ps) in entries.iter_mut().zip(&snapshot.patterns) {
            let name = &entry.name;
            match (&mut entry.exec, &ps.matcher) {
                (Exec::Own(sm), Some(ms)) => {
                    sm.apply_snapshot(ms)
                        .map_err(|e| mismatch(format!("pattern `{name}`: {e}")))?;
                    if ps.ids.len() != sm.relation().len()
                        || ps.base as usize != sm.relation().first_index()
                    {
                        return Err(mismatch(format!(
                            "pattern `{name}`: id map covers {} events at base {}, but the \
                             relation retains {} at base {}",
                            ps.ids.len(),
                            ps.base,
                            sm.relation().len(),
                            sm.relation().first_index()
                        )));
                    }
                }
                (Exec::Own(_), None) => {
                    return Err(mismatch(format!(
                        "pattern `{name}` runs its own matcher, but the snapshot holds no \
                         matcher state for it"
                    )));
                }
                (Exec::Dedup { .. }, Some(_)) => {
                    return Err(mismatch(format!(
                        "pattern `{name}` deduplicates into its leader, but the snapshot \
                         carries matcher state for it"
                    )));
                }
                (Exec::Dedup { .. }, None) => {}
            }
            entry.ids = ps.ids.clone();
            entry.base = ps.base as usize;
            entry.peak_omega = ps.peak_omega as usize;
            entry.hits = ps.hits;
            entry.since = ps
                .hits
                .checked_add(ps.skips)
                .and_then(|seen| snapshot.next_id.checked_sub(seen))
                .ok_or_else(|| {
                    mismatch(format!(
                        "pattern `{}` counts {} hits and {} skips, but the bank consumed \
                         only {} events",
                        entry.name, ps.hits, ps.skips, snapshot.next_id
                    ))
                })? as usize;
        }
        for (pool, ps) in pools.iter_mut().zip(&snapshot.pools) {
            pool.sm
                .apply_snapshot(ps)
                .map_err(|e| mismatch(format!("prefix pool: {e}")))?;
        }
        let mut bank = PatternBank {
            entries,
            lanes,
            pools,
            plan,
            index,
            schema: schema.clone(),
            watermark: snapshot.watermark,
            last_ts: snapshot.last_ts,
            next_id: snapshot.next_id as usize,
            ties: snapshot.ties as usize,
            emitted: snapshot.emitted as usize,
            scratch: Scratch::default(),
            entry_due: Deadlines::default(),
            pool_due: Deadlines::default(),
        };
        bank.reschedule();
        Ok(bank)
    }

    /// Registers a new pattern on a *running* bank — the subscription
    /// path a long-lived match server needs: the pattern starts matching
    /// at the bank's current watermark (it observes no earlier events)
    /// and the predicate index is rebuilt to route to it. Returns the
    /// new pattern's id (its position in push results and statistics).
    ///
    /// Live registration composes with the trivial sharing plan only: a
    /// bank actively executing dedup groups or prefix pools refuses
    /// (its plan and pools were computed over a closed pattern set), as
    /// does a duplicate name — names identify durable subscriptions, so
    /// reusing one would corrupt cursor-based resume.
    pub fn subscribe(
        &mut self,
        name: impl Into<String>,
        pattern: &Pattern,
        options: MatcherOptions,
    ) -> Result<usize, CoreError> {
        let name = name.into();
        let refuse = |reason: String| CoreError::Subscription { reason };
        if self.sharing_active() {
            return Err(refuse(
                "the bank executes a structural sharing plan; live registration \
                 requires sharing off"
                    .to_string(),
            ));
        }
        if self.entries.iter().any(|e| e.name == name) {
            return Err(refuse(format!(
                "a pattern named `{name}` is already registered"
            )));
        }
        // A matcher that has stored no event has no deadline and takes
        // its clock from its first push, which the bank only accepts at
        // or after its own watermark.
        let sm = StreamMatcher::with_options(pattern, &self.schema, options)?;
        assert_shares_schema(&sm, &self.schema);
        let id = self.len();
        self.entries
            .push(Entry::new(name, id, Exec::Own(Box::new(sm)), self.next_id));
        self.reschedule();
        self.plan = SharingPlan::trivial(self.entries.len());
        self.index = PatternIndex::build(self.entries.iter().map(|e| {
            e.own()
                .expect("trivial plans run every pattern's own matcher")
                .compiled()
        }));
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_event::{AttrType, CmpOp, Duration};
    use ses_metrics_shim::*;

    // The metrics crate depends on core, so the counting probe cannot be
    // used here; a minimal local one suffices.
    mod ses_metrics_shim {
        #[derive(Debug, Default)]
        pub struct RouteProbe {
            pub hits: usize,
            pub skips: usize,
        }
        impl crate::probe::Probe for RouteProbe {
            fn index_hits(&mut self, n: usize) {
                self.hits += n;
            }
            fn index_skips(&mut self, n: usize) {
                self.skips += n;
            }
        }
    }

    fn schema() -> Schema {
        Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .build()
            .unwrap()
    }

    fn pair(x: &str, y: &str) -> Pattern {
        Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, x)
            .cond_const("b", "L", CmpOp::Eq, y)
            .within(Duration::ticks(5))
            .build()
            .unwrap()
    }

    /// `{a,b}` then `{c}` with a per-pattern suffix label — the shape
    /// the prefix-sharing tests overlap on (prefix = `pair("A", "B")`).
    fn prefixed(suffix: &str) -> Pattern {
        Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .set(|s| s.var("c"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .cond_const("c", "L", CmpOp::Eq, suffix)
            .within(Duration::ticks(5))
            .build()
            .unwrap()
    }

    fn bank() -> PatternBank {
        PatternBank::builder(&schema())
            .register("ab", &pair("A", "B"), MatcherOptions::default())
            .unwrap()
            .register("cd", &pair("C", "D"), MatcherOptions::default())
            .unwrap()
            .build()
    }

    fn workload() -> Vec<(i64, i64, &'static str)> {
        vec![
            (0, 1, "A"),
            (1, 1, "B"),
            (2, 1, "C"),
            (3, 1, "D"),
            (9, 1, "A"),
            (20, 1, "X"),
            (21, 1, "C"),
            (22, 1, "D"),
            (40, 1, "B"),
        ]
    }

    /// Bank output per pattern vs independent matchers fed every event.
    #[test]
    fn bank_matches_independent_matchers() {
        let mut bank = bank();
        let mut ind = [
            StreamMatcher::compile(&pair("A", "B"), &schema()).unwrap(),
            StreamMatcher::compile(&pair("C", "D"), &schema()).unwrap(),
        ];
        let mut got: Vec<Vec<Match>> = vec![Vec::new(); 2];
        let mut want: Vec<Vec<Match>> = vec![Vec::new(); 2];
        for (t, id, l) in workload() {
            let values = [Value::from(id), Value::from(l)];
            for (i, m) in bank.push(Timestamp::new(t), values.clone()).unwrap() {
                got[i].push(m);
            }
            for (i, sm) in ind.iter_mut().enumerate() {
                want[i].extend(sm.push(Timestamp::new(t), values.clone()).unwrap());
            }
        }
        for (i, m) in bank.finish() {
            got[i].push(m);
        }
        for (i, sm) in ind.into_iter().enumerate() {
            want[i].extend(sm.finish());
        }
        assert_eq!(got, want);
        assert!(!got[0].is_empty() && !got[1].is_empty());
    }

    #[test]
    fn index_reduces_pushes_and_probe_sees_routing() {
        let mut bank = bank();
        let mut probe = RouteProbe::default();
        for (t, id, l) in workload() {
            bank.push_with_probe(
                Timestamp::new(t),
                [Value::from(id), Value::from(l)],
                &mut probe,
            )
            .unwrap();
        }
        let n = workload().len();
        // Every event touches at most one of the two disjoint patterns
        // (and the X event touches neither).
        assert!(bank.total_hits() < (2 * n) as u64);
        assert_eq!(bank.total_hits() + bank.total_skips(), (2 * n) as u64);
        assert_eq!(probe.hits as u64, bank.total_hits());
        assert_eq!(probe.skips as u64, bank.total_skips());
        let stats = bank.stats();
        assert_eq!(stats[0].name, "ab");
        assert_eq!(stats[0].class, IndexClass::Indexed);
        assert_eq!(stats[0].hits + stats[0].skips, n as u64);
        assert!(stats[0].evicted_events > 0, "idle eviction never ran");
    }

    #[test]
    fn out_of_order_rejected_globally() {
        let mut bank = bank();
        bank.push(Timestamp::new(5), [Value::from(1), Value::from("A")])
            .unwrap();
        // The C event routes to a different pattern than the A — order
        // is still enforced bank-wide.
        let err = bank
            .push(Timestamp::new(3), [Value::from(1), Value::from("C")])
            .unwrap_err();
        assert!(matches!(err, EventError::OutOfOrder { .. }));
        // Ties at the watermark stay accepted, even for patterns that
        // skipped the first event and were only heartbeat to t=5.
        bank.push(Timestamp::new(5), [Value::from(1), Value::from("C")])
            .unwrap();
        assert_eq!(bank.ties_at_watermark(), 2);
    }

    #[test]
    fn advance_watermark_finalizes_idle_patterns() {
        let mut bank = bank();
        for (t, l) in [(0, "A"), (1, "B")] {
            bank.push(Timestamp::new(t), [Value::from(1), Value::from(l)])
                .unwrap();
        }
        let out = bank.advance_watermark(Timestamp::new(100));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 0);
        assert_eq!(bank.emitted_so_far(), 1);
        // The clock moved: older pushes are refused.
        assert!(bank
            .push(Timestamp::new(50), [Value::from(1), Value::from("A")])
            .is_err());
        assert!(bank.finish().is_empty());
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let specs: Vec<(String, Pattern, MatcherOptions)> = vec![
            ("ab".into(), pair("A", "B"), MatcherOptions::default()),
            ("cd".into(), pair("C", "D"), MatcherOptions::default()),
        ];
        let rows = workload();
        for cut in 0..rows.len() {
            let build = || {
                PatternBank::builder(&schema())
                    .register("ab", &pair("A", "B"), MatcherOptions::default())
                    .unwrap()
                    .register("cd", &pair("C", "D"), MatcherOptions::default())
                    .unwrap()
                    .build()
            };
            let mut live = build();
            let mut twin = build();
            let mut live_out = Vec::new();
            let mut twin_out = Vec::new();
            for (t, id, l) in &rows[..cut] {
                let values = [Value::from(*id), Value::from(*l)];
                live_out.extend(live.push(Timestamp::new(*t), values.clone()).unwrap());
                twin_out.extend(twin.push(Timestamp::new(*t), values).unwrap());
            }
            let mut snap = live.snapshot();
            drop(live);
            assert!(snap.use_index);
            // A snapshot whose writer routed without the index (the flag
            // older trees had) resumes all the same: the byte is ignored.
            snap.use_index = cut % 2 == 0;
            let mut restored = PatternBank::restore(&specs, &schema(), &snap).unwrap();
            assert_eq!(restored.emitted_so_far(), twin.emitted_so_far());
            assert_eq!(restored.consumed_events(), twin.consumed_events());
            assert_eq!(restored.ties_at_watermark(), twin.ties_at_watermark());
            for (t, id, l) in &rows[cut..] {
                let values = [Value::from(*id), Value::from(*l)];
                live_out.extend(restored.push(Timestamp::new(*t), values.clone()).unwrap());
                twin_out.extend(twin.push(Timestamp::new(*t), values).unwrap());
            }
            live_out.extend(restored.finish());
            twin_out.extend(twin.finish());
            assert_eq!(live_out, twin_out, "divergence after restore at cut {cut}");
        }
    }

    #[test]
    fn restore_rejects_mismatched_specs() {
        let mut bank = bank();
        bank.push(Timestamp::new(0), [Value::from(1), Value::from("A")])
            .unwrap();
        let snap = bank.snapshot();
        // Wrong count.
        let short: Vec<(String, Pattern, MatcherOptions)> =
            vec![("ab".into(), pair("A", "B"), MatcherOptions::default())];
        let err = PatternBank::restore(&short, &schema(), &snap).unwrap_err();
        assert!(matches!(err, CoreError::SnapshotMismatch { .. }), "{err}");
        // Wrong name.
        let renamed: Vec<(String, Pattern, MatcherOptions)> = vec![
            ("zz".into(), pair("A", "B"), MatcherOptions::default()),
            ("cd".into(), pair("C", "D"), MatcherOptions::default()),
        ];
        let err = PatternBank::restore(&renamed, &schema(), &snap).unwrap_err();
        assert!(err.to_string().contains("registered as `zz`"), "{err}");
        // Wrong pattern (fingerprint).
        let swapped: Vec<(String, Pattern, MatcherOptions)> = vec![
            ("ab".into(), pair("A", "C"), MatcherOptions::default()),
            ("cd".into(), pair("C", "D"), MatcherOptions::default()),
        ];
        let err = PatternBank::restore(&swapped, &schema(), &snap).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn empty_bank_consumes_events() {
        let mut bank = PatternBank::builder(&schema()).build();
        assert!(bank.is_empty());
        assert!(bank
            .push(Timestamp::new(0), [Value::from(1), Value::from("A")])
            .unwrap()
            .is_empty());
        assert_eq!(bank.consumed_events(), 1);
        assert!(bank.finish().is_empty());
    }

    #[test]
    fn subscribe_mid_stream_matches_only_future_events() {
        let mut bank = bank();
        // Consume a prefix that would complete a C-D pair for an
        // observer of the whole stream.
        for (t, l) in [(0, "C"), (1, "A")] {
            bank.push(Timestamp::new(t), [Value::from(1i64), Value::from(l)])
                .unwrap();
        }
        let id = bank
            .subscribe("cd2", &pair("C", "D"), MatcherOptions::default())
            .unwrap();
        assert_eq!(id, 2);
        assert_eq!(bank.names(), vec!["ab", "cd", "cd2"]);
        // The D at t=2 pairs with the pre-subscription C for the old
        // pattern, but the new subscription never saw that C; the C-D
        // pair at t=3/4 lies entirely after the subscription point and
        // matches for both. The X at t=20 expires every window so the
        // emissions finalize.
        let mut post = Vec::new();
        for (t, l) in [(2, "D"), (3, "C"), (4, "D"), (20, "X")] {
            post.extend(
                bank.push(Timestamp::new(t), [Value::from(1i64), Value::from(l)])
                    .unwrap(),
            );
        }
        for (i, m) in bank.finish() {
            post.push((i, m));
        }
        let ids_of =
            |m: &Match| -> Vec<usize> { m.bindings().iter().map(|&(_, e)| e.index()).collect() };
        let old_matches: Vec<Vec<usize>> = post
            .iter()
            .filter(|(i, _)| *i == 1)
            .map(|(_, m)| ids_of(m))
            .collect();
        let new_matches: Vec<Vec<usize>> = post
            .iter()
            .filter(|(i, _)| *i == 2)
            .map(|(_, m)| ids_of(m))
            .collect();
        assert!(
            old_matches.iter().any(|ids| ids.contains(&0)),
            "the old pattern pairs the pre-subscription C (global id 0): {old_matches:?}"
        );
        assert!(
            new_matches.iter().all(|ids| ids.iter().all(|&e| e >= 2)),
            "the subscription must never bind pre-registration events: {new_matches:?}"
        );
        // Restricted to post-subscription events the two executions agree
        // exactly (same pattern, same suffix, global ids line up).
        let old_post_only: Vec<Vec<usize>> = old_matches
            .into_iter()
            .filter(|ids| ids.iter().all(|&e| e >= 2))
            .collect();
        assert_eq!(new_matches, old_post_only);
        assert!(
            new_matches.contains(&vec![3, 4]),
            "the wholly post-subscription C-D pair matches: {new_matches:?}"
        );
    }

    #[test]
    fn subscribe_is_routed_by_the_rebuilt_index() {
        let mut bank = bank();
        bank.push(Timestamp::new(0), [Value::from(1i64), Value::from("A")])
            .unwrap();
        bank.subscribe("ef", &pair("E", "F"), MatcherOptions::default())
            .unwrap();
        let mut probe = RouteProbe::default();
        // An E event is admitted only by the new pattern.
        bank.push_with_probe(
            Timestamp::new(1),
            [Value::from(1i64), Value::from("E")],
            &mut probe,
        )
        .unwrap();
        assert_eq!(probe.hits, 1, "routed to the subscription only");
        assert_eq!(probe.skips, 2);
        assert!(matches!(bank.index_class(2), IndexClass::Indexed));
    }

    #[test]
    fn subscribe_rejects_duplicate_names_and_active_sharing() {
        let mut bank = bank();
        assert!(matches!(
            bank.subscribe("ab", &pair("E", "F"), MatcherOptions::default()),
            Err(CoreError::Subscription { .. })
        ));
        let mut shared = sharing_bank(true);
        assert!(shared.sharing_active());
        assert!(matches!(
            shared.subscribe("late", &pair("E", "F"), MatcherOptions::default()),
            Err(CoreError::Subscription { .. })
        ));
    }

    #[test]
    fn subscribe_survives_snapshot_restore_round_trip() {
        let mut bank = bank();
        bank.push(Timestamp::new(0), [Value::from(1i64), Value::from("A")])
            .unwrap();
        bank.subscribe("ef", &pair("E", "F"), MatcherOptions::default())
            .unwrap();
        bank.push(Timestamp::new(1), [Value::from(1i64), Value::from("E")])
            .unwrap();
        let snap = bank.snapshot();
        let specs: Vec<(String, Pattern, MatcherOptions)> = vec![
            ("ab".into(), pair("A", "B"), MatcherOptions::default()),
            ("cd".into(), pair("C", "D"), MatcherOptions::default()),
            ("ef".into(), pair("E", "F"), MatcherOptions::default()),
        ];
        let mut restored = PatternBank::restore(&specs, &schema(), &snap).unwrap();
        let drive = |bank: &mut PatternBank| {
            let mut out = Vec::new();
            for (t, l) in [(2, "F"), (3, "B"), (20, "X")] {
                out.extend(
                    bank.push(Timestamp::new(t), [Value::from(1i64), Value::from(l)])
                        .unwrap(),
                );
            }
            out
        };
        let a = drive(&mut bank);
        let b = drive(&mut restored);
        assert_eq!(a, b);
        assert!(a.iter().any(|(i, _)| *i == 2), "subscription matched E-F");
        // The restored bank keeps accepting live subscriptions.
        restored
            .subscribe("gh", &pair("G", "H"), MatcherOptions::default())
            .unwrap();
        assert_eq!(restored.len(), 4);
    }

    #[test]
    fn unsatisfiable_pattern_rides_along() {
        let dead = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "ID", CmpOp::Gt, 10)
            .cond_const("a", "ID", CmpOp::Lt, 5)
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        let mut bank = PatternBank::builder(&schema())
            .register("dead", &dead, MatcherOptions::default())
            .unwrap()
            .register("ab", &pair("A", "B"), MatcherOptions::default())
            .unwrap()
            .build();
        assert_eq!(bank.index_class(0), IndexClass::Never);
        for (t, id, l) in workload() {
            bank.push(Timestamp::new(t), [Value::from(id), Value::from(l)])
                .unwrap();
        }
        let stats = bank.stats();
        assert_eq!(stats[0].hits, 0, "dead pattern received events");
        let out = bank.finish();
        assert!(out.iter().all(|(i, _)| *i == 1));
    }

    // ---- heartbeat deadlines -----------------------------------------

    /// The matchers `deadlines` reports due at `ts`.
    fn due_at(deadlines: &mut Deadlines, ts: i64) -> Vec<usize> {
        let mut due = Vec::new();
        deadlines.for_each_due(Timestamp::new(ts), |i| due.push(i));
        due
    }

    #[test]
    fn deadlines_ring_at_the_deadline_of_the_day() {
        let at = |t| Some(Timestamp::new(t));
        let mut d = Deadlines::default();
        d.reset([at(10), None, at(30)].into_iter());
        assert!(due_at(&mut d, 9).is_empty());
        // Moving a deadline later keeps the early alarm, which rings,
        // finds nothing due, and re-sets itself.
        d.set(0, at(20));
        assert!(due_at(&mut d, 15).is_empty());
        assert_eq!(d.alarm[0], Timestamp::new(20));
        // Moving one earlier queues a second alarm; the first is
        // superseded and must not ring a second heartbeat.
        d.set(2, at(18));
        assert_eq!(due_at(&mut d, 19), vec![2]);
        d.set(2, at(40));
        assert_eq!(due_at(&mut d, 30), vec![0]);
        d.set(0, None);
        // A matcher without a deadline is never due, however late.
        assert_eq!(due_at(&mut d, 1_000), vec![2]);
        d.set(2, None);
        assert!(due_at(&mut d, i64::MAX - 1).is_empty());
        assert!(d.heap.is_empty());
    }

    #[test]
    fn idle_patterns_cost_heartbeats_only_when_due() {
        // One A-B pair, then a long run of events only `cd` is admitted:
        // `ab` is skipped every time, but heartbeat only for the sweep
        // and adjudication, the eviction, and the killer prune.
        let mut bank = bank();
        let mut n = 0u64;
        for (t, l) in [(0, "A"), (1, "B")] {
            bank.push(Timestamp::new(t), [Value::from(1), Value::from(l)])
                .unwrap();
            n += 1;
        }
        let mut emitted = 0;
        for t in 2..200 {
            emitted += bank
                .push(Timestamp::new(t), [Value::from(1), Value::from("C")])
                .unwrap()
                .len();
            n += 1;
        }
        assert_eq!(emitted, 1, "the pair finalized on a heartbeat");
        let ab = &bank.stats()[0];
        assert_eq!((ab.hits, ab.skips), (2, n - 2));
        assert!(
            (1..=4).contains(&ab.heartbeats),
            "{} heartbeats for {} skips",
            ab.heartbeats,
            ab.skips
        );
        assert_eq!((ab.retained_events, ab.evicted_events), (0, 2));
    }

    // ---- structural sharing ------------------------------------------

    /// Events exercising overlapping prefixes, ties, window expiry, and
    /// suffix divergence for the `prefixed` family.
    fn shared_workload() -> Vec<(i64, &'static str)> {
        vec![
            (0, "A"),
            (1, "B"),
            (2, "C"),
            (2, "D"),
            (3, "A"),
            (4, "B"),
            (8, "C"),
            (9, "A"),
            (9, "B"),
            (10, "D"),
            (20, "X"),
            (21, "A"),
            (22, "B"),
            (23, "C"),
            (40, "X"),
        ]
    }

    /// A pattern set whose plan exercises every sharing role: `pc2` is
    /// a duplicate of `pc` (dedup), and `pc`/`pd`/`ab` share the
    /// `{a,b}` prefix — with `ab` consumed entirely by it (its boundary
    /// is its accept state).
    fn sharing_specs() -> Vec<(String, Pattern, MatcherOptions)> {
        vec![
            ("pc".into(), prefixed("C"), MatcherOptions::default()),
            ("pd".into(), prefixed("D"), MatcherOptions::default()),
            ("pc2".into(), prefixed("C"), MatcherOptions::default()),
            ("ab".into(), pair("A", "B"), MatcherOptions::default()),
        ]
    }

    fn sharing_bank(share: bool) -> PatternBank {
        let mut b = PatternBank::builder(&schema());
        for (name, pattern, options) in sharing_specs() {
            b = b.register(name, &pattern, options).unwrap();
        }
        b.with_sharing(share).build()
    }

    /// Shared execution vs independent matchers fed every event — the
    /// push-for-push output-identity claim of `docs/patternbank.md`.
    #[test]
    fn sharing_matches_independent_matchers() {
        let specs = sharing_specs();
        let mut bank = sharing_bank(true);
        assert!(bank.sharing_active(), "{}", bank.sharing_plan().describe());
        let mut ind: Vec<StreamMatcher> = specs
            .iter()
            .map(|(_, p, o)| StreamMatcher::with_options(p, &schema(), o.clone()).unwrap())
            .collect();
        let mut got: Vec<Vec<Match>> = vec![Vec::new(); specs.len()];
        let mut want: Vec<Vec<Match>> = vec![Vec::new(); specs.len()];
        for (t, l) in shared_workload() {
            let values = [Value::from(1), Value::from(l)];
            for (i, m) in bank.push(Timestamp::new(t), values.clone()).unwrap() {
                got[i].push(m);
            }
            for (i, sm) in ind.iter_mut().enumerate() {
                want[i].extend(sm.push(Timestamp::new(t), values.clone()).unwrap());
            }
        }
        for (i, m) in bank.finish() {
            got[i].push(m);
        }
        for (i, sm) in ind.into_iter().enumerate() {
            want[i].extend(sm.finish());
        }
        assert_eq!(got, want);
        assert!(got.iter().all(|g| !g.is_empty()), "every pattern matched");
    }

    /// Sharing on vs off over the same stream: identical output.
    #[test]
    fn sharing_on_off_differential() {
        let mut on = sharing_bank(true);
        let mut off = sharing_bank(false);
        assert!(on.sharing_active());
        assert!(!off.sharing_active());
        let mut got = Vec::new();
        let mut want = Vec::new();
        for (t, l) in shared_workload() {
            let values = [Value::from(1), Value::from(l)];
            got.extend(on.push(Timestamp::new(t), values.clone()).unwrap());
            want.extend(off.push(Timestamp::new(t), values).unwrap());
        }
        got.extend(on.finish());
        want.extend(off.finish());
        assert_eq!(got, want);
    }

    #[test]
    fn sharing_plan_surfaces_roles_and_stats_resolve_leaders() {
        let mut bank = sharing_bank(true);
        let plan = bank.sharing_plan().clone();
        // pc2 deduplicates into pc; pc, pd, ab share the {a,b} prefix.
        assert_eq!(plan.roles[2], ShareRole::DedupMember { leader: 0 });
        assert_eq!(plan.prefix_groups.len(), 1);
        assert_eq!(plan.prefix_groups[0].members, vec![0, 1, 3]);
        assert_eq!(plan.prefix_groups[0].sets, 1);
        assert_eq!(plan.prefix_groups[0].vars, 2);
        for (t, l) in shared_workload() {
            bank.push(Timestamp::new(t), [Value::from(1), Value::from(l)])
                .unwrap();
        }
        let stats = bank.stats();
        // The dedup member reports its leader's matcher counters with
        // its own routing counts.
        assert_eq!(stats[2].emitted, stats[0].emitted);
        assert_eq!(
            stats[2].hits + stats[2].skips,
            shared_workload().len() as u64
        );
        assert!(stats[2].emitted > 0);
    }

    #[test]
    fn sharing_heartbeat_finalizes_members() {
        let mut bank = sharing_bank(true);
        for (t, l) in [(0, "A"), (1, "B"), (2, "C")] {
            bank.push(Timestamp::new(t), [Value::from(1), Value::from(l)])
                .unwrap();
        }
        let out = bank.advance_watermark(Timestamp::new(100));
        // pc, its duplicate pc2, and ab all complete; pd never saw a D.
        let patterns: Vec<usize> = out.iter().map(|(i, _)| *i).collect();
        assert!(patterns.contains(&0) && patterns.contains(&2) && patterns.contains(&3));
        assert!(!patterns.contains(&1));
        assert!(bank.finish().is_empty());
    }

    #[test]
    fn sharing_snapshot_restore_resumes_identically() {
        let specs = sharing_specs();
        let rows = shared_workload();
        for cut in 0..rows.len() {
            let mut live = sharing_bank(true);
            let mut twin = sharing_bank(true);
            let mut live_out = Vec::new();
            let mut twin_out = Vec::new();
            for (t, l) in &rows[..cut] {
                let values = [Value::from(1), Value::from(*l)];
                live_out.extend(live.push(Timestamp::new(*t), values.clone()).unwrap());
                twin_out.extend(twin.push(Timestamp::new(*t), values).unwrap());
            }
            let snap = live.snapshot();
            assert_eq!(snap.pools.len(), 1);
            assert!(snap.patterns[2].matcher.is_none(), "dedup member state");
            drop(live);
            let mut restored = PatternBank::restore(&specs, &schema(), &snap).unwrap();
            assert!(restored.sharing_active());
            for (t, l) in &rows[cut..] {
                let values = [Value::from(1), Value::from(*l)];
                live_out.extend(restored.push(Timestamp::new(*t), values.clone()).unwrap());
                twin_out.extend(twin.push(Timestamp::new(*t), values).unwrap());
            }
            live_out.extend(restored.finish());
            twin_out.extend(twin.finish());
            assert_eq!(live_out, twin_out, "divergence after restore at cut {cut}");
        }
    }

    #[test]
    fn restore_rejects_sharing_role_mismatch() {
        let mut bank = sharing_bank(true);
        bank.push(Timestamp::new(0), [Value::from(1), Value::from("A")])
            .unwrap();
        let snap = bank.snapshot();
        // Replace the prefix members with patterns that no longer share:
        // the recomputed plan disagrees with the recorded roles.
        let broken: Vec<(String, Pattern, MatcherOptions)> = vec![
            ("pc".into(), prefixed("C"), MatcherOptions::default()),
            ("pd".into(), pair("E", "F"), MatcherOptions::default()),
            ("pc2".into(), prefixed("C"), MatcherOptions::default()),
            ("ab".into(), pair("G", "H"), MatcherOptions::default()),
        ];
        let err = PatternBank::restore(&broken, &schema(), &snap).unwrap_err();
        assert!(err.to_string().contains("roles"), "{err}");
    }

    // ---- key sharding ------------------------------------------------

    /// `{a, b} ; {c}` fully correlated on ID — every attribute-ID chain
    /// connects all three variables, so ID is a proven partition key.
    fn keyed() -> Pattern {
        Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .set(|s| s.var("c"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .cond_const("c", "L", CmpOp::Eq, "C")
            .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
            .cond_vars("a", "ID", CmpOp::Eq, "c", "ID")
            .within(Duration::ticks(10))
            .build()
            .unwrap()
    }

    fn auto() -> MatcherOptions {
        MatcherOptions {
            partition: PartitionMode::Auto,
            ..MatcherOptions::default()
        }
    }

    fn laned_bank(lanes: usize) -> PatternBank {
        PatternBank::builder(&schema())
            .register_lanes("k", &keyed(), auto(), lanes)
            .unwrap()
            .build()
    }

    fn row(key: i64, l: &str) -> [Value; 2] {
        [Value::from(key), Value::from(l)]
    }

    #[test]
    fn lanes_refuse_without_a_proven_key() {
        let keyless = pair("A", "B");
        let refuse = |p: &Pattern, partition: PartitionMode| {
            PatternBank::builder(&schema())
                .register_lanes(
                    "x",
                    p,
                    MatcherOptions {
                        partition,
                        ..MatcherOptions::default()
                    },
                    4,
                )
                .unwrap_err()
                .to_string()
        };
        assert!(refuse(&keyed(), PartitionMode::Off).contains("Off"));
        assert!(refuse(&keyless, PartitionMode::Auto).contains("no partition key"));
        // Time slicing is batch-only: a keyless stream must refuse it
        // loudly rather than run every lane on every event.
        assert!(refuse(&keyless, PartitionMode::TimeAuto).contains("batch-only"));
        let l = schema().attr_id("L").unwrap();
        assert!(refuse(&keyed(), PartitionMode::Key(l)).contains("does not connect"));
        // With a proven key, TimeAuto shards exactly like Auto.
        let id = schema().attr_id("ID").unwrap();
        for partition in [PartitionMode::TimeAuto, PartitionMode::Key(id)] {
            let options = MatcherOptions {
                partition,
                ..MatcherOptions::default()
            };
            assert_eq!(PatternBank::lane_key(&keyed(), &schema(), &options), Ok(id));
        }
    }

    #[test]
    fn lanes_report_one_pattern_and_route_each_event_once() {
        let mut bank = PatternBank::builder(&schema())
            .register_lanes("k", &keyed(), auto(), 3)
            .unwrap()
            .register("ab", &pair("A", "B"), MatcherOptions::default())
            .unwrap()
            .build();
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.names(), vec!["k", "ab"]);
        let mut probe = RouteProbe::default();
        let mut n = 0u64;
        let mut out = Vec::new();
        for step in ["A", "B", "C"] {
            for key in 0..5i64 {
                out.extend(
                    bank.push_with_probe(Timestamp::new(n as i64), row(key, step), &mut probe)
                        .unwrap(),
                );
                n += 1;
            }
        }
        let stats = bank.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!((stats[0].lanes, stats[1].lanes), (3, 1));
        // Every event binds in the keyed pattern, on exactly one lane.
        assert_eq!((stats[0].hits, stats[0].skips), (n, 0));
        assert_eq!(stats[1].hits + stats[1].skips, n);
        assert_eq!(probe.hits as u64, stats[0].hits + stats[1].hits);
        assert_eq!(probe.hits + probe.skips, 4 * n as usize);
        out.extend(bank.finish());
        assert_eq!(out.iter().filter(|(i, _)| *i == 0).count(), 5);
        assert!(out.iter().all(|(i, _)| *i < 2));
    }

    #[test]
    fn lanes_are_excluded_from_the_sharing_plan() {
        // Two registrations of one pattern would deduplicate; its lanes
        // are the same pattern N times and must not.
        let bank = PatternBank::builder(&schema())
            .register_lanes("k", &keyed(), auto(), 3)
            .unwrap()
            .register("twin-1", &keyed(), auto())
            .unwrap()
            .register("twin-2", &keyed(), auto())
            .unwrap()
            .with_sharing(true)
            .build();
        let plan = bank.sharing_plan();
        assert!(plan.roles[..3].iter().all(|r| *r == ShareRole::Independent));
        assert_eq!(plan.roles[4], ShareRole::DedupMember { leader: 3 });
        assert!(plan.prefix_groups.is_empty());
    }

    #[test]
    fn lane_restore_takes_the_count_from_the_snapshot_and_checks_the_key() {
        let mut bank = laned_bank(3);
        bank.push(Timestamp::new(0), row(1, "A")).unwrap();
        let snap = bank.snapshot();
        assert!(matches!(
            snap.roles[2],
            BankRole::Lane { lane: 2, of: 3, .. }
        ));
        let spec = |o: MatcherOptions| vec![("k".to_string(), keyed(), o)];
        let restored = PatternBank::restore(&spec(auto()), &schema(), &snap).unwrap();
        assert_eq!(restored.stats()[0].lanes, 3);
        // Options that no longer resolve to a key cannot resurrect lanes.
        let err =
            PatternBank::restore(&spec(MatcherOptions::default()), &schema(), &snap).unwrap_err();
        assert!(
            matches!(err, CoreError::UnprovenPartitionKey { .. }),
            "{err}"
        );
        // Nor can a snapshot routed by another attribute: replayed
        // events would hash to lanes that do not hold their keys' state.
        let mut foreign = snap.clone();
        for role in &mut foreign.roles {
            if let BankRole::Lane { key, .. } = role {
                *key = schema().attr_id("L").unwrap();
            }
        }
        let err = PatternBank::restore(&spec(auto()), &schema(), &foreign).unwrap_err();
        assert!(err.to_string().contains("roles disagree"), "{err}");
        // A hostile lane count fails before anything is compiled for it.
        let mut hostile = snap;
        hostile.roles[0] = BankRole::Lane {
            key: schema().attr_id("ID").unwrap(),
            lane: 0,
            of: u32::MAX,
        };
        let err = PatternBank::restore(&spec(auto()), &schema(), &hostile).unwrap_err();
        assert!(err.to_string().contains("lanes"), "{err}");
    }

    #[test]
    fn eviction_keeps_lane_id_maps_bounded() {
        let mut bank = PatternBank::builder(&schema())
            .register_lanes(
                "k",
                &keyed(),
                MatcherOptions {
                    semantics: crate::MatchSemantics::AllRuns,
                    ..auto()
                },
                2,
            )
            .unwrap()
            .build();
        let labels = ["A", "B", "C"];
        for i in 0..3000i64 {
            bank.push(Timestamp::new(i), row(i % 4, labels[(i % 3) as usize]))
                .unwrap();
        }
        let stats = &bank.stats()[0];
        assert!(stats.evicted_events > 0, "eviction never ran");
        let mapped: usize = bank.entries.iter().map(|e| e.ids.len()).sum();
        // The id maps track the retained window, not the whole stream.
        assert!(
            mapped <= stats.retained_events + 64,
            "id maps not pruned: {mapped} mapped vs {} retained",
            stats.retained_events
        );
        assert_eq!(stats.hits, 3000);
    }
}
