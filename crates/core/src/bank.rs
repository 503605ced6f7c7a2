//! Multi-pattern shared execution: N patterns, one stream, one push.
//!
//! A [`PatternBank`] registers N compiled patterns against a single
//! event stream. Each event is pushed **once**; an event→pattern
//! predicate index ([`ses_pattern::PatternIndex`]) built from the
//! patterns' analyzer-derived constant constraints routes it to the
//! patterns it could possibly advance. Every other pattern only has to
//! learn the time, and only at the instants that can emit: it receives
//! a watermark heartbeat ([`StreamMatcher::advance_watermark`]) once
//! the stream's clock reaches its emission deadline
//! ([`StreamMatcher::next_deadline`]), so its matches finalize on time.
//! Its housekeeping — sweeping dead runs, evicting its window, pruning
//! killers — waits for its next push or heartbeat, or for
//! [`PatternBank::snapshot`] or [`PatternBank::stats`], which bring
//! every matcher to the bank's clock. A push therefore costs what it
//! admits plus what has come due for output, not the number of
//! patterns registered.
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
//! matcher's deadline that work emits nothing and leaves the pending
//! groups alone, so withholding the heartbeat until then changes no
//! output; the sweep, eviction and prune it would have run are run by
//! whatever next moves that matcher's clock, and a snapshot writes the
//! logical window, so checkpoints do not show the deferral either.
//! Per-pattern output is therefore identical — matches *and* order — to N
//! independent [`StreamMatcher`]s each fed every event, which is
//! precisely what `tests/bank_vs_independent.rs` proves differentially.
//! The full argument lives in `docs/patternbank.md`.
//!
//! # Deduplication
//!
//! When the bank is built, a cross-pattern static analysis
//! ([`ses_pattern::SharingPlan`]) finds the patterns whose
//! declaration-order evaluation form and execution options are identical
//! to an earlier one's — the same query registered twice, or under
//! renamed variables. Such a pattern runs no automaton at all; it
//! re-emits its leader's matches (already in global event ids)
//! push-for-push. Identical evaluation form means identical pushes
//! produce identical emissions, so the re-emitted stream *is* the
//! member's own answer: `tests/bank_vs_independent.rs` holds the bank to
//! N independent matchers over pattern sets that contain such twins.
//! There is no switch — a twin is never worth a second matcher. A dedup
//! member reports its leader's matcher counters in the *statistics*,
//! with its own routing counts.
//!
//! Patterns that merely *overlap* — a common leading event set, say —
//! each run their own matcher; `docs/patternbank.md` records why the
//! shared-prefix pools an earlier bank ran for them are gone.
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
//! in deduplication — they are evaluation-identical by construction
//! and would be folded back into one matcher.
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
use crate::error::CoreError;
use crate::matcher::{
    compile_pattern, resolve_partition, MatcherOptions, PartitionMode, PartitionStrategy,
};
use crate::matches::Match;
use crate::probe::{NoProbe, Probe};
use crate::semantics::group_key;
use crate::snapshot::{options_compat, BankPatternSnapshot, BankRole, BankSnapshot};
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
    /// Global ids of the events admitted to this pattern, indexed by
    /// `local - base`. Empty for a dedup member.
    ids: Vec<EventId>,
    /// The pattern relation's first retained local index; `ids` is
    /// pruned to it whenever the matcher evicts.
    base: usize,
    /// Peak `|Ω|` observed on this pattern.
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
/// moving *earlier* than the alarm queues a second entry; the superseded
/// one is recognized by its time when it surfaces and dropped. Ringing
/// early costs a re-set and no heartbeat; ringing late never happens.
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
    /// most (see `heartbeats`).
    pub skips: u64,
    /// Heartbeats pushes actually executed on the pattern's matcher
    /// since the bank was built or restored: a skip costs one only once
    /// the clock reaches the matcher's emission deadline, and each one
    /// decides at least one candidate, so this stays at most the raw
    /// matches the pattern found.
    pub heartbeats: u64,
    /// Matches finalized by pushes so far.
    pub emitted: usize,
    /// Current `|Ω|`.
    pub active_instances: usize,
    /// Peak `|Ω|` observed.
    pub peak_omega: usize,
    /// Accepting runs buffered for adjudication
    /// ([`StreamMatcher::pending_candidates`]).
    pub pending_candidates: usize,
    /// Finals retained as maximality killers
    /// ([`StreamMatcher::retained_killers`]).
    pub retained_killers: usize,
    /// Events currently retained in the pattern's relation.
    pub retained_events: usize,
    /// Events evicted from the pattern's relation.
    pub evicted_events: usize,
}

/// A compiled registration awaiting [`PatternBankBuilder::build`]: one per
/// entry.
#[derive(Debug)]
struct Built {
    name: String,
    pattern: usize,
    sm: StreamMatcher,
}

/// Computes the deduplication plan for a set of built matchers: over
/// the pattern the engine actually evaluates (after analyzer rewrites),
/// constrained by options compatibility. Lanes share nothing — the plan
/// would fold them back into one matcher — and a bank of one has nothing
/// to compare.
fn compute_plan(built: &[Built], lanes: &[LaneGroup]) -> SharingPlan {
    if built.len() < 2 {
        return SharingPlan::trivial(built.len());
    }
    let patterns: Vec<&Pattern> = built.iter().map(|b| b.sm.compiled().pattern()).collect();
    let laned = |i: usize| lanes.iter().any(|g| (g.first..g.first + g.of).contains(&i));
    let constraints: Vec<ShareConstraint> = built
        .iter()
        .enumerate()
        .map(|(i, b)| ShareConstraint {
            compat: options_compat(b.sm.options()),
            allow_dedup: !laned(i),
        })
        .collect();
    SharingPlan::compute(&patterns, &constraints)
}

/// The per-entry roles a snapshot records, derived from a plan and the
/// lane groups.
fn derive_roles(plan: &SharingPlan, lanes: &[LaneGroup]) -> Vec<BankRole> {
    let mut roles: Vec<BankRole> = plan
        .roles
        .iter()
        .map(|role| match *role {
            ShareRole::DedupMember { leader } => BankRole::DedupMember {
                leader: leader as u32,
            },
            _ => BankRole::Plain,
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
fn build_index(entries: &[Entry]) -> PatternIndex {
    PatternIndex::build(entries.iter().enumerate().map(|(i, e)| {
        entries[e.leader().unwrap_or(i)]
            .own()
            .expect("a leader runs its own matcher")
            .compiled()
    }))
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
        let automaton = Automaton::build(compiled)?;
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

    /// Builds the bank: the deduplication plan and the predicate index,
    /// both from the compiled patterns exactly as the matchers will run
    /// them (after any analyzer rewrites).
    pub fn build(self) -> PatternBank {
        let plan = compute_plan(&self.entries, &self.lanes);
        self.build_as(plan)
    }

    /// Builds the bank with its patterns in the roles of `plan`: a dedup
    /// member drops its matcher and enlists with its leader.
    fn build_as(self, plan: SharingPlan) -> PatternBank {
        let mut entries: Vec<Entry> = self
            .entries
            .into_iter()
            .zip(&plan.roles)
            .map(|(b, role)| {
                let exec = match *role {
                    ShareRole::DedupMember { leader } => Exec::Dedup { leader },
                    _ => Exec::Own(Box::new(b.sm)),
                };
                Entry::new(b.name, b.pattern, exec, 0)
            })
            .collect();
        for i in 0..entries.len() {
            if let Some(leader) = entries[i].leader() {
                let member = entries[i].pattern;
                entries[leader].followers.push(member);
            }
        }
        let mut bank = PatternBank {
            index: build_index(&entries),
            entries,
            lanes: self.lanes,
            plan,
            schema: self.schema,
            watermark: None,
            last_ts: None,
            next_id: 0,
            ties: 0,
            emitted: 0,
            scratch: Scratch::default(),
            entry_due: Deadlines::default(),
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
    /// Which entries re-emit another's matches instead of running a
    /// matcher (trivial when no two patterns are evaluation-identical).
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
}

impl PatternBank {
    /// Starts building a bank over `schema`.
    pub fn builder(schema: &Schema) -> PatternBankBuilder {
        PatternBankBuilder {
            schema: schema.clone(),
            entries: Vec::new(),
            lanes: Vec::new(),
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

    /// The deduplication plan the bank executes: trivial unless some
    /// registered patterns are evaluation-identical.
    pub fn sharing_plan(&self) -> &SharingPlan {
        &self.plan
    }

    /// Pushes one event (timestamps must be non-decreasing) and returns
    /// the matches this finalizes as `(pattern id, match)` pairs —
    /// grouped by pattern in registration order, each pattern's matches
    /// in its own emission order, with global event ids. An event past
    /// the 2³²-th is refused with [`EventError::IdSpaceExhausted`].
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
        // Global ids do not wrap: the 2³²-th event has none. Refused here,
        // before any matcher has seen it.
        if u32::try_from(self.next_id).is_err() {
            return Err(EventError::IdSpaceExhausted);
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
    /// key hash of sharded patterns, and whoever's heartbeat deadline
    /// the event's timestamp reaches. Everyone else is left alone.
    fn route<P: Probe>(&mut self, event: &Event, probe: &mut P) {
        let Scratch { work, todo } = &mut self.scratch;
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
        // Whoever the event is not stored in but whose deadline its
        // timestamp reaches gets the heartbeat; a matcher that stores it
        // learns the time from that.
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
        let Scratch { work, todo } = &self.scratch;
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
                Todo::Beat => {
                    entry.beats += 1;
                    entry.beat_own(ts, probe, &mut out);
                }
                Todo::Idle => unreachable!("routing lists only entries it gave work"),
            }
        }
        // Stable, so each pattern keeps its emission order — and a dedup
        // member, whose clones were emitted beside its leader's
        // originals, the leader's.
        out.sort_by_key(|&(pattern, _)| pattern);
        Ok(out)
    }

    /// Re-reads the heartbeat deadline of every matcher the push touched
    /// and returns the scratch to its between-pushes state.
    fn settle(&mut self) {
        for &i in &self.scratch.work {
            self.scratch.todo[i] = Todo::Idle;
            if let Some(sm) = self.entries[i].own() {
                self.entry_due.set(i, sm.next_deadline());
            }
        }
    }

    /// Sizes the routing scratch to the registered entries and re-reads
    /// every matcher's heartbeat deadline.
    fn reschedule(&mut self) {
        self.scratch.todo.resize(self.entries.len(), Todo::Idle);
        self.entry_due.reset(
            self.entries
                .iter()
                .map(|e| e.own().and_then(StreamMatcher::next_deadline)),
        );
    }

    /// Advances every pattern's watermark to `ts` without pushing an
    /// event — finalizing and evicting exactly as a push at `ts` would —
    /// and returns the matches that finalizes. No-op for patterns
    /// already at or past `ts`. Subsequent pushes before `ts` are
    /// rejected as out of order.
    pub fn advance_watermark(&mut self, ts: Timestamp) -> Vec<(usize, Match)> {
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
    /// bank's: the sweeps, evictions and prunes deferred so far run now.
    /// Below its deadline a heartbeat emits nothing — which is why it
    /// could be withheld.
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
        let PatternBank { entries, lanes, .. } = self;
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
    ///
    /// Heartbeats that pushes withheld are delivered first, so an idle
    /// pattern's `|Ω|`, killers and window are reported as of the bank's
    /// clock, not as of its last push.
    pub fn stats(&mut self) -> Vec<PatternStats> {
        self.flush_deferred();
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
                    pending_candidates: sms().map(StreamMatcher::pending_candidates).sum(),
                    retained_killers: sms().map(StreamMatcher::retained_killers).sum(),
                    retained_events: sms().map(StreamMatcher::retained_events).sum(),
                    evicted_events: sms().map(StreamMatcher::evicted_events).sum(),
                }
            })
            .collect()
    }

    /// Captures the complete dynamic state of every pattern plus the
    /// bank's routing bookkeeping under one manifest, and the role each
    /// entry runs in — all `Plain` unless the bank deduplicates or
    /// shards.
    ///
    /// Heartbeats that pushes withheld are delivered first, so the
    /// snapshot is the one a bank heartbeating every pattern on every
    /// push would have taken.
    pub fn snapshot(&mut self) -> BankSnapshot {
        self.flush_deferred();
        let roles = derive_roles(&self.plan, &self.lanes);
        let next_id = self.next_id;
        BankSnapshot {
            watermark: self.watermark,
            last_ts: self.last_ts,
            next_id: self.next_id as u64,
            ties: self.ties as u64,
            emitted: self.emitted as u64,
            patterns: self
                .entries
                .iter_mut()
                .map(|e| {
                    let matcher = match &mut e.exec {
                        Exec::Own(sm) => Some(sm.snapshot()),
                        Exec::Dedup { .. } => None,
                    };
                    // The matcher's snapshot evicted to its logical window.
                    e.prune();
                    BankPatternSnapshot {
                        name: e.name.clone(),
                        matcher,
                        ids: e.ids.clone(),
                        base: e.base as u64,
                        peak_omega: e.peak_omega as u64,
                        hits: e.hits,
                        skips: e.seen(next_id) - e.hits,
                    }
                })
                .collect(),
            roles,
        }
    }

    /// Rebuilds a bank from the `(name, pattern, options)` specs it was
    /// built with and a [`BankSnapshot`] taken from it. Specs must match
    /// the snapshot in count, order, and name, and each pattern's
    /// fingerprint must agree. Every entry comes back in the role the
    /// snapshot recorded for it, checked against the specs: a sharded
    /// pattern takes its lane count from the snapshot, and its options
    /// must still resolve to the key it was sharded by; a dedup member
    /// must be one the plan recomputed from the specs folds into the
    /// same leader; an entry recorded as running its own matcher keeps
    /// it, whatever the plan would make of it today — it was
    /// [`PatternBank::subscribe`]d mid-stream, or checkpointed by a
    /// release that did not deduplicate. Fails with
    /// [`CoreError::SnapshotMismatch`] on any disagreement.
    pub fn restore(
        specs: &[(String, Pattern, MatcherOptions)],
        schema: &Schema,
        snapshot: &BankSnapshot,
    ) -> Result<PatternBank, CoreError> {
        let mismatch = |reason: String| CoreError::SnapshotMismatch { reason };
        if !snapshot.roles.is_empty() && snapshot.roles.len() != snapshot.patterns.len() {
            return Err(mismatch(format!(
                "snapshot carries {} roles for {} patterns",
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
        let (built, lanes) = (&builder.entries, &builder.lanes);
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
        // The dynamic state only makes sense under the roles it was
        // captured in, so those are what the bank is rebuilt with; the
        // plan recomputed from the specs is the check on them.
        let derived = compute_plan(built, lanes);
        let mut plan = SharingPlan::trivial(built.len());
        for (i, role) in snapshot.roles.iter().enumerate() {
            if let BankRole::DedupMember { leader } = *role {
                let leader = leader as usize;
                if derived.roles[i] != (ShareRole::DedupMember { leader }) {
                    return Err(mismatch(format!(
                        "snapshot deduplicates pattern `{}` into pattern {leader}, but the \
                         registered patterns do not",
                        built[i].name
                    )));
                }
                plan.deduplicate(i, leader);
            }
        }
        if !snapshot.roles.is_empty() && snapshot.roles != derive_roles(&plan, lanes) {
            return Err(mismatch(
                "snapshot roles disagree with the lanes recomputed from the registered patterns"
                    .to_string(),
            ));
        }
        let mut bank = builder.build_as(plan);
        for (entry, ps) in bank.entries.iter_mut().zip(&snapshot.patterns) {
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
        bank.watermark = snapshot.watermark;
        bank.last_ts = snapshot.last_ts;
        bank.next_id = snapshot.next_id as usize;
        bank.ties = snapshot.ties as usize;
        bank.emitted = snapshot.emitted as usize;
        bank.reschedule();
        Ok(bank)
    }

    /// Registers a new pattern on a *running* bank — the subscription
    /// path a long-lived match server needs: the pattern starts matching
    /// at the bank's current watermark (it observes no earlier events)
    /// and the predicate index is rebuilt to route to it. Returns the
    /// new pattern's id (its position in push results and statistics).
    ///
    /// The newcomer always runs its own matcher, even beside an
    /// evaluation-identical pattern: joining mid-stream, its state
    /// differs from any twin's — the twin holds runs over events the
    /// newcomer never saw — so there is no leader whose matches are its
    /// own. The deduplication among the patterns already registered is
    /// left as it is. A duplicate name is refused — names identify
    /// durable subscriptions, so reusing one would corrupt cursor-based
    /// resume.
    pub fn subscribe(
        &mut self,
        name: impl Into<String>,
        pattern: &Pattern,
        options: MatcherOptions,
    ) -> Result<usize, CoreError> {
        let name = name.into();
        if self.entries.iter().any(|e| e.name == name) {
            return Err(CoreError::Subscription {
                reason: format!("a pattern named `{name}` is already registered"),
            });
        }
        // A matcher that has stored no event has no deadline and takes
        // its clock from its first push, which the bank only accepts at
        // or after its own watermark.
        let sm = StreamMatcher::with_options(pattern, &self.schema, options)?;
        assert_shares_schema(&sm, &self.schema);
        let id = self.len();
        self.entries
            .push(Entry::new(name, id, Exec::Own(Box::new(sm)), self.next_id));
        self.plan.roles.push(ShareRole::Independent);
        self.reschedule();
        self.index = build_index(&self.entries);
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

    /// `{a,b}` then `{c}` with a per-pattern suffix label — patterns that
    /// overlap on their leading set (`pair("A", "B")`) without being
    /// twins.
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

    type Specs = Vec<(String, Pattern, MatcherOptions)>;
    /// `(timestamp, ID, L)`.
    type Row = (i64, i64, &'static str);

    fn specs() -> Specs {
        vec![
            ("ab".into(), pair("A", "B"), MatcherOptions::default()),
            ("cd".into(), pair("C", "D"), MatcherOptions::default()),
        ]
    }

    fn build(specs: &Specs) -> PatternBank {
        let mut b = PatternBank::builder(&schema());
        for (name, pattern, options) in specs {
            b = b.register(name.clone(), pattern, options.clone()).unwrap();
        }
        b.build()
    }

    fn bank() -> PatternBank {
        build(&specs())
    }

    fn push(bank: &mut PatternBank, (t, id, l): Row) -> Vec<(usize, Match)> {
        bank.push(Timestamp::new(t), [Value::from(id), Value::from(l)])
            .unwrap()
    }

    /// Holds a bank of `specs`, per pattern, to independent matchers each
    /// fed every event of `rows` — every pattern must match something.
    fn assert_matches_independent(specs: &Specs, rows: &[Row]) {
        let mut bank = build(specs);
        let mut ind: Vec<StreamMatcher> = specs
            .iter()
            .map(|(_, p, o)| StreamMatcher::with_options(p, &schema(), o.clone()).unwrap())
            .collect();
        let mut got: Vec<Vec<Match>> = vec![Vec::new(); specs.len()];
        let mut want = got.clone();
        for &(t, id, l) in rows {
            for (i, m) in push(&mut bank, (t, id, l)) {
                got[i].push(m);
            }
            for (i, sm) in ind.iter_mut().enumerate() {
                let values = [Value::from(id), Value::from(l)];
                want[i].extend(sm.push(Timestamp::new(t), values).unwrap());
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

    /// At every cut of `rows`, a bank of `specs` restored from its
    /// snapshot — which `check` gets to see — must finish the stream
    /// exactly like an uninterrupted twin.
    fn assert_restore_resumes(specs: &Specs, rows: &[Row], check: impl Fn(&BankSnapshot)) {
        for cut in 0..rows.len() {
            let mut live = build(specs);
            let mut twin = build(specs);
            let mut live_out = Vec::new();
            let mut twin_out = Vec::new();
            for &row in &rows[..cut] {
                live_out.extend(push(&mut live, row));
                twin_out.extend(push(&mut twin, row));
            }
            let snap = live.snapshot();
            check(&snap);
            drop(live);
            let mut restored = PatternBank::restore(specs, &schema(), &snap).unwrap();
            assert_eq!(restored.sharing_plan(), twin.sharing_plan());
            assert_eq!(restored.emitted_so_far(), twin.emitted_so_far());
            assert_eq!(restored.consumed_events(), twin.consumed_events());
            assert_eq!(restored.ties_at_watermark(), twin.ties_at_watermark());
            for &row in &rows[cut..] {
                live_out.extend(push(&mut restored, row));
                twin_out.extend(push(&mut twin, row));
            }
            live_out.extend(restored.finish());
            twin_out.extend(twin.finish());
            assert_eq!(live_out, twin_out, "divergence after restore at cut {cut}");
        }
    }

    fn workload() -> Vec<Row> {
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

    #[test]
    fn bank_matches_independent_matchers() {
        assert_matches_independent(&specs(), &workload());
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
        assert_restore_resumes(&specs(), &workload(), |_| {});
    }

    #[test]
    fn restore_rejects_mismatched_specs() {
        let mut bank = bank();
        bank.push(Timestamp::new(0), [Value::from(1), Value::from("A")])
            .unwrap();
        let snap = bank.snapshot();
        // Wrong count.
        let short: Specs = vec![("ab".into(), pair("A", "B"), MatcherOptions::default())];
        let err = PatternBank::restore(&short, &schema(), &snap).unwrap_err();
        assert!(matches!(err, CoreError::SnapshotMismatch { .. }), "{err}");
        // Wrong name.
        let mut renamed = specs();
        renamed[0].0 = "zz".into();
        let err = PatternBank::restore(&renamed, &schema(), &snap).unwrap_err();
        assert!(err.to_string().contains("registered as `zz`"), "{err}");
        // Wrong pattern (fingerprint).
        let mut swapped = specs();
        swapped[0].1 = pair("A", "C");
        let err = PatternBank::restore(&swapped, &schema(), &snap).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    /// A snapshot's Ω must be one a running matcher can hold: the expiry
    /// cut and the node log's trim rely on its orders, so restore refuses,
    /// by rule, each way a real snapshot can be edited out of them.
    #[test]
    fn restore_refuses_an_omega_out_of_order() {
        let mut bank = bank();
        for row in [(0, 1, "A"), (1, 1, "A"), (2, 1, "B")] {
            push(&mut bank, row);
        }
        let snap = bank.snapshot();
        let omega =
            |snap: &BankSnapshot| snap.patterns[0].matcher.as_ref().unwrap().instances.clone();
        assert_eq!(omega(&snap).len(), 3, "{:?}", omega(&snap));
        assert_eq!(omega(&snap)[0].bindings.len(), 2);
        PatternBank::restore(&specs(), &schema(), &snap).unwrap();

        let edited = |edit: &dyn Fn(&mut crate::StreamSnapshot)| {
            let mut bad = snap.clone();
            edit(bad.patterns[0].matcher.as_mut().unwrap());
            let err = PatternBank::restore(&specs(), &schema(), &bad).unwrap_err();
            assert!(matches!(err, CoreError::SnapshotMismatch { .. }), "{err}");
            err.to_string()
        };
        let err = edited(&|s| s.instances.swap(0, 2));
        assert!(err.contains("not in first-binding order"), "{err}");
        let err = edited(&|s| s.instances[0].bindings.reverse());
        assert!(err.contains("ascend strictly by event"), "{err}");
        let err = edited(&|s| s.instances[0].bindings[0].0 = ses_pattern::VarId(7));
        assert!(err.contains("variable v7 out of range"), "{err}");
        let err = edited(&|s| {
            s.evicted += 1;
            s.events.remove(0);
        });
        assert!(err.contains("precedes the retained window"), "{err}");
        let err = edited(&|s| s.instances[1].bindings[0].2 = Timestamp::new(0));
        assert!(err.contains("no retained event at that time"), "{err}");
        let err = edited(&|s| s.instances[2].bindings.clear());
        assert!(err.contains("binds no event"), "{err}");
    }

    #[test]
    fn global_ids_end_at_the_end_of_the_id_space() {
        // A snapshot edited to two ids short of the end stands in for
        // four billion pushes; every pattern skipped all of them.
        let mut snap = bank().snapshot();
        snap.next_id = u64::from(u32::MAX) - 1;
        for p in &mut snap.patterns {
            p.skips = snap.next_id;
        }
        let mut bank = PatternBank::restore(&specs(), &schema(), &snap).unwrap();
        let row = |l: &str| [Value::from(1), Value::from(l)];
        assert!(bank.push(Timestamp::new(0), row("A")).unwrap().is_empty());
        assert!(bank.push(Timestamp::new(1), row("B")).unwrap().is_empty());
        // The next event has no global id: refused before any matcher
        // sees it, and refused again.
        for _ in 0..2 {
            let err = bank.push(Timestamp::new(2), row("B")).unwrap_err();
            assert_eq!(err, EventError::IdSpaceExhausted);
        }
        assert_eq!(bank.consumed_events(), 1 << 32);
        // The last two ids were handed out unwrapped.
        let flushed = bank.finish();
        assert_eq!(flushed.len(), 1, "{flushed:?}");
        let events: Vec<EventId> = flushed[0].1.events().collect();
        assert_eq!(events, [EventId(u32::MAX - 1), EventId(u32::MAX)]);
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
        let ids_of = |pattern: usize| -> Vec<Vec<usize>> {
            let matches = matches_of(&post, pattern).into_iter();
            matches
                .map(|m| m.events().map(|e| e.index()).collect())
                .collect()
        };
        let (old_matches, new_matches) = (ids_of(1), ids_of(2));
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
    fn subscribe_rejects_duplicate_names() {
        let mut bank = bank();
        assert!(matches!(
            bank.subscribe("ab", &pair("E", "F"), MatcherOptions::default()),
            Err(CoreError::Subscription { .. })
        ));
    }

    /// Pushes `rows` through `bank`, snapshots it after `cut` of them and
    /// continues a bank restored from `specs` beside it: the two must
    /// emit the same, push for push. Returns the snapshot and everything
    /// emitted.
    fn run_across_restore(
        mut bank: PatternBank,
        specs: &Specs,
        rows: &[Row],
        cut: usize,
    ) -> (BankSnapshot, Vec<(usize, Match)>) {
        let mut out = Vec::new();
        for &row in &rows[..cut] {
            out.extend(push(&mut bank, row));
        }
        let snap = bank.snapshot();
        let mut restored = PatternBank::restore(specs, &schema(), &snap).unwrap();
        assert_eq!(restored.sharing_plan(), bank.sharing_plan());
        for &row in &rows[cut..] {
            let emitted = push(&mut bank, row);
            assert_eq!(push(&mut restored, row), emitted);
            out.extend(emitted);
        }
        let flushed = bank.finish();
        assert_eq!(restored.finish(), flushed);
        out.extend(flushed);
        (snap, out)
    }

    fn matches_of(out: &[(usize, Match)], pattern: usize) -> Vec<&Match> {
        let of_pattern = out.iter().filter(|(i, _)| *i == pattern);
        of_pattern.map(|(_, m)| m).collect()
    }

    /// A third copy of a deduplicated pair joins mid-stream: it runs its
    /// own matcher over later events only, the pair stays one matcher,
    /// and the mixed bank checkpoints and resumes push for push.
    #[test]
    fn subscribe_joins_a_deduplicating_bank() {
        let rows = shared_workload();
        let join = 7;
        let mut bank = sharing_bank();
        let mut out = Vec::new();
        for &row in &rows[..join] {
            out.extend(push(&mut bank, row));
        }
        let late = bank
            .subscribe("pc3", &prefixed("C"), MatcherOptions::default())
            .unwrap();
        assert_eq!(late, 4);
        let mut specs = sharing_specs();
        specs.push(("pc3".into(), prefixed("C"), MatcherOptions::default()));
        let (snap, rest) = run_across_restore(bank, &specs, &rows[join..], 3);
        out.extend(rest);
        assert_eq!(snap.roles[2], BankRole::DedupMember { leader: 0 });
        assert_eq!(snap.roles[late], BankRole::Plain);
        assert!(snap.patterns[late].matcher.is_some());

        let (pc, newcomer) = (matches_of(&out, 0), matches_of(&out, late));
        assert_eq!(pc, matches_of(&out, 2), "the pair stopped emitting as one");
        assert!(!newcomer.is_empty(), "the newcomer never matched");
        assert!(
            pc.len() > newcomer.len(),
            "nothing matched before it joined"
        );
        for m in newcomer {
            assert!(m.events().all(|e| e.index() >= join), "bound the past: {m}");
            assert!(pc.contains(&m), "{m} is not a match of its twin");
        }
    }

    /// The server's path: every pattern arrives through `subscribe`, so
    /// one query under two names is two matchers — in the bank, in its
    /// snapshot, and in the bank restored from it, although a plan
    /// computed over the two specs would fold them.
    #[test]
    fn twins_subscribed_before_the_first_event_stay_two_matchers() {
        let renamed = Pattern::builder()
            .set(|s| s.var("x").var("y"))
            .cond_const("x", "L", CmpOp::Eq, "A")
            .cond_const("y", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        let specs: Specs = vec![
            ("ab".into(), pair("A", "B"), MatcherOptions::default()),
            ("ab2".into(), renamed, MatcherOptions::default()),
        ];
        assert_eq!(build(&specs).sharing_plan().deduplicated(), 1);

        let mut bank = PatternBank::builder(&schema()).build();
        for (name, pattern, options) in &specs {
            bank.subscribe(name.clone(), pattern, options.clone())
                .unwrap();
        }
        assert!(bank.sharing_plan().is_trivial());
        let (snap, out) = run_across_restore(bank, &specs, &workload(), 2);
        assert_eq!(snap.roles, vec![BankRole::Plain; 2]);
        assert!(snap.patterns.iter().all(|p| p.matcher.is_some()));
        assert!(!matches_of(&out, 1).is_empty());
        assert_eq!(matches_of(&out, 0), matches_of(&out, 1));
    }

    #[test]
    fn subscribe_survives_snapshot_restore_round_trip() {
        let mut bank = bank();
        push(&mut bank, (0, 1, "A"));
        bank.subscribe("ef", &pair("E", "F"), MatcherOptions::default())
            .unwrap();
        let mut specs = specs();
        specs.push(("ef".into(), pair("E", "F"), MatcherOptions::default()));
        let rows = [(1, 1, "E"), (2, 1, "F"), (3, 1, "B"), (20, 1, "X")];
        let (snap, out) = run_across_restore(bank, &specs, &rows, 1);
        assert!(!matches_of(&out, 2).is_empty(), "subscription matched E-F");
        // The restored bank keeps accepting live subscriptions.
        let mut restored = PatternBank::restore(&specs, &schema(), &snap).unwrap();
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
        // `ab` is skipped every time, but heartbeat only once, when the
        // pair's window closes and its group is decided.
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
        assert_eq!(ab.heartbeats, 1, "{} skips", ab.skips);
        assert_eq!((ab.retained_events, ab.evicted_events), (0, 2));
    }

    /// The `stream-bank` shape — sixteen `a THEN b` patterns on disjoint
    /// label pairs, correlated on `ID` — with one burst to pattern 0,
    /// then 10 000 pushes it never sees. A matcher grows only on its own
    /// pushes, so after every push each entry retains at most the events
    /// and `|Ω|` it held after its last routed one, deferred housekeeping
    /// or not; `stats` then reports the idle pattern's state reclaimed.
    #[test]
    fn idle_patterns_hold_no_more_than_after_their_own_last_push() {
        let label = |i: usize| format!("T{i:02}");
        let mut builder = PatternBank::builder(&schema());
        for i in 0..16 {
            let p = Pattern::builder()
                .set(|s| s.var("a"))
                .set(|s| s.var("b"))
                .cond_const("a", "L", CmpOp::Eq, label(2 * i).as_str())
                .cond_const("b", "L", CmpOp::Eq, label(2 * i + 1).as_str())
                .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
                .within(Duration::ticks(20))
                .build()
                .unwrap();
            builder = builder
                .register(format!("q{i:02}"), &p, MatcherOptions::default())
                .unwrap();
        }
        let mut bank = builder.build();
        // Pairs for pattern 0, then `a`s no `b` will ever complete.
        let burst =
            (0..40i64).map(|k| (k / 4, k % 3, label(if k < 32 { k as usize % 2 } else { 0 })));
        let rest = (0..10_000i64).map(|k| (10 + k / 2, k % 5, label(2 + k as usize % 30)));
        let held = |e: &Entry| {
            let sm = e.own().expect("no twins in this bank");
            (sm.retained_events(), sm.active_instances())
        };
        let mut last: Vec<(u64, (usize, usize))> = vec![(0, (0, 0)); bank.entries.len()];
        for (t, id, l) in burst.chain(rest) {
            bank.push(
                Timestamp::new(t),
                [Value::from(id), Value::from(l.as_str())],
            )
            .unwrap();
            for (e, (hits, bound)) in bank.entries.iter().zip(&mut last) {
                let now = held(e);
                if e.hits != *hits {
                    (*hits, *bound) = (e.hits, now);
                }
                assert!(
                    now.0 <= bound.0 && now.1 <= bound.1,
                    "{} holds (retained, |Ω|) {now:?}, {bound:?} after its last push, at t={t}",
                    e.name
                );
            }
        }
        let idle = held(&bank.entries[0]);
        assert!(
            idle.0 > 0 && idle.1 > 0,
            "the idle tail was reclaimed early"
        );
        let stats = &bank.stats()[0];
        assert_eq!((stats.hits, stats.skips), (40, 10_000));
        assert!(
            stats.emitted > 0,
            "the burst's pairs finalized on heartbeats"
        );
        assert_eq!((stats.retained_events, stats.active_instances), (0, 0));
    }

    // ---- deduplication -----------------------------------------------

    /// Events exercising ties, window expiry, and suffix divergence for
    /// the `prefixed` family.
    fn shared_workload() -> Vec<Row> {
        vec![
            (0, 1, "A"),
            (1, 1, "B"),
            (2, 1, "C"),
            (2, 1, "D"),
            (3, 1, "A"),
            (4, 1, "B"),
            (8, 1, "C"),
            (9, 1, "A"),
            (9, 1, "B"),
            (10, 1, "D"),
            (20, 1, "X"),
            (21, 1, "A"),
            (22, 1, "B"),
            (23, 1, "C"),
            (40, 1, "X"),
        ]
    }

    /// A pattern set with a twin among overlapping neighbours: `pc2` is
    /// a duplicate of `pc` and runs no matcher; `pd` and `ab` open with
    /// the same `{a,b}` set as `pc` and each run their own.
    fn sharing_specs() -> Specs {
        vec![
            ("pc".into(), prefixed("C"), MatcherOptions::default()),
            ("pd".into(), prefixed("D"), MatcherOptions::default()),
            ("pc2".into(), prefixed("C"), MatcherOptions::default()),
            ("ab".into(), pair("A", "B"), MatcherOptions::default()),
        ]
    }

    fn sharing_bank() -> PatternBank {
        build(&sharing_specs())
    }

    /// A deduplicating bank vs independent matchers fed every event —
    /// the push-for-push output-identity claim of `docs/patternbank.md`.
    #[test]
    fn sharing_matches_independent_matchers() {
        assert_eq!(sharing_bank().sharing_plan().deduplicated(), 1);
        assert_matches_independent(&sharing_specs(), &shared_workload());
    }

    #[test]
    fn sharing_plan_surfaces_roles_and_stats_resolve_leaders() {
        let mut bank = sharing_bank();
        let plan = bank.sharing_plan().clone();
        // pc2 deduplicates into pc; pd and ab merely overlap with it.
        assert_eq!(plan.roles[0], ShareRole::DedupLeader { members: vec![2] });
        assert_eq!(plan.roles[2], ShareRole::DedupMember { leader: 0 });
        assert_eq!(plan.roles[1], ShareRole::Independent);
        assert_eq!(plan.roles[3], ShareRole::Independent);
        for row in shared_workload() {
            push(&mut bank, row);
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
        let mut bank = sharing_bank();
        for row in [(0, 1, "A"), (1, 1, "B"), (2, 1, "C")] {
            push(&mut bank, row);
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
        assert_restore_resumes(&sharing_specs(), &shared_workload(), |snap| {
            assert!(snap.patterns[2].matcher.is_none(), "dedup member state");
        });
    }

    #[test]
    fn restore_rejects_sharing_role_mismatch() {
        let mut bank = sharing_bank();
        push(&mut bank, (0, 1, "A"));
        let snap = bank.snapshot();
        // The recorded member must still be a twin of the recorded
        // leader: not of nobody, and not of somebody else.
        for stranger in [pair("E", "F"), prefixed("D")] {
            let mut broken = sharing_specs();
            broken[2].1 = stranger;
            let err = PatternBank::restore(&broken, &schema(), &snap).unwrap_err();
            assert!(err.to_string().contains("deduplicates"), "{err}");
        }
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
            .build();
        let plan = bank.sharing_plan();
        assert!(plan.roles[..3].iter().all(|r| *r == ShareRole::Independent));
        assert_eq!(plan.roles[4], ShareRole::DedupMember { leader: 3 });
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
        let mut restored = PatternBank::restore(&spec(auto()), &schema(), &snap).unwrap();
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
