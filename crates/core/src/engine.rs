//! Execution of a SES automaton over an event relation — the paper's
//! Algorithm 1 (`SESExec`) and Algorithm 2 (`ConsumeEvent`).
//!
//! The engine maintains the set `Ω` of active automaton instances. For
//! each input event `e` (in chronological order):
//!
//! 1. (§4.5) `e` is dropped outright when it satisfies the constant
//!    conditions of no variable — its admission mask is empty;
//! 2. a fresh instance `(qs, ∅)` is added to `Ω` (Algorithm 1, line 4);
//! 3. every instance whose window would exceed `τ` *expires* — if it is in
//!    the accepting state its buffer is emitted as a raw match;
//! 4. every surviving instance consumes `e`: each outgoing transition
//!    whose condition set `Θδ` is satisfied produces a successor instance
//!    (branching on nondeterminism); if no transition fires the instance
//!    stays put, unless it is the start-state instance, which is dropped.
//!
//! The paper's Algorithm 1 emits on expiry only, which would drop the
//! matches whose window has not elapsed when a finite relation ends; at
//! end of input, instances in the accepting state emit their buffers.
//!
//! # Ω in first-binding order
//!
//! Ω is kept sorted by each instance's first-binding timestamp, an
//! instance that has bound nothing yet counting as latest. Nothing has to
//! sort it: the fresh instance is appended, successors take their source's
//! slot and keep its first binding (a successor of the fresh instance
//! binds the current event, which no earlier binding follows), and
//! expiry removes instances. Two things follow. What expires at `now` is
//! a prefix — a [`slice::partition_point`] and one drain, where the paper
//! tests every instance. And the nodes no live buffer reaches are a prefix
//! of the [`NodeLog`], cut at the first live instance's `minT`.
//!
//! Step 4 does not visit every survivor either. Beside Ω sits its
//! occupancy index: per variable, one bitset over Ω's positions, with
//! position `i` set iff [`Automaton::outgoing_var_mask`] of `Ω[i]`'s state
//! has the variable. An instance none of whose outgoing transitions binds
//! a variable `e` is admitted for cannot move, so the pass visits the set
//! bits of the union of those variables' rows — in Ω's order, with the
//! probe calls a visit of every instance would make. Each edit of Ω edits
//! the index with it: a successor in its source's slot flips that
//! position, an expired prefix shifts every row down, a rewritten suffix
//! is re-indexed. The fresh instance, always last, stays out of it.
//!
//! # One Ω per key
//!
//! A scan keeps one Ω. For a pattern that proves a partition key, the key
//! split is the same scan with one Ω per key value: one grouping pass
//! gives each event the slot of its key, the lane pass runs once over the
//! relation, and each admitted event goes to its slot's Ω under its own
//! id. A key's instances then never meet another key's events, and the
//! matches and the admitted log need no renumbering.

use std::collections::HashMap;
use std::sync::Arc;

use ses_event::{AttrId, Event, EventId, Relation, Timestamp, Value};
use ses_pattern::{CompiledPattern, VarId};

use crate::automaton::{Automaton, TransCond, Transition};
use crate::buffer::{Buffer, NodeLog};
use crate::columnar::ColumnarBatch;
use crate::occupancy::{words_for, Occupancy};
use crate::probe::Probe;
use crate::state::StateId;

/// An automaton instance `Ñ = (qc, β)` (Definition 4). Its buffer's
/// bindings live in the [`NodeLog`] of the execution that holds it.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    /// Current state `qc`.
    pub state: StateId,
    /// Match buffer `β`.
    pub buffer: Buffer,
}

/// The event selection strategy — how an instance treats an event that
/// fires at least one of its transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventSelection {
    /// The paper's Algorithm 2 (skip-till-next-match): every firing
    /// transition produces a successor and the source instance is
    /// dropped — a matching event is always consumed. Events that fire
    /// nothing are skipped.
    #[default]
    SkipTillNextMatch,
    /// SASE+-style skip-till-any-match (an extension beyond the paper):
    /// the source instance is *also* retained, so runs may skip events
    /// that other runs consume. Candidate generation becomes complete
    /// with respect to the substitution space `Γ` of Definition 2 —
    /// every substitution satisfying conditions 1–3 is produced — at an
    /// exponential worst-case cost in `|Ω|` (each in-window matching
    /// event can double the instances on its path).
    SkipTillAnyMatch,
}

/// A raw match: the bindings of an accepted buffer in canonical
/// `(event, var)` order, *before* the Definition-2 semantics filter.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RawMatch {
    /// Bindings sorted by `(event, var)`.
    pub bindings: Vec<(ses_pattern::VarId, EventId)>,
}

impl RawMatch {
    /// The earliest bound event (bindings are sorted, and the relation's
    /// event ids follow chronological order).
    pub fn first_event(&self) -> EventId {
        self.bindings[0].1
    }
}

/// The scan's admission verdicts, kept for the Definition-2 filter: one
/// `(event, var_ok)` entry per admitted event — one that can bind at
/// least one variable — ascending by event id. Bit *v* of `var_ok` says
/// the event satisfies every constant condition of `VarId(v)`.
///
/// [`crate::select`] fills its per-variable viable-event lists from this
/// log instead of re-evaluating constant conditions over the relation, so
/// each event's constants are evaluated once per `find`. Nothing is lost
/// by logging only admitted events: the §4.5 filter drops exactly the
/// events whose mask is empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmittedLog {
    entries: Vec<(EventId, u64)>,
}

impl AdmittedLog {
    /// The log a scan of `relation` records, without running an
    /// automaton: the lane pass [`Execution`] runs, and nothing else. For
    /// callers that hold raw matches they did not get from [`scan`] — the
    /// baseline's chain bank, whose automata run renamed variables, and
    /// tests with hand-made candidates.
    pub fn of(pattern: &CompiledPattern, relation: &Relation) -> AdmittedLog {
        let admission = ColumnarBatch::of(pattern, relation);
        let mut log = AdmittedLog::default();
        let mut position = admission.next_passing(0);
        while position < admission.len() {
            log.record(event_id(relation, position), admission.admission(position));
            position = admission.next_passing(position + 1);
        }
        log
    }

    /// The entries, ascending by event id.
    pub fn entries(&self) -> &[(EventId, u64)] {
        &self.entries
    }

    fn record(&mut self, id: EventId, vars: u64) {
        if vars != 0 {
            self.entries.push((id, vars));
        }
    }
}

/// The id of the event at scan position `position` of `relation`: a scan
/// counts from the first event the relation still holds, ids from the
/// first it ever held.
fn event_id(relation: &Relation, position: usize) -> EventId {
    EventId::from(relation.first_index() + position)
}

/// Executes the automaton over a relation — the paper's `SESExec`.
///
/// Returns the raw matches in emission order, and the [`AdmittedLog`]
/// [`crate::semantics::select`] needs beside them to obtain the matching
/// substitutions of Definition 2.
pub fn scan<P: Probe>(
    automaton: &Automaton,
    relation: &Relation,
    selection: EventSelection,
    probe: &mut P,
) -> (Vec<RawMatch>, AdmittedLog) {
    let mut exec = Execution::new(automaton, relation, selection);
    exec.run(probe);
    exec.finish(probe)
}

/// [`scan`] for callers that want the raw matches only.
pub fn execute<P: Probe>(
    automaton: &Automaton,
    relation: &Relation,
    selection: EventSelection,
    probe: &mut P,
) -> Vec<RawMatch> {
    scan(automaton, relation, selection, probe).0
}

/// [`scan`] with one Ω per value of `key`, a proven partition key
/// ([`CompiledPattern::partition_keys`]): one lane pass over `relation`,
/// and each admitted event goes to the Ω of its key value, with its id in
/// `relation`. A key's Ω sees exactly its key's events — the ones its
/// instances may bind and the ones whose arrival expires them — so its
/// runs never meet another key's, and the raw matches and the admitted
/// log come out in `relation`'s ids, the log equal to [`scan`]'s.
///
/// The raw matches are the global scan's only where no run derails on a
/// foreign key's event: a skip-till-next-match run of a correlated group
/// variable that binds before its correlating variable absorbs whatever
/// its Ω offers it, so sharing an Ω with other keys changes which runs
/// survive (docs/parallel.md, "Known limit").
///
/// `probe` receives [`Probe::partitions`], one [`Probe::partition_events`]
/// per key in first-occurrence order, then every per-event hook.
pub(crate) fn scan_by_key<P: Probe>(
    automaton: &Automaton,
    relation: &Relation,
    key: AttrId,
    selection: EventSelection,
    probe: &mut P,
) -> (Vec<RawMatch>, AdmittedLog) {
    let (slots, sizes) = key_slots(relation, key);
    probe.partitions(sizes.len());
    for &n in &sizes {
        probe.partition_events(n);
    }
    let admission = ColumnarBatch::of(automaton.pattern(), relation);
    let mut omegas: Vec<Omega> = sizes.iter().map(|_| Omega::new(automaton)).collect();
    let mut admitted = AdmittedLog::default();
    let mut results = Vec::new();
    let mut position = skip_dropped(&admission, 0, probe);
    while position < admission.len() {
        let id = event_id(relation, position);
        let var_ok = admission.admission(position);
        admitted.record(id, var_ok);
        omegas[slots[position]].process_event(
            automaton,
            relation,
            selection,
            id,
            var_ok,
            &mut results,
            probe,
        );
        position = skip_dropped(&admission, position + 1, probe);
    }
    for omega in &mut omegas {
        omega.flush(automaton.accept(), &mut results, probe);
    }
    (results, admitted)
}

/// The first scan position at or after `from` whose event the lane pass
/// keeps (`admission.len()` if none), counting each event it passes over
/// as a step would count it — `event_read`, `event_filtered` — and
/// visiting none of them.
fn skip_dropped<P: Probe>(admission: &ColumnarBatch, from: usize, probe: &mut P) -> usize {
    let next = admission.next_passing(from);
    for _ in from..next {
        probe.event_read();
        probe.event_filtered();
    }
    next
}

/// The key slot of each event of `relation` by scan position, slots
/// numbered in first-occurrence order of their key value, and the number
/// of events in each slot.
fn key_slots(relation: &Relation, key: AttrId) -> (Vec<usize>, Vec<usize>) {
    let mut index: HashMap<PartitionKey, usize> = HashMap::new();
    let mut sizes = Vec::new();
    let slots = relation
        .events()
        .iter()
        .map(|event| {
            let slot = *index
                .entry(PartitionKey::of(event.value(key)))
                .or_insert_with(|| {
                    sizes.push(0);
                    sizes.len() - 1
                });
            sizes[slot] += 1;
            slot
        })
        .collect();
    (slots, sizes)
}

/// A hashable view of a partitioning attribute's value. [`Value`] itself
/// is not `Hash` (floats), so the key split hashes this instead — without
/// per-event allocation: ints, bools, and floats copy bits, and strings
/// bump the existing `Arc` refcount.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum PartitionKey {
    Int(i64),
    /// Floats group by bit pattern — exact-value grouping, the only
    /// sensible equality for a partition key.
    Bits(u64),
    Str(Arc<str>),
    Bool(bool),
}

impl PartitionKey {
    fn of(value: &Value) -> PartitionKey {
        match value {
            Value::Int(i) => PartitionKey::Int(*i),
            Value::Float(f) => PartitionKey::Bits(f.to_bits()),
            Value::Str(s) => PartitionKey::Str(Arc::clone(s)),
            Value::Bool(b) => PartitionKey::Bool(*b),
        }
    }
}

/// An incremental execution of one automaton over one relation.
///
/// [`scan`] drives this to completion; the brute-force baseline steps a
/// whole *bank* of executions event-by-event so that the summed `|Ω|`
/// across automata is sampled at the same points in time as the paper's
/// experiment 1.
#[derive(Debug)]
pub struct Execution<'a> {
    automaton: &'a Automaton,
    relation: &'a Relation,
    selection: EventSelection,
    /// The lane pass over the whole relation, evaluated up front.
    admission: ColumnarBatch,
    /// What `admission` said of the events consumed so far.
    admitted: AdmittedLog,
    omega: Omega,
    results: Vec<RawMatch>,
    position: usize,
}

impl<'a> Execution<'a> {
    /// Prepares an execution positioned before the first event.
    pub fn new(
        automaton: &'a Automaton,
        relation: &'a Relation,
        selection: EventSelection,
    ) -> Self {
        Execution {
            automaton,
            relation,
            selection,
            admission: ColumnarBatch::of(automaton.pattern(), relation),
            admitted: AdmittedLog::default(),
            omega: Omega::new(automaton),
            results: Vec::new(),
            position: 0,
        }
    }

    /// Processes the next event. Returns `false` when the relation is
    /// exhausted (call [`Execution::finish`] afterwards).
    pub fn step<P: Probe>(&mut self, probe: &mut P) -> bool {
        if self.position >= self.relation.len() {
            return false;
        }
        let position = self.position;
        self.position += 1;
        let id = event_id(self.relation, position);
        let admission = self.admission.admission(position);
        self.admitted.record(id, admission);
        self.omega.process_event(
            self.automaton,
            self.relation,
            self.selection,
            id,
            admission,
            &mut self.results,
            probe,
        );
        true
    }

    /// Processes every remaining event: [`Execution::step`] until it
    /// says `false`, except that an event the lane pass already dropped
    /// is counted (`event_read`, `event_filtered` — all a step does with
    /// it) and not visited.
    pub fn run<P: Probe>(&mut self, probe: &mut P) {
        while self.position < self.admission.len() {
            self.position = skip_dropped(&self.admission, self.position, probe);
            self.step(probe);
        }
    }

    /// Current number of active instances `|Ω|`.
    pub fn omega_len(&self) -> usize {
        self.omega.instances().len()
    }

    /// The active instances `Ω` (after the most recent step), in
    /// first-binding order.
    pub fn instances(&self) -> &[Instance] {
        self.omega.instances()
    }

    /// The node log the instances' buffers read from.
    pub fn log(&self) -> &NodeLog {
        self.omega.log()
    }

    /// Scan position of the next event to be consumed, counted from the
    /// relation's first retained event.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Flushes accepting instances and returns all raw matches produced
    /// by this execution, with the admission verdicts of the events it
    /// consumed.
    pub fn finish<P: Probe>(mut self, probe: &mut P) -> (Vec<RawMatch>, AdmittedLog) {
        self.omega
            .flush(self.automaton.accept(), &mut self.results, probe);
        (self.results, self.admitted)
    }
}

/// Ω in first-binding order (see the module docs), with the node log its
/// buffers live in and the occupancy index of its instances. Shared by
/// the batch [`Execution`] and the push-based [`crate::StreamMatcher`].
#[derive(Debug)]
pub(crate) struct Omega {
    instances: Vec<Instance>,
    /// The successors [`Omega::process_event`] could not yet place.
    scratch: Vec<Instance>,
    log: NodeLog,
    /// Position `i` is set in variable `v`'s row iff [`indexed_vars`] of
    /// `instances[i]`'s state has bit `v`.
    occupancy: Occupancy,
}

/// The variables whose rows of the occupancy index hold an instance in
/// `state`: those of its outgoing transitions, except for the start
/// state's. A start-state instance is the fresh one, last in Ω and gone
/// before [`Omega::process_event`] returns (restore refuses unbound
/// instances), so it is offered the event on its own.
fn indexed_vars(automaton: &Automaton, state: StateId) -> u64 {
    if state == automaton.start() {
        0
    } else {
        automaton.outgoing_var_mask(state)
    }
}

impl Omega {
    /// An empty Ω for `automaton`'s instances.
    pub(crate) fn new(automaton: &Automaton) -> Omega {
        Omega {
            instances: Vec::new(),
            scratch: Vec::new(),
            log: NodeLog::default(),
            occupancy: Occupancy::new(automaton.pattern().pattern().num_vars()),
        }
    }

    /// Ω of `automaton` from instances given as `(state, bindings oldest
    /// first)`, already in first-binding order, each one's bindings
    /// strictly ascending by event. Nodes are appended across all
    /// instances in event order, so the log is in time order as a running
    /// execution leaves it (minus the sharing).
    pub(crate) fn restore<'b>(
        automaton: &Automaton,
        instances: impl IntoIterator<Item = (StateId, &'b [(VarId, EventId, Timestamp)])>,
    ) -> Omega {
        let instances: Vec<_> = instances.into_iter().collect();
        let mut order: Vec<(EventId, usize, usize)> = instances
            .iter()
            .enumerate()
            .flat_map(|(i, (_, bindings))| {
                bindings
                    .iter()
                    .enumerate()
                    .map(move |(j, &(_, event, _))| (event, i, j))
            })
            .collect();
        order.sort_unstable();
        let mut omega = Omega::new(automaton);
        for (p, &(state, _)) in instances.iter().enumerate() {
            omega.instances.push(Instance {
                state,
                buffer: Buffer::EMPTY,
            });
            omega.occupancy.toggle(p, indexed_vars(automaton, state));
        }
        for (_, i, j) in order {
            let (var, event, ts) = instances[i].1[j];
            let buffer = &mut omega.instances[i].buffer;
            *buffer = omega.log.push(*buffer, var, event, ts);
        }
        debug_assert!(omega.in_first_binding_order());
        debug_assert!(omega.occupancy_is_exact(automaton));
        omega
    }

    /// The instances, in first-binding order.
    pub(crate) fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// The node log the instances' buffers read from.
    pub(crate) fn log(&self) -> &NodeLog {
        &self.log
    }

    /// `minT` of the first instance: the earliest window start in Ω.
    pub(crate) fn first_binding(&self) -> Option<Timestamp> {
        self.instances.first().and_then(|i| i.buffer.min_ts())
    }

    /// The invariant the module docs state, an unbound instance counting
    /// as latest.
    fn in_first_binding_order(&self) -> bool {
        let key = |i: &Instance| i.buffer.min_ts().unwrap_or(Timestamp::MAX);
        self.instances.windows(2).all(|w| key(&w[0]) <= key(&w[1]))
    }

    /// Whether the occupancy index equals one rebuilt from scratch —
    /// checked position by position, as a rebuild would allocate.
    fn occupancy_is_exact(&self, automaton: &Automaton) -> bool {
        let instances = &self.instances;
        instances.iter().enumerate().all(|(p, instance)| {
            self.occupancy.vars_at(p) == indexed_vars(automaton, instance.state)
        }) && self.occupancy.is_clear_from(instances.len())
    }

    /// Drops every instance whose window cannot contain `now` anymore
    /// (Algorithm 1's expiry step), emitting accepting buffers as raw
    /// matches in Ω's order, then trims the node log to what the rest
    /// reaches. O(log |Ω|) when nothing expires.
    ///
    /// [`Omega::process_event`] runs it first; the push-based
    /// [`crate::StreamMatcher`] also runs it on its own at *every*
    /// arrival — including events the §4.5 filter drops, which the batch
    /// path skips entirely. Expiring early is semantics-neutral: an
    /// instance whose window excludes the current timestamp also excludes
    /// every later one, and filtered events are never offered to
    /// instances, so the raw match set is unchanged — only its emission
    /// time moves earlier.
    pub(crate) fn expire<P: Probe>(
        &mut self,
        automaton: &Automaton,
        now: Timestamp,
        results: &mut Vec<RawMatch>,
        probe: &mut P,
    ) {
        let tau = automaton.tau();
        let expired = self
            .instances
            .partition_point(|i| i.buffer.min_ts().is_some_and(|min| now.distance(min) > tau));
        if expired == 0 {
            return;
        }
        let accept = automaton.accept();
        self.occupancy.shift_out(expired, self.instances.len());
        for instance in self.instances.drain(..expired) {
            probe.instance_expired();
            if instance.state == accept {
                probe.match_emitted();
                results.push(RawMatch {
                    bindings: self.log.to_sorted_bindings(instance.buffer),
                });
            }
        }
        self.log.trim(self.first_binding());
        debug_assert!(self.occupancy_is_exact(automaton));
    }

    /// Empties Ω, emitting the accepting buffers — the end-of-input flush.
    pub(crate) fn flush<P: Probe>(
        &mut self,
        accept: StateId,
        results: &mut Vec<RawMatch>,
        probe: &mut P,
    ) {
        self.occupancy.clear_from(0, self.instances.len());
        for instance in self.instances.drain(..) {
            if instance.state == accept {
                probe.match_emitted();
                results.push(RawMatch {
                    bindings: self.log.to_sorted_bindings(instance.buffer),
                });
            }
        }
    }

    /// The body of Algorithm 1's per-event iteration: spawn a fresh start
    /// instance, expire/emit, consume.
    ///
    /// `var_ok` is the "which variables can this event bind" mask for
    /// `event_id`: precomputed over the whole relation by a scan's lane
    /// pass, or handed to the push by the predicate index. An empty mask is the
    /// §4.5 filter's drop.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn process_event<P: Probe>(
        &mut self,
        automaton: &Automaton,
        relation: &Relation,
        selection: EventSelection,
        event_id: EventId,
        var_ok: u64,
        results: &mut Vec<RawMatch>,
        probe: &mut P,
    ) {
        let event = relation.event(event_id);

        probe.event_read();
        if var_ok == 0 {
            probe.event_filtered();
            return;
        }

        // Algorithm 1, line 4: a fresh instance per admitted event.
        self.instances.push(Instance {
            state: automaton.start(),
            buffer: Buffer::EMPTY,
        });
        probe.instance_spawned();
        self.expire(automaton, event.ts(), results, probe);

        let offer = Offer {
            automaton,
            relation,
            event,
            event_id,
            selection,
            var_ok,
        };
        // An instance none of whose outgoing transitions' variables is
        // admitted is idle: nothing can fire, and it stays. The occupancy
        // index names the others, so the pass visits those only, in Ω's
        // order — probe-identical to walking every instance, as an idle
        // one's transitions would all have been mask-skipped before
        // `transition_evaluated`.
        //
        // A visited instance rarely changes Ω's length: it stays put or
        // leaves one successor in its slot, until one leaves several
        // behind (or, being the fresh instance, none).
        let Omega {
            instances,
            scratch,
            log,
            occupancy,
        } = self;
        let fresh = instances.len() - 1;
        let mut cut = None;
        'walk: for w in 0..words_for(fresh) {
            let mut movable = occupancy.word(w, var_ok);
            while movable != 0 {
                let p = w * 64 + movable.trailing_zeros() as usize;
                movable &= movable - 1;
                let instance = instances[p];
                let keep_source = offer.to(&instance, log, scratch, probe);
                match (scratch.len(), keep_source) {
                    (0, true) => {}
                    (1, false) => {
                        let moved = indexed_vars(automaton, instance.state)
                            ^ indexed_vars(automaton, scratch[0].state);
                        occupancy.toggle(p, moved);
                        instances[p] = scratch[0];
                    }
                    _ => {
                        cut = Some((p, keep_source));
                        break 'walk;
                    }
                }
                scratch.clear();
            }
        }
        // The fresh instance, last and outside the index: a start-state
        // instance never lingers, so it leaves Ω unless it moves.
        if cut.is_none() {
            let instance = instances[fresh];
            if offer.is_idle(instance.state) {
                instances.pop();
            } else {
                offer.to(&instance, log, scratch, probe);
                match scratch.len() {
                    0 => {
                        instances.pop();
                    }
                    1 => {
                        occupancy.toggle(fresh, indexed_vars(automaton, scratch[0].state));
                        instances[fresh] = scratch[0];
                        scratch.clear();
                    }
                    _ => cut = Some((fresh, false)),
                }
            }
        }
        if let Some((first, keep_source)) = cut {
            let len = instances.len();
            rewrite_from(instances, scratch, log, first, keep_source, &offer, probe);
            occupancy.clear_from(first, len);
            for (p, instance) in instances.iter().enumerate().skip(first) {
                occupancy.toggle(p, indexed_vars(automaton, instance.state));
            }
        }
        debug_assert!(self.in_first_binding_order());
        debug_assert!(self.occupancy_is_exact(automaton));
        probe.omega(self.instances.len());
    }
}

/// Finishes [`Omega::process_event`] from instance `first`, whose
/// successors are in `scratch` and whose own fate `keep_source` says:
/// `instances[..kept]` is the new Ω so far, `instances[kept..=read]` slots
/// whose instance has been dealt with. Successors take the free slots
/// while they fit; from the first that does not, the rest of the new Ω
/// collects in `scratch` and is appended, so the order is the one a copy
/// of every instance into a second vector would give.
fn rewrite_from<P: Probe>(
    instances: &mut Vec<Instance>,
    scratch: &mut Vec<Instance>,
    log: &mut NodeLog,
    first: usize,
    keep_source: bool,
    offer: &Offer<'_>,
    probe: &mut P,
) {
    let start = offer.automaton.start();
    let mut kept = first;
    place(instances, scratch, &mut kept, first, 0, keep_source);
    for read in first + 1..instances.len() {
        let instance = instances[read];
        let idle = offer.is_idle(instance.state);
        let stays = idle && instance.state != start;
        if idle && scratch.is_empty() {
            if stays {
                instances.swap(kept, read);
                kept += 1;
            }
            continue;
        }
        let spilled = scratch.len();
        let keep_source = if idle {
            stays
        } else {
            offer.to(&instance, log, scratch, probe)
        };
        place(instances, scratch, &mut kept, read, spilled, keep_source);
    }
    instances.truncate(kept);
    instances.append(scratch);
}

/// Places instance `read`'s successors — `scratch[spilled..]` — and, when
/// `keep_source`, the instance itself after them, for [`rewrite_from`].
fn place(
    instances: &mut [Instance],
    scratch: &mut Vec<Instance>,
    kept: &mut usize,
    read: usize,
    spilled: usize,
    keep_source: bool,
) {
    let successors = scratch.len() - spilled;
    if spilled == 0 && *kept + successors + usize::from(keep_source) <= read + 1 {
        if keep_source && *kept + successors != read {
            instances.swap(*kept + successors, read);
        }
        for successor in scratch.drain(..) {
            instances[*kept] = successor;
            *kept += 1;
        }
        *kept += usize::from(keep_source);
    } else if keep_source {
        scratch.push(instances[read]);
    }
}

/// One event on offer to the instances of Ω.
struct Offer<'a> {
    automaton: &'a Automaton,
    relation: &'a Relation,
    event: &'a Event,
    event_id: EventId,
    selection: EventSelection,
    /// Bit *v*: the event satisfies every constant condition of `VarId(v)`.
    var_ok: u64,
}

impl Offer<'_> {
    /// `true` iff no outgoing transition of `state` binds a variable the
    /// event is admitted for.
    #[inline]
    fn is_idle(&self, state: StateId) -> bool {
        self.var_ok & self.automaton.outgoing_var_mask(state) == 0
    }

    /// Algorithm 2: offers the event to `instance`, which is not idle;
    /// pushes the successor instances into `out` and says whether
    /// `instance` itself stays in Ω, after them.
    fn to<P: Probe>(
        &self,
        instance: &Instance,
        log: &mut NodeLog,
        out: &mut Vec<Instance>,
        probe: &mut P,
    ) -> bool {
        let mut fired = 0usize;
        for transition in self.automaton.outgoing(instance.state) {
            // An event failing the bound variable's constant conditions
            // can never take this transition.
            if self.var_ok & transition.var.bit() == 0 {
                continue;
            }
            probe.transition_evaluated();
            if eval_conditions(
                self.automaton,
                self.relation,
                transition,
                log,
                instance.buffer,
                self.event,
            ) {
                probe.transition_taken();
                if fired > 0 {
                    probe.instance_branched();
                }
                fired += 1;
                out.push(Instance {
                    state: transition.target,
                    buffer: log.push(
                        instance.buffer,
                        transition.var,
                        self.event_id,
                        self.event.ts(),
                    ),
                });
            }
        }
        // The source instance survives when nothing fired (the event is
        // ignored — skip-till-next-match) or, under skip-till-any-match,
        // unconditionally (the run may *choose* to skip a matching event)
        // — a start-state instance excepted, as ever.
        let keep_source = instance.state != self.automaton.start()
            && (fired == 0 || self.selection == EventSelection::SkipTillAnyMatch);
        if keep_source && fired > 0 {
            probe.instance_branched();
        }
        keep_source
    }
}

/// Evaluates a transition's condition set `Θδ` against the incoming event
/// and the instance's buffer. Incremental decomposition semantics: only
/// the condition instances involving the new binding are checked here;
/// every other combination was checked when its own binding was added.
#[inline]
fn eval_conditions(
    automaton: &Automaton,
    relation: &Relation,
    transition: &Transition,
    log: &NodeLog,
    buffer: Buffer,
    event: &Event,
) -> bool {
    let pattern = automaton.pattern();
    let event_ts: Timestamp = event.ts();
    transition.conds.iter().all(|tc| match tc {
        // Constant conditions were verified through the admission mask:
        // the transition's variable bit is set only when all of them
        // hold.
        TransCond::Const { .. } => true,
        TransCond::SelfCmp { cond } => pattern.condition(*cond).eval_vars(event, event),
        TransCond::VsBound {
            cond,
            other,
            new_is_lhs,
        } => {
            let c = pattern.condition(*cond);
            log.bindings_of(buffer, *other).all(|b| {
                let other_event = relation.event(b.event);
                if *new_is_lhs {
                    c.eval_vars(event, other_event)
                } else {
                    c.eval_vars(other_event, event)
                }
            })
        }
        TransCond::TimeAfter { other } => log.bindings_of(buffer, *other).all(|b| b.ts < event_ts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoProbe;
    use ses_event::{AttrType, CmpOp, Duration, Schema};
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

    fn automaton(p: Pattern) -> Automaton {
        Automaton::build(p.compile(&schema()).unwrap()).unwrap()
    }

    fn run(a: &Automaton, r: &Relation) -> Vec<RawMatch> {
        execute(a, r, EventSelection::default(), &mut NoProbe)
    }

    fn names(a: &Automaton, m: &RawMatch) -> Vec<String> {
        m.bindings
            .iter()
            .map(|(v, e)| format!("{}/{}", a.pattern().pattern().var(*v).name(), e))
            .collect()
    }

    #[test]
    fn single_variable_pattern_matches_each_a() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .within(Duration::ticks(10))
            .build()
            .unwrap();
        let a = automaton(p);
        let r = rel(&[(0, 1, "A"), (1, 1, "B"), (2, 1, "A")]);
        let ms = run(&a, &r);
        assert_eq!(ms.len(), 2);
        assert_eq!(names(&a, &ms[0]), vec!["a/e1"]);
        assert_eq!(names(&a, &ms[1]), vec!["a/e3"]);
    }

    #[test]
    fn sequence_requires_strict_time_order() {
        // ⟨{a},{b}⟩ with a tie in timestamps: b at the same instant as a
        // must NOT match (strict v'.T < v.T).
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(10))
            .build()
            .unwrap();
        let a = automaton(p);
        let tie = rel(&[(5, 1, "A"), (5, 1, "B")]);
        assert!(run(&a, &tie).is_empty());
        let ok = rel(&[(5, 1, "A"), (6, 1, "B")]);
        assert_eq!(run(&a, &ok).len(), 1);
    }

    #[test]
    fn permutation_within_a_set_is_matched() {
        // ⟨{a, b}⟩: both orders of A-then-B and B-then-A match.
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(10))
            .build()
            .unwrap();
        let a = automaton(p);
        let ms = run(&a, &rel(&[(0, 1, "B"), (1, 1, "A")]));
        assert_eq!(ms.len(), 1);
        assert_eq!(names(&a, &ms[0]), vec!["b/e1", "a/e2"]);
        let ms = run(&a, &rel(&[(0, 1, "A"), (1, 1, "B")]));
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn window_expiry_drops_partial_matches() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        let a = automaton(p);
        // B arrives 6 ticks after A: outside τ = 5.
        assert!(run(&a, &rel(&[(0, 1, "A"), (6, 1, "B")])).is_empty());
        // Exactly at the window edge (distance 5 ≤ τ): matches.
        assert_eq!(run(&a, &rel(&[(0, 1, "A"), (5, 1, "B")])).len(), 1);
    }

    #[test]
    fn accepting_instance_emits_on_expiry_then_on_flush() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        let a = automaton(p);
        let r = rel(&[(0, 1, "A"), (100, 1, "A")]);
        struct Emitted(usize);
        impl crate::Probe for Emitted {
            fn match_emitted(&mut self) {
                self.0 += 1;
            }
        }
        let mut emitted = Emitted(0);
        let mut exec = Execution::new(&a, &r, EventSelection::default());
        assert!(exec.step(&mut emitted));
        assert_eq!(emitted.0, 0, "the first A's window is still open");
        // The second A's arrival expires the first A's instance → emitted.
        assert!(exec.step(&mut emitted));
        assert_eq!(emitted.0, 1);
        assert!(!exec.step(&mut emitted));
        assert_eq!(emitted.0, 1, "the second A's window is still open");
        // Its instance is still live at end of input: only the flush
        // emits it.
        let (ms, _) = exec.finish(&mut emitted);
        assert_eq!(emitted.0, 2);
        assert_eq!(names(&a, &ms[0]), vec!["a/e1"]);
        assert_eq!(names(&a, &ms[1]), vec!["a/e2"]);
    }

    #[test]
    fn group_variable_collects_multiple_events() {
        let p = Pattern::builder()
            .set(|s| s.plus("p"))
            .set(|s| s.var("b"))
            .cond_const("p", "L", CmpOp::Eq, "P")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(100))
            .build()
            .unwrap();
        let a = automaton(p);
        // One accepting run per starting P event (suffix runs are kept by
        // Definition 2 too, since their first bindings differ).
        let mut ms = run(
            &a,
            &rel(&[(0, 1, "P"), (1, 1, "P"), (2, 1, "P"), (3, 1, "B")]),
        );
        ms.sort();
        assert_eq!(ms.len(), 3);
        assert_eq!(names(&a, &ms[0]), vec!["p/e1", "p/e2", "p/e3", "b/e4"]);
        assert_eq!(names(&a, &ms[1]), vec!["p/e2", "p/e3", "b/e4"]);
        assert_eq!(names(&a, &ms[2]), vec!["p/e3", "b/e4"]);
    }

    #[test]
    fn variable_conditions_correlate_events() {
        // Same-ID correlation across two sets.
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
            .within(Duration::ticks(100))
            .build()
            .unwrap();
        let a = automaton(p);
        // B of a different patient must not match.
        let ms = run(&a, &rel(&[(0, 1, "A"), (1, 2, "B"), (2, 1, "B")]));
        assert_eq!(ms.len(), 1);
        assert_eq!(names(&a, &ms[0]), vec!["a/e1", "b/e3"]);
    }

    #[test]
    fn skip_till_next_match_ignores_interleaved_events() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(100))
            .build()
            .unwrap();
        let a = automaton(p);
        // X events between A and B are ignored: their admission mask is
        // empty, so they never reach the instances.
        struct Filtered(usize);
        impl crate::Probe for Filtered {
            fn event_filtered(&mut self) {
                self.0 += 1;
            }
        }
        let r = rel(&[(0, 1, "A"), (1, 1, "X"), (2, 1, "X"), (3, 1, "B")]);
        let mut filtered = Filtered(0);
        let ms = execute(&a, &r, EventSelection::default(), &mut filtered);
        assert_eq!((ms.len(), filtered.0), (1, 2));
    }

    #[test]
    fn nondeterminism_branches_instances() {
        // Two variables with the same constraint: an 'M' event can bind
        // either; two 'M' events yield both assignments.
        let p = Pattern::builder()
            .set(|s| s.var("x").var("y"))
            .cond_const("x", "L", CmpOp::Eq, "M")
            .cond_const("y", "L", CmpOp::Eq, "M")
            .within(Duration::ticks(100))
            .build()
            .unwrap();
        let cp = p.compile(&schema()).unwrap();
        let a = Automaton::build_paper(cp.clone()).unwrap();
        let r = rel(&[(0, 1, "M"), (1, 1, "M")]);
        let ms = run(&a, &r);
        // x/e1,y/e2 and y/e1,x/e2 — both are raw runs of the paper's
        // automaton; x and y are interchangeable, so the quotient the
        // matchers run takes the first only.
        let quotient = run(&Automaton::build(cp).unwrap(), &r);
        assert_eq!(quotient, [ms.iter().min().unwrap().clone()]);
        assert_eq!(ms.len(), 2);
        let mut sets: Vec<Vec<String>> = ms.iter().map(|m| names(&a, m)).collect();
        sets.sort();
        assert_eq!(
            sets,
            vec![
                vec!["x/e1".to_string(), "y/e2".to_string()],
                vec!["y/e1".to_string(), "x/e2".to_string()],
            ]
        );
    }

    #[test]
    fn skip_till_any_match_recovers_skipped_runs() {
        // ⟨{a},{x,y}⟩ on A X A Y: skip-till-next-match greedily binds the
        // first A…X…? — the run that waits for the second A only exists
        // under skip-till-any-match.
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("x").var("y"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("x", "L", CmpOp::Eq, "X")
            .cond_const("y", "L", CmpOp::Eq, "A")
            .within(Duration::ticks(100))
            .build()
            .unwrap();
        let a = automaton(p);
        let r = rel(&[(0, 1, "A"), (1, 1, "X"), (2, 1, "A"), (3, 1, "A")]);

        let stnm = run(&a, &r);
        let mut stam = execute(&a, &r, EventSelection::SkipTillAnyMatch, &mut NoProbe);
        stam.sort();
        stam.dedup();
        // STNM: instance at e1 binds a; e2 binds x; e3 binds y → one run
        // {a/e1,x/e2,y/e3}; the variant ending y/e4 requires *skipping*
        // e3 while x was already bound — impossible greedily.
        assert!(
            stnm.iter().all(
                |m| !m.bindings.contains(&(ses_pattern::VarId(2), EventId(3)))
                    || m.bindings.contains(&(ses_pattern::VarId(0), EventId(2)))
            ),
            "greedy runs cannot skip e3 for y"
        );
        // STAM is a superset and contains the skipped variant.
        for m in &stnm {
            assert!(stam.contains(m), "STAM must contain every greedy run");
        }
        assert!(
            stam.iter().any(|m| m.bindings
                == vec![
                    (ses_pattern::VarId(0), EventId(0)),
                    (ses_pattern::VarId(1), EventId(1)),
                    (ses_pattern::VarId(2), EventId(3)),
                ]),
            "{stam:?}"
        );
    }

    #[test]
    fn skip_till_any_match_explodes_instances() {
        // The cost of completeness: on a stream of n same-type events,
        // STAM's |Ω| grows exponentially while STNM stays polynomial.
        let p = Pattern::builder()
            .set(|s| s.plus("p"))
            .cond_const("p", "L", CmpOp::Eq, "M")
            .within(Duration::ticks(1000))
            .build()
            .unwrap();
        let a = automaton(p);
        let rows: Vec<(i64, i64, &str)> = (0..10).map(|i| (i, 1, "M")).collect();
        let r = rel(&rows);

        struct MaxOmega(usize);
        impl crate::Probe for MaxOmega {
            fn omega(&mut self, n: usize) {
                self.0 = self.0.max(n);
            }
        }
        let mut stnm = MaxOmega(0);
        execute(&a, &r, EventSelection::SkipTillNextMatch, &mut stnm);
        let mut stam = MaxOmega(0);
        execute(&a, &r, EventSelection::SkipTillAnyMatch, &mut stam);
        assert!(stnm.0 <= 10, "greedy p+ keeps one instance per start");
        assert!(
            stam.0 > 100,
            "any-match explores every subset: got {}",
            stam.0
        );
    }

    /// `⟨{a},{b}⟩` — or `⟨{a},{b},{c}⟩` with `c` — of types `A`, `B`
    /// (and `C`), every pair correlated on `ID`: an `A` leaves one
    /// instance waiting for its own `B`, so a run of `A`s grows Ω by one
    /// per event and a `B` moves exactly the instance of its `ID`.
    fn correlated_chain(with_c: bool, tau: i64) -> Automaton {
        let mut b = Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .cond_vars("a", "ID", CmpOp::Eq, "b", "ID");
        if with_c {
            b = b
                .set(|s| s.var("c"))
                .cond_const("c", "L", CmpOp::Eq, "C")
                .cond_vars("b", "ID", CmpOp::Eq, "c", "ID");
        }
        automaton(b.within(Duration::ticks(tau)).build().unwrap())
    }

    /// `n` `A` events at `ts` = `ID` = `0..n`.
    fn a_run(n: i64) -> Vec<(i64, i64, &'static str)> {
        (0..n).map(|i| (i, i, "A")).collect()
    }

    /// Steps `rows` through one execution under `selection`, holding the
    /// occupancy index to a rebuild after every step; returns the raw
    /// matches and the largest `|Ω|` seen.
    fn run_checked(
        a: &Automaton,
        rows: &[(i64, i64, &str)],
        selection: EventSelection,
    ) -> (Vec<RawMatch>, usize) {
        let r = rel(rows);
        let mut exec = Execution::new(a, &r, selection);
        let mut peak = 0;
        while exec.step(&mut NoProbe) {
            assert!(exec.omega.occupancy_is_exact(a), "at {}", exec.position());
            peak = peak.max(exec.omega_len());
        }
        (exec.finish(&mut NoProbe).0, peak)
    }

    /// The paper's Algorithm 1 over the same rows, sorted.
    fn reference(a: &Automaton, rows: &[(i64, i64, &str)]) -> Vec<RawMatch> {
        let r = rel(rows);
        let mut ms = crate::algorithm1(a, &r, (0..r.len()).map(EventId::from));
        ms.sort();
        ms
    }

    #[test]
    fn occupancy_holds_at_every_word_boundary() {
        let a = correlated_chain(false, 1000);
        for n in [63, 64, 65, 129] {
            let mut rows = a_run(n);
            // Movers at the last position, both sides of each boundary
            // and the first.
            for id in [n - 1, 62, 63, 64, 65, 127, 128, 0] {
                if id < n {
                    rows.push((n + rows.len() as i64, id, "B"));
                }
            }
            let (mut ms, peak) = run_checked(&a, &rows, EventSelection::SkipTillNextMatch);
            assert_eq!(peak, n as usize, "Ω must reach {n}");
            ms.sort();
            assert_eq!(ms, reference(&a, &rows), "n = {n}");
        }
    }

    #[test]
    fn expiry_shifts_the_index_across_word_boundaries() {
        let a = correlated_chain(false, 200);
        for k in [1, 63, 64, 65] {
            let r = rel(&a_run(130));
            let mut exec = Execution::new(&a, &r, EventSelection::SkipTillNextMatch);
            while exec.step(&mut NoProbe) {}
            assert_eq!(exec.omega_len(), 130);
            // Instances `..k` leave the window at 200 + k.
            let mut omega = std::mem::replace(&mut exec.omega, Omega::new(&a));
            let mut results = Vec::new();
            omega.expire(
                &a,
                Timestamp::new(200 + k as i64),
                &mut results,
                &mut NoProbe,
            );
            assert_eq!(omega.instances().len(), 130 - k, "k = {k}");
            assert!(omega.occupancy_is_exact(&a), "k = {k}");
            // Then the whole stream, with movers either side of the
            // boundaries the shift moved instances across.
            let mut rows = a_run(130);
            rows.push((200 + k as i64, 1000, "A"));
            let movers = [k + 62, k + 63, k + 64, k + 65, 129];
            for id in movers {
                rows.push((201 + k as i64, id as i64, "B"));
            }
            let (mut ms, _) = run_checked(&a, &rows, EventSelection::SkipTillNextMatch);
            ms.sort();
            assert_eq!(ms, reference(&a, &rows), "k = {k}");
            let live: std::collections::BTreeSet<_> =
                movers.iter().filter(|&&id| id < 130).collect();
            assert_eq!(ms.len(), live.len(), "k = {k}");
        }
    }

    #[test]
    fn the_index_names_a_lone_mover_at_position_64() {
        let a = correlated_chain(true, 1000);
        let r = rel(&[a_run(130), vec![(130, 64, "B")]].concat());
        let mut exec = Execution::new(&a, &r, EventSelection::SkipTillNextMatch);
        while exec.step(&mut NoProbe) {}
        assert_eq!(exec.omega_len(), 130);
        // Only the instance at 64 waits for `c`; every other for `b`.
        let var = |name| a.pattern().pattern().var_id(name).unwrap().bit();
        let (b, c) = (var("b"), var("c"));
        assert_eq!(exec.omega.occupancy.word(0, c), 0);
        assert_eq!(exec.omega.occupancy.word(1, c), 1);
        assert_eq!(exec.omega.occupancy.word(1, b), !1);
        assert_eq!(exec.omega.occupancy.word(2, b), 0b11);
        let rows = [a_run(130), vec![(130, 64, "B"), (131, 64, "C")]].concat();
        let (ms, _) = run_checked(&a, &rows, EventSelection::SkipTillNextMatch);
        assert_eq!(ms, reference(&a, &rows));
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn any_match_branches_rewrite_the_index_across_boundaries() {
        let a = correlated_chain(false, 1000);
        for n in [64, 65, 129] {
            let mut rows = a_run(n);
            // Each `B` of an `A` still waiting branches it: the source
            // stays behind its successor, one slot further on.
            for id in [n - 1, 63, 63, 64, n - 1] {
                rows.push((n + rows.len() as i64, id, "B"));
            }
            let (ms, peak) = run_checked(&a, &rows, EventSelection::SkipTillAnyMatch);
            assert!(peak > n as usize, "Ω must grow past {n}");
            let mut expected = Vec::new();
            for (j, &(_, id, l)) in rows.iter().enumerate() {
                if l == "B" && id < n {
                    expected.push(RawMatch {
                        bindings: vec![
                            (VarId(0), EventId::from(id as usize)),
                            (VarId(1), EventId::from(j)),
                        ],
                    });
                }
            }
            let mut ms = ms;
            ms.sort();
            expected.sort();
            assert_eq!(ms, expected, "n = {n}");
        }
    }

    #[test]
    fn a_restored_omega_past_two_words_continues_as_if_uninterrupted() {
        let a = correlated_chain(false, 300);
        let pattern = a.pattern().pattern().clone();
        let mut tail: Vec<(i64, i64, &str)> = [0, 63, 64, 65, 128, 149]
            .into_iter()
            .enumerate()
            .map(|(j, id)| (150 + j as i64, id, "B"))
            .collect();
        // Expires the first 100 instances, then moves two of the rest.
        tail.extend([(400, 2000, "A"), (401, 120, "B"), (402, 140, "B")]);
        let push = |sm: &mut crate::StreamMatcher, rows: &[(i64, i64, &str)]| {
            let mut out = Vec::new();
            for &(ts, id, l) in rows {
                let values = vec![Value::from(id), Value::from(l)];
                out.extend(sm.push(Timestamp::new(ts), values).unwrap());
            }
            out
        };
        let mut whole = crate::StreamMatcher::compile(&pattern, &schema()).unwrap();
        let mut cut = crate::StreamMatcher::compile(&pattern, &schema()).unwrap();
        let mut expected = push(&mut whole, &a_run(150));
        let mut got = push(&mut cut, &a_run(150));
        assert_eq!(cut.active_instances(), 150);
        let snap = cut.snapshot();
        let options = crate::MatcherOptions::default();
        let mut cut = crate::StreamMatcher::restore(&pattern, &schema(), options, &snap).unwrap();
        assert_eq!(cut.active_instances(), 150, "restore keeps Ω past 128");
        expected.extend(push(&mut whole, &tail));
        got.extend(push(&mut cut, &tail));
        expected.extend(whole.finish());
        got.extend(cut.finish());
        assert_eq!(got, expected);
        assert_eq!(got.len(), 8);
    }

    #[test]
    fn key_slots_follow_first_occurrence() {
        let r = rel(&[
            (0, 7, "A"),
            (1, 3, "A"),
            (2, 7, "B"),
            (3, 3, "B"),
            (4, 9, "A"),
        ]);
        let id = schema().attr_id("ID").unwrap();
        assert_eq!(key_slots(&r, id), (vec![0, 1, 0, 1, 2], vec![2, 2, 1]));
        assert_eq!(key_slots(&Relation::new(schema()), id), (vec![], vec![]));
    }

    #[test]
    fn partition_keys_group_exact_values() {
        let a = PartitionKey::of(&Value::from("web-1"));
        assert_eq!(a, PartitionKey::of(&Value::from("web-1")));
        assert_ne!(a, PartitionKey::of(&Value::from("web-2")));
        assert_ne!(
            PartitionKey::of(&Value::Float(0.0)),
            PartitionKey::of(&Value::Float(-0.0)),
            "distinct bit patterns are distinct partitions"
        );
        assert_eq!(PartitionKey::of(&Value::Int(3)), PartitionKey::Int(3));
    }

    #[test]
    fn empty_relation_yields_nothing() {
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .build()
            .unwrap();
        let a = automaton(p);
        assert!(run(&a, &Relation::new(schema())).is_empty());
    }
}
