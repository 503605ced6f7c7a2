//! Push-based, bounded-memory streaming matching.
//!
//! The paper evaluates finite relations, but event pattern matching is a
//! streaming technique at heart. [`StreamMatcher`] owns a relation and
//! exposes `push`: feed events one at a time (in timestamp order) and
//! receive **finalized matches** — matches that are already correct under
//! the configured [`crate::MatchSemantics`] and that no future event can
//! add, remove, or change. [`StreamMatcher::finish`] flushes whatever is
//! still undecided; concatenating every `push` result with the `finish`
//! result yields exactly the batch [`crate::Matcher::find`] answer
//! (each match exactly once).
//!
//! # Watermarks and eager emission
//!
//! The latest pushed timestamp is the stream's *watermark* `w`. Because
//! timestamps are non-decreasing and every match spans at most the
//! window `τ`, a candidate whose first binding is at `minT` is complete
//! once `w − minT > τ`: no run starting at `minT` can still grow. The
//! Definition-2 filters (conditions 4–5) and maximality are closed
//! within *first-binding groups* adjudicated in ascending order (see
//! [`crate::semantics`]), so each group is emitted the moment the
//! watermark passes `minT + τ` — not deferred to end of stream.
//!
//! # Bounded memory
//!
//! Five retained structures are pruned against the watermark:
//!
//! * **Events** — once no live run can bind or compare against an event
//!   (its timestamp precedes `w − τ`), it is evicted from the relation.
//!   Eviction keeps event ids stable ([`Relation::evict_before`]); what
//!   stays is stated on [`StreamMatcher::relation`].
//! * **Instances** — automaton runs whose window can no longer close are
//!   swept on *every* push (even filtered ones), emitting accepting
//!   buffers into the pending candidate set. Ω is in first-binding order,
//!   so the sweep is a binary search and a prefix drain.
//! * **Buffer nodes** — the [`NodeLog`] the instances' buffers live in
//!   drops the nodes bound before the first live instance's `minT`, once
//!   they are half of it.
//! * **Admitted events** — the per-variable viable-event lists the
//!   condition-4 swap test reads, appended to by each push that admits
//!   its event, are cut back with the relation, at the same eviction.
//! * **Killer matches** — emitted finals retained for maximality checks
//!   are dropped once `minT < w − 2τ` (no later group can reach back that
//!   far). Definition-2 survivors a final killed are never retained: a
//!   later victim of one is a victim of its killer too, which is still
//!   live (see [`crate::semantics`]).
//!
//! Steady-state memory is proportional to the number of events inside
//! one window `τ` (times a small constant for the compaction
//! hysteresis) — independent of stream length.

use std::collections::BTreeMap;

use ses_event::{Duration, Event, EventError, Relation, Schema, Timestamp, Value};
use ses_pattern::Pattern;

use crate::buffer::NodeLog;
use crate::columnar::{runs_columnar, var_mask, ColumnarBatch, ColumnarPlan};
use crate::engine::{Instance, Omega, RawMatch};
use crate::matcher::MatcherOptions;
use crate::matches::Match;
use crate::negation::passes_negations;
use crate::probe::{NoProbe, Probe};
use crate::semantics::{Adjudicator, GroupKey};
use crate::snapshot::{matcher_fingerprint, InstanceSnapshot, StreamSnapshot};
use crate::state::StateId;
use crate::{Automaton, CoreError};
use ses_event::EventId;

/// An incremental, push-based matcher with watermark-driven eviction.
#[derive(Debug)]
pub struct StreamMatcher {
    automaton: Automaton,
    options: MatcherOptions,
    relation: Relation,
    omega: Omega,
    /// Per-push engine output buffer, drained into `pending`.
    results: Vec<RawMatch>,
    /// Emitted accepting runs awaiting adjudication, grouped by first
    /// binding. `BTreeMap` gives the ascending group order adjudication
    /// requires.
    pending: BTreeMap<GroupKey, Vec<RawMatch>>,
    adjudicator: Adjudicator,
    watermark: Option<Timestamp>,
    emitted: usize,
    /// Columnar admission plan for [`StreamMatcher::push_batch`].
    columnar: ColumnarPlan,
    /// Pooled micro-batch admission buffers, reused across batches.
    columnar_batch: ColumnarBatch,
}

impl StreamMatcher {
    /// Compiles `pattern` against `schema` with default options.
    pub fn compile(pattern: &Pattern, schema: &Schema) -> Result<StreamMatcher, CoreError> {
        StreamMatcher::with_options(pattern, schema, MatcherOptions::default())
    }

    /// Compiles with explicit options.
    pub fn with_options(
        pattern: &Pattern,
        schema: &Schema,
        options: MatcherOptions,
    ) -> Result<StreamMatcher, CoreError> {
        let compiled = crate::matcher::compile_pattern(pattern, schema, &options)?;
        let automaton = Automaton::build(compiled)?;
        Ok(StreamMatcher::from_automaton(automaton, options))
    }

    /// Builds a stream matcher around an already constructed automaton —
    /// the bank clones one automaton per hash lane through here.
    pub(crate) fn from_automaton(automaton: Automaton, options: MatcherOptions) -> StreamMatcher {
        let adjudicator = Adjudicator::new(options.semantics, automaton.pattern());
        let columnar = ColumnarPlan::new(automaton.pattern());
        StreamMatcher {
            relation: Relation::new(automaton.pattern().schema().clone()),
            automaton,
            options,
            columnar,
            columnar_batch: ColumnarBatch::default(),
            omega: Omega::default(),
            results: Vec::new(),
            pending: BTreeMap::new(),
            adjudicator,
            watermark: None,
            emitted: 0,
        }
    }

    /// Pushes one event (timestamps must be non-decreasing) and returns
    /// the matches finalized at this push — already filtered under the
    /// configured [`crate::MatchSemantics`], never revised later.
    pub fn push(
        &mut self,
        ts: Timestamp,
        values: impl Into<Vec<Value>>,
    ) -> Result<Vec<Match>, EventError> {
        self.push_with_probe(ts, values, &mut NoProbe)
    }

    /// [`StreamMatcher::push`] with an instrumentation probe.
    pub fn push_with_probe<P: Probe>(
        &mut self,
        ts: Timestamp,
        values: impl Into<Vec<Value>>,
        probe: &mut P,
    ) -> Result<Vec<Match>, EventError> {
        in_order(self.watermark, ts)?;
        let id = self.relation.push_values(ts, values)?;
        Ok(self.advance_to(ts, Some((id, None)), probe))
    }

    /// Moves the clock to `ts` — the shared tail of every push flavor
    /// and of the heartbeat. `event` is an event already appended to the
    /// relation that the engine must run over, with its precomputed
    /// columnar verdict when it arrived in a
    /// [`StreamMatcher::push_batch`] long enough for one (`None` admits
    /// it per event); without an event only time passes.
    fn advance_to<P: Probe>(
        &mut self,
        ts: Timestamp,
        event: Option<(EventId, Option<u64>)>,
        probe: &mut P,
    ) -> Vec<Match> {
        self.watermark = Some(ts);
        let tau = self.automaton.tau();
        let mut out = Vec::new();
        // A provably unsatisfiable Θ never matches; retain the watermark
        // bookkeeping but skip the engine.
        if self.automaton.pattern().is_satisfiable() {
            // Retire runs whose window can no longer close *before* the
            // new event is processed — on every push, including filtered
            // ones (expiring early is observationally identical; see
            // `Omega::expire`). Their accepting buffers join `pending`.
            self.omega
                .expire(&self.automaton, ts, &mut self.results, probe);
            if let Some((id, var_ok)) = event {
                let var_ok = var_ok
                    .unwrap_or_else(|| var_mask(self.automaton.pattern(), self.relation.event(id)));
                self.omega.process_event(
                    &self.automaton,
                    &self.relation,
                    self.options.selection,
                    id,
                    var_ok,
                    &mut self.results,
                    probe,
                );
                // The mask's second consumer: the condition-4 swap test
                // finds this event among its alternatives from now on.
                // An event that is not admitted appends nothing.
                self.adjudicator.admit(
                    self.automaton.pattern(),
                    id,
                    self.relation.event(id),
                    var_ok,
                );
            }
            self.queue_results();
            out = self.drain_decidable(ts);
            // Killers older than 2τ can no longer contain any future group.
            self.adjudicator.prune_survivors(ts - tau - tau);
        }
        let evicted = self.relation.evict_before(ts - tau);
        if evicted > 0 {
            probe.events_evicted(evicted);
            // Here, not when a group next arrives: a matcher that admits
            // for ever and never completes a group stays O(window) too.
            self.adjudicator.evict_before(self.relation.first_index());
        }
        probe.retained_events(self.relation.len());
        self.emitted += out.len();
        out
    }

    /// Pushes a pre-built event. The event is *moved* into the
    /// relation (its payload is a shared `Arc` slice) — no values are
    /// copied.
    pub fn push_event(&mut self, event: Event) -> Result<Vec<Match>, EventError> {
        self.push_event_with_probe(event, &mut NoProbe)
    }

    /// [`StreamMatcher::push_event`] with an instrumentation probe.
    pub fn push_event_with_probe<P: Probe>(
        &mut self,
        event: Event,
        probe: &mut P,
    ) -> Result<Vec<Match>, EventError> {
        self.relation.schema().check_row(event.values())?;
        self.push_checked_event(event, probe)
    }

    /// [`StreamMatcher::push_event_with_probe`] for an event whose row
    /// the caller has already checked against this matcher's schema —
    /// the bank checks each row once, against the one schema all of its
    /// matchers were compiled with.
    pub(crate) fn push_checked_event<P: Probe>(
        &mut self,
        event: Event,
        probe: &mut P,
    ) -> Result<Vec<Match>, EventError> {
        let ts = event.ts();
        in_order(self.watermark, ts)?;
        let id = self.relation.push_event(event)?;
        Ok(self.advance_to(ts, Some((id, None)), probe))
    }

    /// Pushes a micro-batch of events and returns the concatenation of
    /// the per-event results — match-for-match and in the same order as
    /// pushing each event individually, so batch boundaries never change
    /// emission timing (see `docs/columnar.md`).
    ///
    /// When [`runs_columnar`] holds for the batch length, constant
    /// conditions are pre-evaluated once over the whole batch into
    /// bitmask vectors (single-event and sub-threshold batches take the
    /// per-push path).
    ///
    /// Unlike sequential pushes, an invalid batch (out-of-order
    /// timestamp or schema violation anywhere in it) is rejected as a
    /// whole: the error is returned and **no** event is consumed.
    pub fn push_batch(&mut self, events: Vec<Event>) -> Result<Vec<Match>, EventError> {
        self.push_batch_with_probe(events, &mut NoProbe)
    }

    /// [`StreamMatcher::push_batch`] with an instrumentation probe.
    pub fn push_batch_with_probe<P: Probe>(
        &mut self,
        events: Vec<Event>,
        probe: &mut P,
    ) -> Result<Vec<Match>, EventError> {
        // Validate the whole batch before consuming anything.
        let mut w = self.watermark;
        for event in &events {
            in_order(w, event.ts())?;
            self.relation.schema().check_row(event.values())?;
            w = Some(event.ts());
        }
        // Columnar admission over the batch, when it is long enough.
        // Evaluating before the events enter the relation is safe: lanes
        // read only the events' own attributes — their rows: a
        // micro-batch is read once, so a dictionary would cost the pass
        // it saves.
        let columnar = runs_columnar(self.columnar.num_lanes(), events.len())
            && self.automaton.pattern().is_satisfiable();
        if columnar {
            self.columnar.evaluate(
                events.len(),
                |i| &events[i],
                |_| None,
                &mut self.columnar_batch,
            );
        }
        let mut out = Vec::new();
        for (i, event) in events.into_iter().enumerate() {
            let ts = event.ts();
            let var_ok = columnar.then(|| self.columnar_batch.admission(i));
            let id = self
                .relation
                .push_event(event)
                .expect("batch order validated upfront");
            out.extend(self.advance_to(ts, Some((id, var_ok)), probe));
        }
        Ok(out)
    }

    /// Advances the watermark to `ts` *without* pushing an event and
    /// returns the matches that finalizes: expired runs are swept,
    /// decidable pending groups adjudicated, and old events evicted,
    /// exactly as a push at `ts` would — the heartbeat a bank sends to
    /// the patterns and lanes an event was not routed to, so their
    /// matches emit on time. No-op (empty
    /// result) when `ts` does not advance the watermark or the stream
    /// has seen no events yet. Subsequent pushes before `ts` are
    /// rejected as out of order.
    pub fn advance_watermark(&mut self, ts: Timestamp) -> Vec<Match> {
        self.advance_watermark_with_probe(ts, &mut NoProbe)
    }

    /// [`StreamMatcher::advance_watermark`] with an instrumentation
    /// probe.
    pub fn advance_watermark_with_probe<P: Probe>(
        &mut self,
        ts: Timestamp,
        probe: &mut P,
    ) -> Vec<Match> {
        // A stream with no events has nothing pending; staying at
        // watermark `None` also keeps any first push acceptable.
        let Some(w) = self.watermark else {
            return Vec::new();
        };
        if ts <= w {
            return Vec::new();
        }
        self.advance_to(ts, None, probe)
    }

    /// The *emission deadline*: the smallest watermark at which
    /// [`StreamMatcher::advance_watermark`] could decide a candidate, or
    /// `None` when no heartbeat, however late, ever would. Below it a
    /// heartbeat emits nothing and leaves the pending groups as they
    /// are, so whoever drives this matcher's clock (the bank) may
    /// withhold heartbeats until then without changing any output.
    ///
    /// A candidate is decided at one of two instants:
    ///
    /// * **expiry** — the first *accepting* instance's `minT + τ + 1`,
    ///   when its window closes and it joins the pending groups. Ω is in
    ///   first-binding order, so the first accepting instance is the
    ///   earliest;
    /// * **adjudication** — the first pending group's `minT + τ + 1`
    ///   (groups ascend with `minT`, so the first is the earliest).
    ///
    /// What a withheld heartbeat would also have done — sweep expired
    /// non-accepting instances, evict the window, prune killers — emits
    /// nothing and waits for whatever next moves the clock: a push, or a
    /// heartbeat at or past the deadline. Deferring it grows nothing:
    /// only a push adds to the window, Ω or the killers, and every push
    /// runs all of it. [`StreamMatcher::snapshot`] writes the logical
    /// window, so a checkpoint does not show it either.
    pub fn next_deadline(&self) -> Option<Timestamp> {
        // A stream that has seen no event ignores heartbeats altogether.
        self.watermark?;
        if !self.automaton.pattern().is_satisfiable() {
            return None;
        }
        debug_assert!(self.results.is_empty(), "results drain before push returns");
        let accept = self.automaton.accept();
        let expiry = self
            .omega
            .instances()
            .iter()
            .find(|inst| inst.state == accept)
            .and_then(|inst| inst.buffer.min_ts());
        let adjudicate = self
            .pending
            .keys()
            .next()
            .map(|&(event, _)| self.relation.event(event).ts());
        let min_ts = expiry.into_iter().chain(adjudicate).min()?;
        let (tau, one) = (self.automaton.tau(), Duration::ticks(1));
        Some(min_ts.saturating_add(tau).saturating_add(one))
    }

    /// The retained relation: the events with `ts ≥ watermark − τ`, plus
    /// the compaction hysteresis ([`Relation::evict_before`] only
    /// compacts once half of what is retained precedes the cutoff). Event
    /// ids stay global — [`Relation::evicted`] says how many ids precede
    /// the first retained event. [`crate::Matcher::find`], which never
    /// evicts, is the reference every emitted match is held to.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// Current number of active instances `|Ω|`.
    pub fn active_instances(&self) -> usize {
        self.omega.instances().len()
    }

    /// The active instances `Ω`, in first-binding order.
    pub fn instances(&self) -> &[Instance] {
        self.omega.instances()
    }

    /// The node log the instances' buffers read from.
    pub fn log(&self) -> &NodeLog {
        self.omega.log()
    }

    /// Finalized matches returned by `push` calls so far (excludes
    /// whatever [`StreamMatcher::finish`] will still return).
    pub fn emitted_so_far(&self) -> usize {
        self.emitted
    }

    /// The latest pushed timestamp, if any.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.watermark
    }

    /// Number of events currently retained in the relation.
    pub fn retained_events(&self) -> usize {
        self.relation.len()
    }

    /// Total number of events evicted so far.
    pub fn evicted_events(&self) -> usize {
        self.relation.evicted()
    }

    /// Accepting runs buffered for adjudication (their windows may still
    /// admit competing runs).
    pub fn pending_candidates(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }

    /// Emitted finals retained as maximality killers for groups still to
    /// come (pruned against the watermark like everything else). A
    /// Definition-2 survivor that a retained final killed is not kept:
    /// every later victim of it is a victim of that final too.
    pub fn retained_killers(&self) -> usize {
        self.adjudicator.survivor_count()
    }

    /// The per-variable viable-event lists admission has filled, for
    /// tests.
    #[cfg(test)]
    pub(crate) fn viable_lists(&self) -> &[Vec<(EventId, Timestamp)>] {
        self.adjudicator.viable_lists()
    }

    /// Captures the matcher's complete dynamic state — the retained
    /// window, Ω, pending adjudication groups, killer survivors,
    /// watermark, and emitted-match count — as a [`StreamSnapshot`].
    ///
    /// The snapshot plus the pattern/schema/options used to build this
    /// matcher fully determine future behavior:
    /// [`StreamMatcher::restore`] yields a matcher whose subsequent
    /// emissions are identical to this one's.
    ///
    /// The window written is the logical one: every event before
    /// `watermark − τ` is evicted first, below the compaction hysteresis
    /// too, so matchers that evicted at different cutoffs on the way to
    /// one state write the same bytes. No emission reads below that
    /// cutoff.
    pub fn snapshot(&mut self) -> StreamSnapshot {
        // `results` is always drained before `push` returns, but queue
        // defensively so the invariant is local.
        self.queue_results();
        if let Some(w) = self.watermark {
            if self.relation.evict_all_before(w - self.automaton.tau()) > 0 {
                self.adjudicator.evict_before(self.relation.first_index());
            }
        }
        let log = self.omega.log();
        let instances = self
            .omega
            .instances()
            .iter()
            .map(|inst| InstanceSnapshot {
                state: inst.state.0,
                bindings: log
                    .bindings(inst.buffer)
                    .into_iter()
                    .map(|b| (b.var, b.event, b.ts))
                    .collect(),
            })
            .collect();
        StreamSnapshot {
            fingerprint: self.fingerprint(),
            watermark: self.watermark,
            evicted: self.relation.evicted() as u64,
            last_ts: self.relation.last_ts(),
            events: self.relation.events().to_vec(),
            instances,
            pending: self
                .pending
                .values()
                .flatten()
                .map(|raw| raw.bindings.clone())
                .collect(),
            survivors: self
                .adjudicator
                .survivors()
                .iter()
                .map(|(ts, m)| (*ts, m.bindings().to_vec()))
                .collect(),
            emitted: self.emitted as u64,
        }
    }

    /// Rebuilds a matcher from the pattern/schema/options it was
    /// compiled with and a [`StreamSnapshot`] taken from it. Fails with
    /// [`CoreError::SnapshotMismatch`] when the snapshot was taken under
    /// a different pattern, schema, or semantics, or is internally
    /// inconsistent.
    pub fn restore(
        pattern: &Pattern,
        schema: &Schema,
        options: MatcherOptions,
        snapshot: &StreamSnapshot,
    ) -> Result<StreamMatcher, CoreError> {
        let mut sm = StreamMatcher::with_options(pattern, schema, options)?;
        sm.apply_snapshot(snapshot)?;
        Ok(sm)
    }

    /// The matcher's pattern/schema/options fingerprint (see
    /// [`crate::snapshot`]).
    pub(crate) fn fingerprint(&self) -> u64 {
        matcher_fingerprint(&self.automaton, &self.options)
    }

    /// The compiled pattern the automaton runs — after any analyzer
    /// rewrites. The bank builds its predicate index from this, so the
    /// index always reasons about exactly the Θ the engine evaluates.
    pub(crate) fn compiled(&self) -> &ses_pattern::CompiledPattern {
        self.automaton.pattern()
    }

    /// The options the matcher was compiled with.
    pub(crate) fn options(&self) -> &MatcherOptions {
        &self.options
    }

    /// Overwrites this matcher's dynamic state with `snap` — shared by
    /// [`StreamMatcher::restore`] and the bank's manifest restore.
    pub(crate) fn apply_snapshot(&mut self, snap: &StreamSnapshot) -> Result<(), CoreError> {
        let mismatch = |reason: String| CoreError::SnapshotMismatch { reason };
        let expected = self.fingerprint();
        if snap.fingerprint != expected {
            return Err(mismatch(format!(
                "fingerprint {:#018x} does not match this matcher's {expected:#018x} \
                 (different pattern, schema, or options)",
                snap.fingerprint
            )));
        }
        let schema = self.automaton.pattern().schema().clone();
        let relation = Relation::restore(
            schema,
            snap.evicted as usize,
            snap.events.clone(),
            snap.last_ts,
        )
        .map_err(|e| mismatch(format!("invalid relation window: {e}")))?;
        if let (Some(w), Some(last)) = (snap.watermark, snap.last_ts) {
            if w < last {
                return Err(mismatch(format!(
                    "watermark {w} behind the last pushed timestamp {last}"
                )));
            }
        }
        self.check_instances(&snap.instances, &relation)
            .map_err(mismatch)?;
        for bindings in &snap.pending {
            if bindings.is_empty() {
                return Err(mismatch("pending match with no bindings".to_string()));
            }
        }
        self.relation = relation;
        self.omega = Omega::restore(
            snap.instances
                .iter()
                .map(|inst| (StateId(inst.state), &inst.bindings[..])),
        );
        self.results = snap
            .pending
            .iter()
            .map(|bindings| RawMatch {
                bindings: bindings.clone(),
            })
            .collect();
        self.pending.clear();
        self.queue_results();
        self.adjudicator = Adjudicator::new(self.options.semantics, self.automaton.pattern());
        self.readmit_retained();
        self.adjudicator.restore_survivors(
            snap.survivors
                .iter()
                .map(|(ts, b)| (*ts, Match::from_bindings(b.clone())))
                .collect(),
        );
        self.watermark = snap.watermark;
        self.emitted = snap.emitted as usize;
        Ok(())
    }

    /// Refuses a snapshot's Ω unless it can be what a running matcher
    /// holds over `relation`, the window restored beside it: every state
    /// and variable in range; every instance binding at least one event,
    /// each a retained event at its own timestamp, strictly ascending by
    /// event (hence in time order); the instances ascending by first
    /// binding. Without these the expiry cut and the node log's trim,
    /// which rely on both orders, would silently drop live state.
    fn check_instances(
        &self,
        instances: &[InstanceSnapshot],
        relation: &Relation,
    ) -> Result<(), String> {
        let num_states = self.automaton.num_states() as u32;
        let num_vars = self.automaton.pattern().pattern().num_vars();
        let mut previous: Option<Timestamp> = None;
        for (i, inst) in instances.iter().enumerate() {
            if inst.state >= num_states {
                return Err(format!(
                    "instance state {} out of range (automaton has {num_states} states)",
                    inst.state
                ));
            }
            let Some(&(_, _, first)) = inst.bindings.first() else {
                return Err(format!("instance {i} binds no event"));
            };
            if previous.is_some_and(|p| first < p) {
                return Err(format!(
                    "instance {i} starts at {first}, before the one ahead of it: \
                     Ω is not in first-binding order"
                ));
            }
            previous = Some(first);
            for (j, &(var, event, ts)) in inst.bindings.iter().enumerate() {
                if var.index() >= num_vars {
                    return Err(format!(
                        "instance {i} binds variable {var} out of range \
                         (pattern has {num_vars} variables)"
                    ));
                }
                if event.index() < relation.first_index() {
                    return Err(format!(
                        "instance {i} binds {event}, which precedes the retained window \
                         (first retained event e{})",
                        relation.first_index() + 1
                    ));
                }
                let retained = relation
                    .events()
                    .get(event.index() - relation.first_index());
                if retained.is_none_or(|e| e.ts() != ts) {
                    return Err(format!(
                        "instance {i} binds {event} at {ts}, which is no retained event \
                         at that time"
                    ));
                }
                if j > 0 && event <= inst.bindings[j - 1].1 {
                    return Err(format!(
                        "instance {i} binds {event} after {}: bindings must ascend \
                         strictly by event",
                        inst.bindings[j - 1].1
                    ));
                }
            }
        }
        Ok(())
    }

    /// Tells a fresh adjudicator of the retained events — what the
    /// pushes that brought them in told the one a snapshot was taken
    /// from. Admission masks are not part of a snapshot; they are a
    /// function of the event alone, so re-admitting gives them back.
    fn readmit_retained(&mut self) {
        let pattern = self.automaton.pattern();
        if !pattern.is_satisfiable() {
            return;
        }
        let first = self.relation.first_index();
        for (i, event) in self.relation.events().iter().enumerate() {
            self.adjudicator.admit(
                pattern,
                EventId::from(first + i),
                event,
                var_mask(pattern, event),
            );
        }
    }

    /// Number of already-consumed events a log replay starting at
    /// [`Relation::last_ts`] must **skip**: the retained events tied at
    /// the last pushed timestamp. Events at the last pushed timestamp
    /// are never evicted (the eviction cutoff is strictly below the
    /// watermark), so this count is always recoverable from the retained
    /// window — the cornerstone of the exactly-once replay protocol in
    /// `docs/durability.md`.
    pub fn ties_at_watermark(&self) -> usize {
        let Some(last) = self.relation.last_ts() else {
            return 0;
        };
        self.relation
            .events()
            .iter()
            .rev()
            .take_while(|e| e.ts() == last)
            .count()
    }

    /// Ends the stream: flushes accepting instances, adjudicates every
    /// remaining group, and returns the matches **not already emitted**
    /// by `push` — together with those, exactly the batch answer.
    pub fn finish(mut self) -> Vec<Match> {
        self.omega
            .flush(self.automaton.accept(), &mut self.results, &mut NoProbe);
        self.queue_results();
        let pending = std::mem::take(&mut self.pending);
        let mut out = Vec::new();
        for (_, group) in pending {
            out.extend(self.adjudicate(group));
        }
        out.sort();
        out
    }

    /// Moves freshly emitted accepting runs into their first-binding
    /// groups.
    fn queue_results(&mut self) {
        for raw in self.results.drain(..) {
            let (var, event) = raw.bindings[0];
            self.pending.entry((event, var)).or_default().push(raw);
        }
    }

    /// Adjudicates (in ascending group order) every pending group whose
    /// window the watermark has passed. Such groups can no longer gain
    /// candidates — their runs were already swept — and their verdicts
    /// are final.
    fn drain_decidable(&mut self, watermark: Timestamp) -> Vec<Match> {
        let tau = self.automaton.tau();
        let mut out = Vec::new();
        while let Some((&(event, var), _)) = self.pending.iter().next() {
            // Group keys ascend with `minT`, so the first undecidable
            // group ends the scan. The first event of a pending group is
            // never evicted: eviction runs after adjudication and only
            // reaches `watermark − τ`, which undecided groups straddle.
            let min_ts = self.relation.event(event).ts();
            if watermark.distance(min_ts) <= tau {
                break;
            }
            let group = self.pending.remove(&(event, var)).unwrap();
            out.extend(self.adjudicate(group));
        }
        out
    }

    /// Runs one complete group through negation filtering and the shared
    /// batch/stream adjudicator.
    fn adjudicate(&mut self, group: Vec<RawMatch>) -> Vec<Match> {
        let pattern = self.automaton.pattern();
        let mut group: Vec<Match> = group
            .into_iter()
            .filter(|r| passes_negations(r, &self.relation, pattern))
            .map(Match::from_raw)
            .collect();
        group.sort();
        group.dedup();
        self.adjudicator
            .adjudicate_group(group, &self.relation, pattern)
    }
}

/// Refuses a timestamp behind `watermark`. The check is against the
/// *watermark*, not just the relation's last event:
/// [`StreamMatcher::advance_watermark`] can move the watermark past the
/// last pushed timestamp, and accepting an older event afterwards would
/// be unsound (its window was already adjudicated).
fn in_order(watermark: Option<Timestamp>, ts: Timestamp) -> Result<(), EventError> {
    match watermark {
        Some(w) if ts < w => Err(EventError::OutOfOrder {
            previous: w.ticks(),
            got: ts.ticks(),
        }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matcher;
    use ses_event::{AttrType, CmpOp};

    fn schema() -> Schema {
        Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .build()
            .unwrap()
    }

    fn ab_pattern() -> Pattern {
        Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(5))
            .build()
            .unwrap()
    }

    #[test]
    fn streaming_emits_on_window_expiry() {
        let mut sm = StreamMatcher::compile(&ab_pattern(), &schema()).unwrap();
        assert!(sm
            .push(Timestamp::new(0), [Value::from(1), Value::from("B")])
            .unwrap()
            .is_empty());
        assert!(sm
            .push(Timestamp::new(1), [Value::from(1), Value::from("A")])
            .unwrap()
            .is_empty());
        assert!(sm.active_instances() > 0);
        // Even a *filtered* event (satisfies no constant condition)
        // advances the watermark: the expiry sweep runs on every push,
        // so the match is finalized here, not deferred to the next
        // pattern-relevant event.
        let emitted = sm
            .push(Timestamp::new(100), [Value::from(1), Value::from("X")])
            .unwrap();
        assert_eq!(emitted.len(), 1, "watermark finalizes eagerly");
        assert_eq!(emitted[0].to_string(), "{v1/e1, v0/e2}");
        assert_eq!(sm.emitted_so_far(), 1);
        // The decided window is also reclaimed: only the fresh event
        // remains retained.
        assert_eq!(sm.retained_events(), 1);
        assert_eq!(sm.evicted_events(), 2);
        // Nothing left for later pushes or finish — exactly-once.
        let emitted = sm
            .push(Timestamp::new(101), [Value::from(1), Value::from("B")])
            .unwrap();
        assert!(emitted.is_empty());
        assert!(sm.finish().is_empty());
    }

    #[test]
    fn finish_agrees_with_batch_matcher() {
        let rows: &[(i64, i64, &str)] = &[
            (0, 1, "A"),
            (1, 1, "B"),
            (3, 1, "X"),
            (10, 1, "B"),
            (12, 1, "A"),
            (30, 1, "A"),
        ];
        let schema = schema();
        let pattern = ab_pattern();

        let mut rel = Relation::new(schema.clone());
        let mut sm = StreamMatcher::compile(&pattern, &schema).unwrap();
        let mut streamed = Vec::new();
        for (t, id, l) in rows {
            let values = [Value::from(*id), Value::from(*l)];
            rel.push_values(Timestamp::new(*t), values.clone()).unwrap();
            streamed.extend(sm.push(Timestamp::new(*t), values).unwrap());
        }
        assert!(sm.evicted_events() > 0, "old windows were reclaimed");
        streamed.extend(sm.finish());
        let mut batch = Matcher::compile(&pattern, &schema).unwrap().find(&rel);
        streamed.sort();
        batch.sort();
        assert_eq!(streamed, batch);
        assert!(!streamed.is_empty());
    }

    #[test]
    fn boundary_event_at_watermark_minus_tau_survives() {
        // a@0 … b@5 is exactly τ apart — a valid match whose last event
        // sits exactly on the eviction cutoff when the watermark reaches
        // 10. Strict eviction (`ts < w − τ`) must keep it until decided.
        let mut sm = StreamMatcher::compile(&ab_pattern(), &schema()).unwrap();
        sm.push(Timestamp::new(0), [Value::from(1), Value::from("A")])
            .unwrap();
        sm.push(Timestamp::new(5), [Value::from(1), Value::from("B")])
            .unwrap();
        let emitted = sm
            .push(Timestamp::new(10), [Value::from(1), Value::from("X")])
            .unwrap();
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].to_string(), "{v0/e1, v1/e2}");
        // Push further so the hysteresis threshold is met and the decided
        // window is physically reclaimed.
        sm.push(Timestamp::new(12), [Value::from(1), Value::from("X")])
            .unwrap();
        assert_eq!(sm.evicted_events(), 2);
        assert_eq!(sm.retained_events(), 2);
        assert!(sm.finish().is_empty());
    }

    #[test]
    fn equal_timestamps_across_the_horizon() {
        // Two complete pairs at a single timestamp each, pushed through a
        // window small enough that the first pair is decided and evicted
        // while the second is still live.
        let pattern = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(3))
            .build()
            .unwrap();
        let schema = schema();
        let rows: &[(i64, &str)] = &[(0, "A"), (0, "B"), (5, "A"), (5, "B"), (9, "X")];

        let mut rel = Relation::new(schema.clone());
        let mut sm = StreamMatcher::compile(&pattern, &schema).unwrap();
        let mut streamed = Vec::new();
        for (t, l) in rows {
            let values = [Value::from(1), Value::from(*l)];
            rel.push_values(Timestamp::new(*t), values.clone()).unwrap();
            streamed.extend(sm.push(Timestamp::new(*t), values).unwrap());
        }
        assert_eq!(streamed.len(), 2, "both equal-ts pairs finalized eagerly");
        assert!(sm.evicted_events() > 0);
        streamed.extend(sm.finish());
        streamed.sort();
        let mut batch = Matcher::compile(&pattern, &schema).unwrap().find(&rel);
        batch.sort();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn group_bindings_straddling_the_eviction_point() {
        // A `p+` group whose bindings span almost the whole window: when
        // the group is adjudicated, its earliest binding is already past
        // the *next* eviction cutoff — adjudication must run first.
        let pattern = Pattern::builder()
            .set(|s| s.plus("p"))
            .set(|s| s.var("b"))
            .cond_const("p", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        let schema = schema();
        let rows: &[(i64, &str)] = &[(0, "A"), (3, "A"), (4, "B"), (10, "X"), (12, "X")];

        let mut rel = Relation::new(schema.clone());
        let mut sm = StreamMatcher::compile(&pattern, &schema).unwrap();
        let mut streamed = Vec::new();
        for (t, l) in rows {
            let values = [Value::from(1), Value::from(*l)];
            rel.push_values(Timestamp::new(*t), values.clone()).unwrap();
            streamed.extend(sm.push(Timestamp::new(*t), values).unwrap());
        }
        assert_eq!(sm.evicted_events(), 3, "the decided group was reclaimed");
        streamed.extend(sm.finish());
        streamed.sort();
        let mut batch = Matcher::compile(&pattern, &schema).unwrap().find(&rel);
        batch.sort();
        assert_eq!(streamed, batch);
        // The maximal match binds both A events and the B.
        assert!(streamed.iter().any(|m| m.bindings().len() == 3));
    }

    #[test]
    fn out_of_order_rejected_even_after_total_eviction() {
        // Evict *everything*, then verify the order check still holds
        // (it relies on the cached last-pushed timestamp, not on any
        // retained event) and that matching continues cleanly.
        let mut sm = StreamMatcher::compile(&ab_pattern(), &schema()).unwrap();
        sm.push(Timestamp::new(0), [Value::from(1), Value::from("A")])
            .unwrap();
        sm.push(Timestamp::new(100), [Value::from(1), Value::from("X")])
            .unwrap();
        sm.push(Timestamp::new(200), [Value::from(1), Value::from("X")])
            .unwrap();
        assert_eq!(sm.retained_events(), 1, "history fully reclaimed");
        let err = sm
            .push(Timestamp::new(150), [Value::from(1), Value::from("A")])
            .unwrap_err();
        assert!(matches!(err, EventError::OutOfOrder { .. }));
        // Still fully operational after the rejection.
        sm.push(Timestamp::new(300), [Value::from(1), Value::from("A")])
            .unwrap();
        sm.push(Timestamp::new(301), [Value::from(1), Value::from("B")])
            .unwrap();
        let emitted = sm
            .push(Timestamp::new(400), [Value::from(1), Value::from("X")])
            .unwrap();
        assert_eq!(emitted.len(), 1);
        assert!(sm.finish().is_empty());
    }

    #[test]
    fn out_of_order_push_is_rejected() {
        let mut sm = StreamMatcher::compile(&ab_pattern(), &schema()).unwrap();
        sm.push(Timestamp::new(5), [Value::from(1), Value::from("A")])
            .unwrap();
        let err = sm
            .push(Timestamp::new(4), [Value::from(1), Value::from("B")])
            .unwrap_err();
        assert!(matches!(err, EventError::OutOfOrder { .. }));
        // The matcher stays usable.
        assert!(sm
            .push(Timestamp::new(6), [Value::from(1), Value::from("B")])
            .unwrap()
            .is_empty());
        assert_eq!(sm.finish().len(), 1);
    }

    #[test]
    fn push_event_and_accessors() {
        let mut sm = StreamMatcher::compile(&ab_pattern(), &schema()).unwrap();
        let e = Event::new(Timestamp::new(0), vec![Value::from(1), Value::from("A")]);
        sm.push_event(e).unwrap();
        assert_eq!(sm.relation().len(), 1);
        assert_eq!(sm.active_instances(), 1);
        assert_eq!(sm.emitted_so_far(), 0);
    }

    #[test]
    fn advance_watermark_finalizes_and_evicts() {
        let mut sm = StreamMatcher::compile(&ab_pattern(), &schema()).unwrap();
        sm.push(Timestamp::new(0), [Value::from(1), Value::from("A")])
            .unwrap();
        sm.push(Timestamp::new(1), [Value::from(1), Value::from("B")])
            .unwrap();
        // No event arrives, but the clock (a bank's global watermark)
        // moves on: the pending match finalizes and the old
        // window is reclaimed.
        let out = sm.advance_watermark(Timestamp::new(100));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to_string(), "{v0/e1, v1/e2}");
        assert_eq!(sm.emitted_so_far(), 1);
        assert_eq!(sm.watermark(), Some(Timestamp::new(100)));
        assert_eq!(sm.retained_events(), 0);
        assert_eq!(sm.evicted_events(), 2);
        // The advanced watermark holds for the order check: an event
        // older than it must be rejected even though the relation's own
        // last event is much older.
        let err = sm
            .push(Timestamp::new(50), [Value::from(1), Value::from("A")])
            .unwrap_err();
        assert!(matches!(
            err,
            EventError::OutOfOrder {
                previous: 100,
                got: 50
            }
        ));
        // Still fully operational at and after the watermark.
        sm.push(Timestamp::new(100), [Value::from(1), Value::from("A")])
            .unwrap();
        sm.push(Timestamp::new(101), [Value::from(1), Value::from("B")])
            .unwrap();
        assert_eq!(sm.finish().len(), 1);
    }

    #[test]
    fn advance_watermark_is_a_noop_when_fresh_or_stale() {
        let mut sm = StreamMatcher::compile(&ab_pattern(), &schema()).unwrap();
        // A stream with no events has nothing pending, and advancing it
        // must not wedge the first real push.
        assert!(sm.advance_watermark(Timestamp::new(50)).is_empty());
        assert_eq!(sm.watermark(), None);
        sm.push(Timestamp::new(5), [Value::from(1), Value::from("A")])
            .unwrap();
        // A stale (≤ watermark) advance changes nothing.
        assert!(sm.advance_watermark(Timestamp::new(5)).is_empty());
        assert!(sm.advance_watermark(Timestamp::new(3)).is_empty());
        assert_eq!(sm.watermark(), Some(Timestamp::new(5)));
        sm.push(Timestamp::new(6), [Value::from(1), Value::from("B")])
            .unwrap();
        assert_eq!(sm.finish().len(), 1);
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        // Snapshot mid-stream (with live instances, pending groups, and
        // an evicted prefix), restore into a fresh matcher, and verify
        // the continuation emits exactly what the uninterrupted twin
        // does — including ties at the watermark and finish().
        let rows: &[(i64, &str)] = &[
            (0, "A"),
            (1, "B"),
            (8, "A"),
            (8, "B"),
            (8, "A"),
            (9, "B"),
            (20, "A"),
            (21, "B"),
            (40, "X"),
        ];
        let pattern = ab_pattern();
        let schema = schema();
        for cut in 0..rows.len() {
            let mut live = StreamMatcher::compile(&pattern, &schema).unwrap();
            let mut twin = StreamMatcher::compile(&pattern, &schema).unwrap();
            let mut live_out = Vec::new();
            let mut twin_out = Vec::new();
            for (t, l) in &rows[..cut] {
                let values = [Value::from(1), Value::from(*l)];
                live_out.extend(live.push(Timestamp::new(*t), values.clone()).unwrap());
                twin_out.extend(twin.push(Timestamp::new(*t), values).unwrap());
            }
            let snap = live.snapshot();
            drop(live); // the "crash"
            let mut restored =
                StreamMatcher::restore(&pattern, &schema, MatcherOptions::default(), &snap)
                    .unwrap();
            assert_eq!(restored.emitted_so_far(), twin.emitted_so_far());
            assert_eq!(restored.watermark(), twin.watermark());
            assert_eq!(restored.active_instances(), twin.active_instances());
            assert_eq!(restored.pending_candidates(), twin.pending_candidates());
            for (t, l) in &rows[cut..] {
                let values = [Value::from(1), Value::from(*l)];
                live_out.extend(restored.push(Timestamp::new(*t), values.clone()).unwrap());
                twin_out.extend(twin.push(Timestamp::new(*t), values).unwrap());
            }
            live_out.extend(restored.finish());
            twin_out.extend(twin.finish());
            assert_eq!(live_out, twin_out, "divergence after restore at cut {cut}");

            // The snapshot a tree that could switch eviction off would
            // have written: nothing evicted. It restores, evicts from its
            // next push on, and emits the same.
            let unevicted = StreamSnapshot {
                evicted: 0,
                events: rows[..cut]
                    .iter()
                    .map(|(t, l)| {
                        Event::new(Timestamp::new(*t), vec![Value::from(1), Value::from(*l)])
                    })
                    .collect(),
                ..snap
            };
            let mut restored =
                StreamMatcher::restore(&pattern, &schema, MatcherOptions::default(), &unevicted)
                    .unwrap();
            assert_eq!(restored.evicted_events(), 0);
            let mut out = live_out[..restored.emitted_so_far()].to_vec();
            for (t, l) in &rows[cut..] {
                let values = [Value::from(1), Value::from(*l)];
                out.extend(restored.push(Timestamp::new(*t), values).unwrap());
            }
            if cut < rows.len() {
                assert!(restored.evicted_events() > 0, "no eviction after cut {cut}");
            }
            out.extend(restored.finish());
            assert_eq!(out, twin_out, "unevicted snapshot diverged at cut {cut}");
        }
    }

    #[test]
    fn snapshot_rejects_mismatched_matcher() {
        let mut sm = StreamMatcher::compile(&ab_pattern(), &schema()).unwrap();
        sm.push(Timestamp::new(0), [Value::from(1), Value::from("A")])
            .unwrap();
        let snap = sm.snapshot();
        // Different window ⇒ different fingerprint ⇒ refused.
        let other = Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(6))
            .build()
            .unwrap();
        let err = StreamMatcher::restore(&other, &schema(), MatcherOptions::default(), &snap)
            .unwrap_err();
        assert!(matches!(err, CoreError::SnapshotMismatch { .. }), "{err}");
        // Corrupted payload (instance state out of range) is refused too.
        let mut bad = snap.clone();
        bad.instances[0].state = 10_000;
        let err = StreamMatcher::restore(&ab_pattern(), &schema(), MatcherOptions::default(), &bad)
            .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn ties_at_watermark_counts_the_replay_skip() {
        let mut sm = StreamMatcher::compile(&ab_pattern(), &schema()).unwrap();
        assert_eq!(sm.ties_at_watermark(), 0);
        sm.push(Timestamp::new(5), [Value::from(1), Value::from("A")])
            .unwrap();
        assert_eq!(sm.ties_at_watermark(), 1);
        sm.push(Timestamp::new(5), [Value::from(1), Value::from("X")])
            .unwrap();
        assert_eq!(sm.ties_at_watermark(), 2);
        sm.push(Timestamp::new(7), [Value::from(1), Value::from("B")])
            .unwrap();
        assert_eq!(sm.ties_at_watermark(), 1);
    }

    /// Patterns whose matchers exercise both deadline sources and the
    /// housekeeping a heartbeat does between them: a plain set, a group
    /// variable ahead of a sequenced set (pending groups that outlive
    /// their instances, killer survivors under Maximal), a correlated
    /// sequence, and a provably unsatisfiable Θ (which never has a
    /// deadline). All with τ = 5.
    fn deadline_patterns() -> Vec<Pattern> {
        let unsat = Pattern::builder()
            .set(|s| s.var("a"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("a", "ID", CmpOp::Gt, 10)
            .cond_const("a", "ID", CmpOp::Lt, 5)
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        let plus = Pattern::builder()
            .set(|s| s.plus("p"))
            .set(|s| s.var("b"))
            .cond_const("p", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        let correlated = Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        vec![ab_pattern(), plus, correlated, unsat]
    }

    /// Candidates not yet decided: accepting instances still in Ω plus
    /// pending ones. Only a decision lowers it; a heartbeat never raises
    /// it.
    fn undecided(sm: &StreamMatcher) -> usize {
        let accept = sm.automaton.accept();
        let accepting = sm.instances().iter().filter(|i| i.state == accept);
        accepting.count() + sm.pending_candidates()
    }

    /// Checks the [`StreamMatcher::next_deadline`] contract on `sm`'s
    /// current state. Heartbeats are tried on copies restored from a
    /// snapshot, which must name the live matcher's deadline `d`. Below
    /// `d` a heartbeat emits and decides nothing, and the housekeeping it
    /// does is the same whether the clock moved there tick by tick or in
    /// one step; at `d` a candidate is decided.
    fn assert_deadline_is_exact(sm: &mut StreamMatcher, pattern: &Pattern, opts: &MatcherOptions) {
        let snap = sm.snapshot();
        let copy = || StreamMatcher::restore(pattern, &schema(), opts.clone(), &snap).unwrap();
        let deadline = copy().next_deadline();
        assert_eq!(sm.next_deadline(), deadline, "a restore moved the deadline");
        let decided = |sm: &StreamMatcher| (undecided(sm), sm.emitted_so_far());
        let before = decided(&copy());
        let Some(w) = snap.watermark else {
            assert_eq!(deadline, None, "a deadline before the first event");
            return;
        };
        let Some(d) = deadline else {
            let mut late = copy();
            assert!(late
                .advance_watermark(w + Duration::ticks(1_000))
                .is_empty());
            assert_eq!(
                decided(&late),
                before,
                "no deadline, yet a heartbeat decided"
            );
            return;
        };
        assert!(d > w, "deadline {d} is not in the future");
        let below = d - Duration::ticks(1);
        let mut once = copy();
        assert!(
            once.advance_watermark(below).is_empty(),
            "emitted below the deadline {d}"
        );
        assert_eq!(decided(&once), before, "decided below the deadline {d}");
        let mut ticked = copy();
        let mut t = w;
        while t < below {
            t += Duration::ticks(1);
            assert!(
                ticked.advance_watermark(t).is_empty(),
                "emitted at {t} < {d}"
            );
        }
        assert_eq!(
            ticked.snapshot(),
            once.snapshot(),
            "ticking to {below} and one step there differ"
        );
        let mut at = copy();
        at.advance_watermark(d);
        assert!(
            undecided(&at) < before.0,
            "nothing was decided at the deadline {d}"
        );
    }

    proptest::proptest! {
        /// After every push of random streams — dense runs, ties, gaps of
        /// exactly `τ`, `τ + 1`, `2τ + 1` and far beyond — a heartbeat
        /// one tick below `next_deadline` emits and decides nothing, one
        /// at it decides a candidate, and `None` means no heartbeat ever
        /// will.
        #[test]
        fn heartbeats_act_at_the_deadline_and_never_before(
            which in 0usize..4,
            mode in 0usize..3,
            any_match in proptest::bool::ANY,
            rows in proptest::collection::vec((0usize..3, 1i64..3, 0usize..10), 1..16),
        ) {
            const GAPS: [i64; 10] = [0, 0, 1, 1, 2, 4, 5, 6, 11, 40];
            let pattern = &deadline_patterns()[which];
            let opts = MatcherOptions {
                semantics: [
                    crate::MatchSemantics::Maximal,
                    crate::MatchSemantics::Definition2,
                    crate::MatchSemantics::AllRuns,
                ][mode],
                selection: if any_match {
                    crate::EventSelection::SkipTillAnyMatch
                } else {
                    crate::EventSelection::SkipTillNextMatch
                },
                ..MatcherOptions::default()
            };
            let mut sm = StreamMatcher::with_options(pattern, &schema(), opts.clone()).unwrap();
            assert_deadline_is_exact(&mut sm, pattern, &opts);
            let mut t = 0;
            for (label, id, gap) in rows {
                t += GAPS[gap];
                sm.push(Timestamp::new(t), [Value::from(id), Value::from(["A", "B", "X"][label])])
                    .unwrap();
                assert_deadline_is_exact(&mut sm, pattern, &opts);
            }
        }
    }

    /// The 60 × τ bounded-memory acceptance of `tests/stream_vs_batch.rs`
    /// for the one structure a push appends to whether or not anything
    /// ever matches: the first set is admitted on every event, the last
    /// never, so no group completes and nothing but eviction can trim
    /// what admission appended.
    #[test]
    fn admitted_events_stay_bounded_when_no_group_ever_completes() {
        let pattern = Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(10))
            .build()
            .unwrap();
        let mut sm = StreamMatcher::compile(&pattern, &schema()).unwrap();
        // ~11 events fit in one window; the relation's compaction
        // hysteresis allows 2×, as in the acceptance test.
        let per_window = 11;
        for t in 0..600i64 {
            let out = sm
                .push(Timestamp::new(t), [Value::from(t % 3), Value::from("A")])
                .unwrap();
            assert!(out.is_empty());
            assert!(sm.retained_events() <= 3 * per_window);
            for list in sm.viable_lists() {
                assert!(
                    list.len() <= sm.retained_events(),
                    "{} admitted events listed over {} retained at t={t}",
                    list.len(),
                    sm.retained_events()
                );
            }
        }
        assert_eq!(sm.pending_candidates(), 0);
        assert_eq!(sm.evicted_events() + sm.retained_events(), 600);
        assert!(!sm.viable_lists()[0].is_empty(), "`a` admits every event");
        assert!(sm.finish().is_empty());
    }

    /// The same 60 × τ bound for the node log: every push binds `a` and
    /// nothing ever binds `b`, so each node dies with its instance τ
    /// later. At every push the log holds fewer than twice the nodes bound
    /// in the last τ, plus the trim's constant — without the trim it would
    /// hold one node per push.
    #[test]
    fn node_log_stays_bounded_by_the_window() {
        let tau = 10;
        let pattern = Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(tau))
            .build()
            .unwrap();
        let mut sm = StreamMatcher::compile(&pattern, &schema()).unwrap();
        for t in 0..60 * tau {
            sm.push(Timestamp::new(t), [Value::from(t % 3), Value::from("A")])
                .unwrap();
            let log = sm.log();
            let recent = log.timestamps().filter(|ts| ts.ticks() >= t - tau).count();
            assert!(
                log.len() < 2 * recent + 64,
                "{} nodes held, {recent} bound in the last τ, at t={t}",
                log.len()
            );
            assert!(sm.instances().iter().all(|i| log.retains(i.buffer)));
        }
    }

    #[test]
    fn schema_violations_are_rejected() {
        let mut sm = StreamMatcher::compile(&ab_pattern(), &schema()).unwrap();
        assert!(sm
            .push(Timestamp::new(0), [Value::from("wrong"), Value::from("A")])
            .is_err());
        assert_eq!(sm.relation().len(), 0);
    }
}
