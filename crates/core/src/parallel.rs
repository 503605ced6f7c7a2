//! Partition-parallel batch execution.
//!
//! When the pattern proves a partition key (see
//! [`ses_pattern::CompiledPattern::partition_keys`]), no match spans two
//! key values, so the relation splits into per-key zero-copy
//! [`ses_event::RelationView`]s matched independently and in parallel:
//!
//! 1. [`ses_event::partition_views`] builds one index vector per
//!    distinct key value — event payloads are never cloned;
//! 2. worker threads claim partitions largest-first off a shared atomic
//!    counter (greedy LPT scheduling, which bounds the makespan under
//!    key skew) and run the engine on each view;
//! 3. per-partition raw matches are remapped to global event ids and a
//!    **single** global [`crate::select`] adjudicates the union, so the output
//!    is exactly the global scan's answer — adjudication verdicts only
//!    compare matches sharing a first binding and swap candidates that
//!    satisfy the key equality, both of which are partition-local.
//!
//! The speedup has two independent sources: thread parallelism, and the
//! per-event instance loop shrinking from `|Ω|` to the partition's own
//! instances (the paper's Theorems 2–3 make `|Ω|` the dominant cost), so
//! partitioned execution wins even on one core.
//!
//! # Time-sliced execution
//!
//! When the pattern proves *no* key, the window `τ` (Definition 2,
//! condition 3) still bounds every match's temporal extent, so the time
//! axis splits instead ([`find_time_sliced`]): consecutive own regions
//! of width `w ≥ τ` partition the timeline, each slice scans its own
//! region *plus* the following `τ` overlap, and a raw match is kept by
//! the unique slice whose own region contains its first event. The
//! merged raw set is exactly the global scan's (see `docs/parallel.md`
//! for the argument), and the same single global negation-filter +
//! [`crate::select`] adjudicates it. Unlike key partitioning this re-scans the
//! overlaps, so it is the fallback axis, not the preferred one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ses_event::{partition_views, AttrId, EventId, Relation, RelationView};

use crate::engine::{scan, AdmittedLog, RawMatch};
use crate::matcher::Matcher;
use crate::matches::Match;
use crate::probe::{NoProbe, Probe};
use crate::semantics::select;

/// Matches `relation` per distinct value of `key`, in parallel, and
/// returns the adjudicated matches with bindings expressed in the
/// original relation's event ids — exactly [`Matcher::find`]'s answer
/// when `key` is a proven partition key.
///
/// Prefer configuring [`crate::PartitionMode`] on the matcher (which
/// checks the proof); this free function is the unchecked primitive.
pub fn find_partitioned(matcher: &Matcher, relation: &Relation, key: AttrId) -> Vec<Match> {
    find_partitioned_with(matcher, relation, key, None, &mut NoProbe, || NoProbe).0
}

/// [`find_partitioned`] with full instrumentation: `coordinator`
/// receives the aggregate hooks ([`Probe::partitions`],
/// [`Probe::partition_events`] per partition in first-occurrence
/// order); `make_probe` builds one worker probe per
/// partition, returned in the same first-occurrence order for per-shard
/// statistics.
pub fn find_partitioned_with<C, P, F>(
    matcher: &Matcher,
    relation: &Relation,
    key: AttrId,
    threads: Option<usize>,
    coordinator: &mut C,
    make_probe: F,
) -> (Vec<Match>, Vec<P>)
where
    C: Probe,
    P: Probe + Send,
    F: Fn() -> P + Sync,
{
    let scanned = scan_partitioned(matcher, relation, key, threads, coordinator, make_probe);
    adjudicate(matcher, relation, scanned)
}

/// The scan half of [`find_partitioned_with`]: every partition matched
/// on its own view, ids rewritten to the parent relation's.
pub(crate) fn scan_partitioned<C, P, F>(
    matcher: &Matcher,
    relation: &Relation,
    key: AttrId,
    threads: Option<usize>,
    coordinator: &mut C,
    make_probe: F,
) -> SplitScan<P>
where
    C: Probe,
    P: Probe + Send,
    F: Fn() -> P + Sync,
{
    if !matcher.automaton().pattern().is_satisfiable() {
        return SplitScan::merge(Vec::new());
    }
    let views = partition_views(relation, key);
    coordinator.partitions(views.len());
    for (_, view) in &views {
        coordinator.partition_events(view.ids().len());
    }

    // Largest partition first: with greedy worker claiming this is LPT
    // scheduling, whose makespan is within 4/3 of optimal — the right
    // bias under key skew, where one hot key dominates.
    let mut order: Vec<usize> = (0..views.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(views[i].1.ids().len()));

    let workers = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, views.len().max(1));

    let exec = matcher.exec_options();
    let automaton = matcher.automaton();
    let run_one = |idx: usize| -> (Vec<RawMatch>, AdmittedLog, P) {
        let (_, view) = &views[idx];
        let mut probe = make_probe();
        let (mut raw, mut admitted) = scan(automaton, view, &exec, &mut probe);
        to_global_ids(&mut raw, &mut admitted, view.ids());
        (raw, admitted, probe)
    };

    SplitScan::merge(run_on_workers(views.len(), &order, workers, run_one))
}

/// Rewrites a worker's view-local event ids — in its raw matches and in
/// its admitted log alike — to the parent relation's. The id map is
/// ascending, so sorted bindings stay sorted and the log stays ascending.
fn to_global_ids(raw: &mut [RawMatch], admitted: &mut AdmittedLog, ids: &[EventId]) {
    for m in raw {
        for b in &mut m.bindings {
            b.1 = ids[b.1.index()];
        }
    }
    admitted.remap(ids);
}

/// What a split scan hands its coordinator: the workers' raw matches
/// concatenated, and their admitted logs merged into the log one global
/// scan would have recorded (every event is in some worker's view).
pub(crate) struct SplitScan<P> {
    raw: Vec<RawMatch>,
    pub(crate) admitted: AdmittedLog,
    probes: Vec<P>,
}

impl<P> SplitScan<P> {
    fn merge(results: Vec<(Vec<RawMatch>, AdmittedLog, P)>) -> SplitScan<P> {
        let mut raw: Vec<RawMatch> = Vec::new();
        let mut logs = Vec::with_capacity(results.len());
        let mut probes: Vec<P> = Vec::with_capacity(results.len());
        for (r, log, p) in results {
            raw.extend(r);
            logs.push(log);
            probes.push(p);
        }
        SplitScan {
            raw,
            admitted: AdmittedLog::merge(logs),
            probes,
        }
    }
}

/// The coordinator's half of both split strategies: negations checked
/// against the *full* relation — which is why negated patterns are
/// admissible under time slicing — and one *global* [`select`] over the
/// merged raw set. `select` orders candidates internally, so the result
/// is the global scan's regardless of worker emission order.
fn adjudicate<P>(
    matcher: &Matcher,
    relation: &Relation,
    scanned: SplitScan<P>,
) -> (Vec<Match>, Vec<P>) {
    let pattern = matcher.automaton().pattern();
    let raw = crate::negation::filter_negations(scanned.raw, relation, pattern);
    let matches = select(
        raw,
        &scanned.admitted,
        relation,
        pattern,
        matcher.options().semantics,
    );
    (matches, scanned.probes)
}

/// Runs `run_one` for every index in `0..n` on up to `workers` scoped
/// threads — workers claim indices greedily off a shared counter in
/// `order` — and returns the results in index order.
fn run_on_workers<T: Send>(
    n: usize,
    order: &[usize],
    workers: usize,
    run_one: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    if workers <= 1 {
        for &idx in order {
            slots[idx] = Some(run_one(idx));
        }
    } else {
        let next = AtomicUsize::new(0);
        let slots_sink = Mutex::new(&mut slots);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&idx) = order.get(i) else { break };
                    let result = run_one(idx);
                    slots_sink.lock().expect("no poisoned workers")[idx] = Some(result);
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was executed"))
        .collect()
}

/// The time-slice layout [`find_time_sliced`] uses: consecutive *own
/// regions* of `width` ticks starting at `t0` partition the timeline
/// (the last region is unbounded), and each slice additionally scans the
/// `tau` ticks after its region so every match starting inside the
/// region is complete in the slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceLayout {
    /// First event's timestamp in ticks — the first own region's start.
    pub t0: i64,
    /// Own-region width in ticks, `max(⌈span/k⌉, τ, 1)`.
    pub width: i64,
    /// Number of slices, `⌈span/width⌉`.
    pub slices: usize,
    /// The window `τ` in ticks (the inter-slice overlap).
    pub tau: i64,
}

impl SliceLayout {
    /// Computes the layout for `relation` under the matcher's window,
    /// targeting `slices` slices (`None`: one per available core).
    /// `None` when the relation is empty — there is nothing to slice.
    pub fn plan(
        matcher: &Matcher,
        relation: &Relation,
        slices: Option<usize>,
    ) -> Option<SliceLayout> {
        let events = relation.events();
        let (first, last) = (events.first()?, events.last()?);
        let t0 = first.ts().ticks();
        let span = last.ts().ticks().saturating_sub(t0).saturating_add(1);
        let tau = matcher.automaton().tau().as_ticks();
        let k = slices
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1);
        // Own regions no narrower than τ: the overlap then never exceeds
        // the region it extends (bounding duplicated work at 50%), and
        // τ ≥ span degenerates to a single slice — a plain global scan.
        // `1 + (a-1)/b` is ⌈a/b⌉ for a ≥ 1 without overflowing at
        // `span = i64::MAX` (a saturated subtraction above).
        let ceil_div = |a: i64, b: i64| 1 + (a - 1) / b;
        let width = ceil_div(span, k as i64).max(tau).max(1);
        Some(SliceLayout {
            t0,
            width,
            slices: ceil_div(span, width) as usize,
            tau,
        })
    }

    /// The slice whose own region contains `ts` — the slice that *keeps*
    /// a raw match first-bound at `ts`. Timestamps beyond the last
    /// region's start clamp to the last slice (its region is unbounded).
    pub fn owner(&self, ts: i64) -> usize {
        let offset = ts.saturating_sub(self.t0).max(0);
        ((offset / self.width) as usize).min(self.slices - 1)
    }

    /// The own region's start timestamp, in ticks.
    pub fn region_start(&self, slice: usize) -> i64 {
        self.t0
            .saturating_add(self.width.saturating_mul(slice as i64))
    }

    /// One past the last timestamp the slice scans: region end plus the
    /// `τ` overlap (`i64::MAX` for the last, unbounded slice).
    pub fn cover_end(&self, slice: usize) -> i64 {
        if slice + 1 == self.slices {
            i64::MAX
        } else {
            self.region_start(slice + 1).saturating_add(self.tau)
        }
    }
}

/// Matches `relation` split into `τ`-overlapping time slices run in
/// parallel, and returns the adjudicated matches — exactly
/// [`Matcher::find`]'s answer for *any* satisfiable pattern, keyed or
/// not: the window bounds every match to one slice's scan range, and
/// each match is kept exactly once, by the slice whose own region holds
/// its first event.
///
/// `slices` targets that many slices (`None`: one per available core);
/// the realized count can be lower — own regions are never narrower
/// than `τ`, so a relation spanning less than `2τ` runs as one slice.
///
/// Prefer configuring [`crate::PartitionMode::TimeAuto`] on the matcher
/// (which gates on `flush_at_end` and prefers a proven key); this free
/// function is the unchecked primitive. Like [`find_partitioned`] it
/// assumes `flush_at_end` semantics — without the end-of-input flush a
/// slice would need later slices' events to expire its instances.
pub fn find_time_sliced(
    matcher: &Matcher,
    relation: &Relation,
    slices: Option<usize>,
) -> Vec<Match> {
    find_time_sliced_with(matcher, relation, slices, &mut NoProbe, || NoProbe).0
}

/// [`find_time_sliced`] with full instrumentation: `coordinator`
/// receives the aggregate hooks ([`Probe::slices`] and
/// [`Probe::slice_events`] per slice in chronological order);
/// `make_probe` builds one worker probe per slice, returned in the same
/// chronological order for per-slice statistics.
pub fn find_time_sliced_with<C, P, F>(
    matcher: &Matcher,
    relation: &Relation,
    slices: Option<usize>,
    coordinator: &mut C,
    make_probe: F,
) -> (Vec<Match>, Vec<P>)
where
    C: Probe,
    P: Probe + Send,
    F: Fn() -> P + Sync,
{
    let scanned = scan_time_sliced(matcher, relation, slices, coordinator, make_probe);
    adjudicate(matcher, relation, scanned)
}

/// The scan half of [`find_time_sliced_with`]: every slice matched on
/// its own view, ids rewritten to the parent relation's, each raw match
/// kept by the slice that owns it.
pub(crate) fn scan_time_sliced<C, P, F>(
    matcher: &Matcher,
    relation: &Relation,
    slices: Option<usize>,
    coordinator: &mut C,
    make_probe: F,
) -> SplitScan<P>
where
    C: Probe,
    P: Probe + Send,
    F: Fn() -> P + Sync,
{
    if !matcher.automaton().pattern().is_satisfiable() {
        return SplitScan::merge(Vec::new());
    }
    let Some(layout) = SliceLayout::plan(matcher, relation, slices) else {
        coordinator.slices(0);
        return SplitScan::merge(Vec::new());
    };
    let events = relation.events();
    let base = relation.first_index();
    coordinator.slices(layout.slices);
    // Per-slice event index ranges over the retained events. A slice
    // scans [region_start, cover_end): its own region plus the τ
    // overlap, so every match first-bound in the region is complete.
    let ranges: Vec<(usize, usize)> = (0..layout.slices)
        .map(|i| {
            let start = events.partition_point(|e| e.ts().ticks() < layout.region_start(i));
            let end = if i + 1 == layout.slices {
                events.len()
            } else {
                events.partition_point(|e| e.ts().ticks() < layout.cover_end(i))
            };
            coordinator.slice_events(end - start);
            (start, end)
        })
        .collect();

    // Largest slice first, as in `find_partitioned_with` — slices are
    // equal-width in *time* but can be arbitrarily skewed in events.
    let mut order: Vec<usize> = (0..layout.slices).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(ranges[i].1 - ranges[i].0));

    let workers = slices
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, layout.slices);

    let exec = matcher.exec_options();
    let automaton = matcher.automaton();
    let run_one = |idx: usize| -> (Vec<RawMatch>, AdmittedLog, P) {
        let (start, end) = ranges[idx];
        let ids: Vec<EventId> = (base + start..base + end).map(EventId::from).collect();
        let view = RelationView::new(relation, ids);
        let mut probe = make_probe();
        let (mut raw, mut admitted) = scan(automaton, &view, &exec, &mut probe);
        to_global_ids(&mut raw, &mut admitted, view.ids());
        // Seam dedup: keep only the matches this slice *owns* — first
        // event inside the own region. Matches first-bound in the τ
        // overlap are rediscovered (identically: instance evolution
        // depends only on events within the window after the first
        // binding, all present in the owner's scan range) by the next
        // slice, which owns them.
        raw.retain(|m| layout.owner(relation.event(m.first_event()).ts().ticks()) == idx);
        // The admitted log keeps its overlap entries: an owned match
        // reaches into the overlap, and the next slice's duplicates of
        // them fold away in the merge.
        (raw, admitted, probe)
    };

    SplitScan::merge(run_on_workers(layout.slices, &order, workers, run_one))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{MatcherOptions, PartitionMode};
    use crate::semantics::MatchSemantics;
    use ses_event::{AttrType, CmpOp, Duration, Schema, Timestamp, Value};
    use ses_pattern::Pattern;

    fn schema() -> Schema {
        Schema::builder()
            .attr("ID", AttrType::Int)
            .attr("L", AttrType::Str)
            .build()
            .unwrap()
    }

    fn keyed_pattern() -> Pattern {
        Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .set(|s| s.var("c"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .cond_const("c", "L", CmpOp::Eq, "C")
            .cond_vars("a", "ID", CmpOp::Eq, "b", "ID")
            .cond_vars("a", "ID", CmpOp::Eq, "c", "ID")
            .within(Duration::ticks(12))
            .build()
            .unwrap()
    }

    /// Five keys, events interleaved so every partition's runs overlap
    /// in time with every other's.
    fn relation() -> Relation {
        let mut rel = Relation::new(schema());
        let labels = ["A", "B", "A", "C", "B", "C"];
        for (step, label) in labels.iter().enumerate() {
            for key in 0..5i64 {
                rel.push_values(
                    Timestamp::new(step as i64 * 5 + key),
                    [Value::from(key), Value::from(*label)],
                )
                .unwrap();
            }
        }
        rel
    }

    #[test]
    fn partitioned_equals_global_across_semantics_and_threads() {
        let rel = relation();
        let key = schema().attr_id("ID").unwrap();
        for semantics in [
            MatchSemantics::AllRuns,
            MatchSemantics::Definition2,
            MatchSemantics::Maximal,
        ] {
            let matcher = Matcher::with_options(
                &keyed_pattern(),
                &schema(),
                MatcherOptions {
                    semantics,
                    ..MatcherOptions::default()
                },
            )
            .unwrap();
            let global = matcher.find(&rel);
            assert!(!global.is_empty(), "workload should match ({semantics:?})");
            for threads in [None, Some(1), Some(2), Some(64)] {
                let (got, probes) =
                    find_partitioned_with(&matcher, &rel, key, threads, &mut NoProbe, || NoProbe);
                assert_eq!(got, global, "{semantics:?} threads={threads:?}");
                assert_eq!(probes.len(), 5);
            }
        }
    }

    #[test]
    fn coordinator_sees_partition_layout() {
        #[derive(Default)]
        struct Layout {
            partitions: usize,
            events: Vec<usize>,
        }
        impl Probe for Layout {
            fn partitions(&mut self, n: usize) {
                self.partitions = n;
            }
            fn partition_events(&mut self, n: usize) {
                self.events.push(n);
            }
        }
        let matcher = Matcher::compile(&keyed_pattern(), &schema()).unwrap();
        let key = schema().attr_id("ID").unwrap();
        let mut layout = Layout::default();
        find_partitioned_with(&matcher, &relation(), key, Some(1), &mut layout, || NoProbe);
        assert_eq!(layout.partitions, 5);
        assert_eq!(layout.events, vec![6; 5]);
    }

    #[test]
    fn matcher_auto_mode_routes_find_through_partitions() {
        let auto = Matcher::with_options(
            &keyed_pattern(),
            &schema(),
            MatcherOptions {
                partition: PartitionMode::Auto,
                ..MatcherOptions::default()
            },
        )
        .unwrap();
        assert_eq!(auto.partition_key(), schema().attr_id("ID"));
        let off = Matcher::compile(&keyed_pattern(), &schema()).unwrap();
        assert_eq!(off.partition_key(), None);
        let rel = relation();
        assert_eq!(auto.find(&rel), off.find(&rel));
    }

    #[test]
    fn empty_relation_partitions_to_nothing() {
        let matcher = Matcher::compile(&keyed_pattern(), &schema()).unwrap();
        let key = schema().attr_id("ID").unwrap();
        assert!(find_partitioned(&matcher, &Relation::new(schema()), key).is_empty());
    }

    /// ⟨{a};{b}⟩ with constants only — no equality chain, so nothing
    /// proves a key and time slicing is the only parallel axis.
    fn keyless_pattern(tau: i64) -> Pattern {
        Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(tau))
            .build()
            .unwrap()
    }

    fn rel(rows: &[(i64, &str)]) -> Relation {
        let mut r = Relation::new(schema());
        for (i, (ts, l)) in rows.iter().enumerate() {
            r.push_values(
                Timestamp::new(*ts),
                [Value::from(i as i64), Value::from(*l)],
            )
            .unwrap();
        }
        r
    }

    fn assert_sliced_equals_global(pattern: &Pattern, rel: &Relation, slices: &[Option<usize>]) {
        for semantics in [
            MatchSemantics::AllRuns,
            MatchSemantics::Definition2,
            MatchSemantics::Maximal,
        ] {
            let matcher = Matcher::with_options(
                pattern,
                &schema(),
                MatcherOptions {
                    semantics,
                    ..MatcherOptions::default()
                },
            )
            .unwrap();
            let global = matcher.find(rel);
            for &k in slices {
                let got = find_time_sliced(&matcher, rel, k);
                assert_eq!(got, global, "{semantics:?} slices={k:?}");
            }
        }
    }

    #[test]
    fn match_exactly_spanning_a_slice_boundary() {
        // span = [0, 9], τ = 5, 2 slices → width 5, own regions [0,5)
        // and [5,∞). The a@4/b@9 pair is exactly τ apart and straddles
        // the seam; slice 0's τ-overlap must reach b@9 inclusively.
        let r = rel(&[(0, "X"), (4, "A"), (9, "B")]);
        let matcher = Matcher::compile(&keyless_pattern(5), &schema()).unwrap();
        let layout = SliceLayout::plan(&matcher, &r, Some(2)).unwrap();
        assert_eq!((layout.width, layout.slices), (5, 2));
        assert_eq!(layout.owner(4), 0);
        assert_eq!(layout.owner(5), 1);
        let global = matcher.find(&r);
        assert_eq!(global.len(), 1);
        assert_eq!(global[0].to_string(), "{v0/e2, v1/e3}");
        assert_sliced_equals_global(&keyless_pattern(5), &r, &[Some(2), Some(3), None]);
    }

    #[test]
    fn tau_wider_than_slice_width_degenerates_to_one_slice() {
        // τ ≥ span: every requested slice count collapses to a single
        // slice (own regions are never narrower than τ).
        let r = rel(&[(0, "A"), (3, "B"), (9, "B")]);
        let matcher = Matcher::compile(&keyless_pattern(20), &schema()).unwrap();
        for k in [1, 2, 4, 64] {
            let layout = SliceLayout::plan(&matcher, &r, Some(k)).unwrap();
            assert_eq!(layout.slices, 1, "slices={k}");
            assert_eq!(layout.width, 20);
        }
        assert_sliced_equals_global(&keyless_pattern(20), &r, &[Some(4)]);
    }

    #[test]
    fn empty_slices_between_event_clusters() {
        // Two clusters 100 ticks apart with τ = 2: the middle slices
        // hold no events at all and must be harmless.
        let rows: Vec<(i64, &str)> = vec![
            (0, "A"),
            (1, "B"),
            (2, "A"),
            (100, "A"),
            (101, "B"),
            (102, "B"),
        ];
        let r = rel(&rows);
        let matcher = Matcher::compile(&keyless_pattern(2), &schema()).unwrap();
        let layout = SliceLayout::plan(&matcher, &r, Some(8)).unwrap();
        assert!(layout.slices > 2, "want middle slices: {layout:?}");
        #[derive(Default)]
        struct Layout {
            slices: usize,
            events: Vec<usize>,
        }
        impl Probe for Layout {
            fn slices(&mut self, n: usize) {
                self.slices = n;
            }
            fn slice_events(&mut self, n: usize) {
                self.events.push(n);
            }
        }
        let mut seen = Layout::default();
        let (got, probes) = find_time_sliced_with(&matcher, &r, Some(8), &mut seen, || NoProbe);
        assert_eq!(seen.slices, layout.slices);
        assert_eq!(seen.events.len(), layout.slices);
        assert!(seen.events.contains(&0), "no empty slice seen");
        assert_eq!(probes.len(), layout.slices);
        assert_eq!(got, matcher.find(&r));
        assert_sliced_equals_global(&keyless_pattern(2), &r, &[Some(8)]);
    }

    #[test]
    fn duplicate_timestamps_at_the_seam() {
        // Several events share the boundary timestamp: ownership is a
        // pure function of the timestamp, so all of them (and every
        // match first-bound there) belong to the later slice.
        let r = rel(&[
            (0, "A"),
            (4, "A"),
            (5, "A"),
            (5, "B"),
            (5, "A"),
            (6, "B"),
            (9, "B"),
        ]);
        let matcher = Matcher::compile(&keyless_pattern(5), &schema()).unwrap();
        let layout = SliceLayout::plan(&matcher, &r, Some(2)).unwrap();
        assert_eq!((layout.width, layout.slices), (5, 2));
        assert_eq!(layout.owner(5), 1);
        assert_sliced_equals_global(&keyless_pattern(5), &r, &[Some(2)]);
    }

    #[test]
    fn group_bindings_crossing_the_seam() {
        // ⟨{p+};{b}⟩: a group run starting at p@3 (slice 0) absorbs
        // p@5/p@6 (slice 1's region) before b@7 — the whole match is
        // owned by slice 0 and must bind across the seam.
        let p = Pattern::builder()
            .set(|s| s.plus("p"))
            .set(|s| s.var("b"))
            .cond_const("p", "L", CmpOp::Eq, "P")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        let r = rel(&[(0, "X"), (3, "P"), (5, "P"), (6, "P"), (7, "B"), (9, "X")]);
        let matcher = Matcher::compile(&p, &schema()).unwrap();
        let layout = SliceLayout::plan(&matcher, &r, Some(2)).unwrap();
        assert_eq!(layout.slices, 2);
        let global = matcher.find(&r);
        assert!(
            global.iter().any(|m| m.bindings().len() == 4),
            "want a maximal group crossing the seam: {global:?}"
        );
        for semantics in [
            MatchSemantics::AllRuns,
            MatchSemantics::Definition2,
            MatchSemantics::Maximal,
        ] {
            let matcher = Matcher::with_options(
                &p,
                &schema(),
                MatcherOptions {
                    semantics,
                    ..MatcherOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                find_time_sliced(&matcher, &r, Some(2)),
                matcher.find(&r),
                "{semantics:?}"
            );
        }
    }

    #[test]
    fn negated_pattern_is_admissible_for_time_slicing() {
        // Negations rule out *key* partitioning entirely, but time
        // slicing filters negations globally over the merged raw set —
        // an X in the a–b gap kills the match even across a seam.
        let p = Pattern::builder()
            .set(|s| s.var("a"))
            .negate("x")
            .set(|s| s.var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .neg_cond_const("x", "L", CmpOp::Eq, "X")
            .within(Duration::ticks(5))
            .build()
            .unwrap();
        // a@4 … b@9 straddles the seam with the killer X@5 in between;
        // a@11 … b@13 survives.
        let r = rel(&[(0, "B"), (4, "A"), (5, "X"), (9, "B"), (11, "A"), (13, "B")]);
        let matcher = Matcher::compile(&p, &schema()).unwrap();
        assert!(matcher.automaton().pattern().partition_keys().is_empty());
        let global = matcher.find(&r);
        assert_eq!(global.len(), 1, "{global:?}");
        for k in [Some(2), Some(3), Some(7)] {
            assert_eq!(find_time_sliced(&matcher, &r, k), global, "slices={k:?}");
        }
    }

    #[test]
    fn slice_layout_owner_covers_the_timeline() {
        let layout = SliceLayout {
            t0: 10,
            width: 5,
            slices: 3,
            tau: 3,
        };
        assert_eq!(layout.owner(10), 0);
        assert_eq!(layout.owner(14), 0);
        assert_eq!(layout.owner(15), 1);
        assert_eq!(layout.owner(24), 2);
        // The last own region is unbounded.
        assert_eq!(layout.owner(1000), 2);
        assert_eq!(layout.owner(i64::MAX), 2);
        assert_eq!(layout.region_start(1), 15);
        assert_eq!(layout.cover_end(0), 18);
        assert_eq!(layout.cover_end(2), i64::MAX);
    }

    #[test]
    fn empty_relation_slices_to_nothing() {
        let matcher = Matcher::compile(&keyless_pattern(5), &schema()).unwrap();
        let empty = Relation::new(schema());
        assert!(SliceLayout::plan(&matcher, &empty, Some(4)).is_none());
        assert!(find_time_sliced(&matcher, &empty, Some(4)).is_empty());
    }

    #[test]
    fn matcher_time_auto_routes_find_through_slices() {
        // TimeAuto on a keyless pattern resolves to TimeSliced and
        // `find` agrees with the global scan.
        use crate::matcher::PartitionStrategy;
        let r = rel(&[(0, "A"), (4, "B"), (5, "A"), (9, "B"), (14, "B")]);
        let auto = Matcher::with_options(
            &keyless_pattern(5),
            &schema(),
            MatcherOptions {
                partition: PartitionMode::TimeAuto,
                threads: Some(3),
                ..MatcherOptions::default()
            },
        )
        .unwrap();
        assert_eq!(auto.partition_strategy(), PartitionStrategy::TimeSliced);
        assert_eq!(auto.partition_key(), None);
        let off = Matcher::compile(&keyless_pattern(5), &schema()).unwrap();
        assert_eq!(auto.find(&r), off.find(&r));

        // With a provable key, TimeAuto prefers key partitioning.
        let keyed = Matcher::with_options(
            &keyed_pattern(),
            &schema(),
            MatcherOptions {
                partition: PartitionMode::TimeAuto,
                ..MatcherOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            keyed.partition_strategy(),
            PartitionStrategy::Key(schema().attr_id("ID").unwrap())
        );

        // Without flush_at_end, TimeAuto silently falls back to global.
        let noflush = Matcher::with_options(
            &keyless_pattern(5),
            &schema(),
            MatcherOptions {
                partition: PartitionMode::TimeAuto,
                flush_at_end: false,
                ..MatcherOptions::default()
            },
        )
        .unwrap();
        assert_eq!(noflush.partition_strategy(), PartitionStrategy::Global);
    }
}
