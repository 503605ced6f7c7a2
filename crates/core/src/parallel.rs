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
    let views: Vec<RelationView<'_>> = partition_views(relation, key)
        .into_iter()
        .map(|(_, view)| view)
        .collect();
    coordinator.partitions(views.len());
    for view in &views {
        coordinator.partition_events(view.ids().len());
    }
    scan_views(matcher, &views, threads, make_probe)
}

/// The worker half of the key split: every view scanned on up to
/// `threads` workers (`None`: one per available core), its raw matches
/// and admitted log rewritten to the parent relation's ids.
fn scan_views<P, F>(
    matcher: &Matcher,
    views: &[RelationView<'_>],
    threads: Option<usize>,
    make_probe: F,
) -> SplitScan<P>
where
    P: Probe + Send,
    F: Fn() -> P + Sync,
{
    // Largest view first: with greedy worker claiming this is LPT
    // scheduling, whose makespan is within 4/3 of optimal — the right
    // bias under skew, where one hot key dominates.
    let mut order: Vec<usize> = (0..views.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(views[i].ids().len()));
    let workers = threads
        .unwrap_or_else(available_cores)
        .clamp(1, views.len().max(1));

    let selection = matcher.options().selection;
    let automaton = matcher.automaton();
    let run_one = |idx: usize| -> (Vec<RawMatch>, AdmittedLog, P) {
        let view = &views[idx];
        let mut probe = make_probe();
        let (mut raw, mut admitted) = scan(automaton, view, selection, &mut probe);
        to_global_ids(&mut raw, &mut admitted, view.ids());
        (raw, admitted, probe)
    };
    SplitScan::merge(run_on_workers(views.len(), &order, workers, run_one))
}

/// One worker per available core.
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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

/// The coordinator's half of the key split: negations checked against
/// the *full* relation and one *global* [`select`] over the merged raw
/// set. `select` orders candidates internally, so the result
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{MatcherOptions, PartitionMode, PartitionStrategy};
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
        assert_eq!(
            auto.partition_strategy(),
            PartitionStrategy::Key(schema().attr_id("ID").unwrap())
        );
        let off = Matcher::compile(&keyed_pattern(), &schema()).unwrap();
        assert_eq!(off.partition_strategy(), PartitionStrategy::Global);
        let rel = relation();
        assert_eq!(auto.find(&rel), off.find(&rel));
    }

    #[test]
    fn empty_relation_partitions_to_nothing() {
        let matcher = Matcher::compile(&keyed_pattern(), &schema()).unwrap();
        let key = schema().attr_id("ID").unwrap();
        assert!(find_partitioned(&matcher, &Relation::new(schema()), key).is_empty());
    }
}
