//! Key-split batch execution.
//!
//! When the pattern proves a partition key (see
//! [`ses_pattern::CompiledPattern::partition_keys`]), no match spans two
//! key values, so the relation splits into per-key zero-copy
//! [`ses_event::RelationView`]s, each scanned on its own:
//!
//! 1. [`ses_event::partition_views`] builds one index vector per
//!    distinct key value — event payloads are never cloned;
//! 2. the views are scanned one after another, in first-occurrence
//!    order of their key, on the calling thread and with the caller's
//!    probe, so every per-event hook reaches it;
//! 3. per-view raw matches and admitted logs are remapped to global
//!    event ids and merged; [`crate::Matcher::find_with_probe`] then runs
//!    **one** global [`crate::select`] over the union, so the output is
//!    exactly the global scan's answer — adjudication verdicts only
//!    compare matches sharing a first binding and swap candidates that
//!    satisfy the key equality, both of which are partition-local.
//!
//! What the split buys is the per-event instance loop shrinking from
//! `|Ω|` to the partition's own instances (the paper's Theorems 2–3 make
//! `|Ω|` the dominant cost).

use ses_event::{partition_views, AttrId, EventId, Relation};

use crate::automaton::Automaton;
use crate::engine::{scan, AdmittedLog, EventSelection, RawMatch};
use crate::probe::Probe;

/// Scans `relation` per distinct value of `key` and returns the raw
/// matches and the admitted log in the parent relation's event ids —
/// what one [`scan`] of the whole relation returns when `key` is a
/// proven partition key. `probe` receives [`Probe::partitions`], one
/// [`Probe::partition_events`] per view in first-occurrence order, and
/// then every per-event hook of every view's scan.
pub(crate) fn scan_partitioned<P: Probe>(
    automaton: &Automaton,
    relation: &Relation,
    key: AttrId,
    selection: EventSelection,
    probe: &mut P,
) -> (Vec<RawMatch>, AdmittedLog) {
    let views = partition_views(relation, key);
    probe.partitions(views.len());
    for (_, view) in &views {
        probe.partition_events(view.ids().len());
    }
    let mut raw = Vec::new();
    let mut logs = Vec::with_capacity(views.len());
    for (_, view) in &views {
        let (mut view_raw, mut admitted) = scan(automaton, view, selection, probe);
        to_global_ids(&mut view_raw, &mut admitted, view.ids());
        raw.extend(view_raw);
        logs.push(admitted);
    }
    (raw, AdmittedLog::merge(logs))
}

/// Rewrites a view's local event ids — in its raw matches and in its
/// admitted log alike — to the parent relation's. The id map is
/// ascending, so sorted bindings stay sorted and the log stays ascending.
fn to_global_ids(raw: &mut [RawMatch], admitted: &mut AdmittedLog, ids: &[EventId]) {
    for m in raw {
        for b in &mut m.bindings {
            b.1 = ids[b.1.index()];
        }
    }
    admitted.remap(ids);
}

#[cfg(test)]
mod tests {
    use crate::matcher::{Matcher, MatcherOptions, PartitionMode, PartitionStrategy};
    use crate::probe::Probe;
    use crate::semantics::MatchSemantics;
    use ses_event::{AttrType, CmpOp, Duration, Relation, Schema, Timestamp, Value};
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

    /// A matcher splitting by `ID` under `semantics`.
    fn split(semantics: MatchSemantics) -> Matcher {
        Matcher::with_options(
            &keyed_pattern(),
            &schema(),
            MatcherOptions {
                semantics,
                partition: PartitionMode::Key(schema().attr_id("ID").unwrap()),
                ..MatcherOptions::default()
            },
        )
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
    fn partitioned_equals_global_across_semantics() {
        let rel = relation();
        for semantics in [
            MatchSemantics::AllRuns,
            MatchSemantics::Definition2,
            MatchSemantics::Maximal,
        ] {
            let global = Matcher::with_options(
                &keyed_pattern(),
                &schema(),
                MatcherOptions {
                    semantics,
                    ..MatcherOptions::default()
                },
            )
            .unwrap()
            .find(&rel);
            assert!(!global.is_empty(), "workload should match ({semantics:?})");
            assert_eq!(split(semantics).find(&rel), global, "{semantics:?}");
        }
    }

    #[test]
    fn probe_sees_partition_layout() {
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
        let mut layout = Layout::default();
        split(MatchSemantics::Maximal).find_with_probe(&relation(), &mut layout);
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
        let matcher = split(MatchSemantics::Maximal);
        assert!(matcher.find(&Relation::new(schema())).is_empty());
    }
}
