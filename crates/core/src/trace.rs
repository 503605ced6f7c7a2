//! Step-by-step execution traces — the paper's Figure 6 as a library
//! feature.
//!
//! [`trace_execution`] replays `SESExec` event by event and records how
//! the instance set `Ω` evolves: which instances advanced (and along
//! which variable binding), which were freshly started, which expired,
//! and which matches were emitted. [`ExecutionTrace::render`] prints the
//! story in the style of the paper's Figure 6.

use std::fmt::Write as _;

use ses_event::{EventId, Relation};

use crate::buffer::Binding;
use crate::engine::{EventSelection, Execution};
use crate::probe::NoProbe;
use crate::{Automaton, StateId};

/// What happened to the instance set at one input event.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// The consumed event.
    pub event: EventId,
    /// `true` when the §4.5 filter dropped the event (nothing else
    /// happens on such steps).
    pub filtered: bool,
    /// Instances present after the step, in Ω's order, as `(state,
    /// bindings oldest first)` pairs.
    pub instances: Vec<(StateId, Vec<Binding>)>,
    /// How many instances of the previous step expired at this event.
    pub expired: usize,
    /// Raw matches emitted at this event (on expiry).
    pub emitted: usize,
    /// `|Ω|` after the step.
    pub omega: usize,
}

/// A full execution trace.
#[derive(Debug, Clone)]
pub struct ExecutionTrace {
    /// One step per input event, in stream order.
    pub steps: Vec<TraceStep>,
    /// Total raw matches produced (including the end-of-input flush).
    pub total_matches: usize,
}

/// Replays the automaton over `relation`, recording every step.
///
/// Tracing clones the instance set at every event — use it for
/// debugging and documentation, not for measurement.
pub fn trace_execution(
    automaton: &Automaton,
    relation: &Relation,
    selection: EventSelection,
) -> ExecutionTrace {
    let mut exec = Execution::new(automaton, relation, selection);
    let mut steps = Vec::with_capacity(relation.len());
    let mut emitted_during_run = 0usize;

    struct StepProbe {
        filtered: bool,
        expired: usize,
        emitted: usize,
    }
    impl crate::Probe for StepProbe {
        fn event_filtered(&mut self) {
            self.filtered = true;
        }
        fn instance_expired(&mut self) {
            self.expired += 1;
        }
        fn match_emitted(&mut self) {
            self.emitted += 1;
        }
    }

    loop {
        let position = exec.position();
        let mut probe = StepProbe {
            filtered: false,
            expired: 0,
            emitted: 0,
        };
        if !exec.step(&mut probe) {
            break;
        }
        let instances: Vec<(StateId, Vec<Binding>)> = exec
            .instances()
            .iter()
            .map(|i| (i.state, exec.log().bindings(i.buffer)))
            .collect();
        steps.push(TraceStep {
            event: EventId::from(relation.first_index() + position),
            filtered: probe.filtered,
            omega: instances.len(),
            instances,
            expired: probe.expired,
            emitted: probe.emitted,
        });
        emitted_during_run += probe.emitted;
    }
    let mut flush_probe = NoProbe;
    let (results, _) = exec.finish(&mut flush_probe);
    ExecutionTrace {
        steps,
        total_matches: results.len().max(emitted_during_run),
    }
}

impl ExecutionTrace {
    /// Renders the trace in the style of the paper's Figure 6. When
    /// `follow` is given, only instances whose buffer starts with that
    /// event are shown (the paper follows the patient-1 instance).
    pub fn render(&self, automaton: &Automaton, follow: Option<EventId>) -> String {
        let pattern = automaton.pattern().pattern();
        let mut out = String::new();
        for step in &self.steps {
            let _ = write!(out, "read {}: ", step.event);
            if step.filtered {
                let _ = writeln!(out, "filtered (§4.5)");
                continue;
            }
            let _ = write!(out, "|Ω| = {}", step.omega);
            if step.expired > 0 {
                let _ = write!(out, ", {} expired", step.expired);
            }
            if step.emitted > 0 {
                let _ = write!(out, ", {} match(es) emitted", step.emitted);
            }
            let _ = writeln!(out);
            for (state, bindings) in &step.instances {
                if let Some(first) = follow {
                    if bindings.first().is_none_or(|b| b.event != first) {
                        continue;
                    }
                }
                let rendered: Vec<String> = bindings
                    .iter()
                    .map(|b| format!("{}/{}", pattern.var_name(b.var), b.event))
                    .collect();
                let _ = writeln!(
                    out,
                    "  qc = {:<8} β = {{{}}}",
                    automaton.state_label(*state),
                    rendered.join(", ")
                );
            }
        }
        let _ = writeln!(out, "total matches: {}", self.total_matches);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventSelection, Matcher};
    use ses_event::Timestamp;

    /// Figure 6: the patient-1 instance of the running example steps
    /// through {c} → {c,d} → {c,d,p} (e4), ignores e6, re-binds p at e9,
    /// and reaches the accepting state at e12.
    #[test]
    fn figure6_patient1_trace() {
        let relation = ses_figure1();
        let q1 = ses_q1();
        let matcher = Matcher::compile(&q1, relation.schema()).unwrap();
        let automaton = matcher.automaton();
        let trace = trace_execution(automaton, &relation, EventSelection::default());

        // Follow the instance started at e1 (the paper's Ñ).
        let follow = Some(ses_event::EventId(0));
        let find_state = |event_idx: usize| -> Vec<String> {
            trace.steps[event_idx]
                .instances
                .iter()
                .filter(|(_, b)| b.first().is_some_and(|x| x.event == ses_event::EventId(0)))
                .map(|(s, _)| automaton.state_label(*s))
                .collect()
        };

        assert_eq!(find_state(0), vec!["c"]); // Fig. 6(b): read e1, match starts
        assert_eq!(find_state(1), vec!["c"]); // Fig. 6(c): e2 ignored
        assert_eq!(find_state(2), vec!["cd"]); // Fig. 6(d): e3 matched
        assert_eq!(find_state(3), vec!["cp+d"]); // Fig. 6(e): e4 matched
        assert_eq!(find_state(5), vec!["cp+d"]); // Fig. 6(f): e6 ignored
                                                 // Fig. 6(g): e9 loop extends the buffer.
        let e9_buffers: Vec<usize> = trace.steps[8]
            .instances
            .iter()
            .filter(|(_, b)| b.first().is_some_and(|x| x.event == ses_event::EventId(0)))
            .map(|(_, b)| b.len())
            .collect();
        assert_eq!(e9_buffers, vec![4]); // c, d, p, p
        assert_eq!(find_state(11), vec!["cp+db"]); // Fig. 6(h): accepting

        // The rendering mentions the accepting buffer of Figure 6(h).
        let rendered = trace.render(automaton, follow);
        assert!(
            rendered.contains("β = {c/e1, d/e3, p+/e4, p+/e9, b/e12}"),
            "{rendered}"
        );
        // The trace reports *raw* Algorithm-1 runs: the two Figure-1
        // answers plus the suffix run starting at e7 (Definition-2's
        // Maximal semantics later reduces them to 2).
        assert!(rendered.contains("total matches: 3"), "{rendered}");
    }

    #[test]
    fn filtered_steps_are_marked() {
        let relation = {
            let schema = ses_event::Schema::builder()
                .attr("L", ses_event::AttrType::Str)
                .build()
                .unwrap();
            let mut r = Relation::new(schema);
            for (t, l) in [(0, "A"), (1, "Z"), (2, "B")] {
                r.push_values(Timestamp::new(t), [ses_event::Value::from(l)])
                    .unwrap();
            }
            r
        };
        let p = ses_pattern::Pattern::builder()
            .set(|s| s.var("a"))
            .set(|s| s.var("b"))
            .cond_const("a", "L", ses_event::CmpOp::Eq, "A")
            .cond_const("b", "L", ses_event::CmpOp::Eq, "B")
            .within(ses_event::Duration::ticks(10))
            .build()
            .unwrap();
        let m = Matcher::compile(&p, relation.schema()).unwrap();
        let trace = trace_execution(m.automaton(), &relation, EventSelection::default());
        assert!(!trace.steps[0].filtered);
        assert!(trace.steps[1].filtered, "Z satisfies no constant condition");
        assert!(!trace.steps[2].filtered);
        let rendered = trace.render(m.automaton(), None);
        assert!(rendered.contains("filtered (§4.5)"), "{rendered}");
    }

    fn ses_figure1() -> Relation {
        // A local copy of Figure 1 (ses-core cannot depend on
        // ses-workload).
        let schema = ses_event::Schema::builder()
            .attr("ID", ses_event::AttrType::Int)
            .attr("L", ses_event::AttrType::Str)
            .build()
            .unwrap();
        let rows: [(i64, &str, i64); 14] = [
            (1, "C", 57),
            (1, "B", 58),
            (1, "D", 59),
            (1, "P", 81),
            (2, "B", 105),
            (2, "P", 106),
            (2, "D", 107),
            (2, "C", 129),
            (1, "P", 130),
            (2, "P", 131),
            (2, "P", 153),
            (1, "B", 273),
            (2, "B", 297),
            (2, "B", 321),
        ];
        let mut r = Relation::new(schema);
        for (id, l, t) in rows {
            r.push_values(
                Timestamp::new(t),
                [ses_event::Value::from(id), ses_event::Value::from(l)],
            )
            .unwrap();
        }
        r
    }

    fn ses_q1() -> ses_pattern::Pattern {
        ses_pattern::Pattern::builder()
            .set(|s| s.var("c").plus("p").var("d"))
            .set(|s| s.var("b"))
            .cond_const("c", "L", ses_event::CmpOp::Eq, "C")
            .cond_const("d", "L", ses_event::CmpOp::Eq, "D")
            .cond_const("p", "L", ses_event::CmpOp::Eq, "P")
            .cond_const("b", "L", ses_event::CmpOp::Eq, "B")
            .cond_vars("c", "ID", ses_event::CmpOp::Eq, "p", "ID")
            .cond_vars("c", "ID", ses_event::CmpOp::Eq, "d", "ID")
            .cond_vars("d", "ID", ses_event::CmpOp::Eq, "b", "ID")
            .within(ses_event::Duration::hours(264))
            .build()
            .unwrap()
    }
}
