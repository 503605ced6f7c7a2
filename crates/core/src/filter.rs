//! Event pre-filtering (paper §4.5).
//!
//! Events that satisfy no condition of the form `v.A φ C` can never be
//! bound by any transition, yet Algorithm 1 would still iterate every
//! active instance for them. The paper inserts a filter "immediately after
//! they are read": an event reaches the instance loop only if it satisfies
//! **at least one** constant condition of `Θ`.
//!
//! We additionally provide a strictly stronger, still sound variant,
//! [`FilterMode::PerVariable`]: the event must satisfy **all** constant
//! conditions of at least one variable — a necessary criterion for the
//! event to ever bind anywhere.
//!
//! Both filters are only sound when *every* variable carries at least one
//! constant condition (otherwise some variable accepts arbitrary events).
//! [`EventFilter::new`] silently downgrades to [`FilterMode::Off`] in that
//! case and records the downgrade.

use ses_event::Event;
use ses_pattern::CompiledPattern;

/// Filtering strategy applied to each input event before instance
/// iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterMode {
    /// No filtering: every event is offered to every instance.
    Off,
    /// The paper's §4.5 filter: keep events satisfying ≥ 1 constant
    /// condition of `Θ`.
    #[default]
    Paper,
    /// Keep events satisfying **all** constant conditions of ≥ 1 variable
    /// (implies the paper's criterion; never weaker).
    PerVariable,
}

/// A compiled event filter for one pattern.
#[derive(Debug, Clone)]
pub struct EventFilter {
    mode: FilterMode,
    requested: FilterMode,
}

impl EventFilter {
    /// Compiles the filter, downgrading to [`FilterMode::Off`] when the
    /// pattern has a variable without constant conditions (filtering would
    /// then be unsound).
    pub fn new(pattern: &CompiledPattern, requested: FilterMode) -> EventFilter {
        let mode = if requested == FilterMode::Off || pattern.every_var_constrained() {
            requested
        } else {
            FilterMode::Off
        };
        EventFilter { mode, requested }
    }

    /// The mode actually in effect.
    pub fn effective_mode(&self) -> FilterMode {
        self.mode
    }

    /// The mode the options asked for (before any downgrade).
    pub fn requested_mode(&self) -> FilterMode {
        self.requested
    }

    /// `true` iff the requested mode had to be downgraded to `Off`.
    pub fn downgraded(&self) -> bool {
        self.mode != self.requested
    }

    /// Decides whether `event` passes the filter.
    #[inline]
    pub fn passes(&self, pattern: &CompiledPattern, event: &Event) -> bool {
        match self.mode {
            FilterMode::Off => true,
            FilterMode::Paper => pattern.satisfies_any_constant(event),
            FilterMode::PerVariable => {
                let n = pattern.pattern().num_vars();
                (0..n).any(|i| pattern.satisfies_var_constants(ses_pattern::VarId(i as u16), event))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_event::{AttrType, CmpOp, Event, Schema, Timestamp, Value};
    use ses_pattern::Pattern;

    fn schema() -> Schema {
        Schema::builder()
            .attr("L", AttrType::Str)
            .attr("V", AttrType::Float)
            .build()
            .unwrap()
    }

    fn ev(l: &str, v: f64) -> Event {
        Event::new(Timestamp::new(0), vec![Value::from(l), Value::from(v)])
    }

    fn pattern_two_consts() -> CompiledPattern {
        // a: L='A' ∧ V>10;  b: L='B'
        Pattern::builder()
            .set(|s| s.var("a").var("b"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("a", "V", CmpOp::Gt, 10.0)
            .cond_const("b", "L", CmpOp::Eq, "B")
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap()
    }

    #[test]
    fn paper_filter_needs_any_constant() {
        let p = pattern_two_consts();
        let f = EventFilter::new(&p, FilterMode::Paper);
        assert!(!f.downgraded());
        // 'A' with small V satisfies a.L='A' → passes the paper filter.
        assert!(f.passes(&p, &ev("A", 1.0)));
        assert!(f.passes(&p, &ev("B", 1.0)));
        // V=50 satisfies a.V>10 even with alien label → passes.
        assert!(f.passes(&p, &ev("X", 50.0)));
        assert!(!f.passes(&p, &ev("X", 1.0)));
    }

    #[test]
    fn per_variable_filter_is_stronger() {
        let p = pattern_two_consts();
        let f = EventFilter::new(&p, FilterMode::PerVariable);
        // 'A' with small V fails a's full set and is not a 'B' → dropped.
        assert!(!f.passes(&p, &ev("A", 1.0)));
        assert!(f.passes(&p, &ev("A", 11.0)));
        assert!(f.passes(&p, &ev("B", 1.0)));
        assert!(!f.passes(&p, &ev("X", 50.0)));
    }

    #[test]
    fn per_variable_implies_paper() {
        let p = pattern_two_consts();
        let paper = EventFilter::new(&p, FilterMode::Paper);
        let pv = EventFilter::new(&p, FilterMode::PerVariable);
        for e in [
            ev("A", 1.0),
            ev("A", 11.0),
            ev("B", 0.0),
            ev("X", 50.0),
            ev("X", 0.0),
        ] {
            if pv.passes(&p, &e) {
                assert!(paper.passes(&p, &e), "PerVariable must be ⊆ Paper");
            }
        }
    }

    #[test]
    fn unconstrained_variable_downgrades() {
        let p = Pattern::builder()
            .set(|s| s.var("a").var("free"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .build()
            .unwrap()
            .compile(&schema())
            .unwrap();
        let f = EventFilter::new(&p, FilterMode::Paper);
        assert!(f.downgraded());
        assert_eq!(f.effective_mode(), FilterMode::Off);
        // Everything passes after the downgrade.
        assert!(f.passes(&p, &ev("Z", 0.0)));
    }

    #[test]
    fn off_never_downgrades() {
        let p = pattern_two_consts();
        let f = EventFilter::new(&p, FilterMode::Off);
        assert!(!f.downgraded());
        assert!(f.passes(&p, &ev("Z", 0.0)));
    }
}
