//! Matching substitutions as returned to the user.

use std::fmt;

use ses_event::{Duration, EventId, Relation};
use ses_pattern::{Pattern, VarId};

use crate::engine::RawMatch;

/// A matching substitution `γ = {v1/e1, …, vn/en}` (Definition 2).
///
/// Bindings are kept in canonical `(event, var)` order: chronological by
/// event, ties broken by variable id.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Match {
    bindings: Vec<(VarId, EventId)>,
}

impl Match {
    pub(crate) fn from_raw(raw: RawMatch) -> Match {
        Match {
            bindings: raw.bindings,
        }
    }

    /// The bindings, moved out.
    pub(crate) fn into_bindings(self) -> Vec<(VarId, EventId)> {
        self.bindings
    }

    /// Creates a match directly from bindings (used by the baseline crate
    /// and tests); sorts into canonical order.
    pub fn from_bindings(mut bindings: Vec<(VarId, EventId)>) -> Match {
        bindings.sort_unstable_by_key(|&(var, ev)| (ev, var));
        Match { bindings }
    }

    /// The bindings in canonical order.
    pub fn bindings(&self) -> &[(VarId, EventId)] {
        &self.bindings
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// `true` iff the match has no bindings (never produced by the
    /// engine — patterns have at least one variable).
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// The bound events, in chronological order.
    pub fn events(&self) -> impl Iterator<Item = EventId> + '_ {
        self.bindings.iter().map(|&(_, e)| e)
    }

    /// The events bound to `var`, in chronological order.
    pub fn events_of(&self, var: VarId) -> impl Iterator<Item = EventId> + '_ {
        self.bindings
            .iter()
            .filter(move |&&(v, _)| v == var)
            .map(|&(_, e)| e)
    }

    /// The chronologically first bound event.
    pub fn first_event(&self) -> EventId {
        self.bindings[0].1
    }

    /// The chronologically last bound event.
    pub fn last_event(&self) -> EventId {
        self.bindings[self.bindings.len() - 1].1
    }

    /// `true` iff the match contains the binding `var/event`. Bindings
    /// are sorted by `(event, var)`, so that is the search key.
    pub fn contains(&self, var: VarId, event: EventId) -> bool {
        self.bindings
            .binary_search_by_key(&(event, var), |&(v, e)| (e, v))
            .is_ok()
    }

    /// `true` iff `self ⊊ other` as binding sets: one merge walk over
    /// the two canonically ordered slices, O(|self| + |other|).
    pub fn is_proper_subset_of(&self, other: &Match) -> bool {
        if self.bindings.len() >= other.bindings.len() {
            return false;
        }
        let mut rest = other.bindings.iter();
        self.bindings.iter().all(|&(var, event)| {
            // Skip what `other` binds before `var/event`; the first
            // binding at or past it is `var/event` itself or proof that
            // `other` lacks it.
            rest.find(|&&(v, e)| (e, v) >= (event, var))
                .is_some_and(|&(v, e)| (e, v) == (event, var))
        })
    }

    /// The time spanned by the match's first and last events.
    pub fn span(&self, relation: &Relation) -> Duration {
        relation
            .event(self.last_event())
            .ts()
            .distance(relation.event(self.first_event()).ts())
    }

    /// Renders the match with the pattern's variable names, e.g.
    /// `{c/e1, d/e3, p+/e4, p+/e9, b/e12}`.
    pub fn display_with(&self, pattern: &Pattern) -> String {
        let mut s = String::from("{");
        for (i, (v, e)) in self.bindings.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&pattern.var_name(*v));
            s.push('/');
            s.push_str(&e.to_string());
        }
        s.push('}');
        s
    }
}

impl fmt::Display for Match {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, e)) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}/{e}")?;
        }
        write!(f, "}}")
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
    fn canonical_order() {
        let x = m(&[(1, 5), (0, 2), (2, 5)]);
        assert_eq!(
            x.bindings(),
            &[
                (VarId(0), EventId(2)),
                (VarId(1), EventId(5)),
                (VarId(2), EventId(5))
            ]
        );
        assert_eq!(x.first_event(), EventId(2));
        assert_eq!(x.last_event(), EventId(5));
        assert_eq!(x.len(), 3);
    }

    #[test]
    fn contains_searches_in_event_order() {
        // Sorted by (event, var) this is [v1/e1, v0/e2]; sorted by
        // (var, event) it would be the reverse, so a search keyed on the
        // wrong order misses.
        let x = m(&[(1, 1), (0, 2)]);
        assert!(x.contains(VarId(0), EventId(2)));
        assert!(x.contains(VarId(1), EventId(1)));
        assert!(!x.contains(VarId(0), EventId(1)));
        assert!(!x.contains(VarId(1), EventId(2)));
        let y = m(&[(2, 4), (0, 5), (1, 5), (0, 9)]);
        for &(v, e) in y.bindings() {
            assert!(y.contains(v, e), "{v}/{e}");
        }
        assert!(!y.contains(VarId(2), EventId(5)));
    }

    #[test]
    fn events_of_filters_by_var() {
        let x = m(&[(1, 3), (1, 8), (0, 0)]);
        let es: Vec<_> = x.events_of(VarId(1)).map(|e| e.0).collect();
        assert_eq!(es, vec![3, 8]);
        assert!(x.contains(VarId(1), EventId(8)));
        assert!(!x.contains(VarId(1), EventId(0)));
    }

    #[test]
    fn proper_subset() {
        let small = m(&[(0, 1), (1, 2)]);
        let big = m(&[(0, 1), (1, 2), (1, 3)]);
        assert!(small.is_proper_subset_of(&big));
        assert!(!big.is_proper_subset_of(&small));
        assert!(!small.is_proper_subset_of(&small));
        let other = m(&[(0, 1), (1, 4)]);
        assert!(!other.is_proper_subset_of(&big));
    }

    #[test]
    fn display_shapes() {
        let x = m(&[(0, 0), (1, 2)]);
        assert_eq!(x.to_string(), "{v0/e1, v1/e3}");
    }
}
