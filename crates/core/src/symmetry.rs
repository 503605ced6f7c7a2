//! The interchangeable classes at run time: which runs are canonical, how
//! the prefix test names a class, and how a canonical match expands into
//! its images.
//!
//! [`crate::Automaton::build`] quotients the paper's automaton by the
//! pattern's interchangeable classes ([`ses_pattern::interchangeable_classes`]):
//! within a class the members bind in event order. A match is
//! *canonical* when each class's members, in [`VarId`] order, bind
//! ascending events; the quotient's accepted runs are exactly the paper
//! automaton's canonical ones, and each stands for its `k!` images
//! (`∏ kᵢ!` with several classes). Adjudication judges the canonical
//! candidates only and [`Symmetry::expand`] restores the images on the
//! way out; `docs/adjudication.md` has the proof that this is the paper's
//! answer.

use ses_event::EventId;
use ses_pattern::{CompiledPattern, VarId};

use crate::engine::RawMatch;
use crate::matches::Match;
use crate::StateSet;

/// A pattern's interchangeable classes, indexed for the per-match
/// queries of adjudication.
#[derive(Debug, Clone)]
pub(crate) struct Symmetry {
    classes: Vec<Vec<VarId>>,
    /// Per variable: the bit of the member bound before it in canonical
    /// order (its predecessor in its class), zero for a class's first
    /// member and for every variable outside classes.
    before: Vec<u64>,
    /// Per variable: its class's first member, or itself.
    representative: Vec<VarId>,
}

impl Symmetry {
    /// The classes of `pattern` ([`CompiledPattern::interchangeable_classes`]).
    pub(crate) fn of(pattern: &CompiledPattern) -> Symmetry {
        Symmetry::new(
            pattern.pattern().num_vars(),
            pattern.interchangeable_classes(),
        )
    }

    /// No class among `num_vars` variables: the paper's automaton.
    pub(crate) fn none(num_vars: usize) -> Symmetry {
        Symmetry::new(num_vars, &[])
    }

    fn new(num_vars: usize, classes: &[Vec<VarId>]) -> Symmetry {
        let mut before = vec![0; num_vars];
        let mut representative: Vec<VarId> = (0..num_vars as u16).map(VarId).collect();
        for class in classes {
            for pair in class.windows(2) {
                before[pair[1].index()] = pair[0].bit();
            }
            for v in class {
                representative[v.index()] = class[0];
            }
        }
        Symmetry {
            classes: classes.to_vec(),
            before,
            representative,
        }
    }

    /// The classes, each in [`VarId`] order — its canonical binding order.
    pub(crate) fn classes(&self) -> &[Vec<VarId>] {
        &self.classes
    }

    /// `true` iff the pattern has no class: every other method is then
    /// the identity.
    pub(crate) fn is_trivial(&self) -> bool {
        self.classes.is_empty()
    }

    /// The variable the condition-4 prefix test files `var`'s bindings
    /// under: its class's first member, or `var` itself outside classes.
    pub(crate) fn representative(&self, var: VarId) -> VarId {
        self.representative[var.index()]
    }

    /// `true` iff every class's members bind ascending events in `VarId`
    /// order. `bindings` is in canonical `(event, var)` order.
    pub(crate) fn is_canonical(&self, bindings: &[(VarId, EventId)]) -> bool {
        let mut seen = StateSet::EMPTY;
        bindings.iter().all(|&(v, _)| {
            let ok = self.may_bind(seen, v);
            seen = seen.with(v);
            ok
        })
    }

    /// `true` iff `var` may bind once the variables of `bound` are: its
    /// predecessor in its class, if it has one, is among them.
    pub(crate) fn may_bind(&self, bound: StateSet, var: VarId) -> bool {
        let before = self.before[var.index()];
        bound.bits() & before == before
    }

    /// Drops the non-canonical runs: what [`crate::select`] does to raw
    /// matches from the paper's automaton, whose run set is closed under
    /// every class permutation, leaving the quotient's.
    pub(crate) fn canonical_only(&self, mut raw: Vec<RawMatch>) -> Vec<RawMatch> {
        if !self.is_trivial() {
            raw.retain(|r| self.is_canonical(&r.bindings));
        }
        raw
    }

    /// Every canonical match of `finals` together with its images under
    /// every permutation of every class, in sorted order. The identity
    /// when the pattern has no class.
    pub(crate) fn expand(&self, finals: Vec<Match>) -> Vec<Match> {
        if self.is_trivial() || finals.is_empty() {
            return finals;
        }
        // Every ordering of every class, the identity first.
        let orders: Vec<Vec<Vec<VarId>>> = self
            .classes
            .iter()
            .map(|class| {
                let mut orders = Vec::new();
                permutations(&mut class.clone(), |vars| orders.push(vars.to_vec()));
                orders
            })
            .collect();
        // The exact output length when it is representable; no
        // reservation otherwise.
        let len = orders
            .iter()
            .try_fold(finals.len(), |n, orders| n.checked_mul(orders.len()));
        let mut out = Vec::with_capacity(len.unwrap_or(0));
        for m in finals {
            let mut images = vec![m.into_bindings()];
            for (class, orders) in self.classes.iter().zip(&orders) {
                // Positions of the class's bindings; canonical order binds
                // member i at the i-th of them.
                let positions: Vec<usize> = images[0]
                    .iter()
                    .enumerate()
                    .filter(|&(_, (v, _))| class.contains(v))
                    .map(|(i, _)| i)
                    .collect();
                let mut next = Vec::with_capacity(images.len() * orders.len());
                for image in images {
                    for vars in &orders[1..] {
                        let mut permuted = image.clone();
                        for (&at, &v) in positions.iter().zip(vars) {
                            permuted[at].0 = v;
                        }
                        next.push(permuted);
                    }
                    next.push(image);
                }
                images = next;
            }
            // Only variables change and events are distinct, so each image
            // is still in canonical (event, var) order.
            out.extend(
                images
                    .into_iter()
                    .map(|bindings| Match::from_raw(RawMatch { bindings })),
            );
        }
        out.sort_unstable();
        out
    }
}

/// Calls `visit` once with every permutation of `items` (Heap's
/// algorithm; the first visit sees `items` as given).
fn permutations(items: &mut [VarId], mut visit: impl FnMut(&[VarId])) {
    let n = items.len();
    let mut c = vec![0usize; n];
    visit(items);
    let mut i = 1;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                items.swap(0, i);
            } else {
                items.swap(c[i], i);
            }
            visit(items);
            c[i] += 1;
            i = 1;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_event::{AttrType, CmpOp, Duration, Schema};
    use ses_pattern::Pattern;

    fn symmetry() -> Symmetry {
        // a, b, c interchangeable; x alone; then y.
        let schema = Schema::builder().attr("L", AttrType::Str).build().unwrap();
        let p = Pattern::builder()
            .set(|s| s.var("a").var("b").var("c").var("x"))
            .set(|s| s.var("y"))
            .cond_const("a", "L", CmpOp::Eq, "A")
            .cond_const("b", "L", CmpOp::Eq, "A")
            .cond_const("c", "L", CmpOp::Eq, "A")
            .cond_const("x", "L", CmpOp::Eq, "X")
            .cond_const("y", "L", CmpOp::Eq, "Y")
            .within(Duration::ticks(10))
            .build()
            .unwrap();
        Symmetry::of(&p.compile(&schema).unwrap())
    }

    fn bindings(pairs: &[(u16, u32)]) -> Vec<(VarId, EventId)> {
        pairs.iter().map(|&(v, e)| (VarId(v), EventId(e))).collect()
    }

    #[test]
    fn canonical_means_members_bind_in_event_order() {
        let s = symmetry();
        assert!(s.is_canonical(&bindings(&[(3, 0), (0, 1), (1, 2), (2, 3), (4, 4)])));
        assert!(!s.is_canonical(&bindings(&[(1, 0), (0, 1), (2, 2), (3, 3), (4, 4)])));
        assert!(!s.is_canonical(&bindings(&[(0, 0), (2, 1), (1, 2), (3, 3), (4, 4)])));
        assert_eq!(s.representative(VarId(2)), VarId(0));
        assert_eq!(s.representative(VarId(3)), VarId(3));
    }

    #[test]
    fn expansion_yields_every_image_once_sorted() {
        let s = symmetry();
        let canonical = Match::from_bindings(bindings(&[(0, 0), (3, 1), (1, 2), (2, 3), (4, 4)]));
        let images = s.expand(vec![canonical.clone()]);
        assert_eq!(images.len(), 6);
        assert!(images.windows(2).all(|w| w[0] < w[1]));
        assert!(images.contains(&canonical));
        let canonical_images: Vec<_> = images
            .iter()
            .filter(|m| s.is_canonical(m.bindings()))
            .collect();
        assert_eq!(canonical_images, [&canonical]);
        for m in &images {
            assert_eq!(m.bindings()[1], (VarId(3), EventId(1)), "x stays put");
            assert_eq!(
                m.events().collect::<Vec<_>>(),
                canonical.events().collect::<Vec<_>>()
            );
        }
    }
}
