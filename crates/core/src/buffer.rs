//! Match buffers in a node log.
//!
//! The match buffer `β` of an automaton instance collects variable/event
//! bindings (§4.1). Nondeterminism makes instances *branch* (Algorithm 2
//! line 5), and in the worst case `|Ω|` grows factorially (Theorems 2–3) —
//! so buffers must be cheap to fork. A [`Buffer`] is a `Copy` handle — its
//! newest node, its length and its `minT` — into the one [`NodeLog`] its
//! execution owns. A binding appends one node that points at the node of
//! the buffer it extends, so a branch is O(1) and shares the whole tail.
//!
//! The log is in time order. Events are consumed in stream order, so nodes
//! are appended with non-decreasing timestamps, and every node a buffer
//! reaches is at or after its first binding. Ω is kept in first-binding
//! order (see [`crate::engine`]), so once the instances whose window closed
//! have expired, the first live instance's `minT` bounds every node any
//! live instance reaches: the nodes before it are dead, and they are a
//! prefix, and the log cuts it.

use ses_event::{EventId, Timestamp};
use ses_pattern::VarId;

/// One binding `v/e` of a variable to an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding {
    /// The event variable.
    pub var: VarId,
    /// The bound event.
    pub event: EventId,
    /// The bound event's occurrence time (cached to avoid relation
    /// lookups in the expiry check).
    pub ts: Timestamp,
}

/// One binding and the node of the buffer it extends.
#[derive(Debug, Clone, Copy)]
struct Node {
    binding: Binding,
    /// Absolute index of the next-older node; meaningless on a buffer's
    /// oldest node, which its length says is the last.
    next: u32,
}

/// A match buffer `β`: `len` bindings whose newest is node `head` of a
/// [`NodeLog`], and the timestamp of the oldest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Buffer {
    head: u32,
    len: u32,
    /// `minT`, meaningful only when `len > 0`.
    min_ts: Timestamp,
}

impl Buffer {
    /// The empty buffer `β = ∅`.
    pub const EMPTY: Buffer = Buffer {
        head: 0,
        len: 0,
        min_ts: Timestamp::new(0),
    };

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` iff the buffer holds no bindings.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Timestamp of the first binding, if any — the `minT(γ)` of
    /// Definition 2. Bindings are appended in time order, so it is also
    /// the earliest.
    pub fn min_ts(&self) -> Option<Timestamp> {
        (self.len > 0).then_some(self.min_ts)
    }
}

/// The nodes of every buffer one execution holds, oldest first.
///
/// Node indices are absolute and count modulo 2³², so a trim renumbers
/// nothing: a [`Buffer`] stays valid for as long as its nodes are
/// retained, and the live part of the log must stay below 2³² nodes.
#[derive(Debug, Default)]
pub struct NodeLog {
    nodes: Vec<Node>,
    /// Absolute index of `nodes[0]`.
    base: u32,
}

impl NodeLog {
    /// The smallest dead prefix [`NodeLog::trim`] bothers to cut.
    const TRIM_MIN: usize = 64;

    /// Returns `buffer` extended with one binding; `buffer` is untouched
    /// and shares its nodes with the result. Bindings must be appended in
    /// time order.
    pub fn push(&mut self, buffer: Buffer, var: VarId, event: EventId, ts: Timestamp) -> Buffer {
        debug_assert!(self.nodes.last().is_none_or(|n| n.binding.ts <= ts));
        let offset = u32::try_from(self.nodes.len()).expect("fewer than 2^32 live nodes");
        self.nodes.push(Node {
            binding: Binding { var, event, ts },
            next: buffer.head,
        });
        Buffer {
            head: self.base.wrapping_add(offset),
            len: buffer.len + 1,
            min_ts: if buffer.len == 0 { ts } else { buffer.min_ts },
        }
    }

    /// Number of retained nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff no node is retained.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates a buffer's bindings newest-first (reverse binding order).
    pub fn iter(&self, buffer: Buffer) -> impl Iterator<Item = Binding> + '_ {
        let mut at = buffer.head;
        (0..buffer.len).map(move |_| {
            let node = &self.nodes[at.wrapping_sub(self.base) as usize];
            at = node.next;
            node.binding
        })
    }

    /// Iterates the bindings of one variable, newest-first.
    pub fn bindings_of(&self, buffer: Buffer, var: VarId) -> impl Iterator<Item = Binding> + '_ {
        self.iter(buffer).filter(move |b| b.var == var)
    }

    /// The (single) binding of a variable, if present. For group variables
    /// this returns the most recent binding.
    pub fn binding_of(&self, buffer: Buffer, var: VarId) -> Option<Binding> {
        self.bindings_of(buffer, var).next()
    }

    /// A buffer's bindings, oldest first.
    pub fn bindings(&self, buffer: Buffer) -> Vec<Binding> {
        let mut bindings: Vec<Binding> = self.iter(buffer).collect();
        bindings.reverse();
        bindings
    }

    /// A buffer's bindings as `(var, event)` pairs sorted by `(event, var)`
    /// — the canonical form used for match comparison and deduplication.
    /// A buffer binds each event at most once, and newest-first is
    /// descending by event, so a reversed walk is already sorted.
    pub fn to_sorted_bindings(&self, buffer: Buffer) -> Vec<(VarId, EventId)> {
        let mut v: Vec<(VarId, EventId)> = self.iter(buffer).map(|b| (b.var, b.event)).collect();
        v.reverse();
        debug_assert!(v.windows(2).all(|w| w[0].1 < w[1].1));
        v
    }

    /// `true` iff every node `buffer` reaches is retained — none lies in
    /// a prefix the log has cut.
    pub fn retains(&self, buffer: Buffer) -> bool {
        let mut at = buffer.head;
        (0..buffer.len).all(
            |_| match self.nodes.get(at.wrapping_sub(self.base) as usize) {
                Some(node) => {
                    at = node.next;
                    true
                }
                None => false,
            },
        )
    }

    /// Forgets the nodes bound before `floor`, the earliest first binding
    /// of any live buffer (`None` when no live buffer binds anything):
    /// no live buffer reaches them. Cuts only once they are at least half
    /// the log, or all of it, so the log holds fewer than twice the nodes
    /// bound since `floor` plus a constant, and each node is moved O(1)
    /// times on average.
    pub(crate) fn trim(&mut self, floor: Option<Timestamp>) {
        let len = self.nodes.len();
        let dead = floor.map_or(len, |floor| {
            self.nodes.partition_point(|n| n.binding.ts < floor)
        });
        if dead == len || (dead >= Self::TRIM_MIN && 2 * dead >= len) {
            self.nodes.drain(..dead);
            self.base = self.base.wrapping_add(dead as u32);
        }
    }

    /// The retained nodes' timestamps, oldest first.
    #[cfg(test)]
    pub(crate) fn timestamps(&self) -> impl Iterator<Item = Timestamp> + '_ {
        self.nodes.iter().map(|n| n.binding.ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: i64) -> Timestamp {
        Timestamp::new(t)
    }

    #[test]
    fn push_is_persistent() {
        let mut log = NodeLog::default();
        let a = log.push(Buffer::EMPTY, VarId(0), EventId(0), ts(1));
        let b = log.push(a, VarId(1), EventId(1), ts(2));
        let c = log.push(a, VarId(2), EventId(2), ts(3)); // fork from a
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(log.len(), 3, "the fork shares a's node");
        assert_eq!(log.binding_of(b, VarId(1)).unwrap().event, EventId(1));
        assert_eq!(log.binding_of(c, VarId(2)).unwrap().event, EventId(2));
        assert!(log.binding_of(b, VarId(2)).is_none());
    }

    #[test]
    fn min_ts_is_the_first_binding() {
        let mut log = NodeLog::default();
        let a = log.push(Buffer::EMPTY, VarId(0), EventId(5), ts(10));
        let b = log.push(a, VarId(1), EventId(6), ts(20));
        assert_eq!(b.min_ts(), Some(ts(10)));
        assert_eq!(Buffer::EMPTY.min_ts(), None);
    }

    #[test]
    fn bindings_of_group_variable() {
        let mut log = NodeLog::default();
        let p = VarId(1);
        let b = log.push(Buffer::EMPTY, p, EventId(3), ts(1));
        let b = log.push(b, VarId(0), EventId(4), ts(2));
        let b = log.push(b, p, EventId(8), ts(3));
        let events: Vec<_> = log.bindings_of(b, p).map(|x| x.event.0).collect();
        assert_eq!(events, vec![8, 3]); // newest first
        assert_eq!(log.binding_of(b, p).unwrap().event, EventId(8));
        let oldest_first: Vec<_> = log.bindings(b).iter().map(|x| x.event.0).collect();
        assert_eq!(oldest_first, vec![3, 4, 8]);
    }

    #[test]
    fn sorted_bindings_are_canonical() {
        let mut log = NodeLog::default();
        let b = log.push(Buffer::EMPTY, VarId(2), EventId(3), ts(1));
        let b = log.push(b, VarId(0), EventId(9), ts(2));
        assert_eq!(
            log.to_sorted_bindings(b),
            vec![(VarId(2), EventId(3)), (VarId(0), EventId(9))]
        );
    }

    #[test]
    fn empty_buffer_iterates_nothing() {
        let log = NodeLog::default();
        assert_eq!(log.iter(Buffer::EMPTY).count(), 0);
        assert!(Buffer::EMPTY.is_empty());
        assert_eq!(Buffer::default().len(), 0);
        assert!(log.retains(Buffer::EMPTY));
    }

    #[test]
    fn trim_cuts_the_dead_prefix_and_keeps_live_buffers_readable() {
        let mut log = NodeLog::default();
        // One single-binding buffer per tick; the last one is live.
        let mut last = Buffer::EMPTY;
        for t in 0..200 {
            last = log.push(Buffer::EMPTY, VarId(0), EventId(t), ts(i64::from(t)));
        }
        let live = log.push(last, VarId(1), EventId(200), ts(200));
        // A dead prefix below half the log stays.
        log.trim(Some(ts(50)));
        assert_eq!(log.len(), 201);
        // At half or more it goes; the live buffer still reads.
        log.trim(live.min_ts());
        assert_eq!(log.len(), 2);
        assert!(log.retains(live));
        assert_eq!(
            log.to_sorted_bindings(live),
            vec![(VarId(0), EventId(199)), (VarId(1), EventId(200))]
        );
        // Nodes pushed after a trim extend live buffers as before.
        let longer = log.push(live, VarId(2), EventId(201), ts(201));
        assert_eq!(log.bindings(longer).len(), 3);
        // With no live binding everything is dead, however little.
        log.trim(None);
        assert!(log.is_empty());
        assert!(!log.retains(longer));
    }
}
