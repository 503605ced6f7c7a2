//! Zero-cost instrumentation hooks for the execution engine.
//!
//! The engine is generic over a [`Probe`]. The default [`NoProbe`] has
//! empty inline methods that the optimizer removes entirely, so production
//! matching pays nothing; the experiment harness supplies a counting probe
//! (`ses-metrics`) to measure the quantities the paper reports — peak
//! `|Ω|`, instance creations, transition evaluations, filter decisions.

/// Engine instrumentation callbacks. All methods default to no-ops.
pub trait Probe {
    /// An input event was read from the relation.
    #[inline]
    fn event_read(&mut self) {}

    /// The §4.5 filter dropped the event before instance iteration: it
    /// satisfies the constant conditions of no variable.
    #[inline]
    fn event_filtered(&mut self) {}

    /// A fresh instance was created in the start state (Algorithm 1,
    /// line 4).
    #[inline]
    fn instance_spawned(&mut self) {}

    /// An instance branched due to nondeterminism (more than one
    /// transition fired for the same instance and event).
    #[inline]
    fn instance_branched(&mut self) {}

    /// An instance expired (its window exceeded `τ`).
    #[inline]
    fn instance_expired(&mut self) {}

    /// A transition's condition set was evaluated.
    #[inline]
    fn transition_evaluated(&mut self) {}

    /// A transition fired.
    #[inline]
    fn transition_taken(&mut self) {}

    /// An accepting instance emitted its buffer as a raw match.
    #[inline]
    fn match_emitted(&mut self) {}

    /// `|Ω|` after fully processing one event — the quantity plotted in
    /// the paper's Figures 11 and 12 is the maximum over these samples.
    #[inline]
    fn omega(&mut self, _n: usize) {}

    /// The streaming matcher evicted `_n` events from its relation.
    #[inline]
    fn events_evicted(&mut self, _n: usize) {}

    /// Events retained by the streaming matcher after one push —
    /// bounded-memory operation means the maximum over these samples
    /// stays flat as the stream grows.
    #[inline]
    fn retained_events(&mut self, _n: usize) {}

    /// Partitioned execution split the input into `_n` partitions. Fired
    /// once per partitioned run, before any partition executes.
    #[inline]
    fn partitions(&mut self, _n: usize) {}

    /// One partition holds `_n` events. Fired once per partition, in
    /// partition order — the spread over these samples is the key skew.
    #[inline]
    fn partition_events(&mut self, _n: usize) {}

    /// A pattern bank routed one event into `_n` pattern matchers (the
    /// event satisfied those patterns' admission predicates). Fired once
    /// per bank push.
    #[inline]
    fn index_hits(&mut self, _n: usize) {}

    /// A pattern bank skipped `_n` pattern matchers for one event (they
    /// receive at most a watermark heartbeat). Fired once per bank push.
    #[inline]
    fn index_skips(&mut self, _n: usize) {}

    /// A durability checkpoint was persisted: `_bytes` written to disk,
    /// `_nanos` spent snapshotting, serializing, and syncing it. Fired
    /// by the checkpoint driver once per saved checkpoint; the ratio of
    /// total checkpoint time to run time is the checkpointing overhead.
    #[inline]
    fn checkpoint_saved(&mut self, _bytes: u64, _nanos: u64) {}

    /// An ingest front-end enqueued one event onto a bounded queue that
    /// now holds `_depth` entries. Fired per enqueue by queue owners
    /// (the match server's router); the maximum over these samples is
    /// the queue's high-water mark — the backpressure quantity the
    /// server's `stats` verb reports.
    #[inline]
    fn ingest_enqueued(&mut self, _depth: usize) {}

    /// An ingest front-end shed `_n` events because a bounded queue was
    /// full and the load-shedding policy rejects instead of blocking.
    #[inline]
    fn ingest_shed(&mut self, _n: usize) {}
}

/// The no-op probe: compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {}

impl<P: Probe + ?Sized> Probe for &mut P {
    #[inline]
    fn event_read(&mut self) {
        (**self).event_read();
    }
    #[inline]
    fn event_filtered(&mut self) {
        (**self).event_filtered();
    }
    #[inline]
    fn instance_spawned(&mut self) {
        (**self).instance_spawned();
    }
    #[inline]
    fn instance_branched(&mut self) {
        (**self).instance_branched();
    }
    #[inline]
    fn instance_expired(&mut self) {
        (**self).instance_expired();
    }
    #[inline]
    fn transition_evaluated(&mut self) {
        (**self).transition_evaluated();
    }
    #[inline]
    fn transition_taken(&mut self) {
        (**self).transition_taken();
    }
    #[inline]
    fn match_emitted(&mut self) {
        (**self).match_emitted();
    }
    #[inline]
    fn omega(&mut self, n: usize) {
        (**self).omega(n);
    }
    #[inline]
    fn events_evicted(&mut self, n: usize) {
        (**self).events_evicted(n);
    }
    #[inline]
    fn retained_events(&mut self, n: usize) {
        (**self).retained_events(n);
    }
    #[inline]
    fn partitions(&mut self, n: usize) {
        (**self).partitions(n);
    }
    #[inline]
    fn partition_events(&mut self, n: usize) {
        (**self).partition_events(n);
    }
    #[inline]
    fn index_hits(&mut self, n: usize) {
        (**self).index_hits(n);
    }
    #[inline]
    fn index_skips(&mut self, n: usize) {
        (**self).index_skips(n);
    }
    #[inline]
    fn checkpoint_saved(&mut self, bytes: u64, nanos: u64) {
        (**self).checkpoint_saved(bytes, nanos);
    }
    #[inline]
    fn ingest_enqueued(&mut self, depth: usize) {
        (**self).ingest_enqueued(depth);
    }
    #[inline]
    fn ingest_shed(&mut self, n: usize) {
        (**self).ingest_shed(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        events: usize,
        omega_max: usize,
    }

    impl Probe for Counter {
        fn event_read(&mut self) {
            self.events += 1;
        }
        fn omega(&mut self, n: usize) {
            self.omega_max = self.omega_max.max(n);
        }
    }

    #[test]
    fn custom_probe_counts() {
        let mut c = Counter::default();
        c.event_read();
        c.event_read();
        c.omega(3);
        c.omega(1);
        assert_eq!(c.events, 2);
        assert_eq!(c.omega_max, 3);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut c = Counter::default();
        {
            let mut r: &mut Counter = &mut c;
            r.event_read();
            Probe::omega(&mut r, 7);
        }
        assert_eq!(c.events, 1);
        assert_eq!(c.omega_max, 7);
    }

    #[test]
    fn no_probe_is_usable() {
        let mut p = NoProbe;
        p.event_read();
        p.omega(5);
        p.match_emitted();
    }
}
