//! A counting [`Probe`] recording the quantities the paper's evaluation
//! reports.

use ses_core::Probe;

/// Counters collected during one engine run.
///
/// `omega_max` is the paper's measured parameter in experiments 1 and 2:
/// "the maximal number of automaton instances that are simultaneously
/// active during the execution".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingProbe {
    /// Events read from the relation.
    pub events_read: u64,
    /// Events dropped by the §4.5 filter.
    pub events_filtered: u64,
    /// Fresh instances spawned in the start state.
    pub instances_spawned: u64,
    /// Instances created by nondeterministic branching.
    pub instances_branched: u64,
    /// Instances that expired (window exceeded).
    pub instances_expired: u64,
    /// Transition condition sets evaluated.
    pub transitions_evaluated: u64,
    /// Transitions taken.
    pub transitions_taken: u64,
    /// Raw matches emitted.
    pub matches_emitted: u64,
    /// Peak simultaneous instances, `max |Ω|`.
    pub omega_max: usize,
    /// Sum of per-event `|Ω|` samples (for averages).
    pub omega_sum: u64,
    /// Number of `|Ω|` samples.
    pub omega_samples: u64,
    /// Total events evicted by a streaming matcher's watermark.
    pub events_evicted: u64,
    /// Peak retained-relation size across streaming pushes. Stays flat
    /// on unbounded streams when eviction is working.
    pub retained_max: usize,
    /// Partitioned runs observed (each fires the `partitions` hook once).
    pub partitioned_runs: u64,
    /// Per-partition event counts, in partition order — the spread over
    /// these is the key skew.
    pub partition_events: Vec<usize>,
    /// Events routed into pattern-bank matchers (summed over patterns:
    /// one event admitted to k patterns contributes k).
    pub index_hits: u64,
    /// Pattern-bank matchers skipped (heartbeat only) — the per-pattern
    /// pushes the predicate index saved.
    pub index_skips: u64,
    /// Durability checkpoints saved.
    pub checkpoints: u64,
    /// Total bytes written across saved checkpoints.
    pub checkpoint_bytes: u64,
    /// Total nanoseconds spent snapshotting, serializing, and syncing
    /// checkpoints — checkpoint overhead relative to run time.
    pub checkpoint_nanos: u64,
    /// Events enqueued onto bounded ingest queues (the match server's
    /// admission path).
    pub ingest_enqueued: u64,
    /// Peak bounded-queue depth observed across enqueues — the
    /// backpressure high-water mark.
    pub ingest_queue_peak: usize,
    /// Events shed by a full bounded queue under the reject policy.
    pub ingest_shed: u64,
}

impl CountingProbe {
    /// A fresh probe with all counters at zero.
    pub fn new() -> CountingProbe {
        CountingProbe::default()
    }

    /// Mean `|Ω|` over all samples (0.0 when nothing was sampled).
    pub fn omega_mean(&self) -> f64 {
        if self.omega_samples == 0 {
            0.0
        } else {
            self.omega_sum as f64 / self.omega_samples as f64
        }
    }

    /// Fraction of read events dropped by the filter.
    pub fn filter_rate(&self) -> f64 {
        if self.events_read == 0 {
            0.0
        } else {
            self.events_filtered as f64 / self.events_read as f64
        }
    }

    /// Number of partitions seen by the last partitioned run.
    pub fn partition_count(&self) -> usize {
        self.partition_events.len()
    }

    /// Key skew of the partition layout: largest partition over the mean
    /// partition size (1.0 = perfectly balanced; 0.0 when unpartitioned).
    pub fn partition_skew(&self) -> f64 {
        if self.partition_events.is_empty() {
            return 0.0;
        }
        let max = *self.partition_events.iter().max().unwrap() as f64;
        let mean =
            self.partition_events.iter().sum::<usize>() as f64 / self.partition_events.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean
        }
    }

    /// Resets every counter.
    pub fn reset(&mut self) {
        *self = CountingProbe::default();
    }
}

impl Probe for CountingProbe {
    fn event_read(&mut self) {
        self.events_read += 1;
    }
    fn event_filtered(&mut self) {
        self.events_filtered += 1;
    }
    fn instance_spawned(&mut self) {
        self.instances_spawned += 1;
    }
    fn instance_branched(&mut self) {
        self.instances_branched += 1;
    }
    fn instance_expired(&mut self) {
        self.instances_expired += 1;
    }
    fn transition_evaluated(&mut self) {
        self.transitions_evaluated += 1;
    }
    fn transition_taken(&mut self) {
        self.transitions_taken += 1;
    }
    fn match_emitted(&mut self) {
        self.matches_emitted += 1;
    }
    fn omega(&mut self, n: usize) {
        self.omega_max = self.omega_max.max(n);
        self.omega_sum += n as u64;
        self.omega_samples += 1;
    }
    fn events_evicted(&mut self, n: usize) {
        self.events_evicted += n as u64;
    }
    fn retained_events(&mut self, n: usize) {
        self.retained_max = self.retained_max.max(n);
    }
    fn partitions(&mut self, _n: usize) {
        self.partitioned_runs += 1;
        self.partition_events.clear();
    }
    fn partition_events(&mut self, n: usize) {
        self.partition_events.push(n);
    }
    fn index_hits(&mut self, n: usize) {
        self.index_hits += n as u64;
    }
    fn index_skips(&mut self, n: usize) {
        self.index_skips += n as u64;
    }
    fn checkpoint_saved(&mut self, bytes: u64, nanos: u64) {
        self.checkpoints += 1;
        self.checkpoint_bytes += bytes;
        self.checkpoint_nanos += nanos;
    }
    fn ingest_enqueued(&mut self, depth: usize) {
        self.ingest_enqueued += 1;
        self.ingest_queue_peak = self.ingest_queue_peak.max(depth);
    }
    fn ingest_shed(&mut self, n: usize) {
        self.ingest_shed += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut p = CountingProbe::new();
        p.event_read();
        p.event_read();
        p.event_filtered();
        p.omega(3);
        p.omega(7);
        p.omega(2);
        p.events_evicted(3);
        p.events_evicted(2);
        p.retained_events(4);
        p.retained_events(9);
        p.retained_events(6);
        assert_eq!(p.events_read, 2);
        assert_eq!(p.events_evicted, 5);
        assert_eq!(p.retained_max, 9);
        assert_eq!(p.omega_max, 7);
        assert_eq!(p.omega_samples, 3);
        assert!((p.omega_mean() - 4.0).abs() < 1e-12);
        assert!((p.filter_rate() - 0.5).abs() < 1e-12);
        p.reset();
        assert_eq!(p, CountingProbe::default());
    }

    #[test]
    fn empty_probe_rates_are_zero() {
        let p = CountingProbe::new();
        assert_eq!(p.omega_mean(), 0.0);
        assert_eq!(p.filter_rate(), 0.0);
        assert_eq!(p.partition_skew(), 0.0);
    }

    #[test]
    fn partition_hooks_record_layout_and_skew() {
        let mut p = CountingProbe::new();
        Probe::partitions(&mut p, 3);
        Probe::partition_events(&mut p, 8);
        Probe::partition_events(&mut p, 2);
        Probe::partition_events(&mut p, 2);
        assert_eq!(p.partitioned_runs, 1);
        assert_eq!(p.partition_count(), 3);
        assert!((p.partition_skew() - 2.0).abs() < 1e-12);
        // A second partitioned run replaces the layout, not appends.
        Probe::partitions(&mut p, 2);
        Probe::partition_events(&mut p, 1);
        Probe::partition_events(&mut p, 1);
        assert_eq!(p.partitioned_runs, 2);
        assert_eq!(p.partition_events, vec![1, 1]);
    }

    #[test]
    fn checkpoint_hook_accumulates() {
        let mut p = CountingProbe::new();
        p.checkpoint_saved(100, 5_000);
        p.checkpoint_saved(50, 2_000);
        assert_eq!(p.checkpoints, 2);
        assert_eq!(p.checkpoint_bytes, 150);
        assert_eq!(p.checkpoint_nanos, 7_000);
    }

    #[test]
    fn ingest_hooks_track_depth_peak_and_shedding() {
        let mut p = CountingProbe::new();
        Probe::ingest_enqueued(&mut p, 3);
        Probe::ingest_enqueued(&mut p, 17);
        Probe::ingest_enqueued(&mut p, 5);
        Probe::ingest_shed(&mut p, 2);
        assert_eq!(p.ingest_enqueued, 3);
        assert_eq!(p.ingest_queue_peak, 17);
        assert_eq!(p.ingest_shed, 2);
    }

    #[test]
    fn index_hooks_accumulate() {
        let mut p = CountingProbe::new();
        Probe::index_hits(&mut p, 3);
        Probe::index_skips(&mut p, 13);
        Probe::index_hits(&mut p, 1);
        assert_eq!(p.index_hits, 4);
        assert_eq!(p.index_skips, 13);
    }
}
