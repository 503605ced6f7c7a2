//! Gate: in steady state an *idle* push — the §4.5 filter dropped the
//! event and no selection work fired — performs no heap allocation.
//!
//! The engine checks one precomputed verdict and returns; relation,
//! instance-pool and adjudicator capacity are all reused. A counting
//! global allocator (local to this test binary: the library crates
//! forbid unsafe code) measures every push of a second, time-shifted
//! epoch of the small chemotherapy workload after a warm-up epoch has
//! grown every buffer, under the default `Maximal` semantics so the
//! adjudicator's no-op pushes are covered too. Nothing is timed.
//!
//! This file holds exactly one `#[test]`: the counter is process-wide,
//! and a second test thread would allocate into the measured deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ses::prelude::*;
use ses::workload::chemo::ChemoConfig;

/// Counts every heap allocation. Frees are not tracked — the claim is
/// "the idle push path does not *allocate*".
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

#[test]
fn idle_pushes_allocate_nothing_in_steady_state() {
    // Experiment 1's P1 at |V1| = 6: seven `Str`-equality constant
    // lanes on `L`, so most ward events satisfy no constant condition.
    let mut sm = StreamMatcher::compile(
        &ses::workload::paper::exp1_p1(6),
        &ses::workload::paper::schema(),
    )
    .unwrap();
    let rel = ses::workload::chemo::generate(&ChemoConfig::small());
    let base = rel.events();
    let span = base.last().unwrap().ts().ticks() - base[0].ts().ticks();
    // Past the window τ = 264 h, so no instance survives the epoch seam.
    let epoch_offset = span + 264 + 1;
    let mut probe = CountingProbe::new();

    // Warm-up epoch: capacity growth happens here. Events are pre-built
    // (the payload is a shared `Arc`), so a push constructs nothing.
    for e in base {
        sm.push_event_with_probe(e.clone(), &mut probe).unwrap();
    }

    let (mut idle, mut idle_max, mut busy) = (0u64, 0u64, 0u64);
    for e in base {
        let event = e.shifted(epoch_offset);
        let filtered_before = probe.events_filtered;
        let raw_before = probe.matches_emitted;
        let selection_before = (sm.pending_candidates(), sm.retained_killers());
        let before = ALLOCS.load(Ordering::Relaxed);
        let emitted = sm.push_event_with_probe(event, &mut probe).unwrap().len();
        let delta = ALLOCS.load(Ordering::Relaxed) - before;
        // Idle: filtered, nothing returned or raw-emitted by the expiry
        // sweep, no buffered adjudication group drained, no killer
        // pruned. Everything else may allocate by design (a binding
        // appends a buffer node, a decidable group builds its indexes,
        // a match is materialized).
        let is_idle = probe.events_filtered > filtered_before
            && emitted == 0
            && probe.matches_emitted == raw_before
            && (sm.pending_candidates(), sm.retained_killers()) == selection_before;
        if is_idle {
            idle += 1;
            idle_max = idle_max.max(delta);
        } else {
            busy += 1;
        }
    }
    assert!(
        idle > busy && busy > 0,
        "the workload must exercise both kinds of push ({idle} idle, {busy} busy)"
    );
    assert_eq!(
        idle_max, 0,
        "an idle push allocated — the steady-state path regressed"
    );
}
