//! Hot-path throughput benchmark: batch `find`, a 100M-event streaming
//! tier, the default Maximal semantics, and per-push allocation counts.
//!
//! ```text
//! cargo run -p ses-bench --release --bin throughput -- \
//!     [--quick] [--events N] [--iters N] [--out FILE.json]
//! ```
//!
//! All tiers run on the chemotherapy workload (Q1's seven `Str`-Eq
//! constant lanes over `L`), and every timed answer is first checked
//! against the same input taken the other way — batch against streamed:
//!
//! 1. **batch find** — whole-relation `Matcher::find` on a
//!    constant-heavy D1-style relation (auxiliary clinical events
//!    dominate, so admission cost dominates), best-of-`iters`; the
//!    answer must equal the union of per-event pushes.
//! 2. **streaming** — 100M events by cyclic epoch replay of that
//!    relation (each epoch time-shifted past `τ`, so eviction keeps
//!    memory bounded), pushed in 512-event micro-batches (admitted
//!    through the columnar lane pass); a per-event `push` subset
//!    (admitted one by one) gives the normalized comparison.
//! 3. **allocations** — a counting global allocator (local to this
//!    binary: `ses-core` itself forbids unsafe code) measures per-push
//!    heap allocations in steady state, categorized into idle
//!    (filtered, no selection work fired), advancing, and emitting
//!    pushes. Idle pushes must be allocation-free; the per-event rate
//!    flows through [`ses_core::Probe::allocations`] into the standard
//!    counting probe.
//!
//! The admission tiers (1, 2) run under `AllRuns` semantics to isolate
//! the per-event admission cost from selection. A fourth tier measures
//! the default **Maximal** semantics directly: batch `find`, decomposed
//! into engine and adjudication time by an interleaved `AllRuns` run,
//! and a streaming run whose matches must be the batch answer. The
//! allocation tier keeps the deployment-default `Maximal` path, so the
//! allocation-free claim covers the adjudicator's no-op pushes too;
//! pushes where the watermark drains a buffered adjudication group are
//! `advancing` — building that group's indexes allocates by design.
//!
//! The committed report is `BENCH_throughput.json`; CI runs `--quick`
//! and fails if any tier reports `"outputs_identical": false`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ses_bench::machine_info;
use ses_core::{Match, MatchSemantics, Matcher, MatcherOptions, Probe, StreamMatcher};
use ses_event::{Event, Relation};
use ses_metrics::{CountingProbe, Stopwatch};
use ses_pattern::Pattern;
use ses_workload::chemo::ChemoConfig;

/// Counts every heap allocation. Deallocations are deliberately not
/// tracked — the claim under test is "the steady-state push path does
/// not *allocate*", and frees of pooled buffers would only obscure it.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Streaming micro-batch size: large enough to amortize the lane pass,
/// small enough that emission latency stays in the hundreds of events.
const BATCH: usize = 512;

struct Options {
    /// Total events in the streaming tier.
    stream_events: u64,
    /// Timing repetitions for the batch-find tier (best-of).
    iters: usize,
    /// Scale factor for the batch-find relation.
    find_scale: f64,
    /// Auxiliary clinical events per day in the constant-heavy tiers.
    aux_per_day: f64,
    quick: bool,
    out: std::path::PathBuf,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        stream_events: 100_000_000,
        iters: 5,
        find_scale: 4.0,
        aux_per_day: 100.0,
        quick: false,
        out: "BENCH_throughput.json".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("--{name} needs a value"))
        };
        match arg.as_str() {
            "--events" => {
                opts.stream_events = take("events")?
                    .parse()
                    .map_err(|_| "--events: not a number".to_string())?
            }
            "--iters" => {
                opts.iters = take("iters")?
                    .parse()
                    .map_err(|_| "--iters: not a number".to_string())?
            }
            "--quick" => {
                opts.quick = true;
                opts.stream_events = 200_000;
                opts.iters = 2;
                opts.find_scale = 0.25;
            }
            "--aux" => {
                opts.aux_per_day = take("aux")?
                    .parse()
                    .map_err(|_| "--aux: not a number".to_string())?
            }
            "--out" => opts.out = take("out")?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.iters == 0 || opts.stream_events == 0 {
        return Err("--iters and --events must be positive".to_string());
    }
    Ok(opts)
}

/// The benchmark pattern: Experiment 1's P1 at `|V1| = 6` — six
/// mutually exclusive medication types THEN `b`, i.e. seven distinct
/// `Str`-equality constant lanes on `L`.
fn bench_pattern() -> Pattern {
    ses_workload::paper::exp1_p1(6)
}

/// Constant-heavy D1 variant: the paper's D1 calibration with the
/// auxiliary-event rate raised so ~95% of events satisfy no constant
/// condition — the admission-dominated regime the columnar layer
/// targets (real ward data is similarly aux-dominated) — and patient
/// start times staggered 4× wider, which bounds how many patients
/// overlap one `τ`-window and with them the live-instance count `|Ω|`.
fn constant_heavy_d1(scale: f64, aux_per_day: f64) -> Relation {
    let mut cfg = ChemoConfig::paper_d1().scaled(scale);
    cfg.aux_per_day = aux_per_day;
    cfg.stagger_hours *= 4;
    ses_workload::chemo::generate(&cfg)
}

fn options(semantics: MatchSemantics) -> MatcherOptions {
    MatcherOptions {
        semantics,
        ..MatcherOptions::default()
    }
}

fn matcher(semantics: MatchSemantics) -> Matcher {
    Matcher::with_options(
        &bench_pattern(),
        &ses_workload::paper::schema(),
        options(semantics),
    )
    .expect("benchmark pattern compiles")
}

fn stream_matcher(semantics: MatchSemantics) -> StreamMatcher {
    StreamMatcher::with_options(
        &bench_pattern(),
        &ses_workload::paper::schema(),
        options(semantics),
    )
    .expect("benchmark pattern compiles")
    .with_eviction(true)
}

fn sorted_find(m: &Matcher, rel: &Relation) -> Vec<Match> {
    let mut out = m.find(rel);
    out.sort();
    out
}

/// What streaming `events` in chunks of `batch` emits, pushes and final
/// flush together, sorted — the batch answer, if all is well.
fn sorted_stream(semantics: MatchSemantics, events: &[Event], batch: usize) -> Vec<Match> {
    let mut sm = stream_matcher(semantics);
    let mut out: Vec<Match> = Vec::new();
    for chunk in events.chunks(batch) {
        out.extend(sm.push_batch(chunk.to_vec()).expect("chronological"));
    }
    out.extend(sm.finish());
    out.sort();
    out
}

/// Best-of-`iters` wall time of `find` for each matcher, *interleaved* —
/// each round times them back to back, so scheduler noise on a shared
/// core hits every side of a comparison alike.
fn best_find_secs<const N: usize>(ms: [&Matcher; N], rel: &Relation, iters: usize) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..iters {
        for (slot, m) in ms.iter().enumerate() {
            let sw = Stopwatch::start();
            std::hint::black_box(m.find(rel));
            best[slot] = best[slot].min(sw.elapsed_secs());
        }
    }
    best
}

/// Tier 1: whole-relation `find`.
fn batch_find_tier(opts: &Options) -> (String, bool) {
    let rel = constant_heavy_d1(opts.find_scale, opts.aux_per_day);
    let m = matcher(MatchSemantics::AllRuns);

    // Identical answers first, then the clock: the batch answer is the
    // union of what one-event pushes (admitted per event) emit.
    let matches = sorted_find(&m, &rel);
    let identical = matches == sorted_stream(MatchSemantics::AllRuns, rel.events(), 1);
    assert!(identical, "batch find and per-event pushes disagree");

    let [secs] = best_find_secs([&m], &rel, opts.iters);
    let eps = rel.len() as f64 / secs.max(1e-12);
    println!(
        "batch find : {} events, {} matches — {eps:.0} ev/s",
        rel.len(),
        matches.len(),
    );
    let json = format!(
        "  \"batch_find\": {{\n    \
         \"workload\": \"chemo D1 ×{:.1}, aux_per_day={} (constant-heavy), exp1_p1(6): 7 Str-Eq lanes\",\n    \
         \"events\": {}, \"matches\": {}, \"iters\": {}, \"outputs_identical\": {identical},\n    \
         \"secs\": {secs:.6}, \"events_per_sec\": {eps:.1}\n  }}",
        opts.find_scale,
        opts.aux_per_day,
        rel.len(),
        matches.len(),
        opts.iters,
    );
    (json, identical)
}

/// Pushes `total` events through a stream matcher by cyclic epoch
/// replay of `base`, each epoch shifted past the previous one by more
/// than `τ`. Returns `(matches, probe)`.
fn replay<F: FnMut(&mut StreamMatcher, Vec<Event>, &mut CountingProbe) -> usize>(
    base: &[Event],
    epoch_offset: i64,
    total: u64,
    semantics: MatchSemantics,
    mut push: F,
) -> (usize, CountingProbe) {
    let mut sm = stream_matcher(semantics);
    let mut probe = CountingProbe::new();
    let mut matches = 0usize;
    let mut pushed = 0u64;
    let mut epoch = 0i64;
    'outer: loop {
        let off = epoch * epoch_offset;
        for chunk in base.chunks(BATCH) {
            let remaining = total - pushed;
            let take = (remaining as usize).min(chunk.len());
            let shifted: Vec<Event> = chunk[..take].iter().map(|e| e.shifted(off)).collect();
            pushed += take as u64;
            matches += push(&mut sm, shifted, &mut probe);
            if pushed == total {
                break 'outer;
            }
        }
        epoch += 1;
    }
    matches += sm.finish().len();
    (matches, probe)
}

/// Tier 2: the 100M-event streaming tier.
fn streaming_tier(opts: &Options) -> (String, bool) {
    let rel = constant_heavy_d1(1.0, opts.aux_per_day);
    let base: Vec<Event> = rel.events().to_vec();
    let span = base.last().expect("non-empty").ts().ticks() - base[0].ts().ticks();
    // Past the window τ = 264h, so no instance survives an epoch seam
    // and eviction keeps the retained relation flat.
    let epoch_offset = span + 264 + 1;

    // Answer parity on one epoch: micro-batches vs per-event pushes.
    let one_epoch = base.len() as u64;
    let (m_col, _) = replay(
        &base,
        epoch_offset,
        one_epoch,
        MatchSemantics::AllRuns,
        |sm, chunk, p| {
            sm.push_batch_with_probe(chunk, p)
                .expect("chronological")
                .len()
        },
    );
    let (m_sca, _) = replay(
        &base,
        epoch_offset,
        one_epoch,
        MatchSemantics::AllRuns,
        |sm, chunk, p| {
            chunk
                .into_iter()
                .map(|e| sm.push_event_with_probe(e, p).expect("chronological").len())
                .sum()
        },
    );
    let identical = m_col == m_sca;
    assert!(
        identical,
        "streaming parity broke: {m_col} vs {m_sca} matches"
    );

    // The headline run: `total` events in micro-batches.
    let total = opts.stream_events;
    let sw = Stopwatch::start();
    let (matches, probe) = replay(
        &base,
        epoch_offset,
        total,
        MatchSemantics::AllRuns,
        |sm, chunk, p| {
            sm.push_batch_with_probe(chunk, p)
                .expect("chronological")
                .len()
        },
    );
    let col_secs = sw.elapsed_secs();
    let col_eps = total as f64 / col_secs.max(1e-12);

    // Per-event pushes (the shape a caller without batches has) on a
    // subset, normalized to events/sec. The
    // subset must itself be far past the steady-state retained size
    // (several epochs) for the rates to be comparable, so it is only
    // shrunk for truly long runs.
    let subset = if total > 20_000_000 {
        total / 10
    } else {
        total
    };
    let sw = Stopwatch::start();
    let (_, _) = replay(
        &base,
        epoch_offset,
        subset,
        MatchSemantics::AllRuns,
        |sm, chunk, p| {
            chunk
                .into_iter()
                .map(|e| sm.push_event_with_probe(e, p).expect("chronological").len())
                .sum()
        },
    );
    let sca_secs = sw.elapsed_secs();
    let sca_eps = subset as f64 / sca_secs.max(1e-12);

    println!(
        "streaming  : {total} events in {col_secs:.1}s — batched {col_eps:.0} ev/s vs per-event {sca_eps:.0} ev/s \
         (subset of {subset}) — ×{:.2}, peak retained {}",
        col_eps / sca_eps.max(1e-12),
        probe.retained_max,
    );
    let json = format!(
        "  \"streaming\": {{\n    \
         \"workload\": \"chemo D1 aux_per_day={} cyclic epoch replay (epoch offset {epoch_offset} ticks > τ), exp1_p1(6)\",\n    \
         \"events\": {total}, \"batch\": {BATCH}, \"matches\": {matches}, \"outputs_identical\": {identical},\n    \
         \"batched\": {{ \"secs\": {col_secs:.3}, \"events_per_sec\": {col_eps:.1} }},\n    \
         \"per_event_subset\": {{ \"events\": {subset}, \"secs\": {sca_secs:.3}, \"events_per_sec\": {sca_eps:.1} }},\n    \
         \"speedup\": {:.2},\n    \
         \"peak_retained_events\": {}, \"events_evicted\": {}\n  }}",
        opts.aux_per_day,
        col_eps / sca_eps.max(1e-12),
        probe.retained_max,
        probe.events_evicted,
    );
    (json, identical)
}

/// Tier 4: the deployment-default **Maximal** semantics.
///
/// Batch: `Matcher::find` on the same constant-heavy relation as tier 1.
/// An interleaved `AllRuns` run gives the selection-free engine time, so
/// the Maximal time decomposes into engine + adjudication —
/// `adjudication_secs` is that difference. Streaming: one epoch is
/// streamed and must yield the batch answer, then a longer run gives the
/// headline events/sec. All clocks run after the equality assert.
fn maximal_tier(opts: &Options) -> (String, bool) {
    let rel = constant_heavy_d1(opts.find_scale, opts.aux_per_day);
    let maximal = matcher(MatchSemantics::Maximal);
    let allruns = matcher(MatchSemantics::AllRuns);
    let matches = maximal.find(&rel).len();
    let raw_matches = allruns.find(&rel).len();

    let [all_secs, secs] = best_find_secs([&allruns, &maximal], &rel, opts.iters);
    let adjudication = (secs - all_secs).max(0.0);
    println!(
        "maximal    : {} events, {raw_matches} raw → {matches} maximal — {secs:.3}s \
         (adjudication {adjudication:.3}s)",
        rel.len(),
    );

    let srel = constant_heavy_d1(if opts.quick { 0.25 } else { 1.0 }, opts.aux_per_day);
    let base: Vec<Event> = srel.events().to_vec();
    let span = base.last().expect("non-empty").ts().ticks() - base[0].ts().ticks();
    let epoch_offset = span + 264 + 1;

    // Identical answers first, then the clock: one streamed epoch emits
    // the batch answer.
    let identical =
        sorted_stream(MatchSemantics::Maximal, &base, BATCH) == sorted_find(&maximal, &srel);
    assert!(
        identical,
        "streamed Maximal matches are not the batch answer"
    );

    let total = if opts.quick {
        opts.stream_events
    } else {
        opts.stream_events / 10
    };
    let sw = Stopwatch::start();
    let (stream_matches, _) = replay(
        &base,
        epoch_offset,
        total,
        MatchSemantics::Maximal,
        |sm, chunk, p| {
            sm.push_batch_with_probe(chunk, p)
                .expect("chronological")
                .len()
        },
    );
    let stream_secs = sw.elapsed_secs();
    let stream_eps = total as f64 / stream_secs.max(1e-12);
    println!("maximal str: {total} events in {stream_secs:.1}s — {stream_eps:.0} ev/s");

    let json = format!(
        "  \"maximal\": {{\n    \
         \"workload\": \"chemo D1 ×{:.1}, aux_per_day={} (constant-heavy), exp1_p1(6), Maximal semantics\",\n    \
         \"outputs_identical\": {identical},\n    \
         \"batch\": {{\n      \
         \"events\": {}, \"raw_matches\": {raw_matches}, \"matches\": {matches}, \"iters\": {},\n      \
         \"allruns_secs\": {all_secs:.6}, \"secs\": {secs:.6}, \"adjudication_secs\": {adjudication:.6}\n    }},\n    \
         \"streaming\": {{\n      \
         \"events\": {total}, \"batch\": {BATCH}, \"matches\": {stream_matches},\n      \
         \"secs\": {stream_secs:.3}, \"events_per_sec\": {stream_eps:.1}\n    }}\n  }}",
        opts.find_scale,
        opts.aux_per_day,
        rel.len(),
        opts.iters,
    );
    (json, identical)
}

/// Tier 3: per-push allocation counts in steady state.
///
/// Replays two epochs per event through `push_event` (pre-built events:
/// the payload `Arc` is shared, so event construction itself is
/// allocation-free). The first epoch is warm-up — relation and
/// instance-pool capacity growth lands there. The second epoch is
/// measured push by push and categorized:
///
/// * `idle` — the §4.5 filter dropped the event and no selection work
///   fired: no match returned or raw-emitted by the expiry sweep, no
///   buffered adjudication group drained, no survivor pruned. These
///   pushes MUST be allocation-free: the engine checks one precomputed
///   verdict and returns.
/// * `advancing` — the event passed the filter but no match emitted,
///   *or* the watermark crossing triggered adjudication of previously
///   buffered groups. Instance transitions may allocate (each binding
///   appends a persistent-buffer node — irreducible without changing
///   the O(1) fork representation), and the adjudicator builds
///   per-group indexes when a group becomes decidable.
/// * `emitting` — a match was returned *or* raw-emitted by the expiry
///   sweep (match materialization allocates by design).
fn allocation_tier(quick: bool) -> (String, bool) {
    let rel = ses_workload::chemo::generate(&if quick {
        ChemoConfig::small()
    } else {
        ChemoConfig::paper_d1()
    });
    let base: Vec<Event> = rel.events().to_vec();
    let span = base.last().expect("non-empty").ts().ticks() - base[0].ts().ticks();
    let epoch_offset = span + 264 + 1;

    let mut sm = stream_matcher(MatchSemantics::Maximal);
    let mut probe = CountingProbe::new();

    // Warm-up epoch: capacity growth happens here.
    for e in &base {
        sm.push_event_with_probe(e.clone(), &mut probe)
            .expect("chronological");
    }
    probe.reset();

    // Measured epoch.
    #[derive(Default)]
    struct Cat {
        pushes: u64,
        allocs: u64,
        max: u64,
    }
    let mut idle = Cat::default();
    let mut advancing = Cat::default();
    let mut emitting = Cat::default();
    for e in &base {
        let filtered_before = probe.events_filtered;
        let raw_before = probe.matches_emitted;
        let pending_before = sm.pending_candidates();
        let killers_before = sm.retained_killers();
        let before = allocs_now();
        let emitted = sm
            .push_event_with_probe(e.shifted(epoch_offset), &mut probe)
            .expect("chronological")
            .len();
        let delta = allocs_now() - before;
        Probe::allocations(&mut probe, delta);
        let adjudicated =
            sm.pending_candidates() != pending_before || sm.retained_killers() != killers_before;
        let cat = if emitted > 0 || probe.matches_emitted > raw_before {
            &mut emitting
        } else if probe.events_filtered > filtered_before && !adjudicated {
            &mut idle
        } else {
            &mut advancing
        };
        cat.pushes += 1;
        cat.allocs += delta;
        cat.max = cat.max.max(delta);
    }
    let zero_alloc_idle = idle.max == 0;
    assert!(
        zero_alloc_idle,
        "idle pushes allocated (max {} per push) — the steady-state path regressed",
        idle.max
    );
    let mean = |c: &Cat| c.allocs as f64 / (c.pushes as f64).max(1.0);
    println!(
        "allocations: per event {:.4} — idle {} pushes ({} allocs, max {}), advancing {} ({:.3}/push), \
         emitting {} ({:.1}/push)",
        probe.allocations_per_event(),
        idle.pushes,
        idle.allocs,
        idle.max,
        advancing.pushes,
        mean(&advancing),
        emitting.pushes,
        mean(&emitting),
    );
    let cat_json = |c: &Cat| {
        format!(
            "{{ \"pushes\": {}, \"allocs\": {}, \"max_per_push\": {}, \"mean_per_push\": {:.4} }}",
            c.pushes,
            c.allocs,
            c.max,
            mean(c)
        )
    };
    let json = format!(
        "  \"allocations\": {{\n    \
         \"workload\": \"chemo {} steady-state epoch after one warm-up epoch, exp1_p1(6), per-event push_event\",\n    \
         \"allocations_per_event\": {:.4}, \"idle_pushes_allocation_free\": {zero_alloc_idle},\n    \
         \"idle\": {},\n    \"advancing\": {},\n    \"emitting\": {}\n  }}",
        if quick { "small" } else { "D1" },
        probe.allocations_per_event(),
        cat_json(&idle),
        cat_json(&advancing),
        cat_json(&emitting),
    );
    (json, zero_alloc_idle)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mi = machine_info();
    println!(
        "machine    : {} ({} cores){}",
        mi.cpu,
        mi.cores,
        if opts.quick { " — quick mode" } else { "" }
    );

    let (find_json, find_ok) = batch_find_tier(&opts);
    let (maximal_json, maximal_ok) = maximal_tier(&opts);
    let (alloc_json, alloc_ok) = allocation_tier(opts.quick);
    let (stream_json, stream_ok) = streaming_tier(&opts);

    let json = format!(
        "{{\n  \"machine\": {{ \"cpu\": \"{}\", \"cores\": {} }},\n  \"quick\": {},\n{find_json},\n{maximal_json},\n{stream_json},\n{alloc_json}\n}}\n",
        mi.cpu.replace('"', "'"),
        mi.cores,
        opts.quick,
    );
    std::fs::write(&opts.out, &json).expect("can write the report");
    println!("wrote {}", opts.out.display());
    if !(find_ok && maximal_ok && alloc_ok && stream_ok) {
        eprintln!("error: a tier reported divergent outputs");
        std::process::exit(1);
    }
}
