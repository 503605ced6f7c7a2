//! The three in-process workloads: the public library API called the way
//! a program embedding `ses-core` calls it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ses_core::{
    MatchSemantics, Matcher, MatcherOptions, NoProbe, PatternBank, Probe, StreamMatcher,
};
use ses_event::{Event, Relation, Timestamp, Value};
use ses_metrics::CountingProbe;

use crate::inputs::{self, BankInput, BatchInput, Emission, Fingerprint, Schedule};
use crate::outcome::{describe, secs, Outcome, RunArgs};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;

/// Pattern compilations (or bank builds) timed per run; `setup_s` takes
/// their median.
const SETUP_SAMPLES: usize = 5;

/// CPU seconds of the calling thread: the process under test of an
/// in-process workload.
fn cpu_now() -> f64 {
    sys::thread_cpu_seconds()
        .or_else(|| sys::cpu_seconds(std::process::id()))
        .unwrap_or(0.0)
}

fn median_secs(samples: &[Duration]) -> f64 {
    stats::median(&samples.iter().map(|d| secs(*d)).collect::<Vec<_>>())
}

/// Runs `rep` until `seconds` have been measured, at least `min` times
/// (`quick`: exactly once).
fn repeat(args: &RunArgs, min: usize, mut rep: impl FnMut()) {
    let mut measured = 0;
    let started = Instant::now();
    while measured < min || secs(started.elapsed()) < args.seconds {
        rep();
        measured += 1;
        if args.quick {
            break;
        }
    }
}

/// `batch-filter` and `batch-dense`: `Matcher::with_options` + `find`
/// over a whole relation.
pub fn run_batch(
    input: fn(u64, bool) -> BatchInput,
    args: &RunArgs,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.record.set("generator_threads", 1u64);
    out.record.set("connections", 0u64);

    let preparing = Instant::now();
    let input = input(args.seed, args.quick);
    let want = inputs::cross_path_matches(&input)?;
    out.note(
        Fingerprint::of(input.relation.events(), want.iter().map(String::as_str)).check_pinned(
            &args.workload,
            args.seed,
            args.quick,
        )?,
    );
    let prepare = preparing.elapsed();

    let options = MatcherOptions::default();
    let mut compiles = Vec::new();
    let mut matcher = None;
    for _ in 0..SETUP_SAMPLES {
        let (m, t) = tracer.span("pattern.compile", 0, 1, || {
            Matcher::with_options(&input.pattern, &input.schema, options.clone())
        });
        matcher = Some(m.map_err(|e| e.to_string())?);
        compiles.push(t);
    }
    let matcher = matcher.expect("SETUP_SAMPLES > 0");
    let events = input.relation.len() as f64;

    if args.trace {
        out.set("loadgen.prepare_s", secs(prepare));
        out.set(
            "pattern.compile_us_per_pattern",
            median_secs(&compiles) * 1e6,
        );
        trace_batch(&input, &matcher, want.len(), tracer, &mut out)?;
        return Ok(out);
    }

    sys::reset_peak_rss();
    let mut segments = Vec::new();
    repeat(args, 3, || {
        let cpu0 = cpu_now();
        let start = Instant::now();
        let matches = black_box(matcher.find(black_box(&input.relation)));
        let wall = secs(start.elapsed());
        segments.push(Segment {
            events,
            wall_s: wall,
            cpu_s: cpu_now() - cpu0,
            // `find` hands over every match when it returns, so each
            // match waited the whole scan.
            latency_ms: Some(wall * 1e3),
        });
        out.attempted += input.relation.len() as u64 + want.len() as u64;
        if inputs::rendered(&matches, &input.pattern) != want {
            out.fail(
                want.len() as u64,
                format!(
                    "find returned {} matches that differ from the reference",
                    matches.len()
                ),
            );
        }
    });

    report_in_process(&mut out, &segments);
    out.set("setup_s", secs(prepare) + median_secs(&compiles));
    out.note(format!(
        "setup_s: {:.3} s generation and reference runs + median of {SETUP_SAMPLES} compilations",
        secs(prepare)
    ));
    Ok(out)
}

/// One timed stretch of an in-process workload: a whole scan, or
/// [`SEGMENT_EVENTS`] pushes of a bank replay.
struct Segment {
    events: f64,
    wall_s: f64,
    /// On-CPU seconds of the calling thread.
    cpu_s: f64,
    /// Median latency in ms of the matches handed over in the segment,
    /// `None` if there were none.
    latency_ms: Option<f64>,
}

/// The end-to-end metrics every in-process workload takes the same way:
/// rate, CPU per event and match latency each as the fast decile over
/// the run's segments (see [`stats::fast_decile_of_costs`] for why not
/// the median), and this process's peak RSS.
fn report_in_process(out: &mut Outcome, segments: &[Segment]) {
    let rates: Vec<f64> = segments.iter().map(|s| s.events / s.wall_s).collect();
    out.set("events_per_s", stats::fast_decile_of_rates(&rates));
    out.note(format!("events_per_s: {}", describe(&rates, "ev/s")));
    let cpu: Vec<f64> = segments.iter().map(|s| s.cpu_s * 1e6 / s.events).collect();
    out.set("cpu_us_per_event", stats::fast_decile_of_costs(&cpu));
    out.note(format!("cpu_us_per_event: {}", describe(&cpu, "us")));
    let latencies: Vec<f64> = segments.iter().filter_map(|s| s.latency_ms).collect();
    if !latencies.is_empty() {
        out.set(
            "match_latency_ms_p50",
            stats::fast_decile_of_costs(&latencies),
        );
        out.note(format!(
            "match_latency_ms_p50 per segment: {}",
            describe(&latencies, "ms")
        ));
    }
    out.set(
        "peak_rss_mb",
        sys::peak_rss_mb(std::process::id()).unwrap_or(0.0),
    );
}

/// Remarks the median and the supported tail of per-match latencies in
/// ms. The tail is not an end-to-end metric: on the sizing machine it
/// repeats within a factor of two, not within a bound.
pub fn note_latency(out: &mut Outcome, latencies_ms: &[f64]) {
    if latencies_ms.is_empty() {
        return;
    }
    let t = stats::tail(latencies_ms);
    out.note(format!(
        "match_latency_ms over the whole run: p50 {:.6}, p{} {:.6} over {} matches{}",
        t.p50,
        t.tail_permille as f64 / 10.0,
        t.tail,
        t.n,
        if t.tail_permille == 990 {
            ""
        } else {
            " (p99 would rest on fewer than ten samples)"
        }
    ));
}

fn set_probe_counts(out: &mut Outcome, probe: &CountingProbe, matches: usize) {
    out.set("core.events_filtered_frac", probe.filter_rate());
    out.set("core.instances_spawned", probe.instances_spawned as f64);
    out.set("core.instances_branched", probe.instances_branched as f64);
    out.set(
        "core.transitions_evaluated",
        probe.transitions_evaluated as f64,
    );
    out.set("core.omega_max", probe.omega_max as f64);
    out.set("core.raw_matches", probe.matches_emitted as f64);
    out.set("core.matches", matches as f64);
}

fn trace_batch(
    input: &BatchInput,
    matcher: &Matcher,
    want: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let rel = &input.relation;
    let n = rel.len() as u64;
    let events = rel.len() as f64;

    // Untraced and probed scans alternate, so drift hits both alike.
    let (mut plain, mut probed) = (Vec::new(), Vec::new());
    let mut probe = CountingProbe::new();
    for _ in 0..3 {
        plain.push(
            tracer
                .span("core.find", 0, n, || black_box(matcher.find(rel)))
                .1,
        );
        probe = CountingProbe::new();
        let (found, t) = tracer.span("core.find_probed", 0, n, || {
            matcher.find_with_probe(rel, &mut probe)
        });
        probed.push(t);
        if found.len() != want {
            return Err(format!(
                "find_with_probe returned {} matches, find {want}",
                found.len()
            ));
        }
    }
    let maximal = median_secs(&plain);
    out.set("trace.overhead_frac", 1.0 - maximal / median_secs(&probed));
    set_probe_counts(out, &probe, want);

    let all_runs = Matcher::with_options(
        &input.pattern,
        &input.schema,
        MatcherOptions {
            semantics: MatchSemantics::AllRuns,
            ..MatcherOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let engine: Vec<Duration> = (0..3)
        .map(|_| {
            let scan = || black_box(all_runs.find(rel));
            tracer.span("core.find_allruns", 0, n, scan).1
        })
        .collect();
    let engine = median_secs(&engine);
    out.set("core.find_allruns_s", engine);
    out.set("core.adjudicate_s", (maximal - engine).max(0.0));
    out.set(
        "core.adjudicate_frac",
        ((maximal - engine) / maximal).max(0.0),
    );

    let before = sys::allocs();
    black_box(matcher.find(rel));
    let allocs = (sys::allocs() - before) as f64;
    out.set("core.allocs_per_event", allocs / events);
    out.set("core.allocs_per_match", allocs / want.max(1) as f64);

    // The same input through the two push paths: the gap to `find` is
    // what pushing costs over scanning.
    let options = MatcherOptions::default();
    let mut stream = StreamMatcher::with_options(&input.pattern, &input.schema, options.clone())
        .map_err(|e| e.to_string())?;
    let chunks: Vec<Vec<Event>> = rel.events().chunks(512).map(<[Event]>::to_vec).collect();
    let (_, t) = tracer.span("core.stream_push", 0, n, || {
        for chunk in chunks {
            black_box(stream.push_batch(chunk).expect("chronological input"));
        }
        black_box(stream.finish())
    });
    out.set("core.stream_push_ns_per_event", secs(t) * 1e9 / events);

    let mut bank = PatternBank::builder(&input.schema)
        .register("only", &input.pattern, options)
        .map_err(|e| e.to_string())?
        .build();
    let rows = owned_rows(rel.events());
    let (_, t) = tracer.span("core.bank_one_push", 0, n, || {
        for (ts, values) in rows {
            black_box(bank.push(ts, values).expect("chronological input"));
        }
        black_box(bank.finish())
    });
    out.set("core.bank_one_push_ns_per_event", secs(t) * 1e9 / events);
    Ok(())
}

/// The rows of `events` as the owned values `PatternBank::push` takes —
/// built before the clock, so the loop under it only pushes.
fn owned_rows(events: &[Event]) -> Vec<(Timestamp, Vec<Value>)> {
    events
        .iter()
        .map(|e| (e.ts(), e.values().to_vec()))
        .collect()
}

/// Pushes per [`Segment`] of a bank replay: ~50 ms on the sizing
/// machine, ~240 matches.
const SEGMENT_EVENTS: usize = 50_000;

/// One replay of a prefix of the bank stream through a fresh bank.
struct Replay {
    started: Instant,
    wall: Duration,
    /// The replay cut every [`SEGMENT_EVENTS`] pushes.
    segments: Vec<Segment>,
    /// Push duration in ms of every push that returned matches, once per
    /// match returned.
    latencies_ms: Vec<f64>,
    /// `(event index, pattern, rendered match)` in emission order.
    emitted: Vec<(usize, usize, String)>,
}

impl Replay {
    /// Pushes `events` one by one into `bank`. `expected` is what the
    /// reference run emitted over the same events.
    fn run<P: Probe>(
        input: &BankInput,
        events: &[Event],
        expected: &[Emission],
        bank: &mut PatternBank,
        probe: &mut P,
    ) -> Replay {
        let rows = owned_rows(events);
        let n = rows.len();
        // Only pushes the reference run saw emit are timed one by one;
        // the clock reads would otherwise cost as much as the push.
        let mut emitting = expected.iter().map(|e| e.at).peekable();
        let mut latencies_ms = Vec::with_capacity(expected.len());
        let mut found = Vec::with_capacity(expected.len());
        let mut segments = Vec::with_capacity(n / SEGMENT_EVENTS + 1);

        let started = Instant::now();
        let (mut seg_started, mut seg_cpu0, mut seg_first, mut seg_latencies) =
            (started, cpu_now(), 0, 0);
        for (at, (ts, values)) in rows.into_iter().enumerate() {
            let timed = emitting.peek() == Some(&at);
            let pushed = timed.then(Instant::now);
            let out = bank
                .push_with_probe(ts, values, &mut *probe)
                .expect("chronological input");
            if let Some(pushed) = pushed {
                let ms = secs(pushed.elapsed()) * 1e3;
                while emitting.next_if_eq(&at).is_some() {}
                latencies_ms.extend(std::iter::repeat_n(ms, out.len()));
            }
            found.extend(out.into_iter().map(|(sub, m)| (at, sub, m)));
            if (at + 1) % SEGMENT_EVENTS == 0 || at + 1 == n {
                let (now, cpu) = (Instant::now(), cpu_now());
                let latencies = &latencies_ms[seg_latencies..];
                segments.push(Segment {
                    events: (at + 1 - seg_first) as f64,
                    wall_s: secs(now - seg_started),
                    cpu_s: cpu - seg_cpu0,
                    latency_ms: (!latencies.is_empty()).then(|| stats::median(latencies)),
                });
                (seg_started, seg_cpu0, seg_first, seg_latencies) =
                    (now, cpu, at + 1, latencies_ms.len());
            }
        }
        let wall = started.elapsed();
        let emitted = found
            .into_iter()
            .map(|(at, sub, m)| (at, sub, m.display_with(&input.named[sub].1)))
            .collect();
        Replay {
            started,
            wall,
            segments,
            latencies_ms,
            emitted,
        }
    }

    /// `true` when the replay emitted exactly `expected`, push for push.
    fn agrees_with(&self, expected: &[Emission]) -> bool {
        self.emitted.len() == expected.len()
            && self
                .emitted
                .iter()
                .zip(expected)
                .all(|((at, sub, line), e)| *at == e.at && *sub == e.sub && *line == e.line)
    }
}

/// `stream-bank`: `PatternBank::push` per event.
pub fn run_stream_bank(args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.record.set("generator_threads", 1u64);
    out.record.set("connections", 0u64);

    let preparing = Instant::now();
    let input = inputs::bank_stream(args.seed, if args.quick { 100_000 } else { 1_000_000 });
    let schedule = Schedule::record(&input, input.events.len());
    let expected = &schedule.emissions[..];
    out.note(
        Fingerprint::of(&input.events, expected.iter().map(|e| e.line.as_str())).check_pinned(
            &args.workload,
            args.seed,
            args.quick,
        )?,
    );
    let prepare = preparing.elapsed();

    if args.trace {
        out.set("loadgen.prepare_s", secs(prepare));
        trace_stream_bank(&input, &schedule, tracer, &mut out)?;
        return Ok(out);
    }

    sys::reset_peak_rss();
    let mut builds = Vec::new();
    let mut segments = Vec::new();
    let mut latencies = Vec::new();
    repeat(args, 3, || {
        let building = Instant::now();
        let mut bank = input.build_bank();
        builds.push(building.elapsed());
        let rep = Replay::run(&input, &input.events, expected, &mut bank, &mut NoProbe);
        out.attempted += (input.events.len() + expected.len()) as u64;
        if !rep.agrees_with(expected) {
            out.fail(
                expected.len() as u64,
                format!(
                    "the replay emitted {} matches off the reference schedule",
                    rep.emitted.len()
                ),
            );
        }
        // The sentinel's segment of one push is no sample of the rate.
        segments.extend(
            rep.segments
                .into_iter()
                .filter(|s| s.events as usize == SEGMENT_EVENTS),
        );
        latencies.extend(rep.latencies_ms);
    });

    report_in_process(&mut out, &segments);
    note_latency(&mut out, &latencies);
    out.set("setup_s", secs(prepare) + median_secs(&builds));
    out.note(format!(
        "setup_s: {:.3} s generation and reference run + median of {} bank builds",
        secs(prepare),
        builds.len()
    ));
    Ok(out)
}

/// `query.parse_us_per_query`: the sixteen patterns rendered to query
/// text and parsed back, as the server does on `subscribe`.
pub fn query_parse_us(input: &BankInput, tracer: &mut Tracer) -> Result<f64, String> {
    let queries: Vec<String> = input
        .named
        .iter()
        .map(|(_, p)| ses_query::render(p))
        .collect();
    let (parsed, t) = tracer.span("query.parse", 0, queries.len() as u64, || {
        queries
            .iter()
            .map(|q| ses_query::parse_pattern(q, ses_query::TickUnit::Abstract))
            .collect::<Result<Vec<_>, _>>()
    });
    parsed.map_err(|e| format!("a rendered bank query does not parse: {e}"))?;
    Ok(secs(t) * 1e6 / queries.len() as f64)
}

/// Bank stage metrics over the first `events` events, shared by the
/// traced runs of all three bank-stream workloads: replays with and
/// without a `CountingProbe` alternate. Returns the probed replay's
/// seconds per event — the router always carries a probe — and the
/// plain replays' emitting-push durations in ms.
pub fn trace_bank_push(
    input: &BankInput,
    schedule: &Schedule,
    events: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(f64, Vec<f64>), String> {
    let stream = &input.events[..events];
    let expected = schedule.prefix(events);
    let n = events as u64;

    let (mut plain, mut probed) = (Vec::new(), Vec::new());
    let mut probe = CountingProbe::new();
    let mut latencies_ms = Vec::new();
    for _ in 0..2 {
        let mut bank = input.build_bank();
        let rep = Replay::run(input, stream, expected, &mut bank, &mut NoProbe);
        tracer.record("core.bank_push", rep.started, rep.started + rep.wall, 0, n);
        plain.push(rep.wall);
        latencies_ms.extend(rep.latencies_ms);

        let mut bank = input.build_bank();
        probe = CountingProbe::new();
        let rep = Replay::run(input, stream, expected, &mut bank, &mut probe);
        tracer.record(
            "core.bank_push_probed",
            rep.started,
            rep.started + rep.wall,
            0,
            n,
        );
        probed.push(rep.wall);
        if !rep.agrees_with(expected) {
            return Err("the probed bank replay left the reference schedule".to_string());
        }
    }
    let (plain, probed) = (median_secs(&plain), median_secs(&probed));
    out.set("core.bank_push_ns_per_event", plain * 1e9 / events as f64);
    out.set("metrics.probe_overhead_frac", 1.0 - plain / probed);
    set_probe_counts(out, &probe, expected.len());
    out.set(
        "core.index_hit_frac",
        probe.index_hits as f64 / (probe.index_hits + probe.index_skips).max(1) as f64,
    );
    out.set("core.retained_max", probe.retained_max as f64);
    out.set("core.events_evicted", probe.events_evicted as f64);

    // Allocations of the pushes alone: rows are built before counting
    // starts and moved in, results are dropped.
    let mut bank = input.build_bank();
    let rows = owned_rows(stream);
    let before = sys::allocs();
    for (ts, values) in rows {
        black_box(bank.push(ts, values).expect("chronological input"));
    }
    let allocs = (sys::allocs() - before) as f64;
    out.set("core.allocs_per_event", allocs / events as f64);
    out.set(
        "core.allocs_per_match",
        allocs / expected.len().max(1) as f64,
    );
    Ok((probed / events as f64, latencies_ms))
}

fn trace_stream_bank(
    input: &BankInput,
    schedule: &Schedule,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    out.set("query.parse_us_per_query", query_parse_us(input, tracer)?);

    let mut builds = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let built = tracer.span("pattern.compile", 0, input.named.len() as u64, || {
            black_box(input.build_bank())
        });
        builds.push(built.1);
    }
    out.set(
        "pattern.compile_us_per_pattern",
        median_secs(&builds) * 1e6 / input.named.len() as f64,
    );

    let n = input.events.len();
    let (built, t) = tracer.span("event.build", 0, n as u64, || {
        let mut b = Relation::builder(input.schema.clone());
        for e in &input.events {
            b = b.row(e.ts(), e.values().to_vec())?;
        }
        Ok::<_, ses_event::EventError>(b.build())
    });
    black_box(built.map_err(|e| e.to_string())?);
    out.set("event.build_ns_per_event", secs(t) * 1e9 / n as f64);

    let latencies_ms = trace_bank_push(input, schedule, n, tracer, out)?.1;
    if !latencies_ms.is_empty() {
        out.set(
            "loadgen.match_latency_ms_p99",
            stats::tail(&latencies_ms).tail,
        );
    }
    // For an in-process workload the probe is the tracing.
    out.set(
        "trace.overhead_frac",
        out.get("metrics.probe_overhead_frac").unwrap_or(0.0),
    );
    trace_snapshots(input, tracer, out);
    Ok(())
}

/// `core.snapshot_*`: `PatternBank::snapshot` + `encode_snapshot` every
/// 1 000 events — the server's checkpoint cadence — over the first
/// 100 000 events.
pub fn trace_snapshots(input: &BankInput, tracer: &mut Tracer, out: &mut Outcome) {
    let mut bank = input.build_bank();
    let (mut ms, mut bytes) = (Vec::new(), Vec::new());
    for (i, e) in input.events.iter().take(100_000).enumerate() {
        bank.push(e.ts(), e.values().to_vec())
            .expect("chronological input");
        if (i + 1) % 1000 == 0 {
            let (encoded, t) = tracer.span("core.snapshot", 0, 1, || {
                ses_store::encode_snapshot(&ses_core::MatcherSnapshot::Bank(bank.snapshot()))
            });
            ms.push(secs(t) * 1e3);
            bytes.push(encoded.len() as f64);
        }
    }
    if !ms.is_empty() {
        out.set("core.snapshot_ms", stats::median(&ms));
        out.set("core.snapshot_bytes", stats::median(&bytes));
    }
}
