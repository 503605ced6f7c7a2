//! Quick durability benchmark: checkpoint overhead vs interval, and
//! recovery time vs log length, for Q1 streaming over D1.
//!
//! ```text
//! cargo run -p ses-bench --release --bin durability -- \
//!     [--scale F] [--iters N] [--out FILE.json]
//! ```
//!
//! Overhead is measured end to end against a checkpoint-free stream of
//! the same events: the checkpointed runs sync a real `MatchLog` and
//! save through a real `CheckpointStore` (atomic tmp+rename, keep 3),
//! so the numbers include the fsyncs. Recovery restores a mid-stream
//! checkpoint and replays the `EventLog` suffix, so its cost is the
//! log scan plus re-matching half the events. The match count of every
//! variant is asserted equal to the baseline's before any number is
//! reported. Writes a small JSON report (default
//! `BENCH_durability.json`); the CI smoke step runs this at
//! `--scale 0.1`.

use ses_bench::datasets::Datasets;
use ses_core::{MatcherOptions, MatcherSnapshot, PatternBank};
use ses_event::{Event, Relation, Timestamp};
use ses_metrics::Stopwatch;
use ses_store::{CheckpointStore, EventLog, LogConfig, MatchLog};
use ses_workload::paper;

struct Options {
    scale: f64,
    iters: usize,
    out: std::path::PathBuf,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        scale: 0.1,
        iters: 3,
        out: "BENCH_durability.json".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("--{name} needs a value"))
        };
        match arg.as_str() {
            "--scale" => {
                opts.scale = take("scale")?
                    .parse()
                    .map_err(|_| "--scale: not a number".to_string())?
            }
            "--iters" => {
                opts.iters = take("iters")?
                    .parse()
                    .map_err(|_| "--iters: not a number".to_string())?
            }
            "--out" => opts.out = take("out")?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.iters == 0 {
        return Err("--iters must be positive".to_string());
    }
    Ok(opts)
}

/// Streams `events`, checkpointing every `every` pushes when a store is
/// given; returns (matches, checkpoints, bytes).
fn stream_once(
    matcher_of: &impl Fn() -> PatternBank,
    events: &[Event],
    dur: Option<(&mut CheckpointStore, &mut MatchLog, usize)>,
) -> (usize, u64, u64) {
    let mut sm = matcher_of();
    let mut matches = 0usize;
    let (mut ckpts, mut bytes) = (0u64, 0u64);
    match dur {
        None => {
            for e in events {
                matches += sm.push(e.ts(), e.values().to_vec()).unwrap().len();
            }
        }
        Some((store, sink, every)) => {
            let mut since = 0usize;
            for e in events {
                for m in sm.push(e.ts(), e.values().to_vec()).unwrap() {
                    let _ = m;
                    matches += 1;
                    sink.append("m").unwrap();
                }
                since += 1;
                if since >= every {
                    since = 0;
                    sink.sync().unwrap();
                    let info = store.save(&MatcherSnapshot::Bank(sm.snapshot())).unwrap();
                    ckpts += 1;
                    bytes += info.bytes;
                }
            }
        }
    }
    matches += sm.finish().len();
    (matches, ckpts, bytes)
}

fn best_secs<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters {
        let sw = Stopwatch::start();
        last = Some(f());
        best = best.min(sw.elapsed_secs());
    }
    (best, last.expect("iters > 0"))
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let datasets = Datasets::build(opts.scale, 1);
    let d1: &Relation = datasets.d1();
    let events: Vec<Event> = d1.iter().map(|(_, e)| e.clone()).collect();
    let q1 = paper::query_q1();
    // A bank of one: the unit `ses-cli stream` runs and checkpoints.
    let specs = [("q1".to_string(), q1, MatcherOptions::default())];
    let matcher_of = || {
        PatternBank::builder(d1.schema())
            .register("q1", &specs[0].1, specs[0].2.clone())
            .expect("Q1 compiles")
            .build()
    };
    let scratch = std::env::temp_dir().join(format!("ses-bench-dur-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();

    // Baseline: no durability.
    let (base_secs, (base_matches, _, _)) =
        best_secs(opts.iters, || stream_once(&matcher_of, &events, None));

    // Checkpoint overhead vs interval.
    let mut interval_rows = Vec::new();
    for every in [100usize, 500, 2000] {
        let dir = scratch.join(format!("every-{every}"));
        let (secs, (matches, ckpts, bytes)) = best_secs(opts.iters, || {
            std::fs::remove_dir_all(&dir).ok();
            let mut store = CheckpointStore::open(&dir, 3).unwrap();
            let mut sink = MatchLog::open(dir.join("matches.log")).unwrap();
            stream_once(&matcher_of, &events, Some((&mut store, &mut sink, every)))
        });
        assert_eq!(
            matches, base_matches,
            "checkpointing must not change matches"
        );
        interval_rows.push(format!(
            "    {{ \"every\": {every}, \"secs\": {secs:.6}, \"checkpoints\": {ckpts}, \
             \"bytes\": {bytes}, \"overhead\": {:.4} }}",
            secs / base_secs.max(1e-12) - 1.0
        ));
    }

    // Recovery time vs log length: checkpoint at the halfway point,
    // then time restore + EventLog suffix replay + finish.
    let mut recovery_rows = Vec::new();
    for percent in [25usize, 50, 100] {
        let n = (events.len() * percent) / 100;
        let prefix = &events[..n / 2];
        let dir = scratch.join(format!("recover-{percent}"));
        std::fs::remove_dir_all(&dir).ok();
        let mut log = EventLog::create(&dir, d1.schema().clone(), LogConfig::default()).unwrap();
        for e in &events[..n] {
            log.append(e.ts(), e.values().to_vec()).unwrap();
        }
        log.sync().unwrap();

        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        let mut sm = matcher_of();
        let mut emitted = 0usize;
        for e in prefix {
            emitted += sm.push(e.ts(), e.values().to_vec()).unwrap().len();
        }
        store.save(&MatcherSnapshot::Bank(sm.snapshot())).unwrap();
        drop(sm); // the crash

        let reference = {
            let (m, _, _) = stream_once(&matcher_of, &events[..n], None);
            m
        };
        let (secs, (matches, replayed)) = best_secs(opts.iters, || {
            let loaded = store.load_latest().unwrap().expect("just saved");
            let MatcherSnapshot::Bank(ref s) = loaded.snapshot;
            let mut sm = PatternBank::restore(&specs, d1.schema(), s).unwrap();
            let replay = match loaded.snapshot.replay_from() {
                Some(from) => log.scan_range(from, Timestamp::MAX).unwrap(),
                None => log.scan().unwrap(),
            };
            let skip = sm.ties_at_watermark();
            let mut matches = emitted;
            let mut replayed = 0usize;
            for (_, e) in replay.iter().skip(skip) {
                matches += sm.push(e.ts(), e.values().to_vec()).unwrap().len();
                replayed += 1;
            }
            matches += sm.finish().len();
            (matches, replayed)
        });
        assert_eq!(matches, reference, "recovery must not change matches");
        recovery_rows.push(format!(
            "    {{ \"log_events\": {n}, \"replayed\": {replayed}, \"secs\": {secs:.6} }}"
        ));
    }
    std::fs::remove_dir_all(&scratch).ok();

    let json = format!(
        "{{\n  \"dataset\": \"D1\",\n  \"scale\": {},\n  \"events\": {},\n  \
         \"matches\": {},\n  \"query\": \"Q1\",\n  \"semantics\": \"maximal\",\n  \
         \"baseline\": {{ \"secs\": {:.6}, \"events_per_sec\": {:.1} }},\n  \
         \"checkpoint_overhead\": [\n{}\n  ],\n  \"recovery\": [\n{}\n  ]\n}}\n",
        opts.scale,
        events.len(),
        base_matches,
        base_secs,
        events.len() as f64 / base_secs.max(1e-12),
        interval_rows.join(",\n"),
        recovery_rows.join(",\n"),
    );
    std::fs::write(&opts.out, &json).expect("can write the report");
    print!("{json}");
    println!(
        "baseline {:.3}s; checkpoint overhead measured at 3 intervals; \
         recovery timed at 3 log lengths; wrote {}",
        base_secs,
        opts.out.display(),
    );
}
