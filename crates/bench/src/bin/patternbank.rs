//! Multi-pattern bank benchmark: structural sharing on vs. off, by the
//! number of registered patterns.
//!
//! ```text
//! cargo run -p ses-bench --release --bin patternbank -- \
//!     [--events N] [--iters N] [--quick] [--out FILE.json]
//! ```
//!
//! `--share` is the one user-set performance switch no workload of the
//! repository's benchmark (`BENCHMARK.json`) times, so this bin stays
//! for as long as the switch does. For each bank size (4, 16, 64, 256
//! patterns) a correlated pattern set — 75% of the patterns open with
//! one shared anchor set — is pushed through a
//! [`ses_core::PatternBank`] with structural sharing enabled and
//! disabled. The two outputs are asserted identical before either is
//! timed (that a bank's output is that of independent matchers is
//! `tests/bank_vs_independent.rs`' to prove, and the bank's routing and
//! heartbeat cost model is held there too); the committed report
//! (`BENCH_patternbank.json`) names its machine and gives the
//! `shared_speedup` won by evaluating each shared prefix once. The clock
//! covers the pushes and the final flush; banks are built before it
//! starts. The CI smoke step runs this with `--quick`.

use ses_core::{Match, MatcherOptions, PatternBank};
use ses_event::Relation;
use ses_metrics::Stopwatch;
use ses_pattern::Pattern;
use ses_workload::bank::{schema, BankConfig};

struct Options {
    events: usize,
    iters: usize,
    out: std::path::PathBuf,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        events: 20_000,
        iters: 3,
        out: "BENCH_patternbank.json".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("--{name} needs a value"))
        };
        match arg.as_str() {
            "--events" => {
                opts.events = take("events")?
                    .parse()
                    .map_err(|_| "--events: not a number".to_string())?
            }
            "--iters" => {
                opts.iters = take("iters")?
                    .parse()
                    .map_err(|_| "--iters: not a number".to_string())?
            }
            "--quick" => {
                opts.events = 2_000;
                opts.iters = 1;
            }
            "--out" => opts.out = take("out")?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.iters == 0 || opts.events == 0 {
        return Err("--iters and --events must be positive".to_string());
    }
    Ok(opts)
}

fn build_bank(named: &[(String, Pattern)], share: bool) -> PatternBank {
    let mut builder = PatternBank::builder(&schema()).with_sharing(share);
    for (name, p) in named {
        builder = builder
            .register(name.clone(), p, MatcherOptions::default())
            .expect("bank pattern compiles");
    }
    builder.build()
}

/// One full pass of `rel` through `bank`: the complete per-pattern
/// output, pushes then the final flush.
fn run_once(mut bank: PatternBank, rel: &Relation) -> Vec<(usize, Match)> {
    let mut out = Vec::new();
    for (_, e) in rel.iter() {
        out.extend(
            bank.push(e.ts(), e.values().to_vec())
                .expect("stream is chronological"),
        );
    }
    out.extend(bank.finish());
    out
}

/// Best-of-`iters` wall time of a full pass; each pass gets a fresh
/// bank, built before its clock starts.
fn best_secs(named: &[(String, Pattern)], rel: &Relation, share: bool, iters: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let bank = build_bank(named, share);
        let sw = Stopwatch::start();
        std::hint::black_box(run_once(bank, rel));
        best = best.min(sw.elapsed_secs());
    }
    best
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let machine = ses_bench::machine_info();
    println!("machine: {} ({} cores)", machine.cpu, machine.cores);
    let mut rows = Vec::new();
    for n in [4usize, 16, 64, 256] {
        // 75% of the patterns open with the same anchor set, so
        // `--share` folds them into one prefix pool.
        let cfg = BankConfig::small()
            .with_patterns(n)
            .with_events(opts.events)
            .with_overlap(0.75)
            .with_anchor_share(0.4);
        let rel = ses_workload::bank::generate(&cfg);
        let named = ses_workload::bank::patterns(&cfg);
        // Identical answers first, then the clock.
        let shared = run_once(build_bank(&named, true), &rel);
        let unshared = run_once(build_bank(&named, false), &rel);
        assert_eq!(
            shared, unshared,
            "sharing changed the answer at {n} patterns"
        );
        let sh_secs = best_secs(&named, &rel, true, opts.iters);
        let un_secs = best_secs(&named, &rel, false, opts.iters);
        let shared_speedup = un_secs / sh_secs.max(1e-12);
        let eps = |secs: f64| opts.events as f64 / secs.max(1e-12);
        println!(
            "{n:>3} patterns, {} sharing an anchor prefix: shared {:.1} ev/s vs \
             unshared {:.1} ev/s — ×{shared_speedup:.2}",
            cfg.overlapped_patterns(),
            eps(sh_secs),
            eps(un_secs),
        );
        rows.push(format!(
            "    {{ \"patterns\": {n}, \"events\": {}, \"overlap\": {:.2}, \
             \"overlapped_patterns\": {}, \"matches\": {},\n      \
             \"shared\": {{ \"secs\": {:.6}, \"events_per_sec\": {:.1} }},\n      \
             \"unshared\": {{ \"secs\": {:.6}, \"events_per_sec\": {:.1} }},\n      \
             \"shared_speedup\": {shared_speedup:.2} }}",
            opts.events,
            cfg.overlap,
            cfg.overlapped_patterns(),
            shared.len(),
            sh_secs,
            eps(sh_secs),
            un_secs,
            eps(un_secs),
        ));
    }

    let json = format!(
        "{{\n  \"workload\": \"bank (disjoint type pairs, ID-correlated; 75% of the patterns open with one shared anchor set)\",\n  \
         \"machine\": {{ \"cpu_model\": \"{}\", \"cores\": {} }},\n  \
         \"timed\": \"pushes + finish, best of iters; banks built before the clock\",\n  \
         \"events\": {},\n  \"iters\": {},\n  \"sizes\": [\n{}\n  ]\n}}\n",
        machine.cpu.replace('"', "'"),
        machine.cores,
        opts.events,
        opts.iters,
        rows.join(",\n"),
    );
    std::fs::write(&opts.out, &json).expect("can write the report");
    print!("{json}");
    println!("wrote {}", opts.out.display());
}
