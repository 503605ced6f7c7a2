//! The whole set as a report: every workload in its own child process,
//! untraced for the end-to-end metrics and traced for the per-layer ones,
//! printed by name with unit, optionally twice (`--aa`) to show what the
//! same code measures against itself.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use ses_metrics::{JsonObject, JsonValue};
use ses_server::protocol::parse_json;

use crate::spec::{self, Better};
use crate::sys;
use crate::Cli;

/// One child run, parsed back from its result line.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// `name → {value, unit}` as the child printed it.
    metrics: JsonObject,
    record: JsonValue,
}

impl RunResult {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name)?.as_object()?.get("value")?.as_f64()
    }
}

/// Untraced and traced run of one workload; `None` where the child
/// failed.
struct WorkloadRuns {
    name: &'static str,
    end_to_end: Option<RunResult>,
    per_layer: Option<RunResult>,
}

fn run_child(cli: &Cli, workload: &str, trace_out: Option<&Path>) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace_out.is_some() { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cli.quick {
        cmd.arg("--quick");
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = parse_json(lines.next().ok_or("no result line")?)?;
    let record = lines
        .find_map(|l| l.strip_prefix("record "))
        .and_then(|r| parse_json(r).ok())
        .unwrap_or(JsonValue::Null);
    let o = result.as_object().ok_or("result line is not an object")?;
    let count = |k: &str| {
        o.get(k)
            .and_then(JsonValue::as_u64)
            .ok_or(format!("no `{k}`"))
    };
    let metrics = o
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or("no `metrics`")?
        .clone();
    Ok(RunResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
        record,
    })
}

/// Runs every selected workload untraced, then traced. A child that
/// fails is reported and the set goes on.
fn run_set(cli: &Cli, trace_dir: &Path) -> Vec<WorkloadRuns> {
    spec::all_workloads()
        .filter(|w| cli.only.as_deref().is_none_or(|only| only == w.0))
        .map(|(name, _)| {
            let report =
                |r: Result<RunResult, String>| r.map_err(|e| eprintln!("benchmark: {e}")).ok();
            eprintln!("== {name}: untraced run");
            let end_to_end = report(run_child(cli, name, None));
            eprintln!("== {name}: traced run");
            let trace_file = trace_dir.join(format!("{name}.trace.json"));
            let per_layer = report(run_child(cli, name, Some(&trace_file)));
            WorkloadRuns {
                name,
                end_to_end,
                per_layer,
            }
        })
        .collect()
}

fn print_set(set: &[WorkloadRuns]) {
    for w in set {
        let why = spec::all_workloads()
            .find(|s| s.0 == w.name)
            .map_or("", |s| s.1);
        println!(
            "\n== {} — {why}{}",
            w.name,
            if spec::is_gated(w.name) {
                ""
            } else {
                " (not in BENCHMARK.json: reported, held to no bound)"
            }
        );
        match &w.end_to_end {
            None => println!("  untraced run FAILED"),
            Some(r) => {
                println!("  end-to-end (tracing and probes off)");
                for (spec, bound) in &spec::END_TO_END {
                    println!(
                        "    {:<34} {:>18.6} {:<6} {} is better, may worsen by {bound}",
                        spec.name,
                        r.get(spec.name).unwrap_or(f64::NAN),
                        spec.unit,
                        spec.better.as_str()
                    );
                }
                println!(
                    "    {:<34} {:>18.6} ratio  lower is better, must be 0 ({} failed of {} attempted)",
                    "failed_frac",
                    r.failed as f64 / r.attempted.max(1) as f64,
                    r.failed,
                    r.attempted
                );
                let threads = r
                    .record
                    .as_object()
                    .and_then(|o| o.get("generator_threads"))
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0);
                println!(
                    "    run record: {}{}",
                    r.record,
                    if threads as usize > sys::nproc() {
                        " OVERSUBSCRIBED: more generator threads than cores"
                    } else {
                        ""
                    }
                );
            }
        }
        match &w.per_layer {
            None => println!("  traced run FAILED"),
            Some(r) => {
                println!("  per-layer (traced run; 0 = layer not on this workload's path)");
                for spec in &spec::PER_LAYER {
                    println!(
                        "    {:<34} {:>18.6} {}",
                        spec.name,
                        r.get(spec.name).unwrap_or(f64::NAN),
                        spec.unit
                    );
                }
                if r.failed > 0 {
                    println!(
                        "    traced run: {} failed of {} attempted",
                        r.failed, r.attempted
                    );
                }
            }
        }
    }
}

/// What the metrics should show about each other if the workloads
/// separate the layers as intended.
fn print_interactions(set: &[WorkloadRuns]) {
    let layer = |w: &str, m: &str| set.iter().find(|s| s.name == w)?.per_layer.as_ref()?.get(m);
    let e2e = |w: &str, m: &str| {
        set.iter()
            .find(|s| s.name == w)?
            .end_to_end
            .as_ref()?
            .get(m)
    };
    println!("\n== how the metrics interact");
    let check = |text: String, verdict: Option<bool>| {
        let mark = match verdict {
            Some(true) => "ok      ",
            Some(false) => "NOT SO  ",
            None => "not run ",
        };
        println!("  {mark}{text}");
    };

    let (dense, filter) = (
        layer("batch-dense", "core.adjudicate_frac"),
        layer("batch-filter", "core.adjudicate_frac"),
    );
    check(
        format!("core.adjudicate_frac: batch-dense {dense:?} exceeds batch-filter {filter:?}"),
        dense.zip(filter).map(|(d, f)| d > f),
    );
    let filtered = layer("batch-filter", "core.events_filtered_frac");
    check(
        format!("core.events_filtered_frac on batch-filter {filtered:?} is at least 0.9"),
        filtered.map(|f| f >= 0.9),
    );
    let rates: Vec<Option<f64>> = ["stream-bank", "server-ingest", "server-durable"]
        .iter()
        .map(|w| e2e(w, "events_per_s"))
        .collect();
    check(
        format!("events_per_s nests stream-bank >= server-ingest >= server-durable: {rates:?}"),
        rates
            .iter()
            .copied()
            .collect::<Option<Vec<f64>>>()
            .map(|r| r[0] >= r[1] && r[1] >= r[2]),
    );
    let store: Option<f64> = spec::PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("store."))
        .map(|m| layer("server-ingest", m.name))
        .sum();
    check(
        format!("store.* stage time on server-ingest sums to {store:?}, which is zero"),
        store.map(|s| s == 0.0),
    );
    for w in ["server-ingest", "server-durable"] {
        let residual = layer(w, "server.cpu_residual_frac");
        check(
            format!("server.cpu_residual_frac on {w} = {residual:?}: the share of server CPU no replayed stage explains"),
            residual.map(|_| true),
        );
    }
}

fn results_json(cli: &Cli, set: &[WorkloadRuns]) -> JsonObject {
    let mut workloads = JsonObject::new();
    for w in set {
        let mut o = JsonObject::new();
        if let Some(r) = &w.end_to_end {
            o.set("attempted", r.attempted)
                .set("failed", r.failed)
                .set("record", r.record.clone())
                .set("end_to_end", r.metrics.clone());
        }
        if let Some(r) = &w.per_layer {
            o.set("per_layer", r.metrics.clone());
        }
        workloads.set(w.name, o);
    }
    JsonObject::new()
        .with("machine", sys::machine_record())
        .with(
            "run",
            JsonObject::new()
                .with("seed", cli.seed)
                .with("seconds", cli.seconds)
                .with("quick", cli.quick),
        )
        .with("workloads", workloads)
        .with("claim", JsonValue::Null)
}

/// `--aa`: the two sets side by side. Returns `false` when a metric
/// moved by more than its own bound or a count differs.
fn compare_sets(first: &[WorkloadRuns], second: &[WorkloadRuns]) -> bool {
    let mut agree = true;
    println!("\n== A/A: the same code measured twice");
    for (a, b) in first.iter().zip(second) {
        println!("  {}", a.name);
        let (Some(ea), Some(eb)) = (&a.end_to_end, &b.end_to_end) else {
            println!("    an untraced run failed");
            agree = false;
            continue;
        };
        for (spec, bound) in &spec::END_TO_END {
            let (x, y) = (
                ea.get(spec.name).unwrap_or(f64::NAN),
                eb.get(spec.name).unwrap_or(f64::NAN),
            );
            // How much worse the second run is, as a share of the first.
            let worse = match spec.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let within = worse.abs() <= *bound;
            agree &= within || !spec::is_gated(a.name);
            println!(
                "    {:<24} {:>16.6} {:>16.6} {:<5} differ by {:>7.4}, bound {bound}{}",
                spec.name,
                x,
                y,
                spec.unit,
                worse.abs(),
                if within { "" } else { "  EXCEEDS ITS BOUND" }
            );
        }
        if ea.failed + eb.failed > 0 {
            println!("    failed operations: {} and {}", ea.failed, eb.failed);
            agree = false;
        }
        let (Some(la), Some(lb)) = (&a.per_layer, &b.per_layer) else {
            println!("    a traced run failed");
            agree = false;
            continue;
        };
        // Probe counts and allocation counts are exact: any difference
        // means the two runs did not do the same work.
        for spec in spec::PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("core.") && matches!(m.unit, "count" | "bytes"))
            .filter(|m| !m.name.contains("allocs"))
        {
            let (x, y) = (la.get(spec.name), lb.get(spec.name));
            if x != y {
                println!("    {} differs: {x:?} vs {y:?}", spec.name);
                agree = false;
            }
        }
    }
    if agree {
        println!("  every end-to-end metric within its bound, every probe count identical");
    }
    agree
}

pub fn run(cli: &Cli) -> Result<(), String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let trace_dir: PathBuf = cli
        .trace_out
        .clone()
        .or_else(|| Some(me.parent()?.join("benchmark-trace")))
        .ok_or("no directory for trace files")?;
    std::fs::create_dir_all(&trace_dir).map_err(|e| format!("{}: {e}", trace_dir.display()))?;

    println!("== machine and run");
    println!("  {}", sys::machine_record());
    println!(
        "  seed {}, {} s per run{}, traces under {}",
        cli.seed,
        cli.seconds,
        if cli.quick { ", --quick" } else { "" },
        trace_dir.display()
    );

    let set = run_set(cli, &trace_dir);
    print_set(&set);
    print_interactions(&set);
    let mut ok = set
        .iter()
        .all(|w| w.per_layer.is_some() && w.end_to_end.as_ref().is_some_and(|r| r.failed == 0));
    if cli.aa {
        let second = run_set(cli, &trace_dir);
        print_set(&second);
        ok &= compare_sets(&set, &second);
    }
    if let Some(path) = &cli.out {
        let json = results_json(cli, &set).to_string();
        std::fs::write(path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nwrote {}", path.display());
    }
    if ok {
        Ok(())
    } else {
        Err("a workload failed, lost operations, or disagreed with itself".to_string())
    }
}
