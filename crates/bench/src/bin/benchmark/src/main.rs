//! The repository's benchmark: five workloads from `Matcher::find` to a
//! crashed and restarted `ses-server` (four of them held to bounds by
//! the driver), every layer measured from outside through public items
//! only. See `README.md` beside this package for
//! what each number means and `BENCHMARK.json` at the repository root
//! for the table the driver reads.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON result line
//! benchmark [--only NAME] [--quick] [--aa] [--out FILE] [--trace-out FILE]   the whole set, as a report
//! ```

mod engine;
mod inputs;
mod outcome;
mod proc;
mod server;
mod spec;
mod stages;
mod stats;
mod suite;
mod sys;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use outcome::{Outcome, RunArgs};
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--trace-out FILE]
  benchmark [--only NAME] [--seed N] [--seconds S] [--quick] [--aa] [--out FILE] [--trace-out FILE]
workloads: batch-filter batch-dense stream-bank server-ingest server-durable";

/// Everything the command line can say; which fields matter depends on
/// whether `--workload` selects the single-run mode.
pub struct Cli {
    workload: Option<String>,
    only: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_cli(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        only: None,
        seed: inputs::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        aa: false,
        out: None,
        trace_out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--only" => cli.only = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if cli.seconds.is_nan() || cli.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => cli.quick = true,
            "--aa" => cli.aa = true,
            "--out" => cli.out = Some(value()?.into()),
            "--trace-out" => cli.trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    for name in cli.workload.iter().chain(&cli.only) {
        if !spec::all_workloads().any(|w| w.0 == name) {
            return Err(format!("unknown workload `{name}`"));
        }
    }
    Ok(cli)
}

fn run_workload(args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "batch-filter" => engine::run_batch(inputs::batch_filter, args, tracer),
        "batch-dense" => engine::run_batch(inputs::batch_dense, args, tracer),
        "stream-bank" => engine::run_stream_bank(args, tracer),
        "server-ingest" => server::run_server(false, args, tracer),
        "server-durable" => server::run_server(true, args, tracer),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// One workload, one result line — the driver's protocol.
fn single_run(args: &RunArgs) -> Result<(), String> {
    let mut tracer = Tracer::new(args.trace);
    let mut outcome = run_workload(args, &mut tracer)?;
    if args.trace {
        outcome.set("trace.spans", tracer.len() as f64);
        if let Some(path) = &args.trace_out {
            tracer.write(path)?;
        }
    }
    for note in &outcome.notes {
        eprintln!("[{}] {note}", args.workload);
    }
    println!("record {}", outcome.record);
    println!("{}", outcome.result_line(args.trace)?);
    Ok(())
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &cli.workload {
        Some(workload) => single_run(&RunArgs {
            workload: workload.clone(),
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            quick: cli.quick,
            trace_out: cli.trace_out.clone(),
        })
        .map_err(|e| format!("{workload}: {e}")),
        None => suite::run(&cli),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
