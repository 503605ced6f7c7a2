//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! cargo run -p ses-bench --release --bin experiments -- [--exp 1|2|3|all]
//!     [--scale F] [--datasets K] [--nmax N] [--csv DIR]
//! ```
//!
//! `--csv DIR` additionally writes each figure's series as a plottable
//! CSV file (`figure11.csv`, `figure12.csv`, `figure13.csv`).
//!
//! `--scale` (default 0.1) scales the synthetic D1's patient count; 1.0
//! reproduces the paper's `W ≈ 1322` (slow in the nondeterministic
//! regimes). Absolute numbers depend on the synthetic data and hardware;
//! the *shapes* — who wins, by what factor, and the growth trends — are
//! the reproduction targets (see EXPERIMENTS.md).

use ses_bench::datasets::{Datasets, TAU};
use ses_bench::experiments::{run_exp1, run_exp2, run_exp3, EXP3_RUNS};
use ses_metrics::{fmt_f64, Table};

struct Options {
    exp: String,
    scale: f64,
    datasets: usize,
    nmax: usize,
    csv_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        exp: "all".to_string(),
        scale: 0.1,
        datasets: 5,
        nmax: 6,
        csv_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("--{name} needs a value"))
        };
        match arg.as_str() {
            "--exp" => opts.exp = take("exp")?,
            "--scale" => {
                opts.scale = take("scale")?
                    .parse()
                    .map_err(|_| "--scale: not a number".to_string())?
            }
            "--datasets" => {
                opts.datasets = take("datasets")?
                    .parse()
                    .map_err(|_| "--datasets: not a number".to_string())?
            }
            "--nmax" => {
                opts.nmax = take("nmax")?
                    .parse()
                    .map_err(|_| "--nmax: not a number".to_string())?
            }
            "--csv" => opts.csv_dir = Some(take("csv")?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !["1", "2", "3", "all"].contains(&opts.exp.as_str()) {
        return Err(format!("--exp: unknown experiment `{}`", opts.exp));
    }
    if !(2..=6).contains(&opts.nmax) {
        return Err("--nmax must be between 2 and 6".to_string());
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "building data sets (scale {}, {} sets)…",
        opts.scale, opts.datasets
    );
    let datasets = Datasets::build(opts.scale, opts.datasets);
    println!(
        "D1: {} events, W = {} at τ = {} (paper: W = 1322)",
        datasets.d1().len(),
        datasets.window_sizes[0],
        TAU,
    );
    for (i, w) in datasets.window_sizes.iter().enumerate() {
        println!("  D{}: W = {w}", i + 1);
    }
    println!();

    if let Some(dir) = &opts.csv_dir {
        std::fs::create_dir_all(dir).expect("can create the CSV output directory");
    }
    if opts.exp == "1" || opts.exp == "all" {
        experiment1(&datasets, opts.nmax, opts.csv_dir.as_deref());
    }
    if opts.exp == "2" || opts.exp == "all" {
        experiment2(&datasets, opts.csv_dir.as_deref());
    }
    if opts.exp == "3" || opts.exp == "all" {
        experiment3(&datasets, opts.csv_dir.as_deref());
    }
}

/// Writes one plottable CSV series file.
fn write_series(dir: &std::path::Path, name: &str, header: &str, rows: &[String]) {
    let path = dir.join(name);
    let mut body = String::from(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    std::fs::write(&path, body).expect("can write series CSV");
    println!("wrote {}", path.display());
}

/// Paper Table 1 (P1 series): |V1|, |Ω|BF, |Ω|SES, ratio, (|V1|−1)!.
const PAPER_TABLE1: [(usize, u64, u64, f64); 5] = [
    (2, 45, 45, 1.0),
    (3, 101, 50, 2.0),
    (4, 341, 56, 6.1),
    (5, 2414, 99, 24.4),
    (6, 14150, 116, 122.0),
];

fn experiment1(datasets: &Datasets, nmax: usize, csv: Option<&std::path::Path>) {
    println!("== Experiment 1 — SES vs brute force (Figure 11, Table 1) ==");
    println!("measured peak |Ω| on D1; BF is the summed bank\n");
    let rows = run_exp1(datasets.d1(), 2..=nmax);

    let mut fig11 = Table::new([
        "|V1|",
        "BF P1",
        "SES P1",
        "BF P2",
        "SES P2",
        "quotient |Ω| P2",
    ]);
    for r in &rows {
        fig11.row([
            r.n.to_string(),
            r.bf_p1.to_string(),
            r.ses_p1.to_string(),
            r.bf_p2.to_string(),
            r.ses_p2.to_string(),
            r.quotient_p2.to_string(),
        ]);
    }
    println!("Figure 11 (measured):\n{fig11}");
    println!(
        "quotient |Ω|: the automaton the matchers run, which binds P2's interchangeable\n\
         variables in one order (not in the paper)\n"
    );
    if let Some(dir) = csv {
        let lines: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{},{},{}",
                    r.n, r.bf_p1, r.ses_p1, r.bf_p2, r.ses_p2, r.quotient_p2
                )
            })
            .collect();
        write_series(
            dir,
            "figure11.csv",
            "n,bf_p1,ses_p1,bf_p2,ses_p2,quotient_p2",
            &lines,
        );
    }

    let mut t1 = Table::new([
        "|V1|",
        "|Ω|BF",
        "|Ω|SES",
        "ratio",
        "(|V1|-1)!",
        "paper ratio",
    ]);
    for r in &rows {
        let paper = PAPER_TABLE1.iter().find(|p| p.0 == r.n);
        t1.row([
            r.n.to_string(),
            r.bf_p1.to_string(),
            r.ses_p1.to_string(),
            fmt_f64(r.ratio_p1(), 1),
            r.factorial_reference().to_string(),
            paper.map_or("-".into(), |p| fmt_f64(p.3, 1)),
        ]);
    }
    println!("Table 1 (P1; measured vs paper):\n{t1}");
    println!(
        "paper's Table 1 absolutes: BF {:?}, SES {:?}",
        PAPER_TABLE1.map(|p| p.1),
        PAPER_TABLE1.map(|p| p.2),
    );

    // Shape verdicts.
    let last = rows.last().expect("at least one row");
    let first = rows.first().expect("at least one row");
    println!("\nshape checks:");
    println!(
        "  P1 ratio grows ≈ (|V1|-1)!: measured {} at n={} (reference {})  {}",
        fmt_f64(last.ratio_p1(), 1),
        last.n,
        last.factorial_reference(),
        verdict(last.ratio_p1() >= 0.5 * last.factorial_reference() as f64),
    );
    println!(
        "  SES P1 stays near-flat: {} → {}  {}",
        first.ses_p1,
        last.ses_p1,
        verdict(last.ses_p1 < first.ses_p1.max(1) * last.n * last.n),
    );
    println!(
        "  BF ≥ SES everywhere  {}",
        verdict(
            rows.iter()
                .all(|r| r.bf_p1 >= r.ses_p1 && r.bf_p2 >= r.ses_p2)
        ),
    );
    println!();
}

fn experiment2(datasets: &Datasets, csv: Option<&std::path::Path>) {
    println!("== Experiment 2 — |Ω| vs window size (Figure 12) ==");
    println!(
        "P3 = ⟨{{c,d,p+}},{{b}}⟩ same type (Thm 3); P4 = ⟨{{c,d,p}},{{b}}⟩ same type (Thm 2)\n"
    );
    let rows = run_exp2(datasets);
    let mut fig12 = Table::new([
        "dataset",
        "W",
        "SES P3",
        "SES P4",
        "quotient |Ω| P3",
        "quotient |Ω| P4",
    ]);
    for r in &rows {
        fig12.row([
            format!("D{}", r.k),
            r.w.to_string(),
            r.p3.to_string(),
            r.p4.to_string(),
            r.quotient_p3.to_string(),
            r.quotient_p4.to_string(),
        ]);
    }
    println!("Figure 12 (measured):\n{fig12}");
    println!(
        "quotient |Ω|: the automaton the matchers run, which binds the interchangeable\n\
         singletons (c, d in P3; c, d, p in P4) in one order (not in the paper)\n"
    );
    if let Some(dir) = csv {
        let lines: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{},{},{}",
                    r.k, r.w, r.p3, r.p4, r.quotient_p3, r.quotient_p4
                )
            })
            .collect();
        write_series(
            dir,
            "figure12.csv",
            "dataset,w,p3,p4,quotient_p3,quotient_p4",
            &lines,
        );
    }
    println!("paper: P3 grows polynomially with W (≈8·10^4 at W = 6610); P4 grows ≈ linearly");

    if rows.len() >= 2 {
        let (f, l) = (&rows[0], &rows[rows.len() - 1]);
        let w_ratio = l.w as f64 / f.w as f64;
        let p3_growth = l.p3 as f64 / f.p3.max(1) as f64;
        let p4_growth = l.p4 as f64 / f.p4.max(1) as f64;
        println!("\nshape checks (W ×{}):", fmt_f64(w_ratio, 1));
        println!(
            "  P3 superlinear in W: growth ×{}  {}",
            fmt_f64(p3_growth, 1),
            verdict(p3_growth > 1.5 * w_ratio),
        );
        println!(
            "  P4 ≲ linear in W: growth ×{}  {}",
            fmt_f64(p4_growth, 1),
            verdict(p4_growth <= 2.0 * w_ratio),
        );
        println!(
            "  P3 dominates P4  {}",
            verdict(rows.iter().all(|r| r.p3 >= r.p4)),
        );
    }
    println!();
}

fn experiment3(datasets: &Datasets, csv: Option<&std::path::Path>) {
    println!("== Experiment 3 — effect of event filtering (Figure 13) ==");
    println!(
        "P5 = mutually exclusive types; P6 = same type with p+; times in seconds, each\n\
         the median of {EXP3_RUNS} runs.\n\
         no-filter / filter: the paper's Algorithm 1 over every event / over the events\n\
         the §4.5 filter keeps; engine: the scan and AllRuns selection of Matcher::find,\n\
         whose admission mask is the filter — all three on the paper's automaton\n"
    );
    let rows = run_exp3(datasets);
    let mut fig13 = Table::new([
        "dataset",
        "W",
        "P5 no-filter",
        "P5 filter",
        "P5 engine",
        "P6 no-filter",
        "P6 filter",
        "P6 engine",
    ]);
    for r in &rows {
        fig13.row([
            format!("D{}", r.k),
            r.w.to_string(),
            fmt_f64(r.p5.unfiltered, 4),
            fmt_f64(r.p5.filtered, 4),
            fmt_f64(r.p5.engine, 4),
            fmt_f64(r.p6.unfiltered, 4),
            fmt_f64(r.p6.filtered, 4),
            fmt_f64(r.p6.engine, 4),
        ]);
    }
    println!("Figure 13 (measured):\n{fig13}");
    if let Some(dir) = csv {
        let lines: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{},{},{},{},{}",
                    r.k,
                    r.w,
                    r.p5.unfiltered,
                    r.p5.filtered,
                    r.p5.engine,
                    r.p6.unfiltered,
                    r.p6.filtered,
                    r.p6.engine
                )
            })
            .collect();
        write_series(
            dir,
            "figure13.csv",
            "dataset,w,p5_unfiltered,p5_filtered,p5_engine,p6_unfiltered,p6_filtered,p6_engine",
            &lines,
        );
    }
    println!(
        "paper: filtering reduces execution time by ≈ an order of magnitude for both patterns"
    );

    let gmean = |xs: Vec<f64>| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp();
    println!("\nshape checks:");
    for (name, speedup) in [
        (
            "P5",
            gmean(rows.iter().map(|r| r.p5.filter_speedup()).collect()),
        ),
        (
            "P6",
            gmean(rows.iter().map(|r| r.p6.filter_speedup()).collect()),
        ),
    ] {
        println!(
            "  filter speedup {name}: geometric mean ×{}  {}",
            fmt_f64(speedup, 1),
            verdict(speedup > 2.0),
        );
    }
    println!();
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "[shape ✓]"
    } else {
        "[shape ✗]"
    }
}
