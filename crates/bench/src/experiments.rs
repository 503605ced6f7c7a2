//! The three experiments of the paper's §5, as reusable row computations.
//!
//! Each `run_*` function returns the series the corresponding figure or
//! table plots; the `experiments` binary renders them next to the paper's
//! reference values.
//!
//! Measurement notes:
//!
//! * `|Ω|` is sampled after each input event and the maximum is reported —
//!   the paper's "maximal number of automaton instances that are
//!   simultaneously active".
//! * The brute-force number is the *sum* over the whole automaton bank at
//!   the same instant (the bank executes in lock-step).
//! * Timings use `MatchSemantics::AllRuns` so they measure `SESExec`
//!   itself, not the Definition-2 post-filter (which the paper's C
//!   implementation does not have).
//! * Experiment 3's ablation times the paper's Algorithm 1 as written
//!   ([`ses_core::algorithm1`]) with and without the §4.5 filter in front
//!   of it; the engine, whose admission mask is that filter, is the third
//!   column. Each column is the median of [`EXP3_RUNS`] runs: single
//!   sub-millisecond runs make the filter-speedup verdict noisy.
//! * Every SES column runs the paper's automaton
//!   ([`Automaton::build_paper`]), a state per subset of each `Vi`. The
//!   matchers run its quotient by interchangeable variables
//!   ([`Automaton::build`]), which binds same-type singletons in one
//!   order; the "quotient |Ω|" columns of Experiments 1 and 2 measure
//!   that one beside the paper's.

use ses_baseline::BruteForce;
use ses_core::{
    algorithm1, execute, paper_filter, scan, select, Automaton, EventSelection, MatchSemantics,
    MatcherOptions, NoProbe,
};
use ses_event::{EventId, Relation};
use ses_metrics::{CountingProbe, Stopwatch};
use ses_workload::paper;

use crate::datasets::Datasets;

fn engine_options() -> MatcherOptions {
    MatcherOptions {
        semantics: MatchSemantics::AllRuns,
        ..MatcherOptions::default()
    }
}

/// The paper's automaton (§4.2) for `pattern` over `relation`'s schema.
fn paper_automaton(pattern: &ses_pattern::Pattern, relation: &Relation) -> Automaton {
    let compiled = pattern
        .compile(relation.schema())
        .expect("experiment pattern compiles");
    Automaton::build_paper(compiled).expect("experiment pattern compiles")
}

/// Peak |Ω| of `automaton`'s execution over `relation`.
fn peak_omega(automaton: &Automaton, relation: &Relation) -> usize {
    let mut probe = CountingProbe::new();
    execute(
        automaton,
        relation,
        EventSelection::SkipTillNextMatch,
        &mut probe,
    );
    probe.omega_max
}

/// Peak |Ω| of the paper's SES automaton on `relation`.
pub fn ses_peak_omega(pattern: &ses_pattern::Pattern, relation: &Relation) -> usize {
    peak_omega(&paper_automaton(pattern, relation), relation)
}

/// Peak |Ω| of the quotient automaton the matchers run
/// ([`Automaton::build`]) on `relation` — [`ses_peak_omega`] for a
/// pattern without interchangeable variables.
pub fn quotient_peak_omega(pattern: &ses_pattern::Pattern, relation: &Relation) -> usize {
    let compiled = pattern
        .compile(relation.schema())
        .expect("experiment pattern compiles");
    let automaton = Automaton::build(compiled).expect("experiment pattern compiles");
    peak_omega(&automaton, relation)
}

/// Peak summed |Ω| of the brute-force bank on `relation`.
pub fn bf_peak_omega(pattern: &ses_pattern::Pattern, relation: &Relation) -> usize {
    let bank = BruteForce::with_options(pattern, relation.schema(), engine_options())
        .expect("experiment pattern compiles");
    let mut probe = CountingProbe::new();
    bank.find_with_probe(relation, &mut probe);
    probe.omega_max
}

/// Wall-clock seconds for one engine run of the paper's automaton — the
/// scan and the `AllRuns` selection `Matcher::find` runs — and its
/// distinct raw-match count.
pub fn ses_runtime(pattern: &ses_pattern::Pattern, relation: &Relation) -> (f64, usize) {
    let automaton = paper_automaton(pattern, relation);
    let sw = Stopwatch::start();
    let (raw, admitted) = scan(
        &automaton,
        relation,
        EventSelection::SkipTillNextMatch,
        &mut NoProbe,
    );
    let found = select(
        raw,
        &admitted,
        relation,
        automaton.pattern(),
        MatchSemantics::AllRuns,
    )
    .len();
    (sw.elapsed_secs(), found)
}

/// Wall-clock seconds for one run of the paper's Algorithm 1 on the
/// paper's automaton, with the §4.5 filter applied to each event as it
/// is read or not at all, and its distinct raw-match count.
pub fn algorithm1_runtime(
    pattern: &ses_pattern::Pattern,
    relation: &Relation,
    filtered: bool,
) -> (f64, usize) {
    let automaton = paper_automaton(pattern, relation);
    let compiled = automaton.pattern();
    let sw = Stopwatch::start();
    let events = (0..relation.len())
        .map(EventId::from)
        .filter(|&e| !filtered || paper_filter(compiled, relation.event(e)));
    let mut raw = algorithm1(&automaton, relation, events);
    let elapsed = sw.elapsed_secs();
    raw.sort_unstable();
    raw.dedup();
    (elapsed, raw.len())
}

// ---------------------------------------------------------------------
// Experiment 1 (Figure 11 + Table 1)
// ---------------------------------------------------------------------

/// One row of Figure 11 / Table 1.
#[derive(Debug, Clone)]
pub struct Exp1Row {
    /// `|V1|` (2…6).
    pub n: usize,
    /// Peak |Ω|, SES automaton, pattern P1 (mutually exclusive).
    pub ses_p1: usize,
    /// Peak summed |Ω|, brute-force bank, pattern P1.
    pub bf_p1: usize,
    /// Peak |Ω|, SES automaton, pattern P2 (same type).
    pub ses_p2: usize,
    /// Peak summed |Ω|, brute-force bank, pattern P2.
    pub bf_p2: usize,
    /// Peak |Ω|, quotient automaton, pattern P2 (its `|V1|` variables
    /// are one interchangeable class).
    pub quotient_p2: usize,
}

impl Exp1Row {
    /// Table 1's ratio `|Ω|BF / |Ω|SES` for P1.
    pub fn ratio_p1(&self) -> f64 {
        self.bf_p1 as f64 / self.ses_p1.max(1) as f64
    }

    /// Table 1's reference column `(|V1| − 1)!`.
    pub fn factorial_reference(&self) -> u64 {
        (1..self.n as u64).product()
    }
}

/// Runs experiment 1 on D1 for `|V1| ∈ ns`.
///
/// Peak-|Ω| measurements are deterministic, so the (independent) sweep
/// points run on scoped worker threads — the brute-force bank at
/// `|V1| = 6` alone steps 720 automata over the whole relation.
pub fn run_exp1(d1: &Relation, ns: impl IntoIterator<Item = usize>) -> Vec<Exp1Row> {
    let ns: Vec<usize> = ns.into_iter().collect();
    let mut rows: Vec<Option<Exp1Row>> = vec![None; ns.len()];
    std::thread::scope(|scope| {
        for (slot, &n) in rows.iter_mut().zip(&ns) {
            scope.spawn(move || {
                let p1 = paper::exp1_p1(n);
                let p2 = paper::exp1_p2(n);
                *slot = Some(Exp1Row {
                    n,
                    ses_p1: ses_peak_omega(&p1, d1),
                    bf_p1: bf_peak_omega(&p1, d1),
                    ses_p2: ses_peak_omega(&p2, d1),
                    bf_p2: bf_peak_omega(&p2, d1),
                    quotient_p2: quotient_peak_omega(&p2, d1),
                });
            });
        }
    });
    rows.into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

// ---------------------------------------------------------------------
// Experiment 2 (Figure 12)
// ---------------------------------------------------------------------

/// One point of Figure 12.
#[derive(Debug, Clone)]
pub struct Exp2Row {
    /// Data set index (1 = D1 … 5 = D5).
    pub k: usize,
    /// Window size `W` of Dk.
    pub w: usize,
    /// Peak |Ω| for P3 (`{c, d, p+}` — Theorem 3 regime).
    pub p3: usize,
    /// Peak |Ω| for P4 (`{c, d, p}` — Theorem 2 regime).
    pub p4: usize,
    /// Peak |Ω| for P3 on the quotient automaton (`c`, `d`
    /// interchangeable).
    pub quotient_p3: usize,
    /// Peak |Ω| for P4 on the quotient automaton (`c`, `d`, `p`
    /// interchangeable).
    pub quotient_p4: usize,
}

/// Runs experiment 2 over D1…Dk (data-set points in parallel; |Ω| is a
/// deterministic count, not a timing).
pub fn run_exp2(datasets: &Datasets) -> Vec<Exp2Row> {
    let p3 = paper::exp2_p3();
    let p4 = paper::exp2_p4();
    let mut rows: Vec<Option<Exp2Row>> = vec![None; datasets.relations.len()];
    std::thread::scope(|scope| {
        for (i, (slot, rel)) in rows.iter_mut().zip(&datasets.relations).enumerate() {
            let (p3, p4) = (&p3, &p4);
            let w = datasets.window_sizes[i];
            scope.spawn(move || {
                *slot = Some(Exp2Row {
                    k: i + 1,
                    w,
                    p3: ses_peak_omega(p3, rel),
                    p4: ses_peak_omega(p4, rel),
                    quotient_p3: quotient_peak_omega(p3, rel),
                    quotient_p4: quotient_peak_omega(p4, rel),
                });
            });
        }
    });
    rows.into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

// ---------------------------------------------------------------------
// Experiment 3 (Figure 13)
// ---------------------------------------------------------------------

/// Runs per arm of [`Exp3Times::measure`]; each arm's time is their
/// median.
pub const EXP3_RUNS: usize = 5;

/// One pattern's three runtimes (s) on one data set of Figure 13, each
/// the median of [`EXP3_RUNS`] runs.
#[derive(Debug, Clone, Copy)]
pub struct Exp3Times {
    /// Algorithm 1 over every event: no §4.5 filter.
    pub unfiltered: f64,
    /// Algorithm 1 over the events the §4.5 filter keeps.
    pub filtered: f64,
    /// The engine on the paper's automaton ([`ses_runtime`]).
    pub engine: f64,
}

impl Exp3Times {
    /// The times of `pattern` on `relation`. The arms take turns, one
    /// run each per round, so a slow spell of the machine slows all three
    /// alike rather than one arm's every run. Panics unless the three arms
    /// return the same number of distinct raw matches in every round.
    pub fn measure(pattern: &ses_pattern::Pattern, relation: &Relation) -> Exp3Times {
        let mut times: [Vec<f64>; 3] = Default::default();
        for _ in 0..EXP3_RUNS {
            let runs = [
                algorithm1_runtime(pattern, relation, false),
                algorithm1_runtime(pattern, relation, true),
                ses_runtime(pattern, relation),
            ];
            let (all, kept, found) = (runs[0].1, runs[1].1, runs[2].1);
            assert_eq!((all, kept), (found, found), "the three arms disagree");
            for (arm, (secs, _)) in times.iter_mut().zip(runs) {
                arm.push(secs);
            }
        }
        let [unfiltered, filtered, engine] = times.map(|mut t| {
            t.sort_by(f64::total_cmp);
            t[EXP3_RUNS / 2]
        });
        Exp3Times {
            unfiltered,
            filtered,
            engine,
        }
    }

    /// What the §4.5 filter saves Algorithm 1: unfiltered ÷ filtered.
    pub fn filter_speedup(&self) -> f64 {
        self.unfiltered / self.filtered.max(1e-9)
    }
}

/// One point of Figure 13.
#[derive(Debug, Clone)]
pub struct Exp3Row {
    /// Data set index (1 = D1 …).
    pub k: usize,
    /// Window size `W` of Dk.
    pub w: usize,
    /// P5 (mutually exclusive types).
    pub p5: Exp3Times,
    /// P6 (same type, group variable).
    pub p6: Exp3Times,
}

/// Runs experiment 3 over D1…Dk.
pub fn run_exp3(datasets: &Datasets) -> Vec<Exp3Row> {
    let p5 = paper::exp3_p5();
    let p6 = paper::exp3_p6();
    datasets
        .relations
        .iter()
        .enumerate()
        .map(|(i, rel)| Exp3Row {
            k: i + 1,
            w: datasets.window_sizes[i],
            p5: Exp3Times::measure(&p5, rel),
            p6: Exp3Times::measure(&p6, rel),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_datasets() -> Datasets {
        Datasets::build(0.02, 2)
    }

    #[test]
    fn exp1_shapes_hold_at_tiny_scale() {
        let ds = tiny_datasets();
        let rows = run_exp1(ds.d1(), [2usize, 3]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            // The bank never needs fewer instances than the single
            // automaton, and the P1 gap grows with (n−1)!.
            assert!(row.bf_p1 >= row.ses_p1, "{row:?}");
            assert!(row.bf_p2 >= row.ses_p2, "{row:?}");
            assert!(row.quotient_p2 <= row.ses_p2, "{row:?}");
        }
        assert!(rows[1].ratio_p1() > rows[0].ratio_p1());
        assert_eq!(rows[0].factorial_reference(), 1);
        assert_eq!(rows[1].factorial_reference(), 2);
    }

    #[test]
    fn exp2_group_variable_dominates() {
        let ds = tiny_datasets();
        let rows = run_exp2(&ds);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.p3 >= row.p4, "group regime must dominate: {row:?}");
            assert!(
                row.quotient_p3 <= row.p3 && row.quotient_p4 <= row.p4,
                "{row:?}"
            );
        }
        // P3 grows with W.
        assert!(rows[1].p3 > rows[0].p3);
    }

    #[test]
    fn exp3_runs_and_produces_positive_times() {
        let ds = tiny_datasets();
        let rows = run_exp3(&ds);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            for t in [row.p5, row.p6] {
                assert!(
                    t.unfiltered > 0.0 && t.filtered > 0.0 && t.engine > 0.0,
                    "{row:?}"
                );
            }
        }
    }
}
