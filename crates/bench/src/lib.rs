//! Benchmark harness for the paper's evaluation (§5).
//!
//! * [`datasets`] — the synthetic D1…D5 (chemotherapy generator +
//!   duplication), with a scale knob.
//! * [`experiments`] — row computations for Figure 11 + Table 1
//!   (experiment 1), Figure 12 (experiment 2), and Figure 13
//!   (experiment 3).
//!
//! The `experiments` binary prints the series next to the paper's
//! reference values — counts of `|Ω|` and automata, and Figure 13's
//! filter on/off run times, the one clock the paper's claim needs. Every
//! other timing comes from the repository's one benchmark
//! (`BENCHMARK.json`), a package of its own under `src/bin/benchmark/`
//! that this crate neither builds nor depends on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
