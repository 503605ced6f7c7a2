//! Benchmark harness for the paper's evaluation (§5).
//!
//! * [`datasets`] — the synthetic D1…D5 (chemotherapy generator +
//!   duplication), with a scale knob.
//! * [`experiments`] — row computations for Figure 11 + Table 1
//!   (experiment 1), Figure 12 (experiment 2), and Figure 13
//!   (experiment 3).
//! * [`machine_info`] — the CPU model and core count the committed
//!   `BENCH_patternbank.json` names, so a figure is never read without
//!   its machine.
//!
//! The `experiments` binary prints the series next to the paper's
//! reference values — counts of `|Ω|` and automata, and Figure 13's
//! filter on/off run times, the one clock the paper's claim needs. The
//! `patternbank` binary times structural sharing on vs. off, the one
//! user-set performance switch nothing else measures. Every other timing
//! comes from the repository's one benchmark (`BENCHMARK.json`), a
//! package of its own under `src/bin/benchmark/` that this crate neither
//! builds nor depends on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;

/// The machine a benchmark report was taken on.
#[derive(Debug, Clone)]
pub struct MachineInfo {
    /// `model name` of `/proc/cpuinfo`, or `unknown`.
    pub cpu: String,
    /// Cores available to this process.
    pub cores: usize,
}

/// Reads [`MachineInfo`] for the current process.
pub fn machine_info() -> MachineInfo {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    MachineInfo { cpu, cores }
}
