//! What one run of one workload produces, and the line it prints.

use std::path::PathBuf;
use std::time::Duration;

use ses_metrics::{JsonObject, JsonValue};

use crate::spec::{self, MetricSpec};
use crate::stats;

/// Options of a single-workload run (`--workload …`).
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Inputs ÷10, one rep per phase; every correctness check kept.
    pub quick: bool,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// Timed samples reduced for the report: the median is the metric, the
/// rest says how far to trust it.
pub fn describe(samples: &[f64], unit: &str) -> String {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    format!(
        "median {:.6} {unit} of {} samples (min {:.6}, quartiles {:.6} and {:.6}, max {:.6})",
        stats::median(samples),
        samples.len(),
        sorted[0],
        stats::percentile(&sorted, 250),
        stats::percentile(&sorted, 750),
        sorted[sorted.len() - 1]
    )
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Metrics, counts and remarks of one run.
#[derive(Default)]
pub struct Outcome {
    values: Vec<(&'static str, f64)>,
    /// Human-readable detail: sample counts, ranges, validity remarks.
    pub notes: Vec<String>,
    /// Events sent plus matches expected — the denominator of
    /// `failed_frac`.
    pub attempted: u64,
    /// Events refused or shed, matches missing, duplicated, different or
    /// later than the limit, operations that hit a read deadline.
    pub failed: u64,
    /// Generator threads/connections and server flags, for the record.
    pub record: JsonObject,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            spec::END_TO_END.iter().any(|m| m.0.name == name)
                || spec::PER_LAYER.iter().any(|m| m.name == name),
            "undeclared metric {name}"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|v| v.1)
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Counts `n` failed operations and says why.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.notes.push(format!("FAILED ×{n}: {why}"));
    }

    /// The result line of the driver protocol: every end-to-end metric
    /// of an untraced run, every per-layer metric of a traced one (0 for
    /// a layer the workload does not exercise).
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let mut metrics = JsonObject::new();
        let mut put = |spec: &MetricSpec, value: f64| {
            metrics.set(
                spec.name,
                JsonObject::new()
                    .with("value", value)
                    .with("unit", spec.unit),
            );
        };
        if trace {
            for spec in &spec::PER_LAYER {
                put(spec, self.get(spec.name).unwrap_or(0.0));
            }
        } else {
            for (spec, _) in &spec::END_TO_END {
                let value = self
                    .get(spec.name)
                    .ok_or_else(|| format!("the run produced no `{}`", spec.name))?;
                put(spec, value);
            }
        }
        Ok(JsonObject::new()
            .with("correct", self.failed == 0)
            .with("attempted", self.attempted.max(1))
            .with("failed", self.failed)
            .with("metrics", JsonValue::Object(metrics))
            .to_string())
    }
}
