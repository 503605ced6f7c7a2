//! Instrumentation for the SES experiments: a counting engine probe, a
//! stopwatch, summary statistics, and plain-text report tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod probe;
mod report;
mod stopwatch;

pub use json::{escape_json, json_key, JsonObject, JsonValue};
pub use probe::CountingProbe;
pub use report::{fmt_f64, Align, Table};
pub use stopwatch::{timed, Stopwatch, Summary};
