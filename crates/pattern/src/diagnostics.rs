//! Diagnostics emitted by the static analyzer (see [`crate::analyze`]).
//!
//! Every finding carries a stable `SESnnn` code so scripts and CI gates
//! can match on it, a severity, a human-readable message, and — when the
//! pattern came from query text — a source span threaded through from
//! `ses-query`. Rendering is available both human-readable (one line per
//! diagnostic, `rustc`-style) and as JSON for `ses-cli check --format
//! json`.

use std::fmt;

/// Stable diagnostic codes of the static analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticCode {
    /// `SES001` — the condition set `Θ` is provably unsatisfiable: no
    /// event assignment can ever satisfy it.
    Unsatisfiable,
    /// `SES002` — a constant condition is implied by the other constant
    /// conditions on the same `(variable, attribute)` and can be dropped
    /// from transition evaluation.
    RedundantCondition,
    /// `SES003` — some variable has no constant condition, so it admits
    /// every event and the §4.5 event pre-filter drops none at runtime.
    FilterDowngraded,
    /// `SES004` — an event set pattern falls in a factorial or
    /// exponential instance-bound class (Theorems 2–3).
    ComplexityBound,
    /// `SES005` — the pattern does not compile against the schema
    /// (unknown attribute, incomparable types, NaN constant).
    SchemaMismatch,
    /// `SES006` — two patterns in a bank are provably equivalent (up to
    /// variable renaming and reordering within event sets): one of them
    /// is redundant. Emitted by `ses-cli check --patterns`.
    EquivalentPatterns,
    /// `SES007` — a pattern is subsumed by another: every candidate
    /// match, restricted to the shared variables, is a candidate match
    /// of the more general pattern. Emitted by `ses-cli check
    /// --patterns`.
    SubsumedPattern,
    /// `SES008` — two or more singleton variables of one event set
    /// pattern are interchangeable ([`crate::interchangeable_classes`]):
    /// the automaton binds them in one order and each match is emitted in
    /// all `k!` orders, so their share of Theorem 2's `n!` bound is not
    /// paid.
    InterchangeableVariables,
}

impl DiagnosticCode {
    /// The stable `SESnnn` rendering of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticCode::Unsatisfiable => "SES001",
            DiagnosticCode::RedundantCondition => "SES002",
            DiagnosticCode::FilterDowngraded => "SES003",
            DiagnosticCode::ComplexityBound => "SES004",
            DiagnosticCode::SchemaMismatch => "SES005",
            DiagnosticCode::EquivalentPatterns => "SES006",
            DiagnosticCode::SubsumedPattern => "SES007",
            DiagnosticCode::InterchangeableVariables => "SES008",
        }
    }

    /// The severity the analyzer assigns by default.
    pub fn default_severity(self) -> Severity {
        match self {
            DiagnosticCode::Unsatisfiable | DiagnosticCode::SchemaMismatch => Severity::Error,
            DiagnosticCode::RedundantCondition
            | DiagnosticCode::FilterDowngraded
            | DiagnosticCode::ComplexityBound
            | DiagnosticCode::EquivalentPatterns
            | DiagnosticCode::SubsumedPattern => Severity::Warning,
            DiagnosticCode::InterchangeableVariables => Severity::Info,
        }
    }
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a diagnostic is. Errors make `ses-cli check` exit
/// non-zero; warnings and notes do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: nothing is wrong, but the analyzer derived
    /// something worth knowing.
    Info,
    /// Suspicious but executable.
    Warning,
    /// The pattern is broken (unsatisfiable or uncompilable).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// A 1-based source position in the query text a pattern was parsed
/// from. Patterns built programmatically have no spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: DiagnosticCode,
    /// Severity (usually [`DiagnosticCode::default_severity`], but e.g. an
    /// unconstrained variable *rescued* by derived conditions demotes
    /// `SES003` to [`Severity::Info`]).
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// Index of the offending condition in
    /// [`crate::Pattern::conditions`], when the finding is about one.
    pub condition: Option<usize>,
    /// Source span in the originating query text, when known.
    pub span: Option<Span>,
}

impl Diagnostic {
    /// Creates a diagnostic with the code's default severity.
    pub fn new(code: DiagnosticCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            condition: None,
            span: None,
        }
    }

    /// Overrides the severity.
    pub fn with_severity(mut self, severity: Severity) -> Diagnostic {
        self.severity = severity;
        self
    }

    /// Attaches the index of the offending condition.
    pub fn with_condition(mut self, idx: usize) -> Diagnostic {
        self.condition = Some(idx);
        self
    }

    /// Attaches a source span.
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = Some(span);
        self
    }
}

impl fmt::Display for Diagnostic {
    /// `severity[CODE]: message (at line:col)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(span) = self.span {
            write!(f, " (at {span})")?;
        }
        Ok(())
    }
}

/// An ordered collection of diagnostics from one analyzer run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// All diagnostics in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff nothing was reported.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` iff any diagnostic has [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// Diagnostics with the given code.
    pub fn with_code(&self, code: DiagnosticCode) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter().filter(move |d| d.code == code)
    }

    /// Renders the collection as a JSON array (no external dependencies;
    /// spans render as `line`/`col`, absent fields as `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            out.push_str(d.code.as_str());
            out.push_str("\",\"severity\":\"");
            out.push_str(&d.severity.to_string());
            out.push_str("\",\"message\":");
            json_string(&mut out, &d.message);
            out.push_str(",\"condition\":");
            match d.condition {
                Some(c) => out.push_str(&c.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"line\":");
            match d.span {
                Some(s) => out.push_str(&s.line.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"col\":");
            match d.span {
                Some(s) => out.push_str(&s.col.to_string()),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

impl fmt::Display for Diagnostics {
    /// One diagnostic per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.items {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

/// Appends `s` to `out` as a JSON string literal.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(DiagnosticCode::Unsatisfiable.as_str(), "SES001");
        assert_eq!(DiagnosticCode::RedundantCondition.as_str(), "SES002");
        assert_eq!(DiagnosticCode::FilterDowngraded.as_str(), "SES003");
        assert_eq!(DiagnosticCode::ComplexityBound.as_str(), "SES004");
        assert_eq!(DiagnosticCode::SchemaMismatch.as_str(), "SES005");
        assert_eq!(DiagnosticCode::EquivalentPatterns.as_str(), "SES006");
        assert_eq!(DiagnosticCode::SubsumedPattern.as_str(), "SES007");
        assert_eq!(DiagnosticCode::InterchangeableVariables.as_str(), "SES008");
    }

    #[test]
    fn default_severities() {
        assert_eq!(
            DiagnosticCode::Unsatisfiable.default_severity(),
            Severity::Error
        );
        assert_eq!(
            DiagnosticCode::RedundantCondition.default_severity(),
            Severity::Warning
        );
        assert_eq!(
            DiagnosticCode::EquivalentPatterns.default_severity(),
            Severity::Warning
        );
        assert_eq!(
            DiagnosticCode::SubsumedPattern.default_severity(),
            Severity::Warning
        );
        assert_eq!(
            DiagnosticCode::InterchangeableVariables.default_severity(),
            Severity::Info
        );
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn human_rendering() {
        let d = Diagnostic::new(DiagnosticCode::Unsatisfiable, "a.V > 10 ∧ a.V < 5")
            .with_span(Span { line: 2, col: 14 });
        assert_eq!(d.to_string(), "error[SES001]: a.V > 10 ∧ a.V < 5 (at 2:14)");
        let d = Diagnostic::new(DiagnosticCode::ComplexityBound, "set V1 is O(3!)");
        assert_eq!(d.to_string(), "warning[SES004]: set V1 is O(3!)");
    }

    #[test]
    fn interchangeable_variables_are_reported_as_info_with_the_class_size() {
        use ses_event::{AttrType, CmpOp, Duration, Schema};
        let schema = Schema::builder().attr("L", AttrType::Str).build().unwrap();
        // exp2_p3's shape: c and d are both `L = 'V'`, p+ is a group.
        let p = crate::Pattern::builder()
            .set(|s| s.var("c").var("d").plus("p"))
            .set(|s| s.var("b"))
            .cond_const("c", "L", CmpOp::Eq, "V")
            .cond_const("d", "L", CmpOp::Eq, "V")
            .cond_const("p", "L", CmpOp::Eq, "V")
            .cond_const("b", "L", CmpOp::Eq, "B")
            .within(Duration::ticks(10))
            .build()
            .unwrap();
        let analysis = crate::analyze(&p, &schema);
        let found: Vec<String> = analysis
            .diagnostics
            .with_code(DiagnosticCode::InterchangeableVariables)
            .map(ToString::to_string)
            .collect();
        assert_eq!(found, ["info[SES008]: c, d in V1 are interchangeable (2!)"]);
    }

    #[test]
    fn collection_queries() {
        let mut ds = Diagnostics::new();
        assert!(ds.is_empty());
        assert!(!ds.has_errors());
        ds.push(Diagnostic::new(DiagnosticCode::RedundantCondition, "dup"));
        assert!(!ds.has_errors());
        ds.push(Diagnostic::new(DiagnosticCode::Unsatisfiable, "empty"));
        assert!(ds.has_errors());
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.with_code(DiagnosticCode::Unsatisfiable).count(), 1);
        let text = ds.to_string();
        assert!(text.contains("warning[SES002]: dup\n"), "{text}");
        assert!(text.contains("error[SES001]: empty\n"), "{text}");
    }

    #[test]
    fn json_rendering_escapes() {
        let mut ds = Diagnostics::new();
        ds.push(
            Diagnostic::new(DiagnosticCode::RedundantCondition, "says \"hi\"\n")
                .with_condition(3)
                .with_span(Span { line: 1, col: 9 }),
        );
        let json = ds.to_json();
        assert_eq!(
            json,
            "[{\"code\":\"SES002\",\"severity\":\"warning\",\
             \"message\":\"says \\\"hi\\\"\\n\",\"condition\":3,\
             \"line\":1,\"col\":9}]"
        );
        assert_eq!(Diagnostics::new().to_json(), "[]");
    }
}
