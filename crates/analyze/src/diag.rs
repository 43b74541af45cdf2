//! Diagnostics: codes, severities, caret-annotated rendering, summary
//! tables, and machine-readable JSON export.
//!
//! Codes follow the marking sheet split used in the course material:
//! `E`-class diagnostics are guaranteed-wrong programs (deadlock or a
//! broken parallel idiom — correctness deductions), `W`-class are
//! potential races and style hazards (noted, smaller deductions).
//! Every `E`-class verdict is cross-validated dynamically in
//! `tests/analyze.rs`: the explorer must witness the bad schedule.

use parc_trace::Json;

use crate::ast::Span;

/// A diagnostic code. Ordering is the report order for equal spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Barrier lexically inside worksharing / `single` / `master` /
    /// `critical` — guaranteed deadlock (mismatched barrier counts).
    E001,
    /// Worksharing construct nested inside another worksharing
    /// construct bound to the same parallel region.
    E002,
    /// Reduction variable written as a shared variable outside its
    /// reduction construct.
    E003,
    /// Lock-order cycle across named `critical` regions (or a
    /// self-nested critical) — deadlock-capable.
    E004,
    /// Malformed region structure (unclosed block, stray `}` or
    /// `section` outside `sections`).
    E005,
    /// Phase-ordered deterministic deadlock: the MHP engine proves a
    /// barrier is reached by only part of the team (arrival counts
    /// mismatch) outside the classic `E001` construct family.
    E006,
    /// Unprotected write to a shared variable in a parallel region —
    /// potential data race.
    W101,
    /// `master` used where `single` (+ implied barrier) is needed:
    /// siblings read the master's write without a barrier.
    W102,
    /// `private` variable read before its first write (privates start
    /// uninitialised; use `firstprivate` to capture the outer value).
    W103,
    /// Redundant `critical`: MHP proves no concurrent access ever
    /// conflicts with anything the lock protects — the lock only adds
    /// overhead (a teachable style diagnostic).
    W104,
}

/// Diagnostic severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Guaranteed-wrong program.
    Error,
    /// Potential hazard / style problem.
    Warning,
}

impl Code {
    /// Every code, in report order.
    pub const ALL: [Code; 10] = [
        Code::E001,
        Code::E002,
        Code::E003,
        Code::E004,
        Code::E005,
        Code::E006,
        Code::W101,
        Code::W102,
        Code::W103,
        Code::W104,
    ];

    /// The code's severity class.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Self::E001 | Self::E002 | Self::E003 | Self::E004 | Self::E005 | Self::E006 => {
                Severity::Error
            }
            Self::W101 | Self::W102 | Self::W103 | Self::W104 => Severity::Warning,
        }
    }

    /// The code as printed (`E001`, `W101`, ...).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::E001 => "E001",
            Self::E002 => "E002",
            Self::E003 => "E003",
            Self::E004 => "E004",
            Self::E005 => "E005",
            Self::E006 => "E006",
            Self::W101 => "W101",
            Self::W102 => "W102",
            Self::W103 => "W103",
            Self::W104 => "W104",
        }
    }

    /// A one-line title for tables and rubric notes.
    #[must_use]
    pub fn title(self) -> &'static str {
        match self {
            Self::E001 => "barrier inside worksharing/synchronised construct",
            Self::E002 => "nested worksharing in the same parallel region",
            Self::E003 => "reduction variable written outside the reduction",
            Self::E004 => "lock-order cycle across named criticals",
            Self::E005 => "malformed region structure",
            Self::E006 => "phase-ordered deadlock: barrier unreachable for part of the team",
            Self::W101 => "unprotected shared write (potential race)",
            Self::W102 => "master without a barrier before sibling reads",
            Self::W103 => "private variable read before first write",
            Self::W104 => "redundant critical: no concurrent conflicting access",
        }
    }
}

impl Severity {
    /// Lowercase label, rustc style.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Error => "error",
            Self::Warning => "warning",
        }
    }
}

/// One diagnostic: a code anchored at a span, with a message and
/// optional explanatory notes.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// The code.
    pub code: Code,
    /// The primary span (what the caret underlines).
    pub span: Span,
    /// The main message.
    pub message: String,
    /// `= note:` follow-up lines.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// New diagnostic without notes.
    #[must_use]
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Self { code, span, message: message.into(), notes: Vec::new() }
    }

    /// Attach a `= note:` line.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Render a rustc-style caret snippet against `source`, naming the
    /// file `origin`:
    ///
    /// ```text
    /// fixture.pj:5:5: error[E001]: barrier inside `critical`
    ///     |         //#omp barrier
    ///     |         ^^^^^^^^^^^^^^
    ///     = note: only some threads reach this barrier
    /// ```
    #[must_use]
    pub fn render(&self, source: &str, origin: &str) -> String {
        let mut out = format!(
            "{origin}:{}:{}: {}[{}]: {}\n",
            self.span.line,
            self.span.col,
            self.code.severity().label(),
            self.code.as_str(),
            self.message
        );
        if let Some(text) = source.lines().nth(self.span.line.saturating_sub(1)) {
            out.push_str("    | ");
            out.push_str(text);
            out.push('\n');
            out.push_str("    | ");
            for _ in 1..self.span.col {
                out.push(' ');
            }
            for _ in 0..self.span.len {
                out.push('^');
            }
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str("    = note: ");
            out.push_str(note);
            out.push('\n');
        }
        out
    }
}

/// Sort diagnostics deterministically: by span, then code, then
/// message. Reruns over the same source must produce byte-identical
/// reports (`tests/analyze.rs` pins this).
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.span, a.code, &a.message).cmp(&(b.span, b.code, &b.message))
    });
}

/// Sort diagnostics ([`sort_diagnostics`]) and drop each one that
/// repeats the code, span and message of the one before it.
pub(crate) fn sort_and_dedup(diags: &mut Vec<Diagnostic>) {
    sort_diagnostics(diags);
    diags.dedup_by(|a, b| a.code == b.code && a.span == b.span && a.message == b.message);
}

/// Export diagnostics as a machine-readable JSON array.
#[must_use]
pub fn to_json(diags: &[Diagnostic]) -> Json {
    Json::Arr(diags.iter().map(|d| entry(d, None)).collect())
}

/// Like [`to_json`] but each entry also carries the source line the
/// span points at as a `"snippet"` field.
#[must_use]
pub fn to_json_with_source(diags: &[Diagnostic], source: &str) -> Json {
    let lines: Vec<&str> = source.lines().collect();
    let snippet = |d: &Diagnostic| lines.get(d.span.line.saturating_sub(1)).copied().unwrap_or("");
    Json::Arr(diags.iter().map(|d| entry(d, Some(snippet(d)))).collect())
}

fn entry(d: &Diagnostic, snippet: Option<&str>) -> Json {
    let fields = [
        ("code", Json::from(d.code.as_str())),
        ("severity", Json::from(d.code.severity().label())),
        ("line", Json::from(d.span.line)),
        ("col", Json::from(d.span.col)),
        ("len", Json::from(d.span.len)),
        ("message", Json::from(d.message.as_str())),
        ("notes", Json::from(d.notes.clone())),
    ];
    fields.into_iter().chain(snippet.map(|s| ("snippet", Json::from(s)))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_sort_before_warnings_at_equal_spans() {
        assert!(Code::E001 < Code::W101);
        assert!(Code::E005 < Code::W101);
    }

    #[test]
    fn render_places_the_caret() {
        let src = "line one\n    //#omp barrier\nline three\n";
        let d = Diagnostic::new(Code::E001, Span::new(2, 5, 14), "barrier inside `critical`")
            .with_note("only some threads reach this barrier");
        let rendered = d.render(src, "fixture.pj");
        assert!(rendered.starts_with("fixture.pj:2:5: error[E001]: barrier inside `critical`"));
        assert!(rendered.contains("    |     //#omp barrier"));
        assert!(rendered.contains("    |     ^^^^^^^^^^^^^^"));
        assert!(rendered.contains("= note: only some threads reach this barrier"));
    }

    #[test]
    fn json_escapes_quotes() {
        let d = Diagnostic::new(Code::W101, Span::new(1, 1, 1), "write to \"x\"");
        let json = to_json(&[d]).to_string();
        assert!(json.contains("write to \\\"x\\\""));
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
    }

    /// Minimal JSON string-literal unescaper for the round-trip test:
    /// walks the export, pulls every string literal back out and
    /// decodes the escapes `to_json*` may emit.
    fn parse_json_strings(json: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut chars = json.chars().peekable();
        while let Some(c) = chars.next() {
            if c != '"' {
                continue;
            }
            let mut lit = String::new();
            loop {
                match chars.next() {
                    None => panic!("unterminated string literal in export"),
                    Some('"') => break,
                    Some('\\') => match chars.next() {
                        Some('"') => lit.push('"'),
                        Some('\\') => lit.push('\\'),
                        Some('n') => lit.push('\n'),
                        Some('t') => lit.push('\t'),
                        Some('r') => lit.push('\r'),
                        Some('u') => {
                            let hex: String = (0..4).map(|_| chars.next().unwrap()).collect();
                            let code = u32::from_str_radix(&hex, 16).unwrap();
                            lit.push(char::from_u32(code).unwrap());
                        }
                        other => panic!("unexpected escape {other:?}"),
                    },
                    Some(raw) => {
                        assert!(
                            raw as u32 >= 0x20,
                            "control character {:#x} emitted raw — invalid JSON",
                            raw as u32
                        );
                        lit.push(raw);
                    }
                }
            }
            out.push(lit);
        }
        out
    }

    #[test]
    fn json_round_trips_hostile_messages_and_snippets() {
        let source = "x = 0; // \"quoted\" \\ backslash\tand tab\n";
        let nasty = "message with \"quotes\", a \\ backslash,\na newline, \t a tab and \u{1}";
        let d = Diagnostic::new(Code::W101, Span::new(1, 1, 6), nasty)
            .with_note("note with \"quotes\" and \\ slashes");
        let json = to_json_with_source(&[d], source).to_string();
        let strings = parse_json_strings(&json);
        assert!(strings.contains(&nasty.to_string()), "message must round-trip exactly");
        assert!(
            strings.contains(&"x = 0; // \"quoted\" \\ backslash\tand tab".to_string()),
            "snippet must round-trip exactly"
        );
        assert!(strings.contains(&"note with \"quotes\" and \\ slashes".to_string()));
        // The raw escape sequences must appear escaped in the byte stream.
        assert!(json.contains("\\u0001"));
        assert!(json.contains("\\\"quoted\\\""));
    }

    #[test]
    fn new_codes_are_registered_in_report_order() {
        assert_eq!(Code::ALL.len(), 10);
        assert!(Code::E005 < Code::E006);
        assert!(Code::E006 < Code::W101);
        assert!(Code::W103 < Code::W104);
        assert_eq!(Code::E006.severity(), Severity::Error);
        assert_eq!(Code::W104.severity(), Severity::Warning);
        assert_eq!(Code::E006.as_str(), "E006");
        assert_eq!(Code::W104.as_str(), "W104");
    }

    #[test]
    fn sort_is_by_span_then_code() {
        let mut diags = vec![
            Diagnostic::new(Code::W101, Span::new(3, 1, 1), "b"),
            Diagnostic::new(Code::E001, Span::new(3, 1, 1), "a"),
            Diagnostic::new(Code::E005, Span::new(1, 1, 1), "c"),
        ];
        sort_diagnostics(&mut diags);
        let codes: Vec<Code> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::E005, Code::E001, Code::W101]);
    }
}
