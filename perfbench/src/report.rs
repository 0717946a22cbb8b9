//! What one benchmark run reports: operation accounting, output checks
//! and named metrics, printed as the single JSON line that ends the run.

use std::fmt::{Display, Write as _};
use std::time::Duration;

/// One named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Accounting, checks and metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that returned an error.
    pub failed: u64,
    /// The first few operation errors, for the run's diagnostics.
    pub errors: Vec<String>,
    /// Output, copy-agreement and durability checks that failed.
    pub check_failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

/// How many errors and check failures are kept for diagnostics.
const KEEP: usize = 8;

impl Report {
    /// Account one timed operation. An error is counted and never aborts
    /// the run; the caller gets `None` and carries on.
    pub fn record<T, E: Display>(&mut self, what: &str, outcome: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(err) => {
                self.failed += 1;
                if self.errors.len() < KEEP {
                    self.errors.push(format!("{what}: {err}"));
                }
                None
            }
        }
    }

    /// Failed operations divided by attempted ones (0 when nothing ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Record an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let message = what();
            if self.check_failures.len() < KEEP {
                self.check_failures.push(message);
            } else if self.check_failures.len() == KEEP {
                self.check_failures
                    .push("further check failures omitted".into());
            }
        }
    }

    /// Whether every check passed and at least one operation ran.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.attempted > 0
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The run's result line: `correct`, `attempted`, `failed` and every
    /// metric by name with its unit. Non-finite values cannot be written
    /// as JSON numbers and make the run incorrect.
    pub fn to_json(&self) -> String {
        let mut correct = self.correct();
        let mut metrics = String::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                correct = false;
                continue;
            }
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            write!(
                metrics,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        )
    }

    /// A human-readable summary for standard error.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            writeln!(out, "  {:<44} {:>16.6} {}", m.name, m.value, m.unit)
                .expect("writing to a String cannot fail");
        }
        writeln!(
            out,
            "  {:<44} {:>16.6} ratio  ({} of {} operations failed)",
            "failed_frac",
            self.failed_frac(),
            self.failed,
            self.attempted
        )
        .expect("writing to a String cannot fail");
        for e in &self.errors {
            writeln!(out, "  error: {e}").expect("writing to a String cannot fail");
        }
        for c in &self.check_failures {
            writeln!(out, "  CHECK FAILED: {c}").expect("writing to a String cannot fail");
        }
        out
    }
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A finite `f64` as a JSON number that reads back to the same value.
/// (`{:?}` prints integral values as `12.0` and large ones as `1e20`,
/// both valid JSON.)
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_operations_are_counted_against_attempts_and_never_abort() {
        let mut report = Report::default();
        assert_eq!(report.failed_frac(), 0.0);
        assert_eq!(report.record("a", Ok::<_, String>(1)), Some(1));
        assert_eq!(report.record("b", Err::<i32, _>("boom")), None);
        assert_eq!(report.record("c", Ok::<_, String>(3)), Some(3));
        assert_eq!(report.record("d", Ok::<_, String>(4)), Some(4));
        assert_eq!((report.attempted, report.failed), (4, 1));
        assert_eq!(report.failed_frac(), 0.25);
        assert_eq!(report.errors, vec!["b: boom".to_string()]);
        // A failed operation is not a failed output check.
        assert!(report.correct());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut report = Report::default();
        report.record("op", Ok::<_, String>(()));
        report.check(true, || unreachable!("passing checks build no message"));
        assert!(report.correct());
        report.check(false, || "rules differ".into());
        assert!(!report.correct());
        assert!(report.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_run_with_no_operations_is_not_correct() {
        assert!(!Report::default().correct());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut report = Report::default();
        report.record("op", Ok::<_, String>(()));
        report.metric("latency_ms", 1.2034, "ms");
        report.metric("setup_s", 0.5, "s");
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_metric_makes_the_run_incorrect() {
        let mut report = Report::default();
        report.record("op", Ok::<_, String>(()));
        report.metric("ratio", f64::NAN, "ratio");
        assert!(report.to_json().starts_with("{\"correct\": false"));
    }
}
