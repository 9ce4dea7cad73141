//! Wall-clock telemetry for compiler phases.
//!
//! [`Timings`] is a flat, ordered list of named durations that the driver
//! threads through the whole compile (parse → canonicalize → split →
//! stencil-to-hls → connectivity → llvm-lowering → fpp) and exposes on the
//! compile result. The collector is deliberately dumb — no hierarchy, no
//! global state, no locks — so a phase costs two `Instant::now()` calls to
//! time, and a whole compile about a dozen; there is no switch to turn it
//! off.

use std::fmt;
use std::time::{Duration, Instant};

/// One named timed phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingRecord {
    /// Phase name (e.g. `"stencil-to-hls"`).
    pub name: String,
    /// Wall-clock duration.
    pub duration: Duration,
}

/// An ordered collection of named wall-clock durations.
///
/// Repeated names are legal (e.g. `"verify"` is recorded once per
/// inter-stage verification); [`Timings::get`] sums them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timings {
    records: Vec<TimingRecord>,
}

impl Timings {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a phase.
    pub fn record(&mut self, name: impl Into<String>, duration: Duration) {
        self.records.push(TimingRecord {
            name: name.into(),
            duration,
        });
    }

    /// Time the closure and record it under `name`, passing its value
    /// through.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed());
        out
    }

    /// All records, in execution order.
    pub fn records(&self) -> &[TimingRecord] {
        &self.records
    }

    /// Total duration recorded under `name` (summing repeats), if any.
    pub fn get(&self, name: &str) -> Option<Duration> {
        let mut total = Duration::ZERO;
        let mut seen = false;
        for r in self.records() {
            if r.name == name {
                total += r.duration;
                seen = true;
            }
        }
        seen.then_some(total)
    }

    /// Sum of every recorded phase, excluding any synthetic `total` row
    /// (the driver appends one after summing the real phases; counting it
    /// here would double the reported end-to-end time).
    pub fn total(&self) -> Duration {
        self.records()
            .iter()
            .filter(|r| r.name != "total")
            .map(|r| r.duration)
            .sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append every record of `other`, preserving order.
    pub fn extend(&mut self, other: &Timings) {
        self.records.extend(other.records.iter().cloned());
    }
}

impl fmt::Display for Timings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .records()
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(0);
        for r in self.records() {
            writeln!(
                f,
                "  {:<width$} {:>9.3} ms",
                r.name,
                r.duration.as_secs_f64() * 1e3,
            )?;
        }
        Ok(())
    }
}

/// Phase-boundary stopwatch for straight-line code where wrapping each
/// phase in a closure is awkward: construct at the top, call
/// [`Stopwatch::lap`] at each boundary.
#[derive(Debug)]
pub struct Stopwatch {
    last: Instant,
}

impl Stopwatch {
    /// Start timing.
    pub fn start() -> Self {
        Self {
            last: Instant::now(),
        }
    }

    /// Record the time since construction or the previous lap under
    /// `name`, then reset.
    pub fn lap(&mut self, timings: &mut Timings, name: &str) {
        let now = Instant::now();
        timings.record(name, now - self.last);
        self.last = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_sums() {
        let mut t = Timings::new();
        t.record("a", Duration::from_millis(2));
        t.record("b", Duration::from_millis(3));
        t.record("a", Duration::from_millis(5));
        assert_eq!(t.records().len(), 3);
        assert_eq!(t.get("a"), Some(Duration::from_millis(7)));
        assert_eq!(t.get("b"), Some(Duration::from_millis(3)));
        assert_eq!(t.get("c"), None);
        assert_eq!(t.total(), Duration::from_millis(10));
    }

    #[test]
    fn total_excludes_synthetic_total_row() {
        let mut t = Timings::new();
        t.record("a", Duration::from_millis(2));
        t.record("b", Duration::from_millis(3));
        let total = t.total();
        t.record("total", total);
        // Recording the summary row must not double the reported total.
        assert_eq!(t.total(), Duration::from_millis(5));
        assert_eq!(t.get("total"), Some(Duration::from_millis(5)));
    }

    #[test]
    fn time_returns_the_closure_value() {
        let mut t = Timings::new();
        let v = t.time("phase", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.records().len(), 1);
        assert_eq!(t.records()[0].name, "phase");
    }

    #[test]
    fn stopwatch_laps_in_order() {
        let mut t = Timings::new();
        let mut sw = Stopwatch::start();
        sw.lap(&mut t, "first");
        sw.lap(&mut t, "second");
        let names: Vec<&str> = t.records().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["first", "second"]);
    }

    #[test]
    fn extend_preserves_order() {
        let mut a = Timings::new();
        a.record("x", Duration::from_millis(1));
        let mut b = Timings::new();
        b.record("y", Duration::from_millis(2));
        a.extend(&b);
        let names: Vec<&str> = a.records().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["x", "y"]);
    }

    #[test]
    fn display_renders_milliseconds() {
        let mut t = Timings::new();
        t.record("parse", Duration::from_micros(1500));
        let s = t.to_string();
        assert!(s.contains("parse"), "{s}");
        assert!(s.contains("1.500 ms"), "{s}");
    }
}
