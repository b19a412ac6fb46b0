//! The result line: `{"correct", "attempted", "failed", "metrics"}`.

use std::fmt::Write as _;

/// Outputs checked and outputs found wrong (lost, duplicated, corrupted
/// responses; wrong kernel results).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one checked output.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted outputs (0 when nothing was attempted).
    pub fn err_frac(&self) -> f64 {
        crate::measure::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Metrics of one run, in the order they were recorded.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|(n, _, _)| *n != name),
            "metric {name} recorded twice"
        );
        self.metrics.push((name, value, unit));
    }

    /// One `name = value unit` line per metric, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<32} {value:>16.4} {unit}");
        }
        out
    }

    /// The machine-readable result line.
    pub fn json_line(&self, tally: Tally) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.failed == 0,
            tally.attempted,
            tally.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_metric_and_the_tally() {
        let mut r = Report::default();
        r.put("a_ms", 1.5, "ms");
        r.put("b", 2.0, "count");
        let mut t = Tally::default();
        t.check(true);
        t.check(false);
        assert_eq!(
            r.json_line(t),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
        assert_eq!(t.err_frac(), 0.5);
        assert_eq!(Tally::default().err_frac(), 0.0);
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn a_metric_is_recorded_once() {
        let mut r = Report::default();
        r.put("x", 1.0, "s");
        r.put("x", 2.0, "s");
    }
}
