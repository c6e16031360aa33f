//! The result line a run prints last, and its human-readable report.

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one run measured and how many of its requests failed.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// One line per failed request: which request and why.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result as one JSON line. Non-finite values, which only a run
    /// without successful requests produces, are written as 0.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(v),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty() && self.attempted > 0,
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }

    /// Every metric by name with its unit, then the notes and failures.
    pub fn report(&self, title: &str) -> String {
        let mut out = format!("{title}\n");
        for m in &self.metrics {
            out.push_str(&format!("  {:<26} {:>14.4} {}\n", m.name, m.value, m.unit));
        }
        for note in &self.notes {
            out.push_str(&format!("  {note}\n"));
        }
        let share = if self.attempted == 0 {
            1.0
        } else {
            self.failures.len() as f64 / self.attempted as f64
        };
        out.push_str(&format!(
            "  {:<26} {:>14.4} ratio ({} of {} requests)\n",
            "failed_share",
            share,
            self.failures.len(),
            self.attempted
        ));
        for f in &self.failures {
            out.push_str(&format!("  FAILED {f}\n"));
        }
        out
    }
}

/// A finite `f64` in JSON form with all its digits (Rust's shortest
/// round-trip decimal, which never uses an exponent).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let outcome = Outcome {
            attempted: 3,
            failures: vec![],
            metrics: vec![
                Metric::new("latency_p50_ms", 1.2034, "ms"),
                Metric::new("setup_s", 2.0, "s"),
            ],
            notes: vec![],
        };
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        let parsed = deepeye_obs::parse_json(&outcome.json()).unwrap();
        assert!(parsed.get("metrics").is_some());
    }

    #[test]
    fn any_failure_makes_the_run_incorrect() {
        let outcome = Outcome {
            attempted: 2,
            failures: vec!["request 1".to_owned()],
            ..Outcome::default()
        };
        assert!(outcome
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(outcome
            .report("t")
            .contains("0.5000 ratio (1 of 2 requests)"));
    }
}
