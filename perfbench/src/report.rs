//! The run's result: human-readable lines, then one JSON object as the
//! last line of standard output.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value, all digits kept.
    pub value: f64,
    /// Unit as declared.
    pub unit: &'static str,
}

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, or device searches).
    pub attempted: u64,
    /// Operations that failed, were refused or shed, or gave wrong output.
    pub failed: u64,
    /// Metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Lines printed before the result, naming every metric with its unit.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records a metric for the result line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // lint: allow(grow) — one entry per declared metric
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds one human-readable line.
    pub fn line(&mut self, text: String) {
        // lint: allow(grow) — a fixed handful of lines per run
        self.lines.push(text);
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
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
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.25, "s");
        o.metric("ops_per_s", 12.0, "1/s");
        let v: serde::Value =
            serde_json::from_str(&o.result_json()).expect("the result line is JSON");
        let obj = v.as_object().expect("an object");
        let mut keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        let metric = |name: &str, key: &str| {
            v.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get(key))
                .cloned()
        };
        assert_eq!(
            metric("ops_per_s", "value").and_then(|x| x.as_f64()),
            Some(12.0)
        );
        assert_eq!(
            metric("setup_s", "unit").and_then(|x| x.as_str().map(str::to_string)),
            Some("s".to_string())
        );
        o.failed = 1;
        assert!(!o.correct());
        assert!((o.failed_share() - 1.0 / 3.0).abs() < 1e-12);
    }
}
