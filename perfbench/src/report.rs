//! The declared metric lists, metric collection, order statistics and the
//! one-line JSON result.

use anet_workloads::json::Json;
use std::time::Duration;

/// The benchmark's definition. Its `end_to_end` and `per_layer` lists are the
/// metrics a run prints, so the names and units live in one place.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` pairs of one metric group of `BENCHMARK.json`
/// (`"end_to_end"` or `"per_layer"`), in declared order.
pub fn declared(group: &str) -> Result<Vec<(String, String)>, String> {
    let json = Json::parse(BENCHMARK_JSON)
        .map_err(|e| format!("BENCHMARK.json at byte {}: {}", e.offset, e.message))?;
    let list = json
        .get(group)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json has no {group} list"))?;
    list.iter()
        .map(|metric| {
            let field = |key: &str| {
                metric
                    .get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("a BENCHMARK.json {group} entry has no {key}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// The metrics of one run, in insertion order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, String)>,
}

impl Metrics {
    /// Record (or overwrite) one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit.to_string();
            }
            None => self
                .entries
                .push((name.to_string(), value, unit.to_string())),
        }
    }

    /// Keep only the declared metrics, in the declared order. Errors on a
    /// missing one or a unit other than the declared one, so a run never
    /// prints an incomplete or mislabelled metric set.
    pub fn select(&self, declared: &[(String, String)]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for (name, declared_unit) in declared {
            let (_, value, unit) = self
                .entries
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if unit != declared_unit {
                return Err(format!(
                    "metric {name} is measured in {unit}, BENCHMARK.json says {declared_unit}"
                ));
            }
            out.set(name, *value, unit);
        }
        Ok(out)
    }

    /// `"metrics": {...}` body; errors on a non-finite value.
    fn json_body(&self) -> Result<String, String> {
        let mut parts = Vec::with_capacity(self.entries.len());
        for (name, value, unit) in &self.entries {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// Render a finite f64 as a JSON number with every significant digit.
fn json_number(value: f64) -> String {
    // `{:?}` prints the shortest round-tripping form and always keeps a decimal
    // point or exponent, which JSON accepts.
    format!("{value:?}")
}

/// The result line: exactly the keys `correct`, `attempted`, `failed`, `metrics`.
/// Only a run whose every output was correct prints one, so `correct` is `true`.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json_body()?
    ))
}

/// Duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation between
/// closest ranks. Sorts in place; 0 for an empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// Median of durations, in seconds.
pub fn median_secs(samples: &[Duration]) -> f64 {
    let mut secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    quantile(&mut secs, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or an error where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("latency_p50_ms", 1.25, "ms");
        m.set("rounds_total", 12.0, "count");
        let line = result_line(10, 0, &m).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"rounds_total\": {\"value\": 12.0, \"unit\": \"count\"}}}"
        );
        m.set("bad", f64::NAN, "ms");
        assert!(result_line(1, 0, &m).is_err());
    }

    #[test]
    fn select_refuses_missing_metrics_and_wrong_units() {
        let declare = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let mut m = Metrics::default();
        m.set("a", 1.0, "ms");
        assert!(m.select(&declare(&[("a", "ms")])).is_ok());
        assert!(m.select(&declare(&[("a", "ms"), ("b", "ms")])).is_err());
        assert!(m.select(&declare(&[("a", "s")])).is_err());
    }

    #[test]
    fn benchmark_json_declares_both_metric_groups() {
        let end_to_end = declared("end_to_end").unwrap();
        let per_layer = declared("per_layer").unwrap();
        assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(per_layer.iter().any(|(n, _)| n == "engine.residual_ms"));
        let mut names: Vec<&String> = end_to_end
            .iter()
            .chain(&per_layer)
            .map(|(n, _)| n)
            .collect();
        let all = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all, "a metric name is declared twice");
    }
}
