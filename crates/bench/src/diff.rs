//! Comparing two `anet-bench/v1` documents — the perf-trend gate.
//!
//! [`Harness::report`](crate::Harness::report) leaves `BENCH_bench_<name>.json`
//! artifacts; this module compares a *current* artifact against a committed
//! *baseline* one, measurement by measurement (matched on `id`, compared on
//! `mean_ns`) and metric by metric (matched on `id`, compared on `value`). The
//! comparison is what the `bench_diff` binary and the CI gate run: a measurement
//! whose mean regressed by more than the configured fraction fails, as does a
//! baseline measurement missing from the current run (a silently dropped bench
//! must not pass the gate). Metrics are semantic outputs — bits, rounds, sizes —
//! so they are gated exactly: a baseline metric whose value changed, or that the
//! current run dropped, fails. Measurements and metrics only present in the
//! current run are reported but never fail — adding benches is not a regression.

// anet-lint: deny(panic-path)

use crate::table::Table;
use anet_workloads::json::Json;

/// Default largest tolerated fractional slowdown (25%), matching the service
/// bench's gate.
pub const DEFAULT_MAX_REGRESSION: f64 = 0.25;

/// One measurement id compared across the two documents.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// The measurement id (present in the baseline).
    pub id: String,
    /// Baseline mean nanoseconds.
    pub baseline_ns: i64,
    /// Current mean nanoseconds, `None` if the current run dropped the bench.
    pub current_ns: Option<i64>,
    /// `current / baseline`; `None` when the measurement is missing or the
    /// baseline mean is zero (sub-nanosecond — too fast to gate on).
    pub ratio: Option<f64>,
}

impl DiffRow {
    /// Whether this row fails the gate at `max_regression`: the bench vanished,
    /// or its mean grew beyond `baseline · (1 + max_regression)`.
    pub fn regressed(&self, max_regression: f64) -> bool {
        match self.ratio {
            Some(ratio) => ratio > 1.0 + max_regression,
            None => self.current_ns.is_none(),
        }
    }
}

/// One metric id compared across the two documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRow {
    /// The metric id (present in the baseline).
    pub id: String,
    /// Baseline value.
    pub baseline: i64,
    /// Current value, `None` if the current run dropped the metric.
    pub current: Option<i64>,
}

impl MetricRow {
    /// Whether this row fails the gate: the metric vanished or its value changed.
    pub fn changed(&self) -> bool {
        self.current != Some(self.baseline)
    }
}

/// The full comparison of two bench documents.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Bench name of the baseline document.
    pub bench: String,
    /// One row per baseline measurement, in baseline order.
    pub rows: Vec<DiffRow>,
    /// Measurement ids only the current run has (informational, never failing).
    pub added: Vec<String>,
    /// One row per baseline metric, in baseline order.
    pub metrics: Vec<MetricRow>,
    /// Metric ids only the current run has (informational, never failing).
    pub added_metrics: Vec<String>,
    /// The tolerated fractional slowdown the report was computed with.
    pub max_regression: f64,
}

impl DiffReport {
    /// The measurement rows that fail the gate.
    pub fn regressions(&self) -> Vec<&DiffRow> {
        self.rows
            .iter()
            .filter(|r| r.regressed(self.max_regression))
            .collect()
    }

    /// The metric rows that fail the gate.
    pub fn changed_metrics(&self) -> Vec<&MetricRow> {
        self.metrics.iter().filter(|m| m.changed()).collect()
    }

    /// Whether every baseline measurement is present and within budget, and every
    /// baseline metric is present with its baseline value.
    pub fn passed(&self) -> bool {
        self.regressions().is_empty() && self.changed_metrics().is_empty()
    }

    /// Render the comparison as an aligned table (one row per baseline
    /// measurement; missing and regressed rows are marked in the verdict column).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "bench-diff {} (max regression {:.0}%)",
                self.bench,
                self.max_regression * 100.0
            ),
            &["id", "baseline", "current", "ratio", "verdict"],
        );
        for row in &self.rows {
            let current = match row.current_ns {
                Some(ns) => format!("{ns}ns"),
                None => "—".to_string(),
            };
            let ratio = match row.ratio {
                Some(r) => format!("{r:.2}x"),
                None => "—".to_string(),
            };
            let verdict = if row.current_ns.is_none() {
                "MISSING"
            } else if row.regressed(self.max_regression) {
                "REGRESSED"
            } else {
                "ok"
            };
            t.push_row(vec![
                row.id.clone(),
                format!("{}ns", row.baseline_ns),
                current,
                ratio,
                verdict.to_string(),
            ]);
        }
        for row in &self.metrics {
            let verdict = match row.current {
                None => "MISSING",
                Some(_) if row.changed() => "CHANGED",
                Some(_) => "ok",
            };
            t.push_row(vec![
                row.id.clone(),
                row.baseline.to_string(),
                row.current.map_or("—".to_string(), |v| v.to_string()),
                "—".to_string(),
                verdict.to_string(),
            ]);
        }
        for id in self.added.iter().chain(&self.added_metrics) {
            t.push_row(vec![
                id.clone(),
                "—".to_string(),
                "new".to_string(),
                "—".to_string(),
                "ok".to_string(),
            ]);
        }
        t
    }
}

/// Why a bench document could not be compared.
#[derive(Debug)]
pub enum DiffError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The text is not valid JSON.
    Json(String),
    /// The document's `schema` field is not `anet-bench/v1`.
    Schema {
        /// What the document declared (empty when absent).
        found: String,
    },
    /// A measurement lacks a string `id` or an integer `mean_ns`.
    Measurement {
        /// 0-based index into the `measurements` array.
        index: usize,
    },
    /// A metric lacks a string `id` or an integer `value`.
    Metric {
        /// 0-based index into the `metrics` array.
        index: usize,
    },
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::Io(e) => write!(f, "cannot read bench document: {e}"),
            DiffError::Json(e) => write!(f, "bench document is not valid JSON: {e}"),
            DiffError::Schema { found } => write!(
                f,
                "bench document declares schema {found:?}, expected \"anet-bench/v1\""
            ),
            DiffError::Measurement { index } => write!(
                f,
                "measurement {index} lacks a string id or integer mean_ns"
            ),
            DiffError::Metric { index } => {
                write!(f, "metric {index} lacks a string id or integer value")
            }
        }
    }
}

impl std::error::Error for DiffError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiffError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// A parsed `anet-bench/v1` document reduced to what the diff needs.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    /// The `bench` name field.
    pub bench: String,
    /// `(id, mean_ns)` per measurement, in document order.
    pub means: Vec<(String, i64)>,
    /// `(id, value)` per metric, in document order.
    pub metrics: Vec<(String, i64)>,
}

impl BenchDoc {
    /// Parse a rendered `anet-bench/v1` document.
    pub fn parse(text: &str) -> Result<BenchDoc, DiffError> {
        let doc = Json::parse(text).map_err(|e| DiffError::Json(e.to_string()))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(crate::BENCH_SCHEMA) => {}
            other => {
                return Err(DiffError::Schema {
                    found: other.unwrap_or_default().to_string(),
                })
            }
        }
        let bench = doc
            .get("bench")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let means = id_values(&doc, "measurements", "mean_ns")
            .map_err(|index| DiffError::Measurement { index })?;
        let metrics =
            id_values(&doc, "metrics", "value").map_err(|index| DiffError::Metric { index })?;
        Ok(BenchDoc {
            bench,
            means,
            metrics,
        })
    }

    /// Read and parse a document from disk.
    pub fn read(path: &std::path::Path) -> Result<BenchDoc, DiffError> {
        let text = std::fs::read_to_string(path).map_err(DiffError::Io)?;
        BenchDoc::parse(&text)
    }
}

/// The `(id, field)` pairs of the document's `array` (absent: none), or the index
/// of the first entry without a string `id` and an integer `field`.
fn id_values(doc: &Json, array: &str, field: &str) -> Result<Vec<(String, i64)>, usize> {
    let entries = doc.get(array).and_then(Json::as_array).unwrap_or_default();
    entries
        .iter()
        .enumerate()
        .map(|(index, entry)| {
            let id = entry.get("id").and_then(Json::as_str);
            match (id, entry.get(field).and_then(Json::as_int)) {
                (Some(id), Some(value)) => Ok((id.to_string(), value)),
                _ => Err(index),
            }
        })
        .collect()
}

/// The value of `id` in `entries`.
fn value_of(entries: &[(String, i64)], id: &str) -> Option<i64> {
    entries.iter().find(|(eid, _)| eid == id).map(|&(_, v)| v)
}

/// The ids of `current` that `baseline` lacks, in `current` order.
fn added_ids(baseline: &[(String, i64)], current: &[(String, i64)]) -> Vec<String> {
    current
        .iter()
        .filter(|(id, _)| value_of(baseline, id).is_none())
        .map(|(id, _)| id.clone())
        .collect()
}

/// Compare `current` against `baseline` measurement by measurement and metric by
/// metric.
pub fn diff(baseline: &BenchDoc, current: &BenchDoc, max_regression: f64) -> DiffReport {
    let rows = baseline
        .means
        .iter()
        .map(|(id, baseline_ns)| {
            let current_ns = value_of(&current.means, id);
            let ratio = match current_ns {
                Some(ns) if *baseline_ns > 0 => Some(ns as f64 / *baseline_ns as f64),
                _ => None,
            };
            DiffRow {
                id: id.clone(),
                baseline_ns: *baseline_ns,
                current_ns,
                ratio,
            }
        })
        .collect();
    let metrics = baseline
        .metrics
        .iter()
        .map(|(id, value)| MetricRow {
            id: id.clone(),
            baseline: *value,
            current: value_of(&current.metrics, id),
        })
        .collect();
    DiffReport {
        bench: baseline.bench.clone(),
        rows,
        added: added_ids(&baseline.means, &current.means),
        metrics,
        added_metrics: added_ids(&baseline.metrics, &current.metrics),
        max_regression,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(entries: &[(&str, i64)]) -> Vec<(String, i64)> {
        entries.iter().map(|&(id, v)| (id.to_string(), v)).collect()
    }

    fn doc(bench: &str, means: &[(&str, i64)]) -> BenchDoc {
        BenchDoc {
            bench: bench.to_string(),
            means: pairs(means),
            metrics: Vec::new(),
        }
    }

    fn with_metrics(mut doc: BenchDoc, metrics: &[(&str, i64)]) -> BenchDoc {
        doc.metrics = pairs(metrics);
        doc
    }

    #[test]
    fn within_budget_passes_and_regression_fails() {
        let baseline = doc("sim", &[("route_seq", 1000), ("route_batch", 400)]);
        // route_seq 20% slower (within 25%), route_batch 50% slower (fails).
        let current = doc("sim", &[("route_seq", 1200), ("route_batch", 600)]);
        let report = diff(&baseline, &current, DEFAULT_MAX_REGRESSION);
        assert!(!report.passed());
        let regressions = report.regressions();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].id, "route_batch");
        assert_eq!(regressions[0].ratio, Some(1.5));
        // A looser gate lets the same comparison pass.
        assert!(diff(&baseline, &current, 0.6).passed());
        // Speedups never fail.
        let faster = doc("sim", &[("route_seq", 10), ("route_batch", 10)]);
        assert!(diff(&baseline, &faster, DEFAULT_MAX_REGRESSION).passed());
    }

    #[test]
    fn missing_measurement_fails_and_added_does_not() {
        let baseline = doc("views", &[("collect_owned", 500), ("collect_shared", 300)]);
        let current = doc("views", &[("collect_owned", 500), ("collect_dag", 100)]);
        let report = diff(&baseline, &current, DEFAULT_MAX_REGRESSION);
        assert!(!report.passed(), "dropped bench must fail the gate");
        assert_eq!(report.regressions()[0].id, "collect_shared");
        assert_eq!(report.regressions()[0].current_ns, None);
        assert_eq!(report.added, vec!["collect_dag".to_string()]);
        let rendered = report.table().render();
        assert!(rendered.contains("MISSING"));
        assert!(rendered.contains("collect_dag"));
    }

    #[test]
    fn zero_baseline_means_never_gate() {
        // A sub-nanosecond baseline mean rounds to 0: any current value would be
        // an infinite ratio, so such rows are exempt rather than auto-failing.
        let baseline = doc("micro", &[("noop", 0)]);
        let current = doc("micro", &[("noop", 50)]);
        let report = diff(&baseline, &current, DEFAULT_MAX_REGRESSION);
        assert!(report.passed());
        assert_eq!(report.rows[0].ratio, None);
    }

    #[test]
    fn parses_real_harness_output_and_rejects_forgeries() {
        let mut h = crate::Harness::new("demo_diff");
        h.bench("sum", 2, || (0..100u64).sum::<u64>());
        let text = h.to_json().render_pretty();
        let parsed = BenchDoc::parse(&text).unwrap();
        assert_eq!(parsed.bench, "demo_diff");
        assert_eq!(parsed.means.len(), 1);
        assert_eq!(parsed.means[0].0, "sum");

        assert!(matches!(
            BenchDoc::parse("not json"),
            Err(DiffError::Json(_))
        ));
        assert!(matches!(
            BenchDoc::parse(r#"{"schema":"anet-bench/v9"}"#),
            Err(DiffError::Schema { .. })
        ));
        let bad_mean = r#"{"schema":"anet-bench/v1","bench":"x",
            "measurements":[{"id":"a","mean_ns":"fast"}]}"#;
        assert!(matches!(
            BenchDoc::parse(bad_mean),
            Err(DiffError::Measurement { index: 0 })
        ));
    }

    #[test]
    fn metrics_are_gated_exactly() {
        let baseline = with_metrics(
            doc("transport", &[("route", 1000)]),
            &[("dag_bits", 328), ("tree_bits", 716)],
        );
        // Equal values pass, however fast or slow the timings moved within budget.
        let same = with_metrics(
            doc("transport", &[("route", 1100)]),
            &[("dag_bits", 328), ("tree_bits", 716)],
        );
        assert!(diff(&baseline, &same, DEFAULT_MAX_REGRESSION).passed());
        // Any change fails — a smaller value too: a metric is an output, not a cost.
        for changed in [327, 329] {
            let current = with_metrics(
                doc("transport", &[("route", 1000)]),
                &[("dag_bits", changed), ("tree_bits", 716)],
            );
            let report = diff(&baseline, &current, DEFAULT_MAX_REGRESSION);
            assert!(!report.passed(), "dag_bits {changed}");
            assert!(report.regressions().is_empty());
            let changed_rows = report.changed_metrics();
            assert_eq!(changed_rows.len(), 1);
            assert_eq!(changed_rows[0].id, "dag_bits");
            assert_eq!(changed_rows[0].current, Some(changed));
            assert!(report.table().render().contains("CHANGED"));
        }
    }

    #[test]
    fn missing_metric_fails_and_added_metric_does_not() {
        let baseline = with_metrics(doc("views", &[]), &[("tree_bits", 204), ("dag_bits", 315)]);
        let current = with_metrics(doc("views", &[]), &[("tree_bits", 204), ("delta_bits", 9)]);
        let report = diff(&baseline, &current, DEFAULT_MAX_REGRESSION);
        assert!(!report.passed(), "a dropped metric must fail the gate");
        assert_eq!(report.changed_metrics()[0].id, "dag_bits");
        assert_eq!(report.changed_metrics()[0].current, None);
        assert_eq!(report.added_metrics, vec!["delta_bits".to_string()]);
        let rendered = report.table().render();
        assert!(rendered.contains("MISSING"));
        assert!(rendered.contains("delta_bits"));
        // A current-only metric alone never fails.
        let grown = with_metrics(
            doc("views", &[]),
            &[("tree_bits", 204), ("dag_bits", 315), ("delta_bits", 9)],
        );
        assert!(diff(&baseline, &grown, DEFAULT_MAX_REGRESSION).passed());
    }

    #[test]
    fn malformed_metrics_are_typed_errors() {
        let mut h = crate::Harness::new("demo_metric_diff");
        h.metric("bits", 42);
        let parsed = BenchDoc::parse(&h.to_json().render_pretty()).unwrap();
        assert_eq!(parsed.metrics, vec![("bits".to_string(), 42)]);
        for (metrics, bad) in [
            (r#"[{"id":"a","value":"many"}]"#, 0),
            (r#"[{"id":"a","value":1},{"value":2}]"#, 1),
            (r#"[{"id":"a","value":1},{"id":7,"value":2}]"#, 1),
        ] {
            let forged = format!(r#"{{"schema":"anet-bench/v1","bench":"x","metrics":{metrics}}}"#);
            assert!(
                matches!(BenchDoc::parse(&forged), Err(DiffError::Metric { index }) if index == bad),
                "{forged}"
            );
        }
    }
}
