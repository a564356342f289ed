//! Metric names, summary statistics and the result line.

use std::fmt::Write as _;

/// End-to-end metrics of an untraced run, in print order: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, in print order: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dimacs.parse_s", "s"),
    ("dimacs.mb_per_s", "MB/s"),
    ("solver.construct_s", "s"),
    ("solver.ns_per_clause", "ns"),
    ("preprocess.simplify_s", "s"),
    ("preprocess.removed_frac", "frac"),
    ("search.solve_s", "s"),
    ("search.conflicts", "count"),
    ("search.propagations", "count"),
    ("search.decisions", "count"),
    ("search.restarts", "count"),
    ("search.ns_per_prop", "ns"),
    ("search.ns_per_conflict", "ns"),
    ("search.props_per_conflict", "ratio"),
    ("analyze.learnt_len_avg", "lits"),
    ("analyze.lbd_avg", "levels"),
    ("reduce.reductions", "count"),
    ("reduce.kept_frac", "frac"),
    ("reduce.max_live_ratio", "ratio"),
    ("reduce.gc_words_reclaimed", "words"),
    ("drat.write_s", "s"),
    ("drat.steps", "count"),
    ("drat.render_s", "s"),
    ("drat.text_mb", "MB"),
    ("drat.check_s", "s"),
    ("drat.check_us_per_add", "us"),
    ("portfolio.spinup_s", "s"),
    ("portfolio.winner_conflict_frac", "frac"),
    ("portfolio.exported", "count"),
    ("portfolio.import_frac", "frac"),
    ("portfolio.evicted", "count"),
    ("bmc.encode_s", "s"),
    ("bmc.conflicts_per_query", "count"),
    ("telemetry.trace_overhead_frac", "frac"),
];

/// The samples beyond a tail percentile: the percentile reported as
/// `op_s_tail` is the highest one with at least this many samples above it.
pub const TAIL_BEYOND: usize = 10;

/// `num / den`, or 0 when the base is zero (a layer the workload does not
/// run), so a result never carries NaN or infinity.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `values`; 0 for an empty slice.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// A tail percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the percentile.
    pub value: f64,
    /// The percentile, in percent: the share of samples at or below `value`.
    pub percentile: f64,
    /// Samples strictly beyond the percentile.
    pub beyond: usize,
    /// All samples.
    pub count: usize,
}

/// The highest percentile with at least `beyond` samples above it: the
/// sample at sorted index `n - beyond - 1`. With `beyond` samples or fewer
/// there is no such percentile and the maximum is returned, with the
/// number of samples actually beyond it (0).
pub fn tail(samples: &[f64], beyond: usize) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            beyond: 0,
            count: 0,
        };
    }
    let (index, beyond) = if n > beyond {
        (n - beyond - 1, beyond)
    } else {
        (n - 1, 0)
    };
    Tail {
        value: v[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        beyond,
        count: n,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The result line: exactly the keys `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
pub fn render_result(attempted: usize, failed: usize, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest text that reads back as the same f64,
        // always with a decimal point or exponent.
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use berkmin::telemetry::json;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples, 10);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.count, 100);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        let above = samples.iter().filter(|&&x| x > t.value).count();
        assert_eq!(above, 10);
    }

    #[test]
    fn tail_with_exactly_eleven_samples_is_the_minimum() {
        let samples: Vec<f64> = (0..11).rev().map(f64::from).collect();
        let t = tail(&samples, 10);
        assert_eq!((t.value, t.beyond), (0.0, 10));
    }

    #[test]
    fn tail_without_enough_samples_falls_back_to_the_maximum() {
        let t = tail(&[3.0, 1.0, 2.0], 10);
        assert_eq!((t.value, t.beyond, t.count), (3.0, 0, 3));
        assert_eq!(t.percentile, 100.0);
        assert_eq!(tail(&[], 10).count, 0);
    }

    #[test]
    fn ratio_with_zero_base_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn best_is_the_smallest_value() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(best(&[]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_json_with_the_result_keys() {
        let line = render_result(
            4,
            1,
            &[("wall_s", "s", 1.25), ("peak_rss_mb", "MB", f64::NAN)],
        );
        let v = json::parse(&line).expect("result line parses as JSON");
        let json::Value::Object(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(json::Value::as_bool), Some(false));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(json::Value::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(json::Value::as_str), Some("s"));
        let rss = v.get("metrics").and_then(|m| m.get("peak_rss_mb")).unwrap();
        assert_eq!(rss.get("value").and_then(json::Value::as_f64), Some(0.0));
    }

    /// Every metric the benchmark prints is declared in `BENCHMARK.json`
    /// under the same name, unit and section, and nothing declared there
    /// goes unprinted.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (section, printed) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(section)
                .and_then(json::Value::as_array)
                .expect("metric section")
                .iter()
                .map(|m| {
                    let field =
                        |k: &str| m.get(k).and_then(json::Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let printed: Vec<(String, String)> = printed
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, printed, "{section} differs from BENCHMARK.json");
        }
    }
}
