//! Metric bookkeeping: name and unit rules, medians and the percentile rule,
//! and the one-line JSON result the benchmark prints last.

/// Percentiles the tail ladder tries, highest first, in per-mille
/// (999 = p99.9).
pub const TAIL_LADDER_PERMILLE: [u32; 4] = [999, 990, 950, 900];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Whether `name` is a legal metric name: 1–64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1–16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Median of `samples` (mean of the two middle values for an even count;
/// 0 for no samples).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// 1-based nearest rank of the `permille`-th per-mille of `n` samples.
fn nearest_rank(n: usize, permille: u32) -> usize {
    (permille as usize * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `permille` of `n`.
pub fn samples_beyond(n: usize, permille: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, permille)
    }
}

/// The nearest-rank percentile `permille` of `samples`, or `None` when
/// fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it: a p99 needs at
/// least 1000 samples.
pub fn percentile(samples: &[f64], permille: u32) -> Option<f64> {
    if samples_beyond(samples.len(), permille) < MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(sorted(samples)[nearest_rank(samples.len(), permille) - 1])
}

/// The highest percentile of the ladder that the sample count supports, as
/// `(percentile, value)`; `None` when even p90 has too few samples beyond.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER_PERMILLE
        .iter()
        .find_map(|&pm| percentile(samples, pm).map(|v| (pm as f64 / 10.0, v)))
}

/// `numerator / denominator`, or 0 for an empty base.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// An ordered set of named, unit-carrying metric values.
#[derive(Debug, Default)]
pub struct MetricSet {
    entries: Vec<(String, f64, String)>,
}

impl MetricSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one metric.  Names, units and values come from this program,
    /// so a bad one is a bug and panics.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        assert!(valid_unit(unit), "invalid unit `{unit}` for `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        assert!(self.get(name).is_none(), "metric `{name}` recorded twice");
        self.entries
            .push((name.to_string(), value, unit.to_string()));
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The unit of a recorded metric.
    pub fn unit(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, u)| u.as_str())
    }

    /// Recorded metric names, in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` with every digit of each
    /// value (shortest round-trip form).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The benchmark's last line of output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &MetricSet) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_pattern() {
        for good in [
            "setup_s",
            "fv.apply_dot_1t_ms",
            "host.stream_triad_gbps",
            "a-b.c_9",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".leading_dot",
            "_x",
            "has space",
            "p99%",
            "ünïcode",
            &too_long,
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for good in ["ms", "s", "1/s", "GB/s", "%", "count", "MiB"] {
            assert!(valid_unit(good), "{good}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("a unit"));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metric_sets_refuse_bad_names() {
        MetricSet::new().push("bad name", 1.0, "ms");
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(samples_beyond(1000, 990), 10);
        assert_eq!(percentile(&samples, 990), Some(990.0));
        assert_eq!(percentile(&samples[..999], 990), None);
        assert_eq!(tail(&samples), Some((99.0, 990.0)));
        // 999 samples: p99 is refused, p95 is the highest supported.
        assert_eq!(tail(&samples[..999]), Some((95.0, 950.0)));
        // 100 samples support p90 (10 beyond) and nothing higher.
        assert_eq!(tail(&samples[..100]), Some((90.0, 90.0)));
        assert_eq!(tail(&samples[..99]), None);
        assert_eq!(tail(&[]), None);
        // p99.9 needs 10 000 samples.
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&many), Some((99.9, 9990.0)));
    }

    #[test]
    fn medians_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
