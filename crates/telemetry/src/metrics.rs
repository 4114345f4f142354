//! A small named-metrics registry: counters, gauges and log-bucket
//! histograms behind one mutex.
//!
//! The registry is for *cold* paths — job completions, queue high-water
//! marks, per-batch rollups.  The engine's workers record each finished
//! job's execution time with one [`MetricsRegistry::observe`].  A hot loop
//! that records many samples can keep a private [`LogHistogram`]
//! (allocation-free, no lock) instead and fold it in once at the end with
//! [`MetricsRegistry::merge_histogram`].
//!
//! All maps are `BTreeMap`s, so snapshots iterate in sorted name order and
//! JSON exports are canonical.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::hist::LogHistogram;

#[derive(Debug, Default)]
struct RegistryState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
}

/// Thread-safe registry of named counters, gauges and histograms; cheap to
/// clone (clones share the same storage).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryState>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn state(&self) -> MutexGuard<'_, RegistryState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add 1 to a counter (creating it at 0).
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Add `delta` to a counter (creating it at 0).
    pub fn add(&self, name: &str, delta: u64) {
        *self.state().counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set a gauge to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.state().gauges.insert(name.to_string(), value);
    }

    /// Raise a gauge to `value` if it is below (high-water-mark update).
    pub fn max_gauge(&self, name: &str, value: f64) {
        let mut state = self.state();
        let gauge = state
            .gauges
            .entry(name.to_string())
            .or_insert(f64::NEG_INFINITY);
        *gauge = gauge.max(value);
    }

    /// Record one sample into a named histogram.
    pub fn observe(&self, name: &str, seconds: f64) {
        self.state()
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(seconds);
    }

    /// Fold a worker-local histogram into a named histogram.
    pub fn merge_histogram(&self, name: &str, hist: &LogHistogram) {
        self.state()
            .histograms
            .entry(name.to_string())
            .or_default()
            .merge(hist);
    }

    /// Current counter value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.state().counters.get(name).copied().unwrap_or(0)
    }

    /// Current gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.state().gauges.get(name).copied()
    }

    /// A copy of a named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<LogHistogram> {
        self.state().histograms.get(name).cloned()
    }

    /// Sorted point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let state = self.state();
        MetricsSnapshot {
            counters: state
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: state.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: state
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

/// A sorted snapshot of a [`MetricsRegistry`] — the exporters' input.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, histogram)` pairs, sorted by name.
    pub histograms: Vec<(String, LogHistogram)>,
}

impl MetricsSnapshot {
    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_round_trip() {
        let registry = MetricsRegistry::new();
        registry.inc("jobs.completed");
        registry.add("jobs.completed", 2);
        registry.set_gauge("queue.depth", 3.0);
        registry.max_gauge("queue.high_water", 2.0);
        registry.max_gauge("queue.high_water", 5.0);
        registry.max_gauge("queue.high_water", 1.0);
        registry.observe("exec_seconds", 0.25);
        registry.observe("exec_seconds", 0.5);

        assert_eq!(registry.counter("jobs.completed"), 3);
        assert_eq!(registry.counter("missing"), 0);
        assert_eq!(registry.gauge("queue.depth"), Some(3.0));
        assert_eq!(registry.gauge("queue.high_water"), Some(5.0));
        assert_eq!(registry.histogram("exec_seconds").unwrap().count(), 2);
    }

    #[test]
    fn clones_share_storage_and_snapshots_sort_by_name() {
        let registry = MetricsRegistry::new();
        let clone = registry.clone();
        clone.inc("z.last");
        clone.inc("a.first");
        let mut local = LogHistogram::new();
        local.record(1e-3);
        registry.merge_histogram("lat", &local);

        let snapshot = registry.snapshot();
        assert!(!snapshot.is_empty());
        let names: Vec<_> = snapshot.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.first", "z.last"]);
        assert_eq!(snapshot.histograms[0].1.count(), 1);
        assert!(MetricsSnapshot::default().is_empty());
    }
}
