//! Reading the spans the program already emits: durations by name and a
//! span's self time (its duration minus the part of its interval that its
//! children cover).

use mffv::telemetry::SpanRecord;
use std::collections::BTreeMap;

/// Closed spans with a parent → children index.
pub struct SpanIndex<'a> {
    records: &'a [SpanRecord],
    children: BTreeMap<u64, Vec<usize>>,
}

impl<'a> SpanIndex<'a> {
    pub fn new(records: &'a [SpanRecord]) -> Self {
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, record) in records.iter().enumerate() {
            if let Some(parent) = record.parent {
                children.entry(parent).or_default().push(i);
            }
        }
        Self { records, children }
    }

    /// Records named `name`.
    pub fn named(&self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.records.iter().filter(move |r| r.name == name)
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.duration_seconds * 1e3)
            .collect()
    }

    /// Summed duration in seconds of every span named `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.duration_seconds)
            .sum()
    }

    /// Self time of `record` in seconds.
    pub fn self_seconds(&self, record: &SpanRecord) -> f64 {
        let kids = self
            .children
            .get(&record.id)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let intervals = kids.iter().map(|&i| {
            let child = &self.records[i];
            (
                child.start_seconds,
                child.start_seconds + child.duration_seconds,
            )
        });
        let parent = (
            record.start_seconds,
            record.start_seconds + record.duration_seconds,
        );
        (record.duration_seconds - covered(parent, intervals)).max(0.0)
    }
}

/// Length of the union of `intervals`, clipped to `window`.
pub fn covered(window: (f64, f64), intervals: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .map(|(a, b)| (a.max(window.0), b.min(window.1)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, parent: Option<u64>, name: &str, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            lane: 0,
            start_seconds: start,
            duration_seconds: end - start,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        // parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] sticks
        // out of the parent; grandchild [1.5, 2] must not count twice.
        let records = vec![
            record(1, None, "step", 0.0, 10.0),
            record(2, Some(1), "cg-loop", 1.0, 3.0),
            record(3, Some(1), "cg-loop", 2.0, 5.0),
            record(4, Some(1), "accounting", 8.0, 12.0),
            record(5, Some(2), "iters", 1.5, 2.0),
        ];
        let index = SpanIndex::new(&records);
        // covered = [1, 5] ∪ [8, 10] = 6, so self = 10 - 6.
        assert!((index.self_seconds(&records[0]) - 4.0).abs() < 1e-12);
        // cg-loop [1, 3] with child [1.5, 2]: self 1.5.
        assert!((index.self_seconds(&records[1]) - 1.5).abs() < 1e-12);
        // A leaf is all self time.
        assert!((index.self_seconds(&records[4]) - 0.5).abs() < 1e-12);
        assert_eq!(index.durations_ms("cg-loop"), vec![2000.0, 3000.0]);
        assert!((index.total_seconds("cg-loop") - 5.0).abs() < 1e-12);
        assert_eq!(index.named("step").count(), 1);
    }

    #[test]
    fn covered_handles_disjoint_nested_and_empty_sets() {
        let w = (0.0, 10.0);
        assert_eq!(covered(w, std::iter::empty()), 0.0);
        assert_eq!(covered(w, [(1.0, 2.0), (3.0, 4.0)].into_iter()), 2.0);
        assert_eq!(covered(w, [(1.0, 9.0), (2.0, 3.0)].into_iter()), 8.0);
        assert_eq!(covered(w, [(-5.0, 20.0)].into_iter()), 10.0);
        assert_eq!(covered(w, [(11.0, 12.0)].into_iter()), 0.0);
    }
}
