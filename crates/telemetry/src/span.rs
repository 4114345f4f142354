//! Hierarchical spans with deterministic tree shape.
//!
//! A [`Tracer`] is either *recording* (shared buffer behind an `Arc`) or
//! *disabled* (`None` — opening a span is one branch, no clock read, no
//! allocation).  Spans nest **explicitly** via [`Span::child`]: parentage
//! is carried in the value, not in thread-local state, so the aggregated
//! phase tree ([`PhaseNode`]) has an identical shape no matter how work
//! was scheduled across threads, and a span can be opened on one thread
//! and closed on another (the engine's queue-wait spans do exactly that).
//!
//! Raw [`SpanRecord`]s keep wall-clock timestamps and a `lane` (the
//! Chrome-trace thread id) — those are *not* deterministic.  Determinism
//! lives one level up: grouping records by name along parent edges yields
//! the same `PhaseNode::shape_string()` for 1 or 8 workers, which
//! `tests/telemetry.rs` pins on a fixed 12-job sweep.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One closed span: what ran, under what, on which lane, and for how long.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the tracer (assigned at open, starting from 1).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Phase name (deterministic; never derived from timing or scheduling).
    pub name: String,
    /// Display lane for Chrome-trace export (`tid`); 0 unless assigned.
    pub lane: u32,
    /// Seconds from the tracer's epoch to the span opening.
    pub start_seconds: f64,
    /// Seconds the span stayed open.
    pub duration_seconds: f64,
}

#[derive(Debug)]
struct TraceState {
    epoch: Instant,
    next_id: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
}

impl TraceState {
    fn records(&self) -> std::sync::MutexGuard<'_, Vec<SpanRecord>> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Hands out spans; cheap to clone and share across threads.
#[derive(Debug, Clone)]
pub struct Tracer {
    state: Option<Arc<TraceState>>,
}

impl Default for Tracer {
    /// The default tracer is disabled — tracing is strictly opt-in.
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A recording tracer with its epoch set to now.
    pub fn new() -> Tracer {
        // mffv-telemetry is a blessed wall-clock home (AUDIT.md rule 5); the
        // clippy mirror still needs a site-level allow.
        #[allow(clippy::disallowed_methods)]
        let epoch = Instant::now();
        Tracer {
            state: Some(Arc::new(TraceState {
                epoch,
                next_id: AtomicU64::new(1),
                records: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A tracer that records nothing; every span it opens is a no-op.
    pub fn disabled() -> Tracer {
        Tracer { state: None }
    }

    /// Whether spans opened from this tracer record anything.
    pub fn is_recording(&self) -> bool {
        self.state.is_some()
    }

    /// Open a root span on lane 0.
    pub fn span(&self, name: &str) -> Span {
        self.span_on_lane(name, 0)
    }

    /// Open a root span on an explicit Chrome-trace lane.
    pub fn span_on_lane(&self, name: &str, lane: u32) -> Span {
        Span::open(self.state.clone(), None, name, lane)
    }

    /// Snapshot of all closed spans, in close order.
    pub fn records(&self) -> Vec<SpanRecord> {
        match &self.state {
            Some(state) => state.records().clone(),
            None => Vec::new(),
        }
    }

    /// Drop all closed spans (open spans still record when they close).
    pub fn clear(&self) {
        if let Some(state) = &self.state {
            state.records().clear();
        }
    }

    /// Aggregate closed spans into the deterministic phase tree.
    pub fn phase_tree(&self) -> PhaseNode {
        PhaseNode::aggregate(&self.records())
    }
}

#[derive(Debug)]
struct SpanInner {
    state: Arc<TraceState>,
    id: u64,
    parent: Option<u64>,
    name: String,
    lane: u32,
    start_seconds: f64,
    started: Instant,
}

impl Drop for SpanInner {
    fn drop(&mut self) {
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            lane: self.lane,
            start_seconds: self.start_seconds,
            duration_seconds: self.started.elapsed().as_secs_f64(),
        };
        self.state.records().push(record);
    }
}

/// A guard for one phase: opened by [`Tracer::span`] / [`Span::child`],
/// recorded when dropped (or via [`Span::finish`]).  A null span is free.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    fn open(state: Option<Arc<TraceState>>, parent: Option<u64>, name: &str, lane: u32) -> Span {
        let Some(state) = state else {
            return Span { inner: None };
        };
        let id = state.next_id.fetch_add(1, Ordering::SeqCst);
        // mffv-telemetry is a blessed wall-clock home (AUDIT.md rule 5); the
        // clippy mirror still needs a site-level allow.
        #[allow(clippy::disallowed_methods)]
        let started = Instant::now();
        let start_seconds = started.duration_since(state.epoch).as_secs_f64();
        Span {
            inner: Some(SpanInner {
                state,
                id,
                parent,
                name: name.to_string(),
                lane,
                start_seconds,
                started,
            }),
        }
    }

    /// A span that records nothing — the disabled-tracing fast path.
    pub const fn null() -> Span {
        Span { inner: None }
    }

    /// Whether closing this span produces a record.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a nested span on the same lane.
    pub fn child(&self, name: &str) -> Span {
        match &self.inner {
            Some(inner) => Span::open(Some(inner.state.clone()), Some(inner.id), name, inner.lane),
            None => Span { inner: None },
        }
    }

    /// Open a nested span on an explicit lane (engine workers use this to
    /// separate Chrome-trace rows).
    pub fn child_on_lane(&self, name: &str, lane: u32) -> Span {
        match &self.inner {
            Some(inner) => Span::open(Some(inner.state.clone()), Some(inner.id), name, lane),
            None => Span { inner: None },
        }
    }

    /// Close the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

/// One node of the aggregated phase tree: all spans sharing a name under
/// the same parent path, with children sorted by name.  The *shape*
/// (names, nesting, counts) is deterministic across thread counts; only
/// the `total_seconds` differ run to run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseNode {
    /// Phase name (the synthetic top node is named `root`).
    pub name: String,
    /// Number of spans merged into this node.
    pub count: u64,
    /// Summed duration of the merged spans.
    pub total_seconds: f64,
    /// Child phases, sorted by name.
    pub children: Vec<PhaseNode>,
}

impl PhaseNode {
    /// Build the phase tree from raw records.  Records whose parent is
    /// still open (not yet recorded) attach at the root.
    pub fn aggregate(records: &[SpanRecord]) -> PhaseNode {
        let ids: BTreeSet<u64> = records.iter().map(|r| r.id).collect();
        let mut children_of: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut roots: Vec<usize> = Vec::new();
        for (idx, record) in records.iter().enumerate() {
            match record.parent {
                Some(p) if ids.contains(&p) => children_of.entry(p).or_default().push(idx),
                _ => roots.push(idx),
            }
        }
        PhaseNode {
            name: "root".to_string(),
            count: 1,
            total_seconds: sum_durations(records, &roots),
            children: build_level(records, &children_of, &roots),
        }
    }

    /// The immediate child with the given name, if present.
    pub fn find(&self, name: &str) -> Option<&PhaseNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Compact `name*count[children…]` encoding of the tree shape — no
    /// timings, so equal shapes compare equal across runs and worker
    /// counts.
    pub fn shape_string(&self) -> String {
        let mut out = String::new();
        self.write_shape(&mut out);
        out
    }

    fn write_shape(&self, out: &mut String) {
        out.push_str(&self.name);
        out.push('*');
        out.push_str(&self.count.to_string());
        if !self.children.is_empty() {
            out.push('[');
            for (i, child) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                child.write_shape(out);
            }
            out.push(']');
        }
    }
}

fn sum_durations(records: &[SpanRecord], indices: &[usize]) -> f64 {
    let mut total = 0.0;
    for &idx in indices {
        total += records[idx].duration_seconds;
    }
    total
}

fn build_level(
    records: &[SpanRecord],
    children_of: &BTreeMap<u64, Vec<usize>>,
    level: &[usize],
) -> Vec<PhaseNode> {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for &idx in level {
        by_name
            .entry(records[idx].name.as_str())
            .or_default()
            .push(idx);
    }
    let mut nodes = Vec::with_capacity(by_name.len());
    for (name, indices) in by_name {
        let mut child_indices: Vec<usize> = Vec::new();
        for &idx in &indices {
            if let Some(kids) = children_of.get(&records[idx].id) {
                child_indices.extend_from_slice(kids);
            }
        }
        nodes.push(PhaseNode {
            name: name.to_string(),
            count: indices.len() as u64,
            total_seconds: sum_durations(records, &indices),
            children: build_level(records, children_of, &child_indices),
        });
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracers_record_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_recording());
        let root = tracer.span("solve");
        assert!(!root.is_recording());
        let child = root.child("cg-loop");
        assert!(!child.is_recording());
        drop(child);
        drop(root);
        assert!(tracer.records().is_empty());
        assert!(!Tracer::default().is_recording());
    }

    #[test]
    fn spans_record_parentage_and_names() {
        let tracer = Tracer::new();
        {
            let root = tracer.span("solve");
            root.child("build").finish();
            let cg = root.child("cg");
            cg.child("iters").finish();
            cg.child("iters").finish();
        }
        let records = tracer.records();
        assert_eq!(records.len(), 5);
        let root = records.iter().find(|r| r.name == "solve").unwrap();
        assert_eq!(root.parent, None);
        let cg = records.iter().find(|r| r.name == "cg").unwrap();
        assert_eq!(cg.parent, Some(root.id));
        let iters: Vec<_> = records.iter().filter(|r| r.name == "iters").collect();
        assert_eq!(iters.len(), 2);
        assert!(iters.iter().all(|r| r.parent == Some(cg.id)));
        assert!(records.iter().all(|r| r.duration_seconds >= 0.0));
    }

    #[test]
    fn phase_tree_groups_by_name_and_sorts_children() {
        let tracer = Tracer::new();
        {
            let root = tracer.span("batch");
            // Open in non-alphabetical order; the tree must sort by name.
            root.child("zeta").finish();
            root.child("alpha").finish();
            root.child("alpha").finish();
        }
        let tree = tracer.phase_tree();
        assert_eq!(tree.name, "root");
        assert_eq!(tree.children.len(), 1);
        let batch = tree.find("batch").unwrap();
        assert_eq!(batch.count, 1);
        let names: Vec<_> = batch.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(batch.find("alpha").unwrap().count, 2);
        assert_eq!(tree.shape_string(), "root*1[batch*1[alpha*2,zeta*1]]",);
    }

    #[test]
    fn spans_can_close_on_another_thread() {
        let tracer = Tracer::new();
        let root = tracer.span("queue");
        let wait = root.child("queue-wait");
        std::thread::scope(|scope| {
            scope.spawn(move || drop(wait));
        });
        drop(root);
        let tree = tracer.phase_tree();
        assert_eq!(tree.shape_string(), "root*1[queue*1[queue-wait*1]]",);
    }

    #[test]
    fn children_of_still_open_parents_attach_at_the_root() {
        let tracer = Tracer::new();
        let root = tracer.span("outer");
        root.child("inner").finish();
        // `outer` is still open: `inner` has no recorded parent yet.
        let tree = tracer.phase_tree();
        assert_eq!(tree.shape_string(), "root*1[inner*1]");
        drop(root);
        assert_eq!(
            tracer.phase_tree().shape_string(),
            "root*1[outer*1[inner*1]]",
        );
    }
}
