//! Span-emitting monitor adapter: the bridge between `SolveMonitor` event
//! streams and `mffv_telemetry` phase trees.
//!
//! [`TraceMonitor`] wraps any inner monitor and opens/closes spans at the
//! event boundaries the backends already emit — a `cg-loop` span at
//! [`SolveEvent::Started`], then one `iters` span per
//! [`TRACE_CHUNK_ITERS`]-iteration chunk.  It does **no** floating-point
//! work on solve values and never alters the inner monitor's
//! [`Flow`] decision, so traced and untraced solves are bitwise identical
//! (pinned per backend in `tests/telemetry.rs`).  Because iteration counts
//! are themselves bitwise deterministic, the chunk structure — and with it
//! the whole span-tree *shape* — is identical across thread counts.
//!
//! A CG loop can end without a terminal event (`k_max` exhaustion or a
//! `d·Ad` breakdown `break`), so open spans are closed by `Drop` rather
//! than relying on [`SolveEvent::Converged`]/[`SolveEvent::Stopped`].

use crate::monitor::{Flow, SolveEvent, SolveMonitor};
pub use mffv_telemetry::Span;

/// Iterations folded into one `iters` span.  Small enough to see phase
/// structure inside a solve, large enough that span overhead stays far
/// below one iteration's work.
pub const TRACE_CHUNK_ITERS: usize = 32;

/// Wraps an inner monitor, mirroring its event stream into spans under
/// `parent`.  Construct one only when the parent span is recording — on a
/// null parent every span operation is a no-op but the wrapper itself
/// still costs one virtual call per event.
pub struct TraceMonitor<'a> {
    inner: &'a mut dyn SolveMonitor,
    parent: &'a Span,
    // Declared before `loop_span` so chunks close first on drop.
    chunk_span: Option<Span>,
    loop_span: Option<Span>,
    in_chunk: usize,
}

impl<'a> TraceMonitor<'a> {
    /// Wrap `inner`, recording spans under `parent`.
    pub fn new(parent: &'a Span, inner: &'a mut dyn SolveMonitor) -> TraceMonitor<'a> {
        TraceMonitor {
            inner,
            parent,
            chunk_span: None,
            loop_span: None,
            in_chunk: 0,
        }
    }

    fn ensure_loop_open(&mut self) {
        if self.loop_span.is_none() {
            self.loop_span = Some(self.parent.child("cg-loop"));
        }
        if self.chunk_span.is_none() {
            self.in_chunk = 0;
            self.chunk_span = self
                .loop_span
                .as_ref()
                .map(|loop_span| loop_span.child("iters"));
        }
    }

    fn close_all(&mut self) {
        self.chunk_span = None;
        self.loop_span = None;
        self.in_chunk = 0;
    }
}

/// Run `f` with `monitor` mirrored into `cg-loop` / `iters` spans under
/// `span` — or with `monitor` itself when `span` does not record, so the
/// untraced path pays nothing.  The one place solve paths wrap a monitor.
pub(crate) fn traced<R>(
    span: &Span,
    monitor: &mut dyn SolveMonitor,
    f: impl FnOnce(&mut dyn SolveMonitor) -> R,
) -> R {
    if span.is_recording() {
        f(&mut TraceMonitor::new(span, monitor))
    } else {
        f(monitor)
    }
}

impl SolveMonitor for TraceMonitor<'_> {
    fn on_event(&mut self, event: &SolveEvent) -> Flow {
        match event {
            SolveEvent::Started { .. } => self.ensure_loop_open(),
            SolveEvent::Iteration { .. } => {
                // Robust to backends that skip `Started`: open lazily.
                self.ensure_loop_open();
                self.in_chunk += 1;
                if self.in_chunk >= TRACE_CHUNK_ITERS {
                    self.in_chunk = 0;
                    self.chunk_span = self
                        .loop_span
                        .as_ref()
                        .map(|loop_span| loop_span.child("iters"));
                }
            }
            SolveEvent::Converged { .. } | SolveEvent::Stopped(_) => self.close_all(),
        }
        self.inner.on_event(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{NullMonitor, StopReason};
    use mffv_telemetry::Tracer;

    fn pump(monitor: &mut TraceMonitor<'_>, iterations: usize, terminal: Option<SolveEvent>) {
        assert_eq!(
            monitor.on_event(&SolveEvent::Started { initial_rr: 1.0 }),
            Flow::Continue
        );
        for k in 1..=iterations {
            monitor.on_event(&SolveEvent::Iteration { k, rr: 0.5 });
        }
        if let Some(event) = terminal {
            monitor.on_event(&event);
        }
    }

    #[test]
    fn chunks_split_every_n_iterations() {
        let tracer = Tracer::new();
        {
            let root = tracer.span("solve");
            let mut inner = NullMonitor;
            let mut monitor = TraceMonitor::new(&root, &mut inner);
            let iterations = 2 * TRACE_CHUNK_ITERS + 2;
            pump(
                &mut monitor,
                iterations,
                Some(SolveEvent::Converged {
                    iterations,
                    rr: 1e-12,
                }),
            );
        }
        let tree = tracer.phase_tree();
        let cg = tree.find("solve").unwrap().find("cg-loop").unwrap();
        assert_eq!(cg.count, 1);
        // Two full chunks and a partial one: spans close after each full
        // chunk and at the terminal event.
        assert_eq!(cg.find("iters").unwrap().count, 3);
    }

    #[test]
    fn drop_closes_spans_when_no_terminal_event_arrives() {
        let tracer = Tracer::new();
        {
            let root = tracer.span("solve");
            let mut inner = NullMonitor;
            let mut monitor = TraceMonitor::new(&root, &mut inner);
            // k_max-exhaustion style exit: the loop just stops emitting.
            pump(&mut monitor, 3, None);
        }
        let tree = tracer.phase_tree();
        let cg = tree.find("solve").unwrap().find("cg-loop").unwrap();
        assert_eq!(cg.find("iters").unwrap().count, 1);
    }

    #[test]
    fn stopped_solves_close_cleanly_and_flow_passes_through() {
        let tracer = Tracer::new();
        let mut stops = crate::monitor::monitor_fn(|event| match event {
            SolveEvent::Iteration { k, .. } if *k >= 2 => Flow::Stop(StopReason::Cancelled),
            _ => Flow::Continue,
        });
        {
            let root = tracer.span("solve");
            let mut monitor = TraceMonitor::new(&root, &mut stops);
            assert_eq!(
                monitor.on_event(&SolveEvent::Started { initial_rr: 1.0 }),
                Flow::Continue
            );
            assert_eq!(
                monitor.on_event(&SolveEvent::Iteration { k: 1, rr: 0.5 }),
                Flow::Continue
            );
            assert_eq!(
                monitor.on_event(&SolveEvent::Iteration { k: 2, rr: 0.4 }),
                Flow::Stop(StopReason::Cancelled)
            );
            monitor.on_event(&SolveEvent::Stopped(StopReason::Cancelled));
        }
        assert!(tracer
            .phase_tree()
            .find("solve")
            .and_then(|s| s.find("cg-loop"))
            .is_some());
    }

    #[test]
    fn null_parent_records_nothing() {
        let root = Span::null();
        let mut inner = NullMonitor;
        let mut monitor = TraceMonitor::new(&root, &mut inner);
        pump(
            &mut monitor,
            5,
            Some(SolveEvent::Converged {
                iterations: 5,
                rr: 1e-12,
            }),
        );
        assert!(!root.is_recording());
    }
}
