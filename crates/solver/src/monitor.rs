//! Observable, cancellable solve sessions: [`SolveMonitor`], [`SolveEvent`],
//! [`StopPolicy`] and [`CancelToken`].
//!
//! The paper's central loop (Algorithm 1) is an iterative CG solve whose
//! per-iteration residual trajectory is the whole story of the §V-B agreement
//! experiment — yet a fire-and-forget `solve()` only surfaces that trajectory
//! after the fact, as a finished
//! [`ConvergenceHistory`](crate::convergence::ConvergenceHistory).  This
//! module defines the *session* contract that every backend threads through
//! its inner CG loop instead:
//!
//! * [`SolveEvent`] — the typed iteration-boundary events (`Started`,
//!   `Iteration { k, rr }`, `Converged`, `Stopped`);
//! * [`SolveMonitor`] — the observer callback; its return value, a [`Flow`],
//!   makes observation and control share one channel: return
//!   [`Flow::Stop`] and the backend exits at the next iteration boundary,
//!   reporting the partial state it reached;
//! * [`StopPolicy`] — the composable, declarative stop rules a serving path
//!   needs (iteration budget, wall-clock deadline, stagnation and divergence
//!   detection, cooperative cancellation), armed into a [`PolicySession`]
//!   monitor per solve;
//! * [`CancelToken`] — a cheap, shareable cancellation flag
//!   (`Arc<AtomicBool>`) that can stop one solve or a whole engine batch from
//!   another thread.
//!
//! The **`rr` values of the `Iteration` event stream are bitwise identical to
//! the entries the backend records in its `ConvergenceHistory`** — the events
//! are emitted at the exact point the history is recorded, not recomputed.
//! Monitoring therefore never perturbs the arithmetic: a monitored solve
//! that is not stopped produces bitwise the same report as an unmonitored
//! one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a solve session ended before reaching its natural conclusion
/// (convergence or the solver's own iteration cap).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// A [`CancelToken`] observed by the session was cancelled.
    Cancelled,
    /// The session's wall-clock deadline expired.
    DeadlineExpired,
    /// The session's [`StopPolicy`] iteration budget was spent (distinct from
    /// the solver's own `k_max`, which ends the solve without a stop).
    IterationBudget,
    /// The residual stopped improving for the policy's stagnation window.
    Stagnated,
    /// The residual grew past the policy's divergence factor.
    Diverged,
    /// A user [`SolveMonitor`] returned [`Flow::Stop`] for its own reasons.
    MonitorRequest,
    /// The Krylov iteration broke down: the direction's operator curvature
    /// `dᵀAd` was non-positive or non-finite (an indefinite or corrupted
    /// operator), so continuing would divide by it and produce garbage.
    Breakdown,
}

impl StopReason {
    /// Short stable label (used in status tables and error messages).
    pub fn label(&self) -> &'static str {
        match self {
            StopReason::Cancelled => "cancelled",
            StopReason::DeadlineExpired => "deadline expired",
            StopReason::IterationBudget => "iteration budget spent",
            StopReason::Stagnated => "residual stagnated",
            StopReason::Diverged => "residual diverged",
            StopReason::MonitorRequest => "stopped by monitor",
            StopReason::Breakdown => "numerical breakdown",
        }
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What the monitor tells the backend to do next.
///
/// Returned from every [`SolveMonitor::on_event`] call; a `Stop` takes effect
/// at the current iteration boundary — the backend emits a final
/// [`SolveEvent::Stopped`] and returns the partial state it reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Keep iterating.
    Continue,
    /// Stop at this iteration boundary, for the given reason.
    Stop(StopReason),
}

impl Flow {
    /// The stop reason, when this is a `Stop`.
    pub fn stop_reason(&self) -> Option<StopReason> {
        match self {
            Flow::Continue => None,
            Flow::Stop(reason) => Some(*reason),
        }
    }
}

/// A typed event at an iteration boundary of a Krylov solve session.
///
/// The `rr` payloads are the *recorded* squared residual norms — bitwise the
/// same values the backend stores in its `ConvergenceHistory`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SolveEvent {
    /// The session began; `initial_rr` is the `rᵀr` of the initial residual
    /// (the first entry of the convergence history).
    Started {
        /// `rᵀr` before the first iteration.
        initial_rr: f64,
    },
    /// Iteration `k` completed with squared residual norm `rr`.
    Iteration {
        /// 1-based iteration index (matches `ConvergenceHistory::iterations`
        /// after this iteration).
        k: usize,
        /// `rᵀr` after iteration `k`, bitwise equal to the history entry.
        rr: f64,
    },
    /// The stopping criterion was met (`rᵀr < ε`, the paper's line 8).
    Converged {
        /// Iterations performed.
        iterations: usize,
        /// Final `rᵀr`.
        rr: f64,
    },
    /// The session was stopped early: by its monitor or policy (emitted as
    /// the final event after a [`Flow::Stop`]) or by the solver itself on a
    /// numerical breakdown ([`StopReason::Breakdown`]); the backend then
    /// returns the partial state.  A stream that ends without `Converged`
    /// *or* `Stopped` exhausted the solver's own iteration cap.
    Stopped(StopReason),
}

/// Observer + controller of one solve session.
///
/// Backends call [`on_event`](Self::on_event) at every iteration boundary of
/// the inner CG/PCG loop; returning [`Flow::Stop`] ends the solve at that
/// boundary with the partial `ConvergenceHistory` still reported.  The return
/// value of the final `Converged`/`Stopped` notification is ignored.
pub trait SolveMonitor {
    /// Observe one event; decide whether the solve continues.
    fn on_event(&mut self, event: &SolveEvent) -> Flow;
}

/// A monitor that observes nothing and never stops — the implicit monitor of
/// every plain `solve()` call.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullMonitor;

impl SolveMonitor for NullMonitor {
    fn on_event(&mut self, _event: &SolveEvent) -> Flow {
        Flow::Continue
    }
}

/// A monitor that records every event it sees (and never stops) — the test
/// and tracing workhorse.
#[derive(Clone, Debug, Default)]
pub struct RecordingMonitor {
    /// Every observed event, in emission order.
    pub events: Vec<SolveEvent>,
}

impl RecordingMonitor {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `rr` payloads of the recorded `Iteration` events, in order.
    pub fn iteration_rrs(&self) -> Vec<f64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                SolveEvent::Iteration { rr, .. } => Some(*rr),
                _ => None,
            })
            .collect()
    }

    /// The `initial_rr` of the `Started` event, if one was observed.
    pub fn initial_rr(&self) -> Option<f64> {
        self.events.iter().find_map(|e| match e {
            SolveEvent::Started { initial_rr } => Some(*initial_rr),
            _ => None,
        })
    }

    /// The terminal event (`Converged` or `Stopped`), if one was observed.
    pub fn terminal(&self) -> Option<&SolveEvent> {
        self.events
            .iter()
            .rev()
            .find(|e| matches!(e, SolveEvent::Converged { .. } | SolveEvent::Stopped(_)))
    }
}

impl SolveMonitor for RecordingMonitor {
    fn on_event(&mut self, event: &SolveEvent) -> Flow {
        self.events.push(*event);
        Flow::Continue
    }
}

/// A monitor built from a closure — `monitor_fn(|e| { ...; Flow::Continue })`.
pub struct FnMonitor<F: FnMut(&SolveEvent) -> Flow>(F);

/// Wrap a closure as a [`SolveMonitor`].
pub fn monitor_fn<F: FnMut(&SolveEvent) -> Flow>(f: F) -> FnMonitor<F> {
    FnMonitor(f)
}

impl<F: FnMut(&SolveEvent) -> Flow> SolveMonitor for FnMonitor<F> {
    fn on_event(&mut self, event: &SolveEvent) -> Flow {
        (self.0)(event)
    }
}

/// Fan one event stream out to several monitors.
///
/// Every monitor sees every event; the first `Stop` (in push order) wins, but
/// later monitors still observe the event that triggered it — and all of them
/// observe the final `Stopped` notification the backend emits.
#[derive(Default)]
pub struct MonitorFanout<'a> {
    monitors: Vec<&'a mut dyn SolveMonitor>,
}

impl<'a> MonitorFanout<'a> {
    /// An empty fanout (acts like [`NullMonitor`]).
    pub fn new() -> Self {
        Self {
            monitors: Vec::new(),
        }
    }

    /// Add a monitor; earlier monitors take stop precedence.
    pub fn push(mut self, monitor: &'a mut dyn SolveMonitor) -> Self {
        self.monitors.push(monitor);
        self
    }
}

impl SolveMonitor for MonitorFanout<'_> {
    fn on_event(&mut self, event: &SolveEvent) -> Flow {
        let mut flow = Flow::Continue;
        for monitor in &mut self.monitors {
            if let Flow::Stop(reason) = monitor.on_event(event) {
                if matches!(flow, Flow::Continue) {
                    flow = Flow::Stop(reason);
                }
            }
        }
        flow
    }
}

/// A cheap, shareable cancellation flag.
///
/// Clone the token freely — all clones share one `Arc<AtomicBool>`.  Any
/// thread may call [`cancel`](Self::cancel); every solve session (or engine
/// batch) watching the token stops at its next iteration boundary with
/// [`StopReason::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the token.  Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// The residual-stagnation rule of a [`StopPolicy`].
#[derive(Clone, Copy, Debug, PartialEq)]
struct StagnationRule {
    /// Consecutive iterations without sufficient improvement before stopping.
    window: usize,
    /// Relative improvement over the best `rr` so far that counts as
    /// progress (e.g. `0.01` = the residual must drop by ≥ 1 %).
    min_rel_improvement: f64,
}

/// Declarative, composable stop rules for a solve session.
///
/// A `StopPolicy` is a cheap value (clone it into every
/// [`JobSpec`](../../mffv_engine/struct.JobSpec.html) of a sweep); arming it
/// with [`session`](Self::session) produces the stateful [`PolicySession`]
/// monitor that one solve consumes.  Rules compose — all configured rules are
/// checked at every iteration boundary, in this precedence order:
///
/// 1. cancellation ([`StopReason::Cancelled`])
/// 2. wall-clock deadline ([`StopReason::DeadlineExpired`])
/// 3. iteration budget ([`StopReason::IterationBudget`])
/// 4. divergence ([`StopReason::Diverged`])
/// 5. stagnation ([`StopReason::Stagnated`])
///
/// ```
/// use mffv_solver::monitor::{CancelToken, StopPolicy};
/// use std::time::Duration;
///
/// let token = CancelToken::new();
/// let policy = StopPolicy::new()
///     .iteration_budget(500)
///     .deadline(Duration::from_secs(2))
///     .stagnation(25, 1e-3)
///     .divergence(1e6)
///     .cancel_token(token.clone());
/// assert!(!policy.is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct StopPolicy {
    iteration_budget: Option<usize>,
    deadline: Option<Duration>,
    stagnation: Option<StagnationRule>,
    divergence_factor: Option<f64>,
    cancel: Vec<CancelToken>,
}

impl StopPolicy {
    /// A policy with no rules (never stops anything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Stop after `budget` iterations with [`StopReason::IterationBudget`].
    ///
    /// Unlike the solver's own `k_max` (which ends the solve as "ran to
    /// completion without converging"), spending the policy budget is
    /// reported as an explicit stop.
    pub fn iteration_budget(mut self, budget: usize) -> Self {
        self.iteration_budget = Some(budget);
        self
    }

    /// Stop when `deadline` of wall-clock time has elapsed since the
    /// session's `Started` event, with [`StopReason::DeadlineExpired`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Stop with [`StopReason::Stagnated`] after `window` consecutive
    /// iterations in which `rr` failed to drop at least
    /// `min_rel_improvement` (relative) below the best value seen so far.
    pub fn stagnation(mut self, window: usize, min_rel_improvement: f64) -> Self {
        self.stagnation = Some(StagnationRule {
            window: window.max(1),
            min_rel_improvement: min_rel_improvement.clamp(0.0, 1.0),
        });
        self
    }

    /// Stop with [`StopReason::Diverged`] when `rr` exceeds `factor` times
    /// the best `rr` seen so far (blow-up detection).
    pub fn divergence(mut self, factor: f64) -> Self {
        self.divergence_factor = Some(factor.max(1.0));
        self
    }

    /// Watch `token`; stop with [`StopReason::Cancelled`] once it trips.
    /// May be called repeatedly — all registered tokens are watched.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel.push(token);
        self
    }

    /// Whether no rule is configured (a session of an empty policy never
    /// stops a solve, and callers may skip monitoring entirely).
    pub fn is_empty(&self) -> bool {
        self.iteration_budget.is_none()
            && self.deadline.is_none()
            && self.stagnation.is_none()
            && self.divergence_factor.is_none()
            && self.cancel.is_empty()
    }

    /// Whether any watched [`CancelToken`] has tripped.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.iter().any(CancelToken::is_cancelled)
    }

    /// The policy with its deadline reduced by `elapsed` (floored at zero —
    /// an exhausted deadline stops the very next session at its `Started`
    /// event).  Multi-solve drivers (transient time stepping, batch loops)
    /// use this to keep **one** wall-clock budget across the per-solve
    /// sessions they arm, instead of re-arming the full deadline each time.
    pub fn consume_deadline(&self, elapsed: Duration) -> StopPolicy {
        let mut policy = self.clone();
        if let Some(deadline) = policy.deadline {
            policy.deadline = Some(deadline.saturating_sub(elapsed));
        }
        policy
    }

    /// Arm the policy for one solve: the returned [`PolicySession`] is the
    /// [`SolveMonitor`] to thread through the solve.  The deadline clock
    /// starts at the session's `Started` event.
    pub fn session(&self) -> PolicySession {
        PolicySession {
            policy: self.clone(),
            started_at: None,
            best_rr: f64::INFINITY,
            stale_iterations: 0,
        }
    }

    /// Run `f` with this policy armed ahead of `observer`: the policy's
    /// session first (it keeps stop precedence), then the observer, fanned
    /// out when both are present.  With neither a rule nor an observer `f`
    /// gets a [`NullMonitor`] — the plain unmonitored solve.
    pub fn observe<R>(
        &self,
        observer: Option<&mut (dyn SolveMonitor + '_)>,
        f: impl FnOnce(&mut dyn SolveMonitor) -> R,
    ) -> R {
        let mut session = (!self.is_empty()).then(|| self.session());
        match (session.as_mut(), observer) {
            (None, None) => f(&mut NullMonitor),
            (None, Some(observer)) => f(observer),
            (Some(session), None) => f(session),
            (Some(session), Some(observer)) => {
                f(&mut MonitorFanout::new().push(session).push(observer))
            }
        }
    }
}

/// One armed [`StopPolicy`]: the per-solve monitor state (deadline clock,
/// best residual, stagnation counter).  Build with [`StopPolicy::session`].
#[derive(Clone, Debug)]
pub struct PolicySession {
    policy: StopPolicy,
    started_at: Option<Instant>,
    best_rr: f64,
    stale_iterations: usize,
}

impl PolicySession {
    /// Evaluate the rules that do not depend on an iteration having
    /// happened (cancellation, deadline).
    fn ambient_stop(&self) -> Option<StopReason> {
        if self.policy.is_cancelled() {
            return Some(StopReason::Cancelled);
        }
        if let (Some(deadline), Some(started)) = (self.policy.deadline, self.started_at) {
            if started.elapsed() >= deadline {
                return Some(StopReason::DeadlineExpired);
            }
        }
        None
    }
}

impl SolveMonitor for PolicySession {
    fn on_event(&mut self, event: &SolveEvent) -> Flow {
        match *event {
            SolveEvent::Started { initial_rr } => {
                // Blessed wall-clock home (deadline enforcement lives here);
                // see clippy.toml and AUDIT.md rule 5.
                #[allow(clippy::disallowed_methods)]
                {
                    self.started_at = Some(Instant::now());
                }
                self.best_rr = initial_rr;
                self.stale_iterations = 0;
                match self.ambient_stop() {
                    Some(reason) => Flow::Stop(reason),
                    // A zero budget means "no iterations at all" — it can
                    // only fire here, before the first iteration runs.
                    None if self.policy.iteration_budget == Some(0) => {
                        Flow::Stop(StopReason::IterationBudget)
                    }
                    None => Flow::Continue,
                }
            }
            SolveEvent::Iteration { k, rr } => {
                if let Some(reason) = self.ambient_stop() {
                    return Flow::Stop(reason);
                }
                if let Some(budget) = self.policy.iteration_budget {
                    if k >= budget {
                        return Flow::Stop(StopReason::IterationBudget);
                    }
                }
                if let Some(factor) = self.policy.divergence_factor {
                    if rr > self.best_rr * factor || !rr.is_finite() {
                        return Flow::Stop(StopReason::Diverged);
                    }
                }
                if let Some(rule) = self.policy.stagnation {
                    if rr <= self.best_rr * (1.0 - rule.min_rel_improvement) {
                        self.best_rr = rr;
                        self.stale_iterations = 0;
                    } else {
                        self.stale_iterations += 1;
                        if self.stale_iterations >= rule.window {
                            return Flow::Stop(StopReason::Stagnated);
                        }
                    }
                } else {
                    self.best_rr = self.best_rr.min(rr);
                }
                Flow::Continue
            }
            SolveEvent::Converged { .. } | SolveEvent::Stopped(_) => Flow::Continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iteration(k: usize, rr: f64) -> SolveEvent {
        SolveEvent::Iteration { k, rr }
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled() && !clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled() && clone.is_cancelled());
    }

    #[test]
    fn empty_policy_never_stops() {
        let policy = StopPolicy::new();
        assert!(policy.is_empty());
        let mut session = policy.session();
        assert_eq!(
            session.on_event(&SolveEvent::Started { initial_rr: 1.0 }),
            Flow::Continue
        );
        for k in 1..1000 {
            assert_eq!(session.on_event(&iteration(k, 1.0)), Flow::Continue);
        }
    }

    #[test]
    fn iteration_budget_fires_at_the_boundary() {
        let mut session = StopPolicy::new().iteration_budget(3).session();
        session.on_event(&SolveEvent::Started { initial_rr: 1.0 });
        assert_eq!(session.on_event(&iteration(1, 0.5)), Flow::Continue);
        assert_eq!(session.on_event(&iteration(2, 0.4)), Flow::Continue);
        assert_eq!(
            session.on_event(&iteration(3, 0.3)),
            Flow::Stop(StopReason::IterationBudget)
        );
    }

    #[test]
    fn zero_iteration_budget_stops_before_the_first_iteration() {
        let mut session = StopPolicy::new().iteration_budget(0).session();
        assert_eq!(
            session.on_event(&SolveEvent::Started { initial_rr: 1.0 }),
            Flow::Stop(StopReason::IterationBudget)
        );
    }

    #[test]
    fn cancellation_beats_every_other_rule() {
        let token = CancelToken::new();
        let mut session = StopPolicy::new()
            .iteration_budget(1)
            .cancel_token(token.clone())
            .session();
        token.cancel();
        assert_eq!(
            session.on_event(&SolveEvent::Started { initial_rr: 1.0 }),
            Flow::Stop(StopReason::Cancelled)
        );
    }

    #[test]
    fn zero_deadline_expires_at_start() {
        let mut session = StopPolicy::new().deadline(Duration::ZERO).session();
        assert_eq!(
            session.on_event(&SolveEvent::Started { initial_rr: 1.0 }),
            Flow::Stop(StopReason::DeadlineExpired)
        );
    }

    #[test]
    fn stagnation_fires_after_the_window() {
        let mut session = StopPolicy::new().stagnation(3, 0.1).session();
        session.on_event(&SolveEvent::Started { initial_rr: 100.0 });
        assert_eq!(session.on_event(&iteration(1, 50.0)), Flow::Continue); // improves
        assert_eq!(session.on_event(&iteration(2, 49.0)), Flow::Continue); // stale 1
        assert_eq!(session.on_event(&iteration(3, 48.0)), Flow::Continue); // stale 2
        assert_eq!(
            session.on_event(&iteration(4, 47.0)),
            Flow::Stop(StopReason::Stagnated)
        );
    }

    #[test]
    fn improvement_resets_the_stagnation_window() {
        let mut session = StopPolicy::new().stagnation(2, 0.1).session();
        session.on_event(&SolveEvent::Started { initial_rr: 100.0 });
        assert_eq!(session.on_event(&iteration(1, 99.0)), Flow::Continue); // stale 1
        assert_eq!(session.on_event(&iteration(2, 10.0)), Flow::Continue); // resets
        assert_eq!(session.on_event(&iteration(3, 9.9)), Flow::Continue); // stale 1
        assert_eq!(
            session.on_event(&iteration(4, 9.8)),
            Flow::Stop(StopReason::Stagnated)
        );
    }

    #[test]
    fn divergence_detects_blow_up_and_non_finite_residuals() {
        let mut session = StopPolicy::new().divergence(10.0).session();
        session.on_event(&SolveEvent::Started { initial_rr: 1.0 });
        assert_eq!(session.on_event(&iteration(1, 5.0)), Flow::Continue);
        assert_eq!(
            session.on_event(&iteration(2, 11.0)),
            Flow::Stop(StopReason::Diverged)
        );
        let mut nan_session = StopPolicy::new().divergence(1e12).session();
        nan_session.on_event(&SolveEvent::Started { initial_rr: 1.0 });
        assert_eq!(
            nan_session.on_event(&iteration(1, f64::NAN)),
            Flow::Stop(StopReason::Diverged)
        );
    }

    #[test]
    fn fanout_gives_stop_precedence_to_earlier_monitors() {
        let seen = std::cell::Cell::new(0usize);
        let mut stop_budget = monitor_fn(|_| Flow::Stop(StopReason::IterationBudget));
        let mut stop_monitor = monitor_fn(|_| Flow::Stop(StopReason::MonitorRequest));
        let mut counter = monitor_fn(|_| {
            seen.set(seen.get() + 1);
            Flow::Continue
        });
        let mut fanout = MonitorFanout::new()
            .push(&mut stop_budget)
            .push(&mut stop_monitor)
            .push(&mut counter);
        assert_eq!(
            fanout.on_event(&iteration(1, 1.0)),
            Flow::Stop(StopReason::IterationBudget)
        );
        assert_eq!(seen.get(), 1, "later monitors still observe the event");
    }

    #[test]
    fn stop_reasons_have_stable_labels() {
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
        assert_eq!(StopReason::DeadlineExpired.label(), "deadline expired");
        assert_eq!(
            Flow::Stop(StopReason::Diverged).stop_reason(),
            Some(StopReason::Diverged)
        );
        assert_eq!(Flow::Continue.stop_reason(), None);
    }
}
