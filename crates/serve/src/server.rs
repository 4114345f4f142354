//! The solve daemon: a TCP server over `std::net` that accepts framed jobs,
//! streams live convergence events back per session, and drains cleanly.
//!
//! ## Thread structure
//!
//! ```text
//!  accept loop ──▶ reader thread per connection
//!                    (decodes frames; replies Welcome/Busy/Rejected/Pong;
//!                     writes Accepted, then submits)
//!                            │ EngineService::submit
//!                            ▼
//!                  engine job queue (one FIFO) ──▶ EngineService workers
//!                                                        │ on_event / on_done
//!                                                        ▼
//!                                        session writer (Mutex<TcpStream>)
//! ```
//!
//! * **Admission is per session.**  Each connection may have at most
//!   [`ServeConfig::session_window`] jobs outstanding; a `Submit` beyond the
//!   window gets a typed `Busy` frame immediately — back-pressure is a
//!   protocol reply, never a hang.  A `Submit` reusing the id of one of the
//!   session's in-flight jobs is `Rejected`.
//! * **The window is the fairness bound.**  A session's reader submits each
//!   accepted job straight into the engine's one queue, so jobs start in
//!   admission order.  No session can hold more than its window in that
//!   queue, so no session can starve another.
//! * **Cancellation is a token trip.**  Every accepted job gets its own
//!   [`CancelToken`] (tripped by a `Cancel` frame for that `job_id`) plus the
//!   session's disconnect token (tripped when the connection drops, so
//!   orphaned solves stop instead of burning workers).  Both act at the next
//!   iteration boundary of that solve only.
//! * **Shutdown is two-flavoured**, mirroring
//!   [`mffv_engine::ShutdownMode`]: `Drain` finishes every
//!   accepted job (terminal frames included) before the daemon exits; `Abort`
//!   trips the service-wide token so in-flight solves stop at their next
//!   boundary and queued jobs end `Stopped(Cancelled)` with no report.  A
//!   submit that loses the race with either gets `Rejected`.

use crate::frame::{Frame, WireShutdownMode};
use crate::wire::WireError;
use mffv_engine::{Engine, EngineService, JobStatus, ServiceJob, ShutdownMode};
use mffv_solver::monitor::{CancelToken, Flow, SolveEvent};
use mffv_telemetry::{MetricsRegistry, Tracer};
use std::collections::BTreeMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Lock a mutex, recovering the guard from a poisoned lock: the daemon's
/// shared maps stay usable even if some thread panicked mid-update.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Engine worker threads.
    pub workers: usize,
    /// Jobs one session may have outstanding before `Submit` gets `Busy`.
    pub session_window: usize,
    /// Per-session deadline ceiling in seconds; clamps (and, when the client
    /// asked for none, imposes) every job's deadline.  `None` = no ceiling.
    pub max_session_seconds: Option<f64>,
    /// Banner returned in `Welcome`.
    pub banner: String,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            session_window: 2,
            max_session_seconds: None,
            banner: "mffv-serve".to_string(),
        }
    }
}

impl ServeConfig {
    /// Defaults with an explicit bind address.
    pub fn on(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            ..Self::default()
        }
    }

    /// Set the engine worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the per-session admission window.
    pub fn with_session_window(mut self, window: usize) -> Self {
        self.session_window = window.max(1);
        self
    }

    /// Set the per-session deadline ceiling.
    pub fn with_max_session_seconds(mut self, seconds: f64) -> Self {
        self.max_session_seconds = Some(seconds);
        self
    }
}

/// One connected client.
struct Session {
    id: u64,
    /// Writer half; every outbound frame is one locked `write_all`, so
    /// frames from the reader, the streaming callback and the terminal
    /// callback interleave whole, never interleaved byte-wise.
    writer: Mutex<TcpStream>,
    /// Cancel tokens of this session's accepted, not yet terminal jobs, by
    /// job id; its length is the admission window's occupancy.
    jobs: Mutex<BTreeMap<u64, CancelToken>>,
    /// Tripped when the connection drops: orphaned solves stop at their
    /// next iteration boundary instead of running to convergence unread.
    disconnect: CancelToken,
}

impl Session {
    /// Send one frame; errors are surfaced, not panicked (a vanished client
    /// is an expected event, handled by the disconnect token).
    fn send(&self, frame: &Frame) -> Result<(), WireError> {
        let mut writer = lock(&self.writer);
        frame.write_to(&mut *writer)
    }
}

struct ServerShared {
    config: ServeConfig,
    tracer: Tracer,
    metrics: Option<MetricsRegistry>,
    /// The engine every session reader submits into.
    service: EngineService,
    /// Once true, new connections and new `Submit`s are refused.
    shutting: AtomicBool,
    sessions: Mutex<BTreeMap<u64, Arc<Session>>>,
    /// Reader threads not yet known to have finished; finished ones are
    /// dropped as new connections arrive.
    readers: Mutex<Vec<JoinHandle<()>>>,
    next_session: AtomicU64,
    /// A client asked the daemon to stop (`Shutdown` frame); the embedding
    /// process observes it via [`RunningServer::wait_for_shutdown_request`].
    shutdown_request: Mutex<Option<WireShutdownMode>>,
    shutdown_cv: Condvar,
}

impl ServerShared {
    fn count(&self, name: &str) {
        if let Some(metrics) = &self.metrics {
            metrics.inc(name);
        }
    }
}

/// Builder for a [`RunningServer`].
pub struct Server {
    config: ServeConfig,
    tracer: Tracer,
    metrics: Option<MetricsRegistry>,
}

impl Server {
    /// A server with the given configuration (tracing disabled).
    pub fn new(config: ServeConfig) -> Self {
        Self {
            config,
            tracer: Tracer::disabled(),
            metrics: None,
        }
    }

    /// Attach a span tracer (shared with the engine it starts).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach a metrics registry (shared with the engine it starts).
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Bind the listener, start the engine service and the accept loop, and
    /// return the running daemon's handle.
    pub fn bind(self) -> Result<RunningServer, WireError> {
        let listener = TcpListener::bind(&self.config.addr)?;
        let local_addr = listener.local_addr()?;
        let mut engine = Engine::new(self.config.workers).with_tracer(self.tracer.clone());
        if let Some(metrics) = &self.metrics {
            engine = engine.with_metrics(metrics.clone());
        }
        let shared = Arc::new(ServerShared {
            config: self.config,
            tracer: self.tracer,
            metrics: self.metrics,
            service: engine.start(),
            shutting: AtomicBool::new(false),
            sessions: Mutex::new(BTreeMap::new()),
            readers: Mutex::new(Vec::new()),
            next_session: AtomicU64::new(1),
            shutdown_request: Mutex::new(None),
            shutdown_cv: Condvar::new(),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(RunningServer {
            shared,
            accept,
            local_addr,
        })
    }
}

/// Handle to a live daemon.
pub struct RunningServer {
    shared: Arc<ServerShared>,
    accept: JoinHandle<()>,
    local_addr: SocketAddr,
}

impl RunningServer {
    /// The bound address (resolves the ephemeral port of `…:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Block until some client sends a `Shutdown` frame; returns the
    /// requested mode.  The embedding process then calls
    /// [`shutdown`](Self::shutdown).
    pub fn wait_for_shutdown_request(&self) -> WireShutdownMode {
        let mut request = lock(&self.shared.shutdown_request);
        loop {
            if let Some(mode) = *request {
                return mode;
            }
            request = self
                .shared
                .shutdown_cv
                .wait(request)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Whether a client has requested shutdown (non-blocking probe).
    pub fn shutdown_requested(&self) -> Option<WireShutdownMode> {
        *lock(&self.shared.shutdown_request)
    }

    /// Wind the daemon down.  `Drain`: every accepted job runs to its
    /// terminal frame first.  `Abort`: in-flight solves are cancelled at
    /// their next iteration boundary, and queued jobs end
    /// `Stopped(Cancelled)` with no report.  Joins every daemon thread
    /// before returning.
    pub fn shutdown(self, mode: WireShutdownMode) {
        self.shared.shutting.store(true, Ordering::SeqCst);
        // Wake the accept loop out of its blocking accept() with a throwaway
        // connection to ourselves; it re-checks the flag and exits.
        let _ = TcpStream::connect(self.local_addr);
        let _ = self.accept.join();
        // Closing the queue refuses later submits; when the workers are
        // joined, every queued job has sent its terminal frame.
        self.shared.service.shutdown(match mode {
            WireShutdownMode::Drain => ShutdownMode::Drain,
            WireShutdownMode::Abort => ShutdownMode::Abort,
        });
        let sessions: Vec<Arc<Session>> = lock(&self.shared.sessions).values().cloned().collect();
        for session in sessions {
            let _ = session.send(&Frame::ShuttingDown);
            let _ = session.send(&Frame::Goodbye);
            let _ = lock(&session.writer).shutdown(Shutdown::Both);
        }
        let readers: Vec<JoinHandle<()>> = lock(&self.shared.readers).drain(..).collect();
        for reader in readers {
            let _ = reader.join();
        }
    }
}

fn accept_loop(shared: &Arc<ServerShared>, listener: &TcpListener) {
    for connection in listener.incoming() {
        if shared.shutting.load(Ordering::SeqCst) {
            break;
        }
        let stream = match connection {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        let span = shared.tracer.span("serve.accept");
        shared.count("serve.sessions.opened");
        let writer = match stream.try_clone() {
            Ok(writer) => writer,
            Err(_) => {
                span.finish();
                continue;
            }
        };
        let id = shared.next_session.fetch_add(1, Ordering::SeqCst);
        let session = Arc::new(Session {
            id,
            writer: Mutex::new(writer),
            jobs: Mutex::new(BTreeMap::new()),
            disconnect: CancelToken::new(),
        });
        lock(&shared.sessions).insert(id, Arc::clone(&session));
        let reader = {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || session_reader(&shared, &session, stream))
        };
        {
            // A finished thread's stack stays mapped until its handle is
            // joined or dropped, so drop the handles of closed sessions
            // here: connection churn must not grow the daemon.
            let mut readers = lock(&shared.readers);
            readers.retain(|reader| !reader.is_finished());
            readers.push(reader);
        }
        span.finish();
    }
}

fn session_reader(shared: &Arc<ServerShared>, session: &Arc<Session>, mut stream: TcpStream) {
    let span = shared.tracer.span("serve.session");
    loop {
        match Frame::read_from(&mut stream) {
            Ok(Some(frame)) => {
                let frame_span = span.child("serve.frame");
                shared.count("serve.frames.received");
                let keep_going = handle_frame(shared, session, frame);
                frame_span.finish();
                if !keep_going {
                    break;
                }
            }
            // Clean EOF at a frame boundary: the client hung up.
            Ok(None) => break,
            // Desynchronised or corrupt stream: nothing after this byte can
            // be trusted, so the only safe move is to drop the connection.
            Err(_) => {
                let _ = session.send(&Frame::Goodbye);
                break;
            }
        }
    }
    // Orphan cancellation: whatever this session still has in flight stops
    // at its next iteration boundary rather than solving for nobody.
    session.disconnect.cancel();
    for token in lock(&session.jobs).values() {
        token.cancel();
    }
    lock(&shared.sessions).remove(&session.id);
    shared.count("serve.sessions.closed");
    span.finish();
}

/// Handle one inbound frame; returns `false` when the session should end.
fn handle_frame(shared: &Arc<ServerShared>, session: &Arc<Session>, frame: Frame) -> bool {
    match frame {
        Frame::Hello { client: _ } => {
            let _ = session.send(&Frame::Welcome {
                session: session.id,
                banner: shared.config.banner.clone(),
            });
            true
        }
        Frame::Submit { job_id, spec } => {
            handle_submit(shared, session, job_id, &spec);
            true
        }
        Frame::Cancel { job_id } => {
            shared.count("serve.cancel.requests");
            // Unknown ids are ignored: the job may have finished in the gap
            // between the client deciding to cancel and the frame arriving.
            if let Some(token) = lock(&session.jobs).get(&job_id) {
                token.cancel();
                shared.count("serve.jobs.cancelled");
            }
            true
        }
        Frame::Ping { token } => {
            let _ = session.send(&Frame::Pong { token });
            true
        }
        Frame::Shutdown { mode } => {
            shared.shutting.store(true, Ordering::SeqCst);
            {
                let mut request = lock(&shared.shutdown_request);
                request.get_or_insert(mode);
            }
            shared.shutdown_cv.notify_all();
            let _ = session.send(&Frame::ShuttingDown);
            true
        }
        Frame::Goodbye => {
            let _ = session.send(&Frame::Goodbye);
            false
        }
        // Server→client frames arriving at the server are a protocol error;
        // drop the session (the stream is not trustworthy).
        _ => {
            let _ = session.send(&Frame::Goodbye);
            false
        }
    }
}

fn handle_submit(
    shared: &Arc<ServerShared>,
    session: &Arc<Session>,
    job_id: u64,
    spec: &crate::wire::WireJobSpec,
) {
    if shared.shutting.load(Ordering::SeqCst) {
        reject(shared, session, job_id, "daemon is shutting down");
        return;
    }
    let mut job_spec = spec.to_job_spec(shared.config.max_session_seconds);
    if let Err(error) = job_spec.validate() {
        reject(shared, session, job_id, &error.to_string());
        return;
    }
    // Only this reader inserts into `jobs` (terminal callbacks only remove),
    // so neither check below can be invalidated before the insert.
    let (duplicate, occupied) = {
        let jobs = lock(&session.jobs);
        (jobs.contains_key(&job_id), jobs.len())
    };
    // A reused in-flight id would share that job's cancel token and event
    // numbering, and its end would unregister this one.
    if duplicate {
        reject(shared, session, job_id, "job id is already in flight");
        return;
    }
    // Per-session admission window: typed Busy, never a hang.  The reply
    // reports the window occupancy — that is the bound the client hit.
    let window = shared.config.session_window;
    if occupied >= window {
        shared.count("serve.jobs.busy");
        let _ = session.send(&Frame::Busy {
            job_id,
            depth: occupied,
            capacity: window,
        });
        return;
    }
    // Arm this job's cancel token plus the session's disconnect token; both
    // stop the solve at its next iteration boundary, and neither can touch
    // any other session's jobs.
    let token = CancelToken::new();
    job_spec.stop_policy = job_spec
        .stop_policy
        .clone()
        .cancel_token(token.clone())
        .cancel_token(session.disconnect.clone());
    lock(&session.jobs).insert(job_id, token);

    let streamer_session = Arc::clone(session);
    let streamer_shared = Arc::clone(shared);
    let mut seq: u64 = 0;
    let done_session = Arc::clone(session);
    let service_job = ServiceJob::new(job_spec, move |outcome| {
        let frame = match outcome.status {
            JobStatus::Completed(report) => Frame::Done {
                job_id,
                report: Box::new(report),
            },
            JobStatus::Stopped { reason, report } => Frame::Stopped {
                job_id,
                reason,
                report: report.map(Box::new),
            },
            JobStatus::Failed(error) => Frame::JobFailed {
                job_id,
                error: error.to_string(),
            },
            JobStatus::Panicked(message) => Frame::JobFailed {
                job_id,
                error: format!("solve panicked: {message}"),
            },
        };
        // Release the window slot before the terminal frame goes out, so a
        // client that has seen Done/Stopped/JobFailed can submit again
        // immediately without racing the removal into a spurious Busy.
        lock(&done_session.jobs).remove(&job_id);
        let _ = done_session.send(&frame);
    })
    .with_events(move |event: &SolveEvent| {
        streamer_shared.count("serve.events.streamed");
        // The event is forwarded bitwise (f64 as to_bits); a client
        // recording this stream sees exactly the in-process history.
        let _ = streamer_session.send(&Frame::Event {
            job_id,
            seq,
            event: *event,
        });
        seq += 1;
        Flow::Continue
    });

    // Accepted goes out before the job is queued, so the client always
    // observes Accepted before the first Event frame.
    shared.count("serve.jobs.accepted");
    let _ = session.send(&Frame::Accepted { job_id });
    if shared.service.submit(service_job).is_err() {
        // Shutdown closed the queue after the check above: free the window
        // slot, then refuse.
        lock(&session.jobs).remove(&job_id);
        reject(shared, session, job_id, "engine service is shutting down");
    }
}

/// Refuse a `Submit`: count it and tell the client why.
fn reject(shared: &ServerShared, session: &Session, job_id: u64, reason: &str) {
    shared.count("serve.jobs.rejected");
    let _ = session.send(&Frame::Rejected {
        job_id,
        reason: reason.to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_telemetry::Stopwatch;
    use std::time::Duration;

    /// Connection churn must not grow the daemon: the handles of finished
    /// session readers are dropped as new connections arrive.
    #[test]
    fn finished_session_readers_are_reaped() {
        let server = Server::new(ServeConfig::default()).bind().expect("bind");
        let addr = server.local_addr();
        // One connect-and-close cycle, over once the daemon echoes Goodbye.
        let cycle = || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            Frame::Goodbye.write_to(&mut stream).expect("write Goodbye");
            assert!(matches!(
                Frame::read_from(&mut stream),
                Ok(Some(Frame::Goodbye))
            ));
        };
        for _ in 0..200 {
            cycle();
        }
        // Each reader exits right after its echo.  Wait until every filed
        // handle has finished (the last cycle's may not be filed yet).
        let waited = Stopwatch::start();
        while !lock(&server.shared.readers)
            .iter()
            .all(JoinHandle::is_finished)
        {
            assert!(
                waited.elapsed_seconds() < 30.0,
                "a session reader never ended"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // The accept loop files each handle before it accepts again.  So the
        // first cycle below drops every finished handle, and the second
        // cycle's echo proves that the first one's handle is filed.  What can
        // remain is the 200th reader's handle (if it was filed unfinished)
        // and the two new ones.
        cycle();
        cycle();
        let kept = lock(&server.shared.readers).len();
        assert!(kept <= 3, "{kept} reader handles kept after 202 sessions");
        server.shutdown(WireShutdownMode::Drain);
    }
}
