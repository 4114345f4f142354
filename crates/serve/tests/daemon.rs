//! End-to-end daemon tests over real sockets: streamed-event bitwise
//! fidelity on every backend, typed Busy back-pressure, duplicate job ids,
//! per-job cancel isolation, concurrent-client progress with the worker
//! busy, deadline ceilings, and drain and abort shutdown.

use mffv_mesh::workload::BoundarySpec;
use mffv_mesh::{CellIndex, Dims, TransientSpec, Well, WellSet, WorkloadSpec};
use mffv_serve::frame::{Frame, WireShutdownMode};
use mffv_serve::wire::{BackendSel, WireJobSpec, WirePolicy};
use mffv_serve::{Client, ClientControl, JobEnd, RunningServer, ServeConfig, Server};
use mffv_solver::backend::SolveRequest;
use mffv_solver::monitor::{RecordingMonitor, SolveEvent, StopReason};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};

fn start(config: ServeConfig) -> RunningServer {
    Server::new(config).bind().expect("bind")
}

/// A raw-frame session past its `Hello`/`Welcome` handshake.
fn raw_session(addr: SocketAddr, client: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    Frame::Hello {
        client: client.into(),
    }
    .write_to(&mut stream)
    .unwrap();
    assert!(matches!(
        Frame::read_from(&mut stream).unwrap(),
        Some(Frame::Welcome { .. })
    ));
    stream
}

fn submit(stream: &mut TcpStream, job_id: u64, spec: WireJobSpec) {
    Frame::Submit {
        job_id,
        spec: Box::new(spec),
    }
    .write_to(stream)
    .unwrap();
}

/// The next frame that is not an `Event` of job `streaming`.
fn next_past_events(stream: &mut TcpStream, streaming: u64) -> Frame {
    loop {
        match Frame::read_from(stream).unwrap() {
            Some(Frame::Event { job_id, .. }) if job_id == streaming => continue,
            Some(frame) => return frame,
            None => panic!("eof"),
        }
    }
}

fn quick_spec(backend: BackendSel) -> WireJobSpec {
    WireJobSpec::new(WorkloadSpec::quickstart().scaled(2), backend)
}

/// A job that only a cancel or a deadline can end: a million one-second
/// transient steps on a 4×4×2 grid.  Each step is a cold-started CG capped
/// at 20 iterations, far short of its 1e-300 tolerance, and an injector
/// with no Dirichlet boundary keeps the pressure rising, so every step
/// iterates.  A steady plug cannot do this: CG on a steady problem
/// converges, even to 1e-300, within seconds.
fn plug_spec() -> WireJobSpec {
    let mut spec = WireJobSpec::new(
        WorkloadSpec {
            name: "plug-4x4x2".to_string(),
            dims: Dims::new(4, 4, 2),
            boundary: BoundarySpec::None,
            tolerance: 1e-300,
            max_iterations: 20,
            ..WorkloadSpec::quickstart()
        },
        BackendSel::HostF64,
    );
    let injector = Well::rate("inj", CellIndex::new(1, 1, 0), 1.0);
    spec.transient = Some(
        TransientSpec::new(1e6, 1.0, 1e-3)
            .with_wells(WellSet::empty().with(injector))
            .with_initial_pressure(0.0)
            .cold_start(),
    );
    spec
}

#[test]
fn streamed_events_are_bitwise_the_inprocess_history_on_every_backend() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();
    for backend in [
        BackendSel::HostF64,
        BackendSel::GpuRefA100,
        BackendSel::Dataflow,
    ] {
        let spec = quick_spec(backend);
        let mut client = Client::connect(addr, "fidelity").expect("connect");
        let run = client
            .run_job(&spec, |_, _| ClientControl::Continue)
            .expect("run");
        client.close();
        assert!(run.is_done(), "{:?} did not finish: {:?}", backend, run.end);

        // The in-process ground truth: the identical JobSpec observed by a
        // RecordingMonitor on this thread.
        let mut recorder = RecordingMonitor::new();
        let report = spec
            .to_job_spec(None)
            .execute(&mut SolveRequest::new().monitor(&mut recorder))
            .expect("in-process solve");

        assert_eq!(
            run.events, recorder.events,
            "{backend:?}: socket stream != in-process history"
        );
        // Belt and braces: residuals compared at the bit level, so -0.0,
        // subnormals etc. cannot hide behind float equality.
        let bits = |events: &[SolveEvent]| -> Vec<u64> {
            events
                .iter()
                .filter_map(|e| match e {
                    SolveEvent::Started { initial_rr } => Some(initial_rr.to_bits()),
                    SolveEvent::Iteration { rr, .. } => Some(rr.to_bits()),
                    SolveEvent::Converged { rr, .. } => Some(rr.to_bits()),
                    SolveEvent::Stopped(_) => None,
                })
                .collect()
        };
        assert_eq!(bits(&run.events), bits(&recorder.events));
        // And the shipped report matches the in-process one bitwise too.
        let streamed_report = run.report().expect("report");
        assert_eq!(streamed_report.backend, report.backend);
        let field_bits = |r: &mffv_solver::backend::SolveReport| -> Vec<u64> {
            r.pressure.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(field_bits(streamed_report), field_bits(&report));
    }
    server.shutdown(WireShutdownMode::Drain);
}

/// Raw-frame session: window 1 means a second outstanding Submit gets a
/// typed Busy immediately, while the first job keeps running and stays
/// cancellable.
#[test]
fn a_full_session_window_is_a_typed_busy_not_a_hang() {
    let server = start(
        ServeConfig::default()
            .with_workers(1)
            .with_session_window(1),
    );
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    Frame::Hello {
        client: "busy-test".into(),
    }
    .write_to(&mut stream)
    .unwrap();
    assert!(matches!(
        Frame::read_from(&mut stream).unwrap(),
        Some(Frame::Welcome { .. })
    ));

    Frame::Submit {
        job_id: 1,
        spec: Box::new(plug_spec()),
    }
    .write_to(&mut stream)
    .unwrap();
    assert!(matches!(
        Frame::read_from(&mut stream).unwrap(),
        Some(Frame::Accepted { job_id: 1 })
    ));
    // Wait for the first event so the plug is demonstrably in flight.
    match Frame::read_from(&mut stream).unwrap() {
        Some(Frame::Event { job_id: 1, .. }) => {}
        Some(other) => panic!("unexpected {} before first event", other.name()),
        None => panic!("eof"),
    }

    // Window full → typed Busy echoing the window occupancy.
    Frame::Submit {
        job_id: 2,
        spec: Box::new(quick_spec(BackendSel::HostF64)),
    }
    .write_to(&mut stream)
    .unwrap();
    loop {
        match Frame::read_from(&mut stream).unwrap() {
            Some(Frame::Busy {
                job_id: 2,
                depth,
                capacity,
            }) => {
                assert_eq!((depth, capacity), (1, 1));
                break;
            }
            Some(Frame::Event { job_id: 1, .. }) => continue,
            Some(other) => panic!("expected Busy, got {}", other.name()),
            None => panic!("eof"),
        }
    }

    // Cancel the plug; it stops at its next iteration boundary.
    Frame::Cancel { job_id: 1 }.write_to(&mut stream).unwrap();
    loop {
        match Frame::read_from(&mut stream).unwrap() {
            Some(Frame::Stopped {
                job_id: 1, reason, ..
            }) => {
                assert_eq!(reason, StopReason::Cancelled);
                break;
            }
            Some(Frame::Event { job_id: 1, .. }) => continue,
            Some(other) => panic!("expected Stopped, got {}", other.name()),
            None => panic!("eof"),
        }
    }

    // The window is free again: the same session can now submit and finish.
    Frame::Submit {
        job_id: 3,
        spec: Box::new(quick_spec(BackendSel::HostF64)),
    }
    .write_to(&mut stream)
    .unwrap();
    loop {
        match Frame::read_from(&mut stream).unwrap() {
            Some(Frame::Accepted { job_id: 3 }) | Some(Frame::Event { job_id: 3, .. }) => continue,
            Some(Frame::Done { job_id: 3, .. }) => break,
            Some(other) => panic!("unexpected {}", other.name()),
            None => panic!("eof"),
        }
    }
    Frame::Goodbye.write_to(&mut stream).unwrap();
    server.shutdown(WireShutdownMode::Abort);
}

/// Two clients, two workers: one cancels mid-flight, the other's solve is
/// untouched and converges — cancellation is strictly per-job.
#[test]
fn cancel_stops_only_the_cancelling_clients_solve() {
    let server = start(ServeConfig::default().with_workers(2));
    let addr = server.local_addr();

    let steady = std::thread::spawn(move || {
        let mut client = Client::connect(addr, "steady").expect("connect");
        let run = client
            .run_job(&quick_spec(BackendSel::HostF64), |_, _| {
                ClientControl::Continue
            })
            .expect("run");
        client.close();
        run
    });

    let mut canceller = Client::connect(addr, "canceller").expect("connect");
    let run = canceller
        .run_job(&plug_spec(), |_, event| {
            // Cancel after a handful of iterations; the stop must land at an
            // iteration boundary shortly after.
            match event {
                SolveEvent::Iteration { k, .. } if *k >= 3 => ClientControl::Cancel,
                _ => ClientControl::Continue,
            }
        })
        .expect("run");
    canceller.close();
    match run.end {
        JobEnd::Stopped { reason, .. } => assert_eq!(reason, StopReason::Cancelled),
        other => panic!("canceller expected Stopped(Cancelled), got {other:?}"),
    }
    // Boundary semantics: the stream ends with Stopped(Cancelled) and only a
    // bounded overshoot past the cancel point (frames already in flight).
    assert!(
        matches!(
            run.events.last(),
            Some(SolveEvent::Stopped(StopReason::Cancelled))
        ),
        "stream should end with the Stopped event"
    );

    let steady_run = steady.join().expect("steady thread");
    assert!(
        steady_run.is_done(),
        "steady client was affected by the cancel: {:?}",
        steady_run.end
    );
}

/// One worker and two clients each submitting two jobs.  Jobs reach the
/// engine queue in admission order; the per-session window, not a
/// round-robin, caps how many jobs either session can hold ahead of the
/// other, so both clients finish all their work.
#[test]
fn concurrent_clients_both_progress_under_a_full_queue() {
    let server = start(
        ServeConfig::default()
            .with_workers(1)
            .with_session_window(2),
    );
    let addr = server.local_addr();
    let clients: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, &format!("client-{i}")).expect("connect");
                let mut done = 0;
                for _ in 0..2 {
                    let run = client
                        .run_job(&quick_spec(BackendSel::HostF64), |_, _| {
                            ClientControl::Continue
                        })
                        .expect("run");
                    if run.is_done() {
                        done += 1;
                    }
                }
                client.close();
                done
            })
        })
        .collect();
    for handle in clients {
        assert_eq!(handle.join().expect("client thread"), 2);
    }
    server.shutdown(WireShutdownMode::Drain);
}

/// The server's per-session deadline ceiling stops a runaway job even when
/// the client asked for no deadline at all.
#[test]
fn the_session_deadline_ceiling_stops_runaway_jobs() {
    let server = start(ServeConfig::default().with_max_session_seconds(0.05));
    let mut client = Client::connect(server.local_addr(), "deadline").expect("connect");
    let spec = plug_spec();
    assert!(spec.policy.is_empty(), "client asked for no policy");
    let run = client
        .run_job(&spec, |_, _| ClientControl::Continue)
        .expect("run");
    client.close();
    match run.end {
        JobEnd::Stopped { reason, .. } => assert_eq!(reason, StopReason::DeadlineExpired),
        other => panic!("expected Stopped(DeadlineExpired), got {other:?}"),
    }
    server.shutdown(WireShutdownMode::Drain);
}

/// Refuse-then-drain: after a Shutdown frame the daemon rejects new
/// submissions, but a job accepted before the request still runs to its
/// terminal frame under Drain.
#[test]
fn drain_shutdown_finishes_accepted_work_and_refuses_new_work() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();

    // A steady job that its 200-iteration budget ends: to its 1e-300
    // tolerance CG needs thousands of iterations.  A raw stream lets the
    // test interleave the shutdown request.
    let mut stream = TcpStream::connect(addr).expect("connect");
    Frame::Hello {
        client: "drain".into(),
    }
    .write_to(&mut stream)
    .unwrap();
    assert!(matches!(
        Frame::read_from(&mut stream).unwrap(),
        Some(Frame::Welcome { .. })
    ));
    let mut bounded_plug = WireJobSpec::new(
        WorkloadSpec {
            name: "steady-48x48x24".to_string(),
            dims: Dims::new(48, 48, 24),
            tolerance: 1e-300,
            ..WorkloadSpec::quickstart()
        },
        BackendSel::HostF64,
    );
    bounded_plug.policy = WirePolicy {
        iteration_budget: Some(200),
        ..WirePolicy::default()
    };
    Frame::Submit {
        job_id: 7,
        spec: Box::new(bounded_plug),
    }
    .write_to(&mut stream)
    .unwrap();
    assert!(matches!(
        Frame::read_from(&mut stream).unwrap(),
        Some(Frame::Accepted { job_id: 7 })
    ));

    // Another client asks the daemon to stop…
    let mut admin = Client::connect(addr, "admin").expect("connect");
    admin
        .request_shutdown(WireShutdownMode::Drain)
        .expect("shutdown request");
    assert_eq!(
        server.shutdown_requested(),
        Some(WireShutdownMode::Drain),
        "embedder observes the request"
    );

    // …after which new submissions on the first session are refused…
    Frame::Submit {
        job_id: 8,
        spec: Box::new(quick_spec(BackendSel::HostF64)),
    }
    .write_to(&mut stream)
    .unwrap();

    // …while the accepted job still reaches its terminal frame.
    let terminal;
    let mut rejected = false;
    loop {
        match Frame::read_from(&mut stream).unwrap() {
            Some(Frame::Event { job_id: 7, .. }) => continue,
            Some(Frame::Rejected { job_id: 8, .. }) => rejected = true,
            Some(Frame::Stopped {
                job_id: 7, reason, ..
            }) => {
                terminal = Some(reason);
                break;
            }
            Some(Frame::ShuttingDown) => continue,
            Some(other) => panic!("unexpected {}", other.name()),
            None => panic!("eof before the accepted job's terminal frame"),
        }
    }
    assert!(rejected, "post-shutdown submit was not refused");
    assert_eq!(terminal, Some(StopReason::IterationBudget));
    server.shutdown(WireShutdownMode::Drain);
}

/// A `Submit` that reuses the id of a job still in flight is `Rejected`:
/// the running job keeps its cancel token, and the id is free again once
/// that job has ended.
#[test]
fn a_duplicate_in_flight_job_id_is_rejected() {
    let server = start(ServeConfig::default());
    let mut stream = raw_session(server.local_addr(), "duplicate-id");

    submit(&mut stream, 1, plug_spec());
    assert!(matches!(
        Frame::read_from(&mut stream).unwrap(),
        Some(Frame::Accepted { job_id: 1 })
    ));
    submit(&mut stream, 1, quick_spec(BackendSel::HostF64));
    match next_past_events(&mut stream, 1) {
        Frame::Rejected { job_id: 1, .. } => {}
        other => panic!("expected Rejected, got {}", other.name()),
    }

    // The cancel still reaches the plug.
    Frame::Cancel { job_id: 1 }.write_to(&mut stream).unwrap();
    match next_past_events(&mut stream, 1) {
        Frame::Stopped {
            job_id: 1, reason, ..
        } => assert_eq!(reason, StopReason::Cancelled),
        other => panic!("expected Stopped, got {}", other.name()),
    }

    // With the plug ended, id 1 is accepted again.
    submit(&mut stream, 1, quick_spec(BackendSel::HostF64));
    assert!(matches!(
        Frame::read_from(&mut stream).unwrap(),
        Some(Frame::Accepted { job_id: 1 })
    ));
    match next_past_events(&mut stream, 1) {
        Frame::Done { job_id: 1, .. } => {}
        other => panic!("expected Done, got {}", other.name()),
    }
    Frame::Goodbye.write_to(&mut stream).unwrap();
    server.shutdown(WireShutdownMode::Drain);
}

/// Abort has one outcome for every accepted job: the running plug and the
/// job queued behind it both end `Stopped(Cancelled)`, the queued one with
/// no report, each with exactly one terminal frame before `Goodbye`.
#[test]
fn abort_stops_running_and_queued_jobs_alike() {
    let server = start(
        ServeConfig::default()
            .with_workers(1)
            .with_session_window(2),
    );
    let mut stream = raw_session(server.local_addr(), "abort");

    submit(&mut stream, 1, plug_spec());
    assert!(matches!(
        Frame::read_from(&mut stream).unwrap(),
        Some(Frame::Accepted { job_id: 1 })
    ));
    // The plug is running once its first event arrives.
    assert!(matches!(
        Frame::read_from(&mut stream).unwrap(),
        Some(Frame::Event { job_id: 1, .. })
    ));
    submit(&mut stream, 2, quick_spec(BackendSel::HostF64));
    match next_past_events(&mut stream, 1) {
        Frame::Accepted { job_id: 2 } => {}
        other => panic!("expected Accepted, got {}", other.name()),
    }
    // The reader handles frames in order, so its Pong proves that job 2's
    // submit has returned: the job waits in the engine queue.
    Frame::Ping { token: 7 }.write_to(&mut stream).unwrap();
    match next_past_events(&mut stream, 1) {
        Frame::Pong { token: 7 } => {}
        other => panic!("expected Pong, got {}", other.name()),
    }

    // Keep reading while the daemon shuts down: a worker blocked on a full
    // socket would never reach its next iteration boundary.
    let shutdown = std::thread::spawn(move || server.shutdown(WireShutdownMode::Abort));
    let mut ends: BTreeMap<u64, (StopReason, bool)> = BTreeMap::new();
    loop {
        match next_past_events(&mut stream, 1) {
            Frame::Stopped {
                job_id,
                reason,
                report,
            } => {
                let first = ends.insert(job_id, (reason, report.is_some()));
                assert!(first.is_none(), "job {job_id} ended twice");
            }
            Frame::ShuttingDown => continue,
            Frame::Goodbye => break,
            other => panic!("unexpected {} during abort", other.name()),
        }
    }
    assert!(matches!(Frame::read_from(&mut stream), Ok(None)));
    shutdown.join().expect("shutdown thread");
    assert_eq!(ends.len(), 2, "{ends:?}");
    assert_eq!(ends[&1].0, StopReason::Cancelled);
    assert_eq!(ends[&2], (StopReason::Cancelled, false));
}
