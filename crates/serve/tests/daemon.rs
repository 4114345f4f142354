//! End-to-end daemon tests over real sockets: streamed-event bitwise
//! fidelity on every backend, typed Busy back-pressure, per-job cancel
//! isolation, concurrent-client fairness under a full queue, deadline
//! ceilings and drain shutdown.

use mffv_mesh::WorkloadSpec;
use mffv_serve::frame::{Frame, WireShutdownMode};
use mffv_serve::wire::{BackendSel, WireJobSpec, WirePolicy};
use mffv_serve::{Client, ClientControl, JobEnd, RunningServer, ServeConfig, Server};
use mffv_solver::backend::SolveRequest;
use mffv_solver::monitor::{RecordingMonitor, SolveEvent, StopReason};
use std::net::TcpStream;

fn start(config: ServeConfig) -> RunningServer {
    Server::new(config).bind().expect("bind")
}

fn quick_spec(backend: BackendSel) -> WireJobSpec {
    WireJobSpec::new(WorkloadSpec::quickstart().scaled(2), backend)
}

/// A job that runs for a long time unless stopped: a scaled-up grid (so
/// every CG iteration costs real wall-clock) with an unreachable tolerance.
/// CG's numeric-breakdown guard eventually ends it even unstopped, but only
/// after thousands of iterations — far beyond every cancel/deadline in
/// these tests.
fn plug_spec() -> WireJobSpec {
    WireJobSpec::new(
        WorkloadSpec {
            name: "plug-48x48x24".to_string(),
            dims: mffv_mesh::Dims::new(48, 48, 24),
            tolerance: 1e-30,
            max_iterations: 500_000,
            ..WorkloadSpec::quickstart()
        },
        BackendSel::HostF64,
    )
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
            .with_queue_capacity(1)
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
    let server = start(
        ServeConfig::default()
            .with_workers(2)
            .with_queue_capacity(4),
    );
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

/// One worker, a capacity-1 engine queue, and two clients each submitting
/// two jobs: the round-robin dispatcher interleaves sessions, so both
/// clients finish all their work even though the queue never has room for
/// one session's whole backlog.
#[test]
fn concurrent_clients_both_progress_under_a_full_queue() {
    let server = start(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(1)
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

    // A job that takes a little while (bounded by its iteration budget), on
    // a raw stream so we can interleave the shutdown request.
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
    let mut bounded_plug = plug_spec();
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
            Some(Frame::Done { job_id: 7, .. }) => {
                terminal = Some(StopReason::IterationBudget);
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
