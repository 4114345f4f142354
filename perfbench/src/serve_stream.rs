//! `serve-stream`: an in-process `mffv_serve::Server` on an ephemeral
//! localhost port with the default `ServeConfig`, driven by a closed loop
//! of two connections that each keep two jobs in flight over the public
//! `Frame` codec.  Jobs are a seeded mix of small (95%) and large (5%)
//! Jacobi-preconditioned steady solves over four permeability seeds, and
//! every iteration streams an `Event`, so the cost per job is mostly wire,
//! dispatch, queueing and context-cache work.

use crate::layers;
use crate::metrics::{median, ratio, tail, MetricSet};
use crate::spans::SpanIndex;
use crate::{Checks, Context, Outcome};
use mffv::mesh::workload::{BoundarySpec, PAPER_TOLERANCE};
use mffv::mesh::{Dims, PermeabilityModel, Workload, WorkloadSpec};
use mffv::solver::{NullMonitor, PreconditionerKind, SolveConfig, SolveContext, SolveEvent};
use mffv::telemetry::{MetricsRegistry, Span, Stopwatch, Tracer};
use mffv_serve::{
    BackendSel, Frame, RunningServer, ServeConfig, Server, WireJobSpec, WireShutdownMode,
};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};

const SMALL: Dims = Dims {
    nx: 16,
    ny: 16,
    nz: 8,
};
const LARGE: Dims = Dims {
    nx: 32,
    ny: 32,
    nz: 16,
};
/// Share of large jobs in the mix, per mille.
const LARGE_PERMILLE: u64 = 50;
const PERMEABILITY_SEEDS: usize = 4;
/// Jobs each connection keeps in flight (the default session window).
const IN_FLIGHT: usize = 2;
/// Jobs each connection runs during set-up, before the timed phase.
const WARMUP_JOBS: usize = 4;
/// Every this-many-th job keeps its frames for the codec probes.
const SAMPLE_EVERY: u64 = 64;
/// Codec probe repetitions per sampled job.
const CODEC_REPS: usize = 20;
/// Jobs each connection runs when the serve layer is probed for a workload
/// that does not exercise it.
const PROBE_JOBS: usize = 100;
/// Longest a client waits for the daemon's next frame.
const READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

/// The eight distinct jobs of the mix and the in-process reference result
/// of each.
struct Catalog {
    specs: Vec<WireJobSpec>,
    checksums: Vec<u64>,
}

fn config() -> SolveConfig {
    SolveConfig {
        preconditioner: PreconditionerKind::Jacobi,
        ..SolveConfig::default()
    }
}

fn catalog(seed: u64) -> Catalog {
    let mut specs = Vec::new();
    let mut checksums = Vec::new();
    for dims in [SMALL, LARGE] {
        for k in 0..PERMEABILITY_SEEDS {
            let workload_spec = WorkloadSpec {
                name: format!("serve-{dims}-k{k}"),
                dims,
                spacing: [1.0, 1.0, 1.0],
                permeability: PermeabilityModel::LogNormal {
                    mean_log: 0.0,
                    std_log: 0.5,
                    seed: crate::derive_seed(seed, 20 + k as u64),
                },
                viscosity: 1.0,
                boundary: BoundarySpec::SourceProducer {
                    source_pressure: 1.0,
                    producer_pressure: 0.0,
                },
                tolerance: PAPER_TOLERANCE,
                max_iterations: 10_000,
            };
            let workload = Workload::try_from_spec(&workload_spec).expect("serve spec is valid");
            let mut context = SolveContext::<f64>::new();
            context.solve(&workload, &config(), &mut NullMonitor, &Span::null());
            checksums.push(crate::checksum(context.pressure().as_slice()));
            let mut spec = WireJobSpec::new(workload_spec, BackendSel::HostF64);
            spec.config = config();
            specs.push(spec);
        }
    }
    Catalog { specs, checksums }
}

/// The seeded job mix of one connection: an index into the catalogue.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> usize {
        self.0 = crate::splitmix64(self.0);
        let large = usize::from(self.0 % 1000 < LARGE_PERMILLE);
        large * PERMEABILITY_SEEDS + ((self.0 >> 20) as usize % PERMEABILITY_SEEDS)
    }
}

/// One job in flight, with the client-side timestamps of its stages
/// (seconds on the phase's clock).
struct InFlight {
    spec: usize,
    submitted: f64,
    accepted: Option<f64>,
    first_event: Option<f64>,
    last_event: Option<f64>,
    events: u64,
    sample: Option<Vec<Frame>>,
}

/// Client-side measurements of one connection's phase.
#[derive(Default)]
struct Measured {
    latency_ms: Vec<f64>,
    first_event_ms: Vec<f64>,
    accept_ms: Vec<f64>,
    dispatch_ms: Vec<f64>,
    stream_ms: Vec<f64>,
    done_ms: Vec<f64>,
    events: u64,
    /// Krylov iterations of the completed jobs, and the same weighted by
    /// each job's cell count.
    iterations: u64,
    cell_iterations: f64,
    samples: Vec<Vec<Frame>>,
    checks: Checks,
}

impl Measured {
    fn merge(&mut self, other: Measured) {
        self.latency_ms.extend(other.latency_ms);
        self.first_event_ms.extend(other.first_event_ms);
        self.accept_ms.extend(other.accept_ms);
        self.dispatch_ms.extend(other.dispatch_ms);
        self.stream_ms.extend(other.stream_ms);
        self.done_ms.extend(other.done_ms);
        self.events += other.events;
        self.iterations += other.iterations;
        self.cell_iterations += other.cell_iterations;
        self.samples.extend(other.samples);
        self.checks.merge(other.checks);
    }
}

fn ms(from: f64, to: f64) -> f64 {
    (to - from) * 1e3
}

/// One client connection speaking the wire protocol directly.
struct Connection {
    stream: TcpStream,
    mix: Mix,
    next_job: u64,
}

impl Connection {
    fn open(addr: SocketAddr, name: &str, mix_seed: u64) -> Result<Connection, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        // Small Submit frames must not wait on Nagle's algorithm, and a
        // daemon that stops answering must not hang the benchmark.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Frame::Hello {
            client: name.to_string(),
        }
        .write_to(&mut stream)
        .map_err(|e| e.to_string())?;
        match Frame::read_from(&mut stream) {
            Ok(Some(Frame::Welcome { .. })) => Ok(Connection {
                stream,
                mix: Mix(mix_seed),
                next_job: 1,
            }),
            other => Err(format!("expected Welcome, got {other:?}")),
        }
    }

    fn submit(
        &mut self,
        catalog: &Catalog,
        clock: &Stopwatch,
        in_flight: &mut BTreeMap<u64, InFlight>,
    ) -> bool {
        let spec = self.mix.next();
        let job_id = self.next_job;
        self.next_job += 1;
        let frame = Frame::Submit {
            job_id,
            spec: Box::new(catalog.specs[spec].clone()),
        };
        let submitted = clock.elapsed_seconds();
        if frame.write_to(&mut self.stream).is_err() {
            return false;
        }
        let sample = job_id.is_multiple_of(SAMPLE_EVERY).then(|| vec![frame]);
        in_flight.insert(
            job_id,
            InFlight {
                spec,
                submitted,
                accepted: None,
                first_event: None,
                last_event: None,
                events: 0,
                sample,
            },
        );
        true
    }

    /// Closed loop: keep [`IN_FLIGHT`] jobs outstanding, submitting the next
    /// one whenever a job ends, until `until`; then drain.
    fn drive(&mut self, catalog: &Catalog, clock: &Stopwatch, until: Until) -> Measured {
        let mut m = Measured::default();
        let mut in_flight = BTreeMap::new();
        let mut submitted = 0;
        let more = |submitted: usize| match until {
            Until::Jobs(n) => submitted < n,
            Until::Seconds(s) => clock.elapsed_seconds() < s,
        };
        while in_flight.len() < IN_FLIGHT && more(submitted) {
            if !self.submit(catalog, clock, &mut in_flight) {
                m.checks.record(false, || "submit write failed".to_string());
                return m;
            }
            submitted += 1;
        }
        while !in_flight.is_empty() {
            let frame = match Frame::read_from(&mut self.stream) {
                Ok(Some(frame)) => frame,
                other => {
                    m.checks
                        .record(false, || format!("connection ended mid-run: {other:?}"));
                    return m;
                }
            };
            let now = clock.elapsed_seconds();
            let (job_id, ended) = self.handle(&frame, now, catalog, &mut in_flight, &mut m);
            if let Some(job) = in_flight.get_mut(&job_id) {
                if let Some(sample) = job.sample.as_mut() {
                    sample.push(frame);
                }
            }
            if ended {
                if let Some(job) = in_flight.remove(&job_id) {
                    m.samples.extend(job.sample);
                }
                if more(submitted) {
                    if !self.submit(catalog, clock, &mut in_flight) {
                        m.checks.record(false, || "submit write failed".to_string());
                        return m;
                    }
                    submitted += 1;
                }
            }
        }
        m
    }

    /// Book one inbound frame; returns its job id and whether it ended the
    /// job.  A terminal frame's sample gets the frame after this returns.
    fn handle(
        &self,
        frame: &Frame,
        now: f64,
        catalog: &Catalog,
        in_flight: &mut BTreeMap<u64, InFlight>,
        m: &mut Measured,
    ) -> (u64, bool) {
        let (job_id, ended) = match frame {
            Frame::Accepted { job_id } => (*job_id, false),
            Frame::Event { job_id, .. } => (*job_id, false),
            Frame::Done { job_id, .. }
            | Frame::Busy { job_id, .. }
            | Frame::Rejected { job_id, .. }
            | Frame::Stopped { job_id, .. }
            | Frame::JobFailed { job_id, .. } => (*job_id, true),
            _ => return (0, false),
        };
        let Some(job) = in_flight.get_mut(&job_id) else {
            m.checks.record(false, || {
                format!("{} for unknown job {job_id}", frame.name())
            });
            return (job_id, false);
        };
        match frame {
            Frame::Accepted { .. } => job.accepted = Some(now),
            Frame::Event { seq, event, .. } => {
                if *seq != job.events {
                    m.checks.record(false, || {
                        format!("job {job_id}: event seq {seq}, expected {}", job.events)
                    });
                }
                if matches!(event, SolveEvent::Started { .. }) && job.events > 0 {
                    m.checks
                        .record(false, || format!("job {job_id}: Started mid-stream"));
                }
                job.events += 1;
                m.events += 1;
                job.first_event.get_or_insert(now);
                job.last_event = Some(now);
            }
            Frame::Done { report, .. } => {
                // Started + one Iteration per iteration + Converged.
                let expected_events = report.iterations() as u64 + 2;
                let ok = report.converged() && job.events == expected_events;
                m.checks.record(ok, || {
                    format!(
                        "job {job_id}: converged={} events {} (report says {expected_events})",
                        report.converged(),
                        job.events
                    )
                });
                m.checks.checksum(
                    catalog.checksums[job.spec],
                    crate::checksum(report.pressure.as_slice()),
                    &format!("serve-stream job {job_id} vs in-process SolveContext"),
                );
                m.iterations += report.iterations() as u64;
                m.cell_iterations +=
                    (report.iterations() * report.pressure.dims().num_cells()) as f64;
                m.latency_ms.push(ms(job.submitted, now));
                if let (Some(accepted), Some(first), Some(last)) =
                    (job.accepted, job.first_event, job.last_event)
                {
                    m.first_event_ms.push(ms(job.submitted, first));
                    m.accept_ms.push(ms(job.submitted, accepted));
                    m.dispatch_ms.push(ms(accepted, first));
                    m.stream_ms.push(ms(first, last));
                    m.done_ms.push(ms(last, now));
                }
            }
            other => m.checks.record(false, || {
                format!("job {job_id} ended with {}", other.name())
            }),
        }
        (job_id, ended)
    }

    /// End the session politely and wait for the daemon's echo.
    fn close(mut self) {
        if Frame::Goodbye.write_to(&mut self.stream).is_ok() {
            while let Ok(Some(frame)) = Frame::read_from(&mut self.stream) {
                if matches!(frame, Frame::Goodbye) {
                    break;
                }
            }
        }
    }
}

/// A bound daemon with its connected, warmed-up clients.  Dropping it
/// closes every session and drains the daemon, joining all its threads.
struct Daemon {
    server: Option<RunningServer>,
    connections: Vec<Connection>,
    registry: MetricsRegistry,
}

impl Daemon {
    fn start(cx: &Context<'_>, catalog: &Catalog, tracer: Tracer, warm: &mut Checks) -> Daemon {
        let registry = MetricsRegistry::new();
        let server = Server::new(ServeConfig::default())
            .with_metrics(registry.clone())
            .with_tracer(tracer)
            .bind()
            .expect("bind an ephemeral localhost port");
        let addr = server.local_addr();
        let mut connections: Vec<Connection> = (0..cx.threads())
            .map(|c| {
                Connection::open(
                    addr,
                    &format!("perfbench-{c}"),
                    crate::derive_seed(cx.args.seed, 30 + c as u64),
                )
                .expect("connect to the daemon")
            })
            .collect();
        let warmed = drive_all(&mut connections, catalog, Until::Jobs(WARMUP_JOBS));
        warm.merge(warmed.checks);
        Daemon {
            server: Some(server),
            connections,
            registry,
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        for connection in self.connections.drain(..) {
            connection.close();
        }
        if let Some(server) = self.server.take() {
            server.shutdown(WireShutdownMode::Drain);
        }
    }
}

/// When a connection stops submitting.
#[derive(Clone, Copy)]
enum Until {
    /// After this many jobs.
    Jobs(usize),
    /// Once this many seconds have passed.
    Seconds(f64),
}

/// Drive every connection on its own thread and merge what they measured.
fn drive_all(connections: &mut [Connection], catalog: &Catalog, until: Until) -> Measured {
    let clock = Stopwatch::start();
    let clock = &clock;
    let per_connection: Vec<Measured> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .map(|c| scope.spawn(move || c.drive(catalog, clock, until)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = Measured::default();
    for m in per_connection {
        merged.merge(m);
    }
    merged
}

/// Run the closed loop for `seconds`; returns the measurements and the wall
/// time the phase took.
fn phase(daemon: &mut Daemon, catalog: &Catalog, seconds: f64) -> (Measured, f64) {
    let started = Stopwatch::start();
    let measured = drive_all(&mut daemon.connections, catalog, Until::Seconds(seconds));
    (measured, started.elapsed_seconds())
}

pub fn run(cx: &Context<'_>) -> Outcome {
    let mut checks = Checks::default();
    let ((catalog, mut daemon), setup_seconds) = crate::repeated_setup(|| {
        let catalog = catalog(cx.args.seed);
        let daemon = Daemon::start(cx, &catalog, Tracer::disabled(), &mut checks);
        (catalog, daemon)
    });
    let (untraced, wall) = phase(&mut daemon, &catalog, cx.args.seconds);
    drop(daemon);
    let jobs = untraced.latency_ms.len();
    let mut out = MetricSet::new();
    if !cx.args.trace {
        crate::push_end_to_end(
            &mut out,
            &setup_seconds,
            &untraced.latency_ms,
            jobs as u64,
            wall,
        );
        checks.merge(untraced.checks);
        return Outcome {
            checks,
            metrics: out,
        };
    }

    let tracer = Tracer::new();
    let mut traced_daemon = Daemon::start(cx, &catalog, tracer.clone(), &mut checks);
    let (traced, traced_wall) = phase(&mut traced_daemon, &catalog, cx.traced_seconds());
    let registry = traced_daemon.registry.clone();
    drop(traced_daemon);
    let records = tracer.records();
    let index = SpanIndex::new(&records);
    let triad = cx.triad.expect("traced runs measure the triad first");
    let kernel_s = layers::probe(
        &catalog.specs[0].workload,
        cx.threads(),
        1,
        None,
        triad,
        &mut out,
    );
    let workers = ServeConfig::default().workers;
    crate::push_host(
        cx,
        &mut out,
        layers::working_set_bytes(LARGE.num_cells(), false) * workers as u64,
        cx.threads(),
        cx.threads(),
    );

    // Solver layer, from the traced phase's spans and reports.
    let traced_jobs = traced.latency_ms.len();
    let loop_s = index.total_seconds("cg-loop");
    let iteration_ms = ratio(loop_s * 1e3, traced.iterations as f64);
    out.push(
        "solver.iterations",
        ratio(traced.iterations as f64, traced_jobs as f64),
        "count",
    );
    out.push("solver.iteration_ms", iteration_ms, "ms");
    out.push("solver.unexplained_ms", iteration_ms - kernel_s * 1e3, "ms");
    out.push(
        "solver.cell_iters_per_s",
        ratio(traced.cell_iterations, loop_s),
        "1/s",
    );
    let builds = index.durations_ms("build-operator");
    out.push(
        "solver.build_ms",
        ratio(builds.iter().sum(), builds.len() as f64),
        "ms",
    );
    let hits = registry.counter("engine.context.hits");
    let lookups = hits + registry.counter("engine.context.misses");
    out.push(
        "solver.context_hit_ratio",
        ratio(hits as f64, lookups as f64),
        "ratio",
    );
    out.push("solver.context_lookups", lookups as f64, "count");

    // Engine layer, from the service's queue-wait/execute spans.
    let waits = index.durations_ms("queue-wait");
    let execute_self: Vec<f64> = index
        .named("execute")
        .map(|r| index.self_seconds(r) * 1e3)
        .collect();
    out.push("engine.queue_wait_p50_ms", median(&waits), "ms");
    out.push(
        "engine.execute_p50_ms",
        median(&index.durations_ms("execute")),
        "ms",
    );
    out.push("engine.execute_self_ms", median(&execute_self), "ms");
    out.push(
        "engine.worker_busy_frac",
        ratio(index.total_seconds("execute"), workers as f64 * traced_wall),
        "ratio",
    );
    out.push(
        "engine.queue_high_water",
        registry
            .gauge("engine.service.queue.high_water")
            .unwrap_or(0.0),
        "count",
    );

    // Serve layer: client timestamps of the untraced phase, codec probes on
    // the run's own frames, and the daemon's serve.frame spans.
    push_serve(&untraced, wall, &index, &mut out);
    out.push(
        "telemetry.overhead_pct",
        crate::overhead_pct(
            ratio(jobs as f64, wall),
            ratio(traced_jobs as f64, traced_wall),
            false,
        ),
        "%",
    );
    crate::transient_batch::probe(cx, false, &mut out, &mut checks);
    println!("chrome trace: {}", crate::write_chrome_trace(cx, &tracer));
    checks.merge(untraced.checks);
    checks.merge(traced.checks);
    Outcome {
        checks,
        metrics: out,
    }
}

/// Measure the `serve` layer on [`PROBE_JOBS`] jobs per connection of this
/// workload's mix: for workloads that do not exercise it themselves.
pub fn probe(cx: &Context<'_>, out: &mut MetricSet, checks: &mut Checks) {
    let catalog = catalog(cx.args.seed);
    let tracer = Tracer::new();
    let mut daemon = Daemon::start(cx, &catalog, tracer.clone(), checks);
    let started = Stopwatch::start();
    let measured = drive_all(&mut daemon.connections, &catalog, Until::Jobs(PROBE_JOBS));
    let wall = started.elapsed_seconds();
    drop(daemon);
    let records = tracer.records();
    push_serve(&measured, wall, &SpanIndex::new(&records), out);
    checks.merge(measured.checks);
}

fn push_serve(m: &Measured, wall: f64, index: &SpanIndex<'_>, out: &mut MetricSet) {
    let (tail_pct, tail_ms) = tail(&m.latency_ms).unwrap_or((0.0, 0.0));
    out.push("serve.jobs", m.latency_ms.len() as f64, "count");
    out.push("serve.job_tail_ms", tail_ms, "ms");
    out.push("serve.job_tail_pct", tail_pct, "%");
    out.push("serve.first_event_p50_ms", median(&m.first_event_ms), "ms");
    out.push("serve.accept_ms", median(&m.accept_ms), "ms");
    out.push("serve.dispatch_ms", median(&m.dispatch_ms), "ms");
    out.push("serve.stream_ms", median(&m.stream_ms), "ms");
    out.push("serve.done_ms", median(&m.done_ms), "ms");
    out.push("serve.events_per_s", ratio(m.events as f64, wall), "1/s");

    let mut bytes = Vec::new();
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    for frames in &m.samples {
        let wire: Vec<Vec<u8>> = frames.iter().map(Frame::to_wire_bytes).collect();
        bytes.push(wire.iter().map(Vec::len).sum::<usize>() as f64);
        let started = Stopwatch::start();
        for _ in 0..CODEC_REPS {
            for frame in frames {
                std::hint::black_box(frame.to_wire_bytes());
            }
        }
        encode_us.push(started.elapsed_seconds() * 1e6 / CODEC_REPS as f64);
        let started = Stopwatch::start();
        for _ in 0..CODEC_REPS {
            for w in &wire {
                std::hint::black_box(Frame::from_wire_bytes(w).expect("own frames decode"));
            }
        }
        decode_us.push(started.elapsed_seconds() * 1e6 / CODEC_REPS as f64);
    }
    out.push("serve.bytes_per_job", median(&bytes), "bytes");
    out.push("serve.frame_encode_us", median(&encode_us), "us");
    out.push("serve.frame_decode_us", median(&decode_us), "us");
    out.push(
        "serve.frame_ms",
        median(&index.durations_ms("serve.frame")),
        "ms",
    );
}
