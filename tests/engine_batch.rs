//! Engine-level integration through the public `mffv` API: batch results must
//! be **bitwise identical** across worker counts and against serial
//! `Simulation::run` executions of the same specs (determinism under
//! concurrency), and a panicking job must be reported as failed without
//! poisoning the pool.

use mffv::engine::{ServiceJob, ShutdownMode};
use mffv::prelude::*;
use mffv_mesh::workload::BoundarySpec;
use mffv_mesh::CellIndex;

/// A 12-job sweep (3 grids × 2 permeability seeds × 2 backends) over a
/// stochastic log-normal workload, so the seed axis genuinely changes the
/// problem each job solves.
fn sweep_jobs() -> Vec<JobSpec> {
    let base = WorkloadSpec {
        name: "engine-itest".to_string(),
        permeability: PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 0.4,
            seed: 0,
        },
        tolerance: 1e-8,
        ..WorkloadSpec::quickstart()
    };
    SweepBuilder::new(base)
        .grids([
            Dims::new(8, 8, 6),
            Dims::new(10, 8, 8),
            Dims::new(12, 10, 8),
        ])
        .seeds([1, 2])
        .backends([Backend::host(), Backend::dataflow()])
        .jobs()
}

fn pressure_bits(report: &mffv::SolveReport) -> Vec<u64> {
    report
        .pressure
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn batch_results_are_bitwise_identical_across_worker_counts_and_to_serial_runs() {
    let jobs = sweep_jobs();
    assert_eq!(jobs.len(), 12);

    // Serial reference: each job's effective spec solved through the facade.
    let serial: Vec<mffv::SolveReport> = jobs
        .iter()
        .map(|job| {
            Simulation::from_spec(&job.effective_spec())
                .backend(job.backend)
                .run()
                .expect("serial solve failed")
        })
        .collect();

    for workers in [1usize, 2, 8] {
        let batch = Engine::new(workers).run(jobs.clone());
        assert_eq!(batch.jobs(), 12, "{workers} workers");
        assert!(batch.all_succeeded(), "{workers} workers");
        assert_eq!(batch.workers, workers);
        for (i, (outcome, reference)) in batch.outcomes.iter().zip(serial.iter()).enumerate() {
            assert_eq!(outcome.index, i, "{workers} workers: order must be stable");
            let report = outcome.report().unwrap();
            assert_eq!(
                report.backend, reference.backend,
                "{workers} workers, job {i}"
            );
            assert_eq!(
                report.iterations(),
                reference.iterations(),
                "{workers} workers, job {i}"
            );
            assert_eq!(
                pressure_bits(report),
                pressure_bits(reference),
                "{workers} workers, job {i}: pressure must be bitwise identical"
            );
        }
    }
}

fn history_bits(report: &mffv::SolveReport) -> Vec<u64> {
    report
        .history
        .residual_norms_squared
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn context_pooling_is_bitwise_invisible_across_worker_counts() {
    // Engine workers keep warm solve contexts (keyed operator cache +
    // reusable scratch) across jobs.  That must be a pure performance
    // change: every report — residual history and pressure field — must
    // match a serial fresh-context execution of the same job bit for bit,
    // on any worker count.
    let jobs = sweep_jobs();
    let fresh: Vec<mffv::SolveReport> = jobs
        .iter()
        .map(|job| job.execute(&mut SolveRequest::new()).expect("serial solve"))
        .collect();
    for workers in [1usize, 2, 8] {
        let pooled = Engine::new(workers).run(jobs.clone());
        assert!(pooled.all_succeeded(), "{workers} workers pooled");
        for (i, (a, b)) in pooled.outcomes.iter().zip(&fresh).enumerate() {
            let ra = a.report().unwrap();
            assert_eq!(
                history_bits(ra),
                history_bits(b),
                "{workers} workers, job {i}: residual history must be bitwise identical"
            );
            assert_eq!(
                pressure_bits(ra),
                pressure_bits(b),
                "{workers} workers, job {i}: pressure must be bitwise identical"
            );
        }
    }
}

/// A sealed, heterogeneous 12×10×6 reservoir for the transient jobs.
fn sealed_reservoir(name: &str) -> WorkloadSpec {
    WorkloadSpec {
        name: name.to_string(),
        dims: Dims::new(12, 10, 6),
        boundary: BoundarySpec::None,
        permeability: PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 0.5,
            seed: 3,
        },
        tolerance: 1e-16,
        ..WorkloadSpec::quickstart()
    }
}

/// The sealed reservoir with an injector that shuts in part-way and a BHP
/// producer, stepped with a ramped `dt`: the step operator's diagonal shift
/// changes on almost every step.
fn ramped_transient_job(name: &str, preconditioner: PreconditionerKind) -> JobSpec {
    let spec = sealed_reservoir(name);
    let transient = TransientSpec::new(3.0, 0.1, 1e-3)
        .with_dt_policy(DtPolicy::ramp(0.1, 1.5, 1.0))
        .with_wells(
            WellSet::empty()
                .with(Well::rate("inj", CellIndex::new(2, 2, 1), 1.0).scheduled(0.0, 1.5))
                .with(Well::bhp("prod", CellIndex::new(9, 7, 4), 5.0, 0.5)),
        )
        .with_initial_pressure(10.0);
    JobSpec::transient(spec, Backend::host(), transient).with_preconditioner(preconditioner)
}

/// `job` on a 24×24×8 grid: 4608 cells, more than one slab, so a multigrid
/// hierarchy has two levels and its smoother and coarse-level shift swap run
/// (on 12×10×6 it has one).
fn wide(job: JobSpec) -> JobSpec {
    JobSpec {
        workload_spec: WorkloadSpec {
            dims: Dims::new(24, 24, 8),
            ..job.workload_spec
        },
        ..job
    }
}

#[test]
fn a_ramped_mg_transient_job_builds_its_operator_once() {
    for job in [
        ramped_transient_job("ramped-mg", PreconditionerKind::Mg),
        wide(ramped_transient_job("wide-mg", PreconditionerKind::Mg)),
    ] {
        let steps = job.transient.as_ref().unwrap().num_steps();
        assert!(steps > 3);
        let mut cache = SolveContextCache::new();
        let report = job
            .execute(&mut SolveRequest::new().cache(&mut cache))
            .unwrap();
        assert!(report.converged());
        // One build; every step's in-place shift swap is a hit.
        let stats = cache.f64_context.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits as usize, steps - 1);
    }
}

#[test]
fn engine_transient_jobs_match_simulation_transient_bitwise() {
    // Repeated specs and an interleaved steady job make workers reuse (and
    // re-key) their warm contexts between transient runs.
    let jobs = vec![
        ramped_transient_job("ramped-jacobi", PreconditionerKind::Jacobi),
        ramped_transient_job("ramped-mg", PreconditionerKind::Mg),
        JobSpec::new(WorkloadSpec::quickstart(), Backend::host()),
        ramped_transient_job("ramped-mg", PreconditionerKind::Mg),
        ramped_transient_job("ramped-jacobi", PreconditionerKind::Jacobi),
        ramped_transient_job("ramped-cg", PreconditionerKind::None),
        wide(ramped_transient_job("wide-mg", PreconditionerKind::Mg)),
        wide(ramped_transient_job("wide-mg", PreconditionerKind::Mg)),
    ];
    let reference: Vec<Option<TransientReport>> = jobs
        .iter()
        .map(|job| {
            job.transient.as_ref().map(|spec| {
                Simulation::new(Workload::try_from_spec(&job.effective_spec()).unwrap())
                    .preconditioner(job.solve_config.preconditioner)
                    .transient(spec)
                    .unwrap()
            })
        })
        .collect();
    for workers in [1usize, 2] {
        let batch = Engine::new(workers).run(jobs.clone());
        assert!(batch.all_succeeded(), "{workers} workers");
        for (i, (outcome, reference)) in batch.outcomes.iter().zip(&reference).enumerate() {
            let Some(reference) = reference else { continue };
            let report = outcome.report().unwrap();
            let expected = reference.summary_report();
            assert_eq!(
                history_bits(report),
                history_bits(&expected),
                "{workers} workers, job {i}: merged step histories"
            );
            assert_eq!(
                pressure_bits(report),
                pressure_bits(&expected),
                "{workers} workers, job {i}: final pressure"
            );
        }
    }
}

#[test]
fn transient_jobs_differing_only_in_compressibility_keep_their_own_shift() {
    // Fixed Δt and always-on wells: every run ends on the Δt and wells it
    // starts with, so consecutive jobs on the one worker share a context key
    // and differ only in the compressibility folded into the step's shift.
    let transient = TransientSpec::new(1.0, 0.25, 1e-3)
        .with_wells(
            WellSet::empty()
                .with(Well::rate("inj", CellIndex::new(2, 2, 1), 1.0))
                .with(Well::bhp("prod", CellIndex::new(9, 7, 4), 5.0, 0.5)),
        )
        .with_initial_pressure(10.0);
    // On 12×10×6 the MG hierarchy is one level; the 24×24×8 set also carries
    // the shift down to coarse levels.
    let jobs: Vec<JobSpec> = [
        (PreconditionerKind::Jacobi, Dims::new(12, 10, 6)),
        (PreconditionerKind::Mg, Dims::new(12, 10, 6)),
        (PreconditionerKind::Mg, Dims::new(24, 24, 8)),
    ]
    .into_iter()
    .flat_map(|(preconditioner, grid)| {
        SweepBuilder::new(sealed_reservoir("ct-sweep"))
            .grids([grid])
            .transient(transient.clone())
            .compressibilities([1e-3, 1e-5, 1e-3])
            .preconditioners([preconditioner])
            .jobs()
    })
    .collect();
    let batch = Engine::new(1).run(jobs.clone());
    assert!(batch.all_succeeded());
    for (i, (outcome, job)) in batch.outcomes.iter().zip(&jobs).enumerate() {
        let expected = Simulation::new(Workload::try_from_spec(&job.effective_spec()).unwrap())
            .preconditioner(job.solve_config.preconditioner)
            .transient(job.transient.as_ref().unwrap())
            .unwrap()
            .summary_report();
        let report = outcome.report().unwrap();
        assert_eq!(
            history_bits(report),
            history_bits(&expected),
            "job {i}: merged step histories"
        );
        assert_eq!(
            pressure_bits(report),
            pressure_bits(&expected),
            "job {i}: final pressure"
        );
    }
}

#[test]
fn panicking_and_invalid_jobs_are_reported_without_poisoning_the_pool() {
    let good = JobSpec::new(WorkloadSpec::quickstart().scaled(2), Backend::host());
    // An empty layer list is rejected at job intake with a typed error.
    let no_layers = JobSpec::new(
        WorkloadSpec {
            permeability: PermeabilityModel::Layered {
                layer_values: Vec::new(),
            },
            ..WorkloadSpec::quickstart().scaled(2)
        },
        Backend::host(),
    );
    // So is a zero iteration cap.
    let invalid = JobSpec::new(
        WorkloadSpec {
            max_iterations: 0,
            ..WorkloadSpec::quickstart().scaled(2)
        },
        Backend::host(),
    );
    let jobs = vec![good.clone(), no_layers, good.clone(), invalid, good.clone()];

    let batch = Engine::new(2).run(jobs);
    assert_eq!(batch.jobs(), 5);
    assert_eq!(batch.succeeded(), 3);
    assert_eq!(batch.failed(), 2);

    assert!(matches!(batch.outcomes[1].status, JobStatus::Failed(_)));
    let layer_msg = batch.outcomes[1].failure().unwrap();
    assert!(layer_msg.contains("layer"), "{layer_msg}");

    assert!(matches!(batch.outcomes[3].status, JobStatus::Failed(_)));
    let intake_msg = batch.outcomes[3].failure().unwrap();
    assert!(intake_msg.contains("max_iterations"), "{intake_msg}");

    // The jobs around the failures completed normally on the same pool.
    for i in [0usize, 2, 4] {
        assert!(batch.outcomes[i].is_success(), "job {i} must survive");
        assert!(batch.outcomes[i].report().unwrap().converged());
    }

    // The rendered report carries per-job status plus the aggregate line.
    let text = batch.to_string();
    for needle in ["ok", "failed", "jobs/s", "p50", "p95"] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }

    // A job whose event callback panics ends `Panicked` with the panic's
    // message, and the next job on the same worker still succeeds.
    let service = Engine::new(1).start();
    let (sender, outcomes) = std::sync::mpsc::channel();
    let deliver = |sender: std::sync::mpsc::Sender<JobOutcome>| {
        move |outcome| sender.send(outcome).expect("test holds the receiver")
    };
    let panicking = ServiceJob::new(good.clone(), deliver(sender.clone()))
        .with_events(|_: &SolveEvent| -> Flow { panic!("event callback exploded") });
    assert!(service.submit(panicking).is_ok());
    assert!(service
        .submit(ServiceJob::new(good, deliver(sender)))
        .is_ok());
    let panicked = outcomes.recv().expect("first outcome");
    let next = outcomes.recv().expect("second outcome");
    service.shutdown(ShutdownMode::Drain);
    assert!(matches!(panicked.status, JobStatus::Panicked(_)));
    let panic_msg = panicked.failure().unwrap();
    assert!(panic_msg.contains("event callback exploded"), "{panic_msg}");
    assert!(next.is_success(), "the job after the panic must survive");
    assert!(next.report().unwrap().converged());
    let text = BatchReport::new(vec![panicked, next], 1, 1.0).to_string();
    for needle in ["panicked", "ok"] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }

    // And the engine remains fully usable afterwards.
    let again = Engine::new(2).run(sweep_jobs());
    assert!(again.all_succeeded());
}

#[test]
fn jobs_with_non_finite_inputs_get_a_typed_error_not_a_nan_report() {
    let base = WorkloadSpec::quickstart().scaled(2);
    // A NaN boundary pressure used to solve to a NaN pressure and report
    // success; a NaN permeability used to panic inside generation.
    let nan_boundary = WorkloadSpec {
        boundary: BoundarySpec::SourceProducer {
            source_pressure: f64::NAN,
            producer_pressure: 0.0,
        },
        ..base.clone()
    };
    let nan_permeability = WorkloadSpec {
        permeability: PermeabilityModel::Homogeneous { value: f64::NAN },
        ..base.clone()
    };
    let jobs = vec![
        JobSpec::new(nan_boundary, Backend::host()),
        JobSpec::new(nan_permeability, Backend::host()),
        JobSpec::new(base, Backend::host()),
    ];
    let batch = Engine::new(2).run(jobs);
    for (i, field) in [(0, "source_pressure"), (1, "permeability")] {
        let outcome = &batch.outcomes[i];
        assert!(
            matches!(outcome.status, JobStatus::Failed(_)),
            "job {i}: {}",
            outcome.status_label()
        );
        assert!(outcome.report().is_none(), "job {i} carries no report");
        let message = outcome.failure().unwrap();
        assert!(message.contains(field), "job {i}: {message}");
    }
    assert!(batch.outcomes[2].report().unwrap().converged());
}

#[test]
fn a_tripped_cancel_token_drains_queued_jobs_as_stopped_not_failed() {
    // Regression: a cancelled batch must drain-and-stop cleanly — queued
    // jobs report `Stopped(Cancelled)` instead of blocking the pool, and
    // `BatchReport` separates them from genuine failures.
    let token = CancelToken::new();
    token.cancel();
    let jobs = sweep_jobs();
    let total = jobs.len();
    let batch = Engine::new(2).with_cancel_token(token).run(jobs);

    assert_eq!(batch.jobs(), total, "every job gets an outcome slot");
    assert_eq!(batch.stopped(), total, "all jobs were cancelled, none ran");
    assert_eq!(batch.failed(), 0, "cancellation is not failure");
    assert_eq!(batch.succeeded(), 0);
    assert!(!batch.all_succeeded());
    for (i, outcome) in batch.outcomes.iter().enumerate() {
        assert_eq!(outcome.index, i, "submission order survives cancellation");
        assert_eq!(outcome.stop_reason(), Some(StopReason::Cancelled));
        assert!(outcome.partial_report().is_none(), "job {i} never started");
        assert!(outcome.failure().is_none(), "stopped jobs are not failures");
    }
    let text = batch.to_string();
    assert!(text.contains("stopped: cancelled"), "{text}");
    assert!(text.contains("0 ok"), "{text}");
}

#[test]
fn mid_batch_cancellation_stops_remaining_jobs_and_keeps_finished_ones_exact() {
    // Cancel a saturated pool mid-flight: the batch must drain (no hang),
    // every outcome must be either a bitwise-exact completed report or a
    // clean `Stopped(Cancelled)`, and nothing may fail or panic.
    let jobs: Vec<JobSpec> = (0..24)
        .map(|i| {
            JobSpec::new(
                WorkloadSpec {
                    name: format!("cancel-itest-{i}"),
                    tolerance: 1e-10,
                    ..WorkloadSpec::quickstart().scaled(2)
                },
                Backend::host(),
            )
        })
        .collect();
    let serial: Vec<mffv::SolveReport> = jobs
        .iter()
        .map(|job| {
            job.execute(&mut SolveRequest::new())
                .expect("serial solve failed")
        })
        .collect();

    let token = CancelToken::new();
    let batch = std::thread::scope(|scope| {
        let handle = {
            let jobs = jobs.clone();
            let token = token.clone();
            scope.spawn(move || Engine::new(2).with_cancel_token(token).run(jobs))
        };
        std::thread::sleep(std::time::Duration::from_millis(5));
        token.cancel();
        handle.join().expect("the engine must not panic")
    });

    assert_eq!(batch.jobs(), 24);
    assert_eq!(batch.failed(), 0, "cancellation must not produce failures");
    assert_eq!(batch.succeeded() + batch.stopped(), 24);
    for (i, outcome) in batch.outcomes.iter().enumerate() {
        match outcome.report() {
            Some(report) => {
                // Jobs that finished before the trip are untouched by the
                // cancellation machinery: bitwise identical to serial runs.
                let bits = |r: &mffv::SolveReport| -> Vec<u64> {
                    r.pressure.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(report), bits(&serial[i]), "job {i}");
            }
            None => {
                assert_eq!(
                    outcome.stop_reason(),
                    Some(StopReason::Cancelled),
                    "job {i}: non-completed outcomes must be clean cancellations"
                );
            }
        }
    }
}

#[test]
fn per_job_stop_policies_ride_through_the_engine() {
    // One job with an iteration budget, one without: the budgeted job stops
    // with a partial report, the other completes — in one batch.
    let spec = WorkloadSpec {
        tolerance: 1e-12,
        ..WorkloadSpec::quickstart()
    };
    let jobs = vec![
        JobSpec::new(spec.clone(), Backend::host())
            .with_stop_policy(StopPolicy::new().iteration_budget(3)),
        JobSpec::new(spec, Backend::host()),
    ];
    let batch = Engine::new(2).run(jobs);
    assert_eq!(batch.stopped(), 1);
    assert_eq!(batch.succeeded(), 1);

    let stopped = &batch.outcomes[0];
    assert_eq!(stopped.stop_reason(), Some(StopReason::IterationBudget));
    let partial = stopped.partial_report().expect("partial state reported");
    assert_eq!(partial.iterations(), 3);
    assert!(!partial.converged());

    let full = batch.outcomes[1].report().unwrap();
    assert!(full.converged());
    // The stopped job's history is a bitwise prefix of the full solve.
    assert_eq!(
        partial.history.residual_norms_squared,
        full.history.residual_norms_squared[..4].to_vec()
    );
}

#[test]
fn duplicate_backend_name_suffixes_are_deterministic_in_submission_order() {
    // Regression for the NameDisambiguator: suffix assignment is keyed on a
    // BTreeMap, so `#2`/`#3` ordinals must depend only on submission order —
    // identical across worker counts and repeated runs, never on hash-map
    // iteration order.
    let spec = WorkloadSpec {
        name: "dedup-itest".to_string(),
        tolerance: 1e-8,
        ..WorkloadSpec::quickstart()
    };
    let sim = Simulation::from_spec(&spec)
        .backend(Backend::dataflow())
        .backend(Backend::host())
        .backend(Backend::dataflow())
        .backend(Backend::dataflow());

    let expected_dataflow = ["dataflow", "dataflow#2", "dataflow#3"];
    for workers in [1usize, 2, 8] {
        let batch = sim.batch(workers);
        assert!(batch.all_succeeded(), "{workers} workers");
        let names: Vec<&str> = batch
            .outcomes
            .iter()
            .map(|o| o.report().unwrap().backend.as_str())
            .collect();
        assert_eq!(names.len(), 4, "{workers} workers");
        // Dataflow duplicates gain ordinals in submission order; the host job
        // keeps its undecorated name.
        assert_eq!(
            [names[0], names[2], names[3]],
            expected_dataflow,
            "{workers} workers"
        );
        assert!(!names[1].contains('#'), "{workers} workers: {}", names[1]);
        // Relabelled outcomes keep their labels in sync with the report name.
        assert!(
            batch.outcomes[3].label.ends_with("dataflow#3"),
            "{workers} workers: {}",
            batch.outcomes[3].label
        );
    }

    // The serial path must agree with the engine path name-for-name.
    let serial: Vec<String> = sim
        .run_all()
        .into_iter()
        .map(|(_, outcome)| outcome.expect("serial solve failed").backend)
        .collect();
    assert_eq!(
        serial,
        vec!["dataflow", "host-f64", "dataflow#2", "dataflow#3"]
            .into_iter()
            .map(str::to_string)
            .collect::<Vec<_>>()
    );
}

/// Assert two transient summaries agree in every `SolveReport` field but
/// `host_wall_seconds`, floats compared by their bits.
fn assert_same_summary(got: &mffv::SolveReport, want: &mffv::SolveReport, what: &str) {
    assert_eq!(got.backend, want.backend, "{what}: backend");
    assert_eq!(pressure_bits(got), pressure_bits(want), "{what}: pressure");
    assert_eq!(history_bits(got), history_bits(want), "{what}: history");
    assert_eq!(got.iterations(), want.iterations(), "{what}: iterations");
    assert_eq!(got.converged(), want.converged(), "{what}: converged");
    assert_eq!(
        got.final_residual_max.to_bits(),
        want.final_residual_max.to_bits(),
        "{what}: final residual"
    );
    assert_eq!(got.device, want.device, "{what}: device section");
    assert_eq!(got.stopped, want.stopped, "{what}: stop reason");
}

#[test]
fn engine_transient_summaries_equal_the_full_reports_summary_in_every_field() {
    let budgeted =
        |job: JobSpec, budget| job.with_stop_policy(StopPolicy::new().iteration_budget(budget));
    let on_f32 = |job: JobSpec| JobSpec {
        backend: Backend::host_f32(),
        ..job
    };
    // The budgets let the first step converge and stop the second.
    let jobs = vec![
        budgeted(
            ramped_transient_job("budget-cg", PreconditionerKind::None),
            106,
        ),
        budgeted(
            on_f32(ramped_transient_job(
                "f32-budget-jacobi",
                PreconditionerKind::Jacobi,
            )),
            108,
        ),
        on_f32(wide(ramped_transient_job("f32-mg", PreconditionerKind::Mg))),
    ];
    let reference: Vec<TransientReport> = jobs
        .iter()
        .map(|job| {
            Simulation::new(Workload::try_from_spec(&job.effective_spec()).unwrap())
                .backend(job.backend)
                .preconditioner(job.solve_config.preconditioner)
                .stop_policy(job.stop_policy.clone())
                .transient(job.transient.as_ref().unwrap())
                .unwrap()
        })
        .collect();
    for full in &reference[..2] {
        assert_eq!(full.stopped, Some(StopReason::IterationBudget));
        assert_eq!(full.num_steps(), 2, "stopped mid-schedule");
    }
    assert!(reference[2].all_converged());

    for (i, (job, full)) in jobs.iter().zip(&reference).enumerate() {
        let serial = job.execute(&mut SolveRequest::new()).unwrap();
        assert_same_summary(&serial, &full.summary_report(), &format!("job {i}, serial"));
    }
    let batch = Engine::new(2).run(jobs);
    for (i, (outcome, full)) in batch.outcomes.iter().zip(&reference).enumerate() {
        let report = outcome.report().or(outcome.partial_report()).unwrap();
        assert_same_summary(report, &full.summary_report(), &format!("job {i}, engine"));
    }
}
