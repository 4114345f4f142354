//! Backend selection for solves dispatched through the facade or the engine.
//!
//! A [`Backend`] value is a cheap, declarative description of *where* a solve
//! should run; [`Backend::instantiate`] turns it into the live
//! [`SolveBackend`] implementation from the owning crate.  All three paper
//! targets are available, and future targets (sharded multi-region fabric,
//! rayon host, …) slot in as new variants without touching any call site that
//! uses the facade or the batch engine.
//!
//! This enum lives in `mffv-engine` (below the umbrella crate) so that
//! [`JobSpec`](crate::JobSpec)s can name their target; the umbrella `mffv`
//! crate re-exports it from its original `mffv::backend` path.

use mffv_core::DataflowBackend;
use mffv_gpu_ref::{GpuRefBackend, GpuSpec};
use mffv_solver::backend::{HostBackend, Precision, SolveBackend};

/// One of the solve targets the facade and the batch engine can run.
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    /// The sequential host solve (`f64` is the §V-B oracle).
    Host {
        /// Arithmetic precision of the host solve.
        precision: Precision,
    },
    /// The GPU-style reference (§IV): CUDA block/thread structure executed on
    /// the host, device time modelled on `spec`.
    GpuRef {
        /// The modelled GPU.
        spec: GpuSpec,
    },
    /// The simulated WSE-2 dataflow fabric (§III).
    Dataflow {
        /// `Some(n)`: the Table-IV communication-only run of `n` iterations
        /// (see [`DataflowBackend::comm_only_iterations`]).
        comm_only_iterations: Option<usize>,
    },
}

impl Backend {
    /// The host oracle: sequential matrix-free CG in `f64`.
    pub fn host() -> Self {
        Backend::Host {
            precision: Precision::F64,
        }
    }

    /// A host solve at the paper's device precision.
    pub fn host_f32() -> Self {
        Backend::Host {
            precision: Precision::F32,
        }
    }

    /// The GPU-style reference on the paper's A100.
    pub fn gpu_ref() -> Self {
        Backend::GpuRef {
            spec: GpuSpec::a100(),
        }
    }

    /// The GPU-style reference on an explicit modelled GPU.
    pub fn gpu_ref_on(spec: GpuSpec) -> Self {
        Backend::GpuRef { spec }
    }

    /// The dataflow fabric running the full solve.
    pub fn dataflow() -> Self {
        Backend::Dataflow {
            comm_only_iterations: None,
        }
    }

    /// The dataflow fabric's Table-IV communication-only run, terminated at
    /// `iterations`.
    pub fn dataflow_communication_only(iterations: usize) -> Self {
        Backend::Dataflow {
            comm_only_iterations: Some(iterations),
        }
    }

    /// The three paper targets in §V-B order: host oracle, GPU reference,
    /// dataflow fabric.  This is what `Simulation::run_all` executes when no
    /// backend was registered explicitly.
    pub fn standard_set() -> Vec<Backend> {
        vec![Backend::host(), Backend::gpu_ref(), Backend::dataflow()]
    }

    /// The backend's stable name (matches the `backend` field of its reports).
    pub fn name(&self) -> String {
        self.instantiate().name()
    }

    /// Materialise the live solver implementation.
    pub fn instantiate(&self) -> Box<dyn SolveBackend> {
        match *self {
            Backend::Host { precision } => Box::new(HostBackend { precision }),
            Backend::GpuRef { spec } => Box::new(GpuRefBackend::new(spec)),
            Backend::Dataflow {
                comm_only_iterations,
            } => Box::new(DataflowBackend {
                comm_only_iterations,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_unique_within_the_standard_set() {
        let names: Vec<String> = Backend::standard_set().iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["host-f64", "gpu-ref-A100", "dataflow"]);
        assert_eq!(Backend::host_f32().name(), "host-f32");
        assert_eq!(Backend::gpu_ref_on(GpuSpec::h100()).name(), "gpu-ref-H100");
    }

    #[test]
    fn dataflow_constructors_carry_their_options() {
        let comm = Backend::dataflow_communication_only(7);
        match comm {
            Backend::Dataflow {
                comm_only_iterations,
            } => assert_eq!(comm_only_iterations, Some(7)),
            _ => panic!("expected a dataflow backend"),
        }
    }
}
