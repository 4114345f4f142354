#![forbid(unsafe_code)]
//! # mffv-gpu-ref
//!
//! The reference implementation the paper compares against (§IV): a matrix-free FV
//! kernel written in the CUDA style — a 3-D grid of 16×8×8 thread blocks, one thread
//! per cell, each thread fetching its own cell data and its six neighbours and
//! accumulating the interfacial contributions — driven by a host-side CG loop.
//! [`GpuRefBackend`] is the crate's one entry point: its
//! [`solve`](mffv_solver::SolveBackend::solve) reads tolerance, iteration cap and
//! preconditioner from the facade's `SolveConfig`, always computes in `f32`, and
//! returns the unified `SolveReport` with the modelled device time and the
//! host/device transfer counters.
//!
//! CUDA and the NVIDIA GPUs themselves are not available from Rust in this
//! environment, so the *execution* substrate is the host CPU:
//! the block/thread decomposition is preserved exactly and the blocks run one
//! after another in launch order on the calling thread, which keeps the kernel
//! structure, memory-access pattern and numerics of the CUDA reference while
//! remaining runnable anywhere.  Only the report's `host_wall_seconds` measures
//! that host execution: the *device time* of the real GPUs is modelled
//! separately in [`device_model`] from the rooflines the paper publishes for the
//! A100/H100 (memory-bound kernel, ≈78 % of the bandwidth ceiling).

pub mod backend;
pub mod device_model;
pub mod kernel;
pub mod launch;
pub mod memory;

pub use backend::GpuRefBackend;
pub use device_model::{GpuSpec, GpuTimeModel};
pub use kernel::GpuMatrixFreeOperator;
pub use launch::{BlockDims, LaunchConfig};
pub use memory::HostDeviceTransfers;

/// Convenient glob import.
pub mod prelude {
    pub use crate::backend::GpuRefBackend;
    pub use crate::device_model::{GpuSpec, GpuTimeModel};
    pub use crate::kernel::GpuMatrixFreeOperator;
    pub use crate::launch::{BlockDims, LaunchConfig};
    pub use crate::memory::HostDeviceTransfers;
}
