#![forbid(unsafe_code)]
//! # mffv-serve — the solve daemon and its wire protocol
//!
//! Turns the in-process engine service into a network service: a
//! long-running TCP daemon (`mffv-serve`) that accepts solve jobs over a
//! hand-rolled framed binary protocol, streams live convergence events back
//! per session, and drains cleanly on shutdown — plus the `mffv-cli` client
//! that submits spec files and renders the stream.  Pure `std::net`; no
//! async runtime, no serde.
//!
//! ## The protocol in one frame
//!
//! ```text
//! [u32 BE len][u8 version][u8 frame-tag][body…][u32 BE FNV-1a checksum]
//! ```
//!
//! Integers are big-endian, `f64`s travel as [`f64::to_bits`] — so a
//! streamed residual is **bitwise** the one the solver computed, and a
//! client recording the stream reproduces the in-process convergence
//! history exactly.  Every malformed input (truncated, corrupt, oversized,
//! unknown tag, wrong version) decodes to a typed [`WireError`], never a
//! panic.  See [`frame`] for the frame vocabulary and [`wire`] for the
//! per-type layouts.
//!
//! ## Serving model
//!
//! * one TCP connection = one session; at most
//!   [`ServeConfig::session_window`] jobs outstanding per session — the
//!   window overflowing is a typed `Busy` reply, not a hang;
//! * an accepted job goes straight from its session's reader into the
//!   engine's one FIFO queue; the per-session window caps how many jobs any
//!   session holds ahead of another, so no session starves;
//! * a `Cancel` frame trips that one job's [`CancelToken`] — the solve
//!   stops at its next iteration boundary; other sessions' jobs are
//!   untouched; a dropped connection cancels its orphans the same way;
//! * shutdown is `Drain` (finish everything accepted) or `Abort` (cancel
//!   at the next boundary), mirroring the engine service.
//!
//! ## Quick start
//!
//! ```no_run
//! use mffv_serve::prelude::*;
//! use mffv_mesh::WorkloadSpec;
//!
//! let server = Server::new(ServeConfig::on("127.0.0.1:0")).bind().unwrap();
//! let addr = server.local_addr();
//!
//! let mut client = Client::connect(addr, "example").unwrap();
//! let job = WireJobSpec::new(WorkloadSpec::quickstart(), BackendSel::HostF64);
//! let run = client
//!     .run_job(&job, |_seq, _event| ClientControl::Continue)
//!     .unwrap();
//! assert!(run.is_done());
//! client.close();
//! server.shutdown(WireShutdownMode::Drain);
//! ```

pub mod client;
pub mod frame;
pub mod server;
pub mod specfile;
pub mod wire;

pub use client::{Client, ClientControl, JobEnd, JobRun};
pub use frame::{Frame, WireShutdownMode, MAX_FRAME_LEN, WIRE_VERSION};
pub use server::{RunningServer, ServeConfig, Server};
pub use specfile::{parse_spec, SpecError};
pub use wire::{BackendSel, WireError, WireJobSpec, WirePolicy};
// The session-control vocabulary, re-exported for client code.
pub use mffv_solver::monitor::{CancelToken, SolveEvent, StopReason};

/// Convenient glob import for daemon embedders, clients and tests.
pub mod prelude {
    pub use crate::client::{Client, ClientControl, JobEnd, JobRun};
    pub use crate::frame::{Frame, WireShutdownMode, MAX_FRAME_LEN, WIRE_VERSION};
    pub use crate::server::{RunningServer, ServeConfig, Server};
    pub use crate::specfile::{parse_spec, SpecError};
    pub use crate::wire::{BackendSel, WireError, WireJobSpec, WirePolicy};
    pub use mffv_solver::monitor::{SolveEvent, StopReason};
}
