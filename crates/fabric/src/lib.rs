#![forbid(unsafe_code)]
//! # mffv-fabric
//!
//! A software simulator of a wafer-scale **dataflow fabric** in the style of the
//! Cerebras WSE-2 the paper targets (§III, Figure 2).  The real machine is
//! programmed in CSL and is not reachable from Rust, so this crate substitutes a
//! functional, instrumented model of the same architectural ingredients:
//!
//! * a 2-D Cartesian mesh of **processing elements** ([`pe::ProcessingElement`]),
//!   each with its own private local memory ([`memory::PeMemory`], 48 KiB budget)
//!   and its own **router** ([`router::Router`]) with five full-duplex links
//!   (RAMP, North, East, South, West);
//! * **colours** ([`color::Color`]) tagging the 32-bit wavelets a message is
//!   carried in and selecting per-colour routes with programmable **switch
//!   positions** and ring mode, replicating the CSL router programming of the
//!   paper's Listing 1;
//! * fabric-level message routing with hop/wavelet accounting ([`fabric::Fabric`]);
//! * **DSD-style vector operations** ([`dsd`]) that perform the per-PE arithmetic
//!   while counting FLOPs and memory traffic exactly as Table V does;
//! * a **device-time cost model** ([`timing`]) that converts the counted FLOPs,
//!   memory traffic, fabric traffic and hop distances into modelled WSE-2 seconds
//!   using the machine ceilings published in the paper.
//!
//! Functional behaviour (what data ends up where) is exact; wall-clock is modelled,
//! not measured — see `EXPERIMENTS.md` for how the two are reported.

pub mod color;
pub mod dsd;
pub mod error;
pub mod fabric;
pub mod geometry;
pub mod memory;
pub mod pe;
pub mod router;
pub mod stats;
pub mod timing;

pub use color::{Color, ColorAllocator};
pub use dsd::Dsd;
pub use error::FabricError;
pub use fabric::Fabric;
pub use geometry::{FabricDims, PeId, Port};
pub use memory::{BufferId, PeMemory, PE_MEMORY_BYTES};
pub use pe::ProcessingElement;
pub use router::{Router, RouterRule, SwitchConfig};
pub use stats::{FabricStats, OpCounters};
pub use timing::{DeviceTimeModel, WseSpec};

/// Convenient glob import.
pub mod prelude {
    pub use crate::color::{Color, ColorAllocator};
    pub use crate::dsd::Dsd;
    pub use crate::error::FabricError;
    pub use crate::fabric::Fabric;
    pub use crate::geometry::{FabricDims, PeId, Port};
    pub use crate::memory::{BufferId, PeMemory, PE_MEMORY_BYTES};
    pub use crate::pe::ProcessingElement;
    pub use crate::router::{Router, RouterRule, SwitchConfig};
    pub use crate::stats::{FabricStats, OpCounters};
    pub use crate::timing::{DeviceTimeModel, WseSpec};
}
