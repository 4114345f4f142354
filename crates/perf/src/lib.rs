#![forbid(unsafe_code)]
//! # mffv-perf
//!
//! The performance-analysis layer of the reproduction: machine descriptions,
//! per-cell instruction and traffic accounting (Table V), the roofline model
//! (Figure 6), analytic device-time estimates used to regenerate Tables II–IV at
//! the paper's full problem sizes, and plain-text report formatting shared by the
//! benchmark binaries.

pub mod machine;
pub mod opcount;
pub mod report;
pub mod roofline;
pub mod timing;

pub use machine::MachineSpec;
pub use opcount::{CellOpCounts, InstructionClass, OpCountRow};
pub use roofline::Roofline;
pub use timing::{AnalyticTiming, LatencyStats, ScalingRow};

/// Convenient glob import.
pub mod prelude {
    pub use crate::machine::MachineSpec;
    pub use crate::opcount::{CellOpCounts, InstructionClass, OpCountRow};
    pub use crate::report::format_table;
    pub use crate::roofline::Roofline;
    pub use crate::timing::{AnalyticTiming, LatencyStats, ScalingRow};
}
