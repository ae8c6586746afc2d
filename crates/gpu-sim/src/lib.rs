//! `gpu-sim` — a functional + analytic simulator of first-generation CUDA
//! GPUs (GeForce 8800 GT / GTS-512 / GTX), built as the hardware substrate
//! for reproducing Nukada et al., "Bandwidth Intensive 3-D FFT kernel for
//! GPUs using CUDA" (SC 2008).
//!
//! Two layers:
//!
//! * **Functional** — kernels are Rust closures executed per simulated thread
//!   (or per cooperative block) against real device-memory contents, with the
//!   half-warp coalescing rules, shared-memory banks/races, and occupancy
//!   limits checked exactly ([`exec`], [`coalesce`], [`shared`],
//!   [`mod@occupancy`], [`memory`]).
//! * **Analytic** — elapsed time comes from a roofline over a GDDR bandwidth
//!   model calibrated against the paper's own micro-measurements ([`dram`],
//!   [`timing`]), plus PCIe ([`pcie`]) and wall-power ([`power`]) models.
//!
//! The split mirrors how the paper reasons: numerical behaviour is a property
//! of the algorithm; performance is a property of the memory system.

#![warn(missing_docs)]

pub mod analysis;
pub mod bandwidth;
pub mod check;
pub mod coalesce;
pub mod constmem;
pub mod dram;
pub mod exec;
pub mod memory;
pub mod occupancy;
pub mod pcie;
pub mod power;
pub mod shared;
pub mod spec;
pub mod stream;
pub mod timing;
pub mod trace;

pub use analysis::{
    classify_kernel, classify_stream, is_forbidden_pair, kernel_roofline, pattern_family,
    roofline_table, KernelPatterns, KernelRoofline, PatternFamily, PatternGeometry, StreamClass,
    StreamDir,
};
pub use check::{AccessDiag, AccessKind, CheckReport, HazardDiag, HazardKind};
pub use exec::{
    ConstId, Gpu, KernelReport, KernelStats, LaunchConfig, TexAccess, TextureId, Textures,
    ThreadCtx,
};
pub use memory::{AllocError, Backed, BufferId, DeviceMemory, FreeQueue};
pub use occupancy::{occupancy, KernelResources, Occupancy};
pub use spec::{DeviceSpec, PcieGen};
pub use stream::{EventId, StreamId};
pub use timing::{KernelClass, KernelTiming, Launch};
pub use trace::{Recorder, SharedSink, Span, Trace, TraceEvent, TraceSink, Tracer};
