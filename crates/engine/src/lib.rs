//! # gnoc-engine
//!
//! The virtual GPU device behind the `gnoc` reproduction of *Uncovering Real
//! GPU NoC Characteristics* (MICRO 2024).
//!
//! Real silicon is replaced by a mechanistic model with the same observable
//! structure:
//!
//! - **Latency** ([`mod@latency`]) — round-trip cycles derived from floorplan wire
//!   distance, partition crossings and cache policy;
//! - **Bandwidth** ([`FabricModel`]) — hierarchical link capacities resolved
//!   by a max-min fair solver with Little's-law and queueing feedback;
//! - **State** ([`GpuDevice`]) — L2 residency, address hashing, profiler
//!   counters and seeded measurement jitter.
//!
//! ```
//! use gnoc_engine::GpuDevice;
//! use gnoc_topo::{SmId, SliceId};
//!
//! let mut gpu = GpuDevice::v100(42);
//! // Algorithm 1 of the paper: warm 8 lines of slice 3's working set
//! // M[3], then time 12 dependent reads over them.
//! let cycles = gpu.warm_and_time_slice(SmId::new(24), SliceId::new(3), 8, 12);
//! let mean = cycles.expect("every V100 slice serves every SM") as f64 / 12.0;
//! assert!(mean > 150.0 && mean < 300.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod calib;
mod device;
mod fabric;
mod hash;
pub mod latency;
mod noise;
mod profiler;
mod scheduler;

pub use cache::{L2Outcome, L2State, ResidencyKey};
pub use calib::{Calibration, UNLIMITED};
pub use device::{DeviceError, GpuDevice, FAULTY_SLICE_PENALTY_CYCLES};
pub use fabric::{AccessKind, Direction, FabricModel, FlowSolution, FlowSpec, ResourceKind};
pub use hash::{AddressMap, SliceDisableError, LINE_BYTES};
pub use noise::{gaussian, jittered_cycles};
pub use profiler::Profiler;
pub use scheduler::CtaScheduler;
