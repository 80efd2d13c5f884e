//! # gnoc-telemetry — the reproduction's virtual `nvprof`
//!
//! The paper's methodology is observability: `clock()` timing on the SM,
//! per-L2-slice `nvprof` counters (`lts__t_requests`, V100 only), and
//! contention probing where counters were removed. This crate gives the
//! simulated stack the same power, uniformly:
//!
//! * [`MetricRegistry`] — named counters, gauges, and mergeable log-scale
//!   [`LogHistogram`]s with quantile queries. Serializable to JSON
//!   (`gnoc ... --metrics out.json`, `gnoc stats out.json`).
//! * [`CounterBank`] — indexed counters modelling hardware counter banks;
//!   `gnoc-engine`'s paper-faithful `Profiler` is re-expressed on top.
//! * [`TraceEvent`] / [`TraceSink`] — structured, virtual-cycle-timestamped
//!   event tracing with [`JsonlWriter`] (one JSON object per line),
//!   [`MemorySink`] (tests), and [`NullSink`] impls.
//! * [`FlightRecorder`] — the causal per-message recorder behind
//!   `gnoc profile`: every message's lifecycle with exact stall attribution
//!   (each waiting cycle charged to serialization, contention,
//!   backpressure, router stall, or queueing), exportable as JSONL or a
//!   Perfetto-loadable Chrome trace.
//! * [`IdMap`] / [`IdSet`] — deterministic id-keyed tables ([`IdHasher`])
//!   shared by the recorder and the simulators' per-packet maps.
//! * [`hash`] — the one owner of the seeded [`hash::SplitMix64`] stream,
//!   its [`hash::mix64`] finaliser and the [`hash::fnv1a64`] digest.
//! * [`TelemetryHandle`] — the cheaply-cloneable handle threaded through
//!   `GpuDevice`, `Mesh`, `memsim`, and the campaign layer. Disabled by
//!   default: a no-op handle costs one branch per call site and never
//!   allocates, keeping the simulator's hot paths unaffected unless a run
//!   opts in.

mod flight;
mod handle;
pub mod hash;
mod hist;
mod id_hash;
mod registry;
mod trace;

pub use flight::{
    FlightRecorder, HopRecord, MessageRecord, StallBreakdown, StallKind, FABRIC_PORT, PORT_NAMES,
};
pub use handle::{Telemetry, TelemetryHandle};
pub use hist::{LogHistogram, MAX_BUCKETS};
pub use id_hash::{IdHasher, IdMap, IdSet};
pub use registry::{CounterBank, MetricRegistry};
pub use trace::{
    parse_jsonl_line, FieldValue, JsonlWriter, MemorySink, NullSink, TraceEvent, TraceSink,
};

/// Subsystem tag for engine-level events (device accesses, placement).
pub const SUBSYSTEM_ENGINE: &str = "engine";
/// Subsystem tag for cycle-level NoC simulator events.
pub const SUBSYSTEM_NOC: &str = "noc";
/// Subsystem tag for campaign/CLI-level events.
pub const SUBSYSTEM_CAMPAIGN: &str = "campaign";
