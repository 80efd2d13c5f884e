//! The virtual GPU device.
//!
//! [`GpuDevice`] is the stand-in for the real silicon the paper measures: it
//! owns the hierarchy, floorplan, calibration, L2 residency state, per-slice
//! profiler counters and a seeded RNG for measurement jitter, and it exposes
//! exactly the operations the paper's microbenchmarks need — timed reads with
//! `clock()`-like jitter, L2 warm-up, slice-targeted address sets, and a
//! steady-state bandwidth solver.

use crate::cache::{L2Outcome, L2State};
use crate::calib::Calibration;
use crate::fabric::{FabricModel, FlowSolution, FlowSpec};
use crate::hash::{AddressMap, SliceDisableError, SliceTables, LINE_BYTES};
use crate::latency;
use crate::noise;
use crate::profiler::Profiler;
use gnoc_faults::{FaultPlan, FaultPlanError};
use gnoc_telemetry::{TelemetryHandle, TraceEvent, SUBSYSTEM_ENGINE};
use gnoc_topo::{
    BuildHierarchyError, Floorplan, GpuSpec, Hierarchy, MpId, PartitionId, SliceId, SmId,
    SweepError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Errors creating a [`GpuDevice`].
#[derive(Debug)]
pub enum DeviceError {
    /// The spec's hierarchy failed validation.
    Hierarchy(BuildHierarchyError),
    /// The spec has a non-positive clock or die dimension.
    BadSpec(&'static str),
    /// A fault plan's floorsweep could not be applied to the spec.
    Sweep(SweepError),
    /// A fault plan's disabled-slice set failed validation.
    FaultPlan(FaultPlanError),
    /// The disabled slices leave the device without a usable L2.
    Slices(SliceDisableError),
    /// A preset name passed to [`GpuDevice::try_preset`] is not known.
    UnknownPreset(String),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Hierarchy(e) => write!(f, "invalid hierarchy: {e}"),
            Self::BadSpec(what) => write!(f, "invalid spec: {what}"),
            Self::Sweep(e) => write!(f, "invalid floorsweep: {e}"),
            Self::FaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            Self::Slices(e) => write!(f, "invalid slice disable set: {e}"),
            Self::UnknownPreset(name) => write!(
                f,
                "unknown device preset {name:?} (try v100, a100, a100full, a100fs, h100)"
            ),
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Hierarchy(e) => Some(e),
            Self::BadSpec(_) => None,
            Self::Sweep(e) => Some(e),
            Self::FaultPlan(e) => Some(e),
            Self::Slices(e) => Some(e),
            Self::UnknownPreset(_) => None,
        }
    }
}

impl From<BuildHierarchyError> for DeviceError {
    fn from(e: BuildHierarchyError) -> Self {
        Self::Hierarchy(e)
    }
}

impl From<SweepError> for DeviceError {
    fn from(e: SweepError) -> Self {
        Self::Sweep(e)
    }
}

/// Extra round-trip cycles a read serviced by a latent-faulty L2 slice
/// costs: the ECC-retry / replay storm of a failing SRAM macro. Far outside
/// every preset's calibrated hit band *and* the DRAM miss penalty, so a
/// latency-EWMA health monitor can separate "broken slice" from "cold line"
/// without reading the fault plan.
pub const FAULTY_SLICE_PENALTY_CYCLES: f64 = 900.0;

/// A simulated GPU with deterministic, seeded measurement behaviour.
#[derive(Debug)]
pub struct GpuDevice {
    spec: GpuSpec,
    hierarchy: Hierarchy,
    floorplan: Floorplan,
    calib: Calibration,
    addr_map: AddressMap,
    /// The `M[s]` tables of `addr_map`; reset with it by
    /// [`GpuDevice::set_address_map`].
    slice_tables: SliceTables,
    fabric: FabricModel,
    l2: L2State,
    profiler: Profiler,
    rng: StdRng,
    telemetry: TelemetryHandle,
    virtual_cycles: u64,
    /// Latent per-slice faults (self-healing mode): the address map still
    /// routes traffic to these slices, but every read they service pays
    /// [`FAULTY_SLICE_PENALTY_CYCLES`]. Empty on a healthy or
    /// told-up-front-faulted device, keeping those paths bit-identical.
    latent_faulty_slices: Vec<bool>,
    /// Slices fused off at runtime by the health layer, ascending.
    quarantined_slices: Vec<u32>,
}

impl GpuDevice {
    /// Builds a device from `spec` with measurement seed 0.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] if the spec is inconsistent.
    pub fn new(spec: GpuSpec) -> Result<Self, DeviceError> {
        Self::with_seed(spec, 0)
    }

    /// Builds a device whose measurement jitter stream is seeded with `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] if the spec is inconsistent.
    pub fn with_seed(spec: GpuSpec, seed: u64) -> Result<Self, DeviceError> {
        let calib = Calibration::for_spec(&spec);
        Self::with_calibration(spec, calib, seed)
    }

    /// Builds a device with explicit [`Calibration`] constants — the entry
    /// point for ablation studies and what-if exploration (e.g. zeroing the
    /// queueing terms, sweeping the partition-crossing cost).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] if the spec is inconsistent.
    pub fn with_calibration(
        spec: GpuSpec,
        calib: Calibration,
        seed: u64,
    ) -> Result<Self, DeviceError> {
        if spec.clock_ghz <= 0.0 || spec.clock_ghz.is_nan() {
            return Err(DeviceError::BadSpec("clock must be positive"));
        }
        if !(spec.die_width_mm > 0.0 && spec.die_height_mm > 0.0) {
            return Err(DeviceError::BadSpec("die dimensions must be positive"));
        }
        let hierarchy = spec.resolve()?;
        let floorplan = Floorplan::layout(&hierarchy, spec.die_width_mm, spec.die_height_mm);
        let addr_map = AddressMap::new(&hierarchy, spec.cache_policy);
        let capacity_lines = ((spec.l2_mib as u64) << 20) / LINE_BYTES;
        let fabric = FabricModel::new(
            hierarchy.clone(),
            floorplan.clone(),
            calib.clone(),
            spec.clock_ghz,
            calib.dram_gbps_per_mp(&spec),
        );
        let profiler = Profiler::new(hierarchy.num_slices(), spec.per_slice_counters);
        Ok(Self {
            spec,
            hierarchy,
            floorplan,
            calib,
            addr_map,
            slice_tables: SliceTables::default(),
            fabric,
            l2: L2State::new(capacity_lines.max(1) as usize),
            profiler,
            rng: StdRng::seed_from_u64(seed),
            telemetry: TelemetryHandle::disabled(),
            virtual_cycles: 0,
            latent_faulty_slices: Vec::new(),
            quarantined_slices: Vec::new(),
        })
    }

    /// Builds a degraded device under `plan`: the plan's floorsweep is
    /// applied to the spec first, then the surviving L2 slices in
    /// `plan.disabled_slices` are fused off and the address hash remapped
    /// around them. The NoC-level faults of the plan (links, routers,
    /// transients) are consumed by the mesh layer, not here.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] if the sweep or disable set is invalid for the
    /// device, or if the resulting spec is inconsistent.
    pub fn with_faults(spec: GpuSpec, plan: &FaultPlan, seed: u64) -> Result<Self, DeviceError> {
        let spec = match &plan.sweep {
            Some(sweep) => spec.floorswept(sweep)?,
            None => spec,
        };
        let calib = Calibration::for_spec(&spec);
        let mut dev = Self::with_calibration(spec, calib, seed)?;
        if !plan.disabled_slices.is_empty() {
            plan.validate_for_slices(dev.hierarchy.num_slices() as u32)
                .map_err(DeviceError::FaultPlan)?;
            let map = AddressMap::with_disabled(
                &dev.hierarchy,
                dev.spec.cache_policy,
                &plan.disabled_slices,
            )
            .map_err(DeviceError::Slices)?;
            dev.set_address_map(map);
        }
        Ok(dev)
    }

    /// Builds a device whose slice faults are *latent*: the plan's
    /// floorsweep is applied (it is known at ship time), but
    /// `plan.disabled_slices` are **not** remapped away — the address hash
    /// still routes traffic to them, and every read they service pays
    /// [`FAULTY_SLICE_PENALTY_CYCLES`]. This is the self-healing scenario:
    /// a health monitor must notice the pathological latencies and call
    /// [`GpuDevice::quarantine_slice`], which performs the remap the plan
    /// would have done up front.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] if the sweep or slice set is invalid for the
    /// device, or if the resulting spec is inconsistent.
    pub fn with_latent_faults(
        spec: GpuSpec,
        plan: &FaultPlan,
        seed: u64,
    ) -> Result<Self, DeviceError> {
        let spec = match &plan.sweep {
            Some(sweep) => spec.floorswept(sweep)?,
            None => spec,
        };
        let calib = Calibration::for_spec(&spec);
        let mut dev = Self::with_calibration(spec, calib, seed)?;
        if !plan.disabled_slices.is_empty() {
            plan.validate_for_slices(dev.hierarchy.num_slices() as u32)
                .map_err(DeviceError::FaultPlan)?;
            dev.latent_faulty_slices = vec![false; dev.hierarchy.num_slices()];
            for &s in &plan.disabled_slices {
                dev.latent_faulty_slices[s as usize] = true;
            }
        }
        Ok(dev)
    }

    /// Replaces the address map, dropping the `M[s]` tables built for the
    /// old one.
    fn set_address_map(&mut self, map: AddressMap) {
        self.addr_map = map;
        self.slice_tables = SliceTables::default();
    }

    /// Whether `slice` carries a latent fault (self-healing mode only).
    fn slice_latent_faulty(&self, slice: SliceId) -> bool {
        self.latent_faulty_slices
            .get(slice.index())
            .copied()
            .unwrap_or(false)
    }

    /// Fuses `slice` off at runtime and remaps the address hash around it —
    /// the health layer's Open-breaker action for an L2 slice, equivalent to
    /// the up-front [`AddressMap::with_disabled`] remap. Idempotent on an
    /// already-quarantined slice.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Slices`] (leaving the current map in place)
    /// when removing the slice would leave no usable L2 — e.g. the last
    /// slice of a partition on a partition-local device.
    pub fn quarantine_slice(&mut self, slice: SliceId) -> Result<(), DeviceError> {
        let s = slice.index() as u32;
        if self.quarantined_slices.contains(&s) {
            return Ok(());
        }
        let mut disabled = self.quarantined_slices.clone();
        disabled.push(s);
        disabled.sort_unstable();
        let map = AddressMap::with_disabled(&self.hierarchy, self.spec.cache_policy, &disabled)
            .map_err(DeviceError::Slices)?;
        self.set_address_map(map);
        self.quarantined_slices = disabled;
        self.telemetry.emit_with(|| {
            TraceEvent::new(self.virtual_cycles, SUBSYSTEM_ENGINE, "slice_quarantine")
                .with("slice", slice.index())
        });
        Ok(())
    }

    /// Returns `slice` to service (HalfOpen probe passed) and remaps the
    /// hash back over it. Idempotent on a slice that is not quarantined.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Slices`] if the remaining disable set is
    /// somehow invalid (cannot happen for sets built via
    /// [`GpuDevice::quarantine_slice`]).
    pub fn release_slice(&mut self, slice: SliceId) -> Result<(), DeviceError> {
        let s = slice.index() as u32;
        let Some(pos) = self.quarantined_slices.iter().position(|&q| q == s) else {
            return Ok(());
        };
        let mut disabled = self.quarantined_slices.clone();
        disabled.remove(pos);
        let map = AddressMap::with_disabled(&self.hierarchy, self.spec.cache_policy, &disabled)
            .map_err(DeviceError::Slices)?;
        self.set_address_map(map);
        self.quarantined_slices = disabled;
        Ok(())
    }

    /// The slices currently quarantined by the health layer, ascending.
    pub fn quarantined_slices(&self) -> &[u32] {
        &self.quarantined_slices
    }

    /// One timed health-probe read answered directly by the physical
    /// `slice`, bypassing the address remap — how a HalfOpen breaker tests a
    /// quarantined slice that no normal address reaches any more. Returns
    /// warm-hit latency (plus the fault penalty when the slice is latently
    /// broken) with the usual measurement jitter; leaves the L2 residency
    /// and profiler state untouched.
    pub fn probe_slice_latency(&mut self, sm: SmId, slice: SliceId) -> u64 {
        let mut mean =
            latency::l2_hit_cycles(&self.hierarchy, &self.floorplan, &self.calib, sm, slice);
        if self.slice_latent_faulty(slice) {
            mean += FAULTY_SLICE_PENALTY_CYCLES;
        }
        let cycles = noise::jittered_cycles(&mut self.rng, mean, self.calib.jitter_sigma_cycles);
        self.virtual_cycles += cycles;
        cycles
    }

    /// Builds a preset device from a runtime name, with a typed error for
    /// unknown names — the constructor user-supplied or fuzzed preset
    /// strings must go through. The static shorthands below keep their
    /// infallible signatures because their specs are compile-time constants
    /// that always validate.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownPreset`] for an unrecognised name, or
    /// any [`DeviceError`] from spec validation.
    pub fn try_preset(name: &str, seed: u64) -> Result<Self, DeviceError> {
        let spec = match name {
            "v100" => GpuSpec::v100(),
            "a100" => GpuSpec::a100(),
            "a100full" => GpuSpec::a100_full(),
            "a100fs" => GpuSpec::a100_floorswept(),
            "h100" => GpuSpec::h100(),
            other => return Err(DeviceError::UnknownPreset(other.to_string())),
        };
        Self::with_seed(spec, seed)
    }

    /// Shorthand for a seeded V100 device.
    pub fn v100(seed: u64) -> Self {
        Self::with_seed(GpuSpec::v100(), seed).expect("preset is valid")
    }

    /// Shorthand for a seeded floor-swept A100: the full GA100 die harvested
    /// down to the shipping 108-SM part.
    pub fn a100_floorswept(seed: u64) -> Self {
        Self::with_seed(GpuSpec::a100_floorswept(), seed).expect("preset is valid")
    }

    /// Shorthand for a seeded A100 device.
    pub fn a100(seed: u64) -> Self {
        Self::with_seed(GpuSpec::a100(), seed).expect("preset is valid")
    }

    /// Shorthand for a seeded H100 device.
    pub fn h100(seed: u64) -> Self {
        Self::with_seed(GpuSpec::h100(), seed).expect("preset is valid")
    }

    /// The device spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The resolved hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The floorplan.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The calibration constants in effect.
    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// The address→slice map.
    pub fn address_map(&self) -> &AddressMap {
        &self.addr_map
    }

    /// The profiler counters (per-slice availability mirrors the real GPUs).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Resets profiler counters.
    pub fn reset_profiler(&mut self) {
        self.profiler.reset();
    }

    /// Attaches a telemetry handle; the device records access counters,
    /// latency histograms, and (when a sink is present) per-access trace
    /// events through it. The default handle is disabled and costs nothing.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// The device's telemetry handle (disabled unless one was attached).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// Accumulated virtual time: the sum of all timed-read round-trip cycles
    /// issued so far. This is the `cycle` timestamp on engine trace events —
    /// the model's analogue of the paper's per-SM `clock()` register.
    pub fn virtual_cycle(&self) -> u64 {
        self.virtual_cycles
    }

    /// Flushes the L2 (between experiments).
    pub fn flush_l2(&mut self) {
        self.l2.flush();
    }

    // ------------------------------------------------------------ timing ---

    /// The residency key of `line` as seen from `requester`'s partition:
    /// partition-local devices keep one copy per partition.
    fn residency_key(&self, line: u64, requester: PartitionId) -> (u32, u64) {
        (SliceTables::domain(&self.addr_map, requester) as u32, line)
    }

    /// Warms `line` into the L2 visible from `requester_sm` (the warm-up loop
    /// of Algorithm 1).
    pub fn warm_line(&mut self, requester_sm: SmId, line: u64) {
        let p = self.hierarchy.sm(requester_sm).partition;
        self.l2.warm(self.residency_key(line, p));
    }

    /// Issues one timed, L1-bypassing read of `line` from `sm`, returning
    /// measured round-trip cycles including jitter — the model equivalent of
    /// the paper's `clock()`-bracketed `__ldcg` (Algorithm 1).
    ///
    /// Updates L2 residency and profiler counters.
    pub fn timed_read(&mut self, sm: SmId, line: u64) -> u64 {
        let slice = self.effective_slice(sm, line);
        self.read_set(sm, slice, &[line], false, 1)
    }

    /// Warms `line` for `sm`, then issues `reads` timed reads of it and
    /// returns their summed cycles: `warm_line` then `reads` × `timed_read`,
    /// bit for bit, with one slice lookup.
    pub fn warm_and_time(&mut self, sm: SmId, line: u64, reads: usize) -> u64 {
        let slice = self.effective_slice(sm, line);
        self.read_set(sm, slice, &[line], true, reads)
    }

    /// Algorithm 1 on `slice`: warms the first `lines` lines of its `M[s]`
    /// table (for `sm`), then issues `reads` timed reads cycling over them
    /// in order and returns their summed cycles — or `None`, touching
    /// nothing, when `slice` can never serve `sm` or `lines` is 0. Equal,
    /// bit for bit, to warming `addresses_for_slice(sm, slice, lines)` with
    /// `warm_line` and reading its line `i % lines` with `timed_read`.
    pub fn warm_and_time_slice(
        &mut self,
        sm: SmId,
        slice: SliceId,
        lines: usize,
        reads: usize,
    ) -> Option<u64> {
        let p = self.hierarchy.sm(sm).partition;
        // The working set is a view into the tables, so they are moved out
        // for the call rather than the set copied.
        let mut tables = std::mem::take(&mut self.slice_tables);
        let table = tables.lines(&self.addr_map, slice, p, lines);
        let set = &table[..lines.min(table.len())];
        let cycles = (!set.is_empty()).then(|| self.read_set(sm, slice, set, true, reads));
        self.slice_tables = tables;
        cycles
    }

    /// The one read core: warms `lines` for `sm` when `warm`, then issues
    /// `reads` timed reads cycling over them and returns their summed
    /// cycles. Every line is served by `slice`, so the residency domain and
    /// hit mean (with any latent-fault penalty) are resolved once per call;
    /// each read costs its profiler record, its residency probe, its noise
    /// draw and its virtual-cycle add, in the order a lone read takes them.
    fn read_set(
        &mut self,
        sm: SmId,
        slice: SliceId,
        lines: &[u64],
        warm: bool,
        reads: usize,
    ) -> u64 {
        let p = self.hierarchy.sm(sm).partition;
        debug_assert!(lines
            .iter()
            .all(|&line| self.addr_map.effective_slice(line, p) == slice));
        let domain = SliceTables::domain(&self.addr_map, p) as u32;
        if warm {
            for &line in lines {
                self.l2.warm((domain, line));
            }
        }
        let faulty = self.slice_latent_faulty(slice);
        let penalised = |mean: f64| {
            if faulty {
                mean + FAULTY_SLICE_PENALTY_CYCLES
            } else {
                mean
            }
        };
        let mut hit_mean = None;
        let mut total = 0;
        for &line in lines.iter().cycle().take(reads) {
            self.profiler.record(slice);
            let outcome = self.l2.access((domain, line));
            let mean = match outcome {
                L2Outcome::Hit => *hit_mean.get_or_insert_with(|| {
                    penalised(latency::l2_hit_cycles(
                        &self.hierarchy,
                        &self.floorplan,
                        &self.calib,
                        sm,
                        slice,
                    ))
                }),
                L2Outcome::Miss => penalised(latency::l2_miss_cycles(
                    &self.hierarchy,
                    &self.floorplan,
                    &self.calib,
                    sm,
                    slice,
                    self.addr_map.home_mp(line),
                )),
            };
            let cycles =
                noise::jittered_cycles(&mut self.rng, mean, self.calib.jitter_sigma_cycles);
            self.virtual_cycles += cycles;
            if self.telemetry.is_enabled() {
                self.record_read(sm, line, slice, outcome, cycles);
            }
            total += cycles;
        }
        total
    }

    /// One read's registry counters, latency histogram and trace event.
    fn record_read(&self, sm: SmId, line: u64, slice: SliceId, outcome: L2Outcome, cycles: u64) {
        self.telemetry.with(|t| {
            t.registry.counter_add("engine.reads", 1);
            t.registry.counter_add(
                match outcome {
                    L2Outcome::Hit => "engine.l2.hits",
                    L2Outcome::Miss => "engine.l2.misses",
                },
                1,
            );
            t.registry.hist_record("engine.read_cycles", cycles);
        });
        self.telemetry.emit_with(|| {
            // Fabric-hop decomposition of the request path: physical wire
            // length and whether the central interconnect was crossed.
            let wire_mm = self.floorplan.wire_distance(sm, slice);
            let crossed = self.hierarchy.crosses_partition(sm, slice);
            TraceEvent::new(self.virtual_cycles, SUBSYSTEM_ENGINE, "access")
                .with("sm", sm.index())
                .with("line", line)
                .with("slice", slice.index())
                .with(
                    "outcome",
                    match outcome {
                        L2Outcome::Hit => "hit",
                        L2Outcome::Miss => "miss",
                    },
                )
                .with("cycles", cycles)
                .with("wire_mm", wire_mm)
                .with("crossed_partition", crossed)
        });
    }

    /// Mean (jitter-free) L2-*hit* round-trip cycles from `sm` to `slice` —
    /// the model's ground truth, useful for calibration checks.
    pub fn hit_cycles_mean(&self, sm: SmId, slice: SliceId) -> f64 {
        latency::l2_hit_cycles(&self.hierarchy, &self.floorplan, &self.calib, sm, slice)
    }

    /// Mean L2-*miss* round-trip cycles for a line served by `slice` whose
    /// home is `home_mp`.
    pub fn miss_cycles_mean(&self, sm: SmId, slice: SliceId, home_mp: MpId) -> f64 {
        latency::l2_miss_cycles(
            &self.hierarchy,
            &self.floorplan,
            &self.calib,
            sm,
            slice,
            home_mp,
        )
    }

    /// Issues one timed remote-shared-memory read from `src` to `dst`'s
    /// shared memory over the SM-to-SM network, or `None` when unsupported
    /// (non-Hopper device or different GPCs).
    pub fn timed_sm2sm_read(&mut self, src: SmId, dst: SmId) -> Option<u64> {
        let mean = latency::sm2sm_cycles(&self.hierarchy, &self.floorplan, &self.calib, src, dst)?;
        let cycles = noise::jittered_cycles(&mut self.rng, mean, self.calib.jitter_sigma_cycles);
        self.virtual_cycles += cycles;
        if self.telemetry.is_enabled() {
            self.telemetry.with(|t| {
                t.registry.counter_add("engine.sm2sm_reads", 1);
                t.registry.hist_record("engine.sm2sm_cycles", cycles);
            });
            self.telemetry.emit_with(|| {
                TraceEvent::new(self.virtual_cycles, SUBSYSTEM_ENGINE, "sm2sm_access")
                    .with("src_sm", src.index())
                    .with("dst_sm", dst.index())
                    .with("cycles", cycles)
            });
        }
        Some(cycles)
    }

    // --------------------------------------------------------- bandwidth ---

    /// Solves the steady-state bandwidth of `flows` (Algorithm 2's measured
    /// regime). Deterministic; does not touch L2/profiler state.
    pub fn solve_bandwidth(&self, flows: &[FlowSpec]) -> FlowSolution {
        self.fabric.solve(flows)
    }

    /// Each flow's bandwidth, GB/s, solved alone: element `i` is
    /// `self.solve_bandwidth(&flows[i..=i]).total_gbps`, bit for bit, from
    /// one pass of the fabric's lane kernel. Deterministic; draws no noise.
    pub fn solve_each(&self, flows: &[FlowSpec]) -> Vec<f64> {
        self.fabric.solve_each(flows)
    }

    /// Gaussian bandwidth measurement noise with `sigma` GB/s, drawn from the
    /// device's seeded jitter stream.
    pub fn bandwidth_jitter(&mut self, sigma: f64) -> f64 {
        noise::gaussian(&mut self.rng, sigma)
    }

    /// `n` line addresses that (for `sm`) are serviced by `slice` — the
    /// `M[s]` table of Algorithms 1 and 2: the lowest such line addresses,
    /// ascending, or none when `slice` can never serve `sm`. The device
    /// keeps the tables, so a repeated or smaller request costs no hashing.
    pub fn addresses_for_slice(&mut self, sm: SmId, slice: SliceId, n: usize) -> Vec<u64> {
        let p = self.hierarchy.sm(sm).partition;
        let lines = self.slice_tables.lines(&self.addr_map, slice, p, n);
        lines[..n.min(lines.len())].to_vec()
    }

    /// The first `n` lines of `slice`'s `M[s]` table (for `sm`) that are not
    /// resident in the L2 `sm` reads through — lines whose next read from
    /// `sm` misses. Empty when `slice` can never serve `sm`. Leaves the L2
    /// untouched.
    pub fn cold_addresses_for_slice(&mut self, sm: SmId, slice: SliceId, n: usize) -> Vec<u64> {
        let p = self.hierarchy.sm(sm).partition;
        // The residency key's partition, as in `residency_key`.
        let domain = SliceTables::domain(&self.addr_map, p) as u32;
        let mut cold = Vec::with_capacity(n);
        let mut scanned = 0;
        while cold.len() < n {
            let want = scanned + (n - cold.len());
            let lines = self.slice_tables.lines(&self.addr_map, slice, p, want);
            if lines.is_empty() {
                break;
            }
            cold.extend(
                lines[scanned..want]
                    .iter()
                    .filter(|&&line| !self.l2.contains((domain, line))),
            );
            scanned = want;
        }
        cold
    }

    /// Whether `slice` survived floorsweeping / fault disabling: only
    /// enabled slices can be the effective slice of any address.
    pub fn slice_enabled(&self, slice: SliceId) -> bool {
        self.addr_map.is_enabled(slice)
    }

    /// The slice that services `line` for `sm`.
    pub fn effective_slice(&self, sm: SmId, line: u64) -> SliceId {
        let p = self.hierarchy.sm(sm).partition;
        self.addr_map.effective_slice(line, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnoc_topo::GpcId;

    #[test]
    fn timed_reads_hit_after_warmup() {
        let mut dev = GpuDevice::v100(1);
        let sm = SmId::new(24);
        let line = 12345u64;
        dev.warm_line(sm, line);
        let slice = dev.effective_slice(sm, line);
        let mean = dev.hit_cycles_mean(sm, slice);
        let samples: Vec<u64> = (0..64).map(|_| dev.timed_read(sm, line)).collect();
        let avg = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!(
            (avg - mean).abs() < 2.0,
            "measured {avg} vs model mean {mean}"
        );
    }

    #[test]
    fn cold_read_costs_more_than_warm() {
        let mut dev = GpuDevice::v100(2);
        let sm = SmId::new(0);
        let cold = dev.timed_read(sm, 999); // miss, installs
        let warm = dev.timed_read(sm, 999); // hit
        assert!(
            cold > warm + 100,
            "miss {cold} should exceed hit {warm} by the DRAM penalty"
        );
    }

    #[test]
    fn profiler_sees_slice_traffic_on_v100_only() {
        let mut v = GpuDevice::v100(0);
        v.timed_read(SmId::new(0), 7);
        assert!(v.profiler().per_slice_counts().is_some());
        assert_eq!(v.profiler().total(), 1);

        let mut a = GpuDevice::a100(0);
        a.timed_read(SmId::new(0), 7);
        assert!(a.profiler().per_slice_counts().is_none());
        assert_eq!(a.profiler().total(), 1);
    }

    #[test]
    fn hottest_slice_pins_tie_break_and_availability_per_device() {
        // V100: per-slice counters exist, and a tie between two slices must
        // deterministically report the lowest index regardless of the order
        // the traffic arrived in.
        let mut v = GpuDevice::v100(0);
        let sm = SmId::new(0);
        let lo = dev_line(&mut v, sm, 3);
        let hi = dev_line(&mut v, sm, 9);
        v.warm_line(sm, hi);
        v.warm_line(sm, lo);
        v.timed_read(sm, hi);
        v.timed_read(sm, lo);
        assert_eq!(v.profiler().hottest_slice(), Some(SliceId::new(3)));

        // A100/H100 (paper footnote 1): the non-aggregated counters were
        // removed, so the hottest-slice query answers None even with traffic
        // recorded — only the aggregate remains.
        for mut dev in [GpuDevice::a100(0), GpuDevice::h100(0)] {
            dev.timed_read(sm, 7);
            assert_eq!(dev.profiler().hottest_slice(), None);
            assert_eq!(dev.profiler().per_slice_counts(), None);
            assert!(dev.profiler().total() > 0);
        }
    }

    /// A line address serviced by `slice` for `sm`.
    fn dev_line(dev: &mut GpuDevice, sm: SmId, slice: u32) -> u64 {
        dev.addresses_for_slice(sm, SliceId::new(slice), 1)[0]
    }

    #[test]
    fn addresses_for_slice_round_trip() {
        let mut dev = GpuDevice::h100(0);
        let sm = SmId::new(0);
        let slice = dev
            .hierarchy()
            .slices_in_partition(dev.hierarchy().sm(sm).partition)[3];
        for line in dev.addresses_for_slice(sm, slice, 16) {
            assert_eq!(dev.effective_slice(sm, line), slice);
        }
    }

    #[test]
    fn seeds_make_measurements_reproducible() {
        let run = |seed: u64| -> Vec<u64> {
            let mut dev = GpuDevice::v100(seed);
            let sm = SmId::new(5);
            dev.warm_line(sm, 1);
            (0..16).map(|_| dev.timed_read(sm, 1)).collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn sm2sm_reads_work_only_on_hopper_same_gpc() {
        let mut v = GpuDevice::v100(0);
        assert!(v.timed_sm2sm_read(SmId::new(0), SmId::new(6)).is_none());

        let mut h = GpuDevice::h100(0);
        let sms = h.hierarchy().sms_in_gpc(GpcId::new(0)).to_vec();
        assert!(h.timed_sm2sm_read(sms[0], sms[1]).is_some());
    }

    #[test]
    fn bad_specs_are_rejected() {
        let mut spec = GpuSpec::v100();
        spec.clock_ghz = 0.0;
        assert!(matches!(GpuDevice::new(spec), Err(DeviceError::BadSpec(_))));

        let mut spec = GpuSpec::v100();
        spec.hierarchy.gpc_partition.pop();
        assert!(matches!(
            GpuDevice::new(spec),
            Err(DeviceError::Hierarchy(_))
        ));
    }

    #[test]
    fn custom_calibration_is_honoured() {
        let mut calib = Calibration::volta();
        calib.base_hit_cycles = 500.0;
        calib.jitter_sigma_cycles = 0.0;
        let dev = GpuDevice::with_calibration(GpuSpec::v100(), calib, 0).unwrap();
        assert!(dev.hit_cycles_mean(SmId::new(0), gnoc_topo::SliceId::new(0)) >= 500.0);
    }

    #[test]
    fn flush_l2_forgets_residency() {
        let mut dev = GpuDevice::v100(0);
        let sm = SmId::new(0);
        dev.warm_line(sm, 55);
        dev.flush_l2();
        let cold = dev.timed_read(sm, 55);
        assert!(cold > 300, "read after flush should miss: {cold}");
    }

    #[test]
    fn telemetry_captures_reads_and_events() {
        use gnoc_telemetry::{MemorySink, Telemetry};

        let mut dev = GpuDevice::v100(0);
        let sink = MemorySink::new();
        dev.set_telemetry(TelemetryHandle::attach(Telemetry::with_sink(Box::new(
            sink.clone(),
        ))));
        let sm = SmId::new(3);
        dev.warm_line(sm, 42);
        dev.timed_read(sm, 42); // hit
        dev.timed_read(sm, 43); // miss
        assert!(dev.virtual_cycle() > 0);

        let reg = dev.telemetry().snapshot_registry().unwrap();
        assert_eq!(reg.counter("engine.reads"), 2);
        assert_eq!(reg.counter("engine.l2.hits"), 1);
        assert_eq!(reg.counter("engine.l2.misses"), 1);
        assert_eq!(reg.hist("engine.read_cycles").unwrap().count(), 2);

        let events = sink.snapshot();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.subsystem == "engine"));
        assert_eq!(events[0].event, "access");
        assert!(events[0].field("wire_mm").is_some());
        assert!(events[1].cycle > events[0].cycle);
    }

    #[test]
    fn disabled_telemetry_leaves_reads_identical() {
        // The instrumented path must not perturb the seeded jitter stream.
        let run = |instrument: bool| -> Vec<u64> {
            let mut dev = GpuDevice::v100(7);
            if instrument {
                dev.set_telemetry(TelemetryHandle::enabled());
            }
            let sm = SmId::new(5);
            (0..16).map(|i| dev.timed_read(sm, i)).collect()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn floorswept_a100_reads_bit_identical_to_shipping_a100() {
        // The harvested GA100 die and the shipping A100 preset are the same
        // hierarchy with the same Ampere calibration, so the whole seeded
        // measurement stream — not just summary statistics — must match.
        let run = |mut dev: GpuDevice| -> Vec<u64> {
            let sm = SmId::new(13);
            (0..64).map(|i| dev.timed_read(sm, i)).collect()
        };
        assert_eq!(run(GpuDevice::a100_floorswept(5)), run(GpuDevice::a100(5)));
    }

    #[test]
    fn with_faults_applies_sweep_and_slice_disable() {
        let mut plan = FaultPlan::none();
        plan.sweep = Some(gnoc_faults::FloorSweep::a100_sku());
        plan.disabled_slices = vec![4, 40];
        let mut dev = GpuDevice::with_faults(GpuSpec::a100_full(), &plan, 0).unwrap();
        assert_eq!(dev.hierarchy().num_sms(), 108);
        assert_eq!(dev.hierarchy().num_slices(), 80);
        assert_eq!(dev.address_map().num_enabled(), 78);
        for line in 0..2_048 {
            let s = dev.effective_slice(SmId::new(0), line);
            assert!(s != SliceId::new(4) && s != SliceId::new(40));
            dev.timed_read(SmId::new(0), line);
        }
        // Disabled slices never accumulate profiler traffic.
        assert_eq!(dev.profiler().total(), 2_048);
    }

    #[test]
    fn with_faults_rejects_bad_plans() {
        let mut plan = FaultPlan::none();
        plan.disabled_slices = vec![999];
        assert!(matches!(
            GpuDevice::with_faults(GpuSpec::a100(), &plan, 0),
            Err(DeviceError::FaultPlan(_))
        ));

        let mut plan = FaultPlan::none();
        plan.sweep = Some(gnoc_faults::FloorSweep {
            disabled_gpcs: vec![42],
            ..gnoc_faults::FloorSweep::none()
        });
        assert!(matches!(
            GpuDevice::with_faults(GpuSpec::a100(), &plan, 0),
            Err(DeviceError::Sweep(_))
        ));
    }

    #[test]
    fn benign_plan_device_is_bit_identical_to_pristine() {
        let run = |faulted: bool| -> Vec<u64> {
            let mut dev = if faulted {
                GpuDevice::with_faults(GpuSpec::v100(), &FaultPlan::none(), 3).unwrap()
            } else {
                GpuDevice::v100(3)
            };
            (0..32).map(|i| dev.timed_read(SmId::new(7), i)).collect()
        };
        assert_eq!(run(true), run(false));
    }

    /// One step of the read-core equivalence workload.
    #[derive(Debug, Clone, Copy)]
    enum ReadOp {
        /// Algorithm 1: warm the first `lines` lines of `M[slice]`, then
        /// time `reads` loads cycling over them.
        WorkingSet {
            sm: SmId,
            slice: SliceId,
            lines: usize,
            reads: usize,
        },
        /// Warm one line, then time `reads` loads of it.
        WarmRead { sm: SmId, line: u64, reads: usize },
        /// One timed read with no warm-up.
        Read { sm: SmId, line: u64 },
    }

    /// The workload of every read-core caller on `dev`: working sets of
    /// several shapes (fewer reads than lines, wrap-around, one line, no
    /// read), over near and far SMs and every fourth slice plus the last,
    /// then an AES-style warm-then-read per table line, a profiler probe,
    /// cold reads, and a repeat of the first working sets.
    fn read_ops(dev: &GpuDevice) -> Vec<ReadOp> {
        let (sms, slices) = (dev.hierarchy.num_sms(), dev.hierarchy.num_slices());
        let mut ops = Vec::new();
        let shapes = [(8, 12), (3, 2), (1, 5), (4, 0)];
        for sm in [0, sms / 2, sms - 1].map(|i| SmId::new(i as u32)) {
            for (i, s) in (0..slices).step_by(4).chain([slices - 1]).enumerate() {
                let (lines, reads) = shapes[i % shapes.len()];
                ops.push(ReadOp::WorkingSet {
                    sm,
                    slice: SliceId::new(s as u32),
                    lines,
                    reads,
                });
            }
        }
        let repeat = ops[..6].to_vec();
        for line in [0u64, 3, 64, 65, 200, 255] {
            ops.push(ReadOp::WarmRead {
                sm: SmId::new(1),
                line: 0x4000_0000 + line,
                reads: 1,
            });
        }
        ops.push(ReadOp::WarmRead {
            sm: SmId::new(2),
            line: 99_999,
            reads: 8,
        });
        for line in 0..6 {
            ops.push(ReadOp::Read {
                sm: SmId::new(3),
                line: 7_000_000 + line,
            });
        }
        ops.extend(repeat);
        ops
    }

    /// Runs `ops` the way the callers did before the read core: a
    /// `warm_line` loop then `timed_read`s. An unservable working set
    /// reads as `u64::MAX`.
    fn run_reference(dev: &mut GpuDevice, ops: &[ReadOp]) -> Vec<u64> {
        ops.iter()
            .map(|&op| match op {
                ReadOp::WorkingSet {
                    sm,
                    slice,
                    lines,
                    reads,
                } => {
                    let set = dev.addresses_for_slice(sm, slice, lines);
                    if set.is_empty() {
                        return u64::MAX;
                    }
                    for &line in &set {
                        dev.warm_line(sm, line);
                    }
                    (0..reads)
                        .map(|i| dev.timed_read(sm, set[i % set.len()]))
                        .sum()
                }
                ReadOp::WarmRead { sm, line, reads } => {
                    dev.warm_line(sm, line);
                    (0..reads).map(|_| dev.timed_read(sm, line)).sum()
                }
                ReadOp::Read { sm, line } => dev.timed_read(sm, line),
            })
            .collect()
    }

    /// Runs `ops` through the read core.
    fn run_core(dev: &mut GpuDevice, ops: &[ReadOp]) -> Vec<u64> {
        ops.iter()
            .map(|&op| match op {
                ReadOp::WorkingSet {
                    sm,
                    slice,
                    lines,
                    reads,
                } => dev
                    .warm_and_time_slice(sm, slice, lines, reads)
                    .unwrap_or(u64::MAX),
                ReadOp::WarmRead { sm, line, reads } => dev.warm_and_time(sm, line, reads),
                ReadOp::Read { sm, line } => dev.timed_read(sm, line),
            })
            .collect()
    }

    /// Everything a run leaves observable besides its telemetry: the
    /// returned cycles, the virtual clock, the profiler, the L2 occupancy
    /// and the next draws of the jitter stream.
    fn observe(dev: &mut GpuDevice, cycles: Vec<u64>) -> Vec<u64> {
        let mut seen = cycles;
        seen.push(dev.virtual_cycle());
        seen.push(dev.profiler().total());
        seen.extend(dev.profiler().per_slice_counts().unwrap_or(&[]));
        seen.push(dev.l2.len() as u64);
        seen.extend((0..4).map(|_| dev.bandwidth_jitter(1.0).to_bits()));
        seen
    }

    type BuildDevice = fn() -> GpuDevice;

    /// The devices the equivalence test covers, each built twice from one
    /// seed: the three presets, an A100 whose slices 3 and 40 are latently
    /// faulty, a V100 with telemetry, and a custom device with no L2
    /// capacity, which the device clamps to one line so every warm evicts.
    fn read_core_devices() -> Vec<(&'static str, BuildDevice)> {
        vec![
            ("v100", || GpuDevice::v100(11)),
            ("a100", || GpuDevice::a100(12)),
            ("h100", || GpuDevice::h100(13)),
            ("latent", || {
                let mut plan = FaultPlan::none();
                plan.disabled_slices = vec![3, 40];
                GpuDevice::with_latent_faults(GpuSpec::a100(), &plan, 14).unwrap()
            }),
            ("telemetry", || {
                let mut dev = GpuDevice::v100(15);
                dev.set_telemetry(TelemetryHandle::enabled());
                dev
            }),
            ("one_line_l2", || {
                let spec = GpuSpec {
                    l2_mib: 0,
                    ..GpuSpec::custom("no-l2", GpuSpec::v100().hierarchy)
                };
                GpuDevice::with_seed(spec, 16).unwrap()
            }),
        ]
    }

    #[test]
    fn read_core_equals_warm_line_and_timed_read() {
        use gnoc_telemetry::{MemorySink, Telemetry};

        for (name, build) in read_core_devices() {
            let (mut core, mut reference) = (build(), build());
            // Trace events too, where telemetry is on.
            let sinks = core.telemetry().is_enabled().then(|| {
                let sinks = (MemorySink::new(), MemorySink::new());
                for (dev, sink) in [(&mut core, &sinks.0), (&mut reference, &sinks.1)] {
                    dev.set_telemetry(TelemetryHandle::attach(Telemetry::with_sink(Box::new(
                        sink.clone(),
                    ))));
                }
                sinks
            });
            let ops = read_ops(&core);
            let got = run_core(&mut core, &ops);
            let want = run_reference(&mut reference, &ops);
            assert_eq!(
                observe(&mut core, got),
                observe(&mut reference, want),
                "{name}"
            );
            assert_eq!(
                core.telemetry().snapshot_registry(),
                reference.telemetry().snapshot_registry(),
                "{name}"
            );
            if let Some((a, b)) = sinks {
                assert!(!a.snapshot().is_empty(), "{name}");
                assert_eq!(a.snapshot(), b.snapshot(), "{name}");
            }
        }
    }

    #[test]
    fn reference_reads_are_pinned() {
        let mut bytes = Vec::new();
        for (name, build) in read_core_devices() {
            let mut dev = build();
            let ops = read_ops(&dev);
            let cycles = run_reference(&mut dev, &ops);
            for v in observe(&mut dev, cycles) {
                bytes.extend(v.to_le_bytes());
            }
            if let Some(reg) = dev.telemetry().snapshot_registry() {
                bytes.extend(reg.to_json_pretty().bytes());
            }
            bytes.extend(name.bytes());
        }
        assert_eq!(gnoc_telemetry::hash::fnv1a64(&bytes), 0xea2e_3cfc_4a35_e5ae);
    }

    #[test]
    fn partition_local_residency_is_per_partition() {
        let mut dev = GpuDevice::h100(0);
        let h = dev.hierarchy();
        let left = h.sms_in_partition(PartitionId::new(0))[0];
        let right = h.sms_in_partition(PartitionId::new(1))[0];
        dev.warm_line(left, 77);
        let hit = dev.timed_read(left, 77);
        let miss = dev.timed_read(right, 77); // other partition: own copy, cold
        assert!(miss > hit + 100, "hit {hit}, remote-partition miss {miss}");
    }
}
