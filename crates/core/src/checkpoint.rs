//! Checkpointed (killable and resumable) measurement campaigns.
//!
//! A full latency campaign on a large device sweeps every (SM, slice) pair
//! and can run for a long time; a crash near the end loses everything. This
//! module runs the sweep in batches of rows (one SM profile per row, one row
//! per worker), persisting a JSON checkpoint after each completed batch so
//! an interrupted campaign resumes from the last finished SM.
//!
//! **Determinism.** Each row is measured on a *fresh* device seeded from
//! `mix(seed, sm)`, so a row's result depends only on the campaign
//! parameters and the SM index — never on how many rows ran before it or in
//! which process. Killing a checkpointed campaign at any point and resuming
//! therefore reproduces the uninterrupted result bit for bit.
//!
//! ## Checkpoint file format (version 2)
//!
//! ```json
//! {
//!   "version": 2,
//!   "device": "a100fs",
//!   "seed": 42,
//!   "probe": { "working_set_lines": 8, "samples": 12 },
//!   "plan": { ... FaultPlan ... } | null,
//!   "quarantined_sms": [3, 17],
//!   "rows": [[...row 0...], [...row 1...]]
//! }
//! ```
//!
//! `rows[i]` is SM *i*'s completed latency profile; a quarantined SM's row
//! is recorded as an explicit empty placeholder. Resuming validates that
//! `device`, `seed`, `probe`, and `plan` match the requested campaign and
//! continues at row `rows.len()`; version-1 files (which had no quarantine
//! set) are rejected with [`CheckpointError::Version`] rather than guessed
//! at.
//!
//! ## One driver, one assembler
//!
//! [`CheckpointedCampaign::run`] is the only row loop: it measures rows in
//! batches across a [`WorkerPool`] and hands each finished batch to the
//! caller (which saves its checkpoint there), optionally stopping after a
//! per-run budget of measured rows. [`CheckpointedCampaign::finish`] is the
//! only assembler: it builds a [`LatencyCampaign`] over the measured rows
//! plus a [`CoverageReport`] stating exactly what was not covered;
//! [`CheckpointedCampaign::finish_full`] is the same result for callers
//! that need every SM measured.
//!
//! ## Degraded mode
//!
//! When the health layer has quarantined SMs (their router or slice path is
//! fenced off), [`CheckpointedCampaign::set_quarantined_sms`] removes them
//! from the schedulable set: their rows are skipped with explicit
//! placeholders, and `finish` salvages the measured rows. The row budget is
//! a deterministic *row count*, not wall-clock, so runs stay replayable.

use crate::campaign::LatencyCampaign;
// Checkpoint persistence goes through the shared crash-safe writer in
// `crate::fsio` (temp sibling + fsync + rename + directory fsync); the
// resume paths call its `remove_orphan_tmp` to clean up after a kill
// between write and rename.
use crate::fsio::remove_orphan_tmp;
use gnoc_analysis::{correlation_matrix_par, Summary};
use gnoc_engine::GpuDevice;
use gnoc_faults::FaultPlan;
use gnoc_microbench::LatencyProbe;
use gnoc_par::WorkerPool;
use gnoc_telemetry::hash::{mix64, GOLDEN_GAMMA};
use gnoc_telemetry::{TelemetryHandle, TraceEvent, SUBSYSTEM_CAMPAIGN};
use gnoc_topo::{GpuSpec, SmId};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Current checkpoint file version.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Errors from checkpointed campaigns.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The preset name is not one of the known devices.
    UnknownDevice(String),
    /// Device construction failed (bad fault plan, sweep, ...).
    Device(String),
    /// Reading or writing the checkpoint file failed.
    Io(String),
    /// The checkpoint file is not valid JSON for this format.
    Parse(String),
    /// The checkpoint file was written by a different format version.
    Version(u32),
    /// The checkpoint's campaign parameters differ from the requested ones;
    /// the field name that differs is included.
    Mismatch(&'static str),
    /// The checkpoint holds more rows than the device has SMs.
    TooManyRows {
        /// Rows found in the checkpoint.
        rows: usize,
        /// SMs on the device.
        sms: usize,
    },
    /// [`CheckpointedCampaign::finish_full`] was called before every row
    /// was measured, or [`CheckpointedCampaign::finish`] before any.
    Incomplete {
        /// Rows measured so far.
        done: usize,
        /// Rows the campaign needs.
        total: usize,
    },
    /// A quarantined SM index does not exist on the device.
    QuarantinedSm {
        /// The offending SM index.
        sm: u32,
        /// SMs on the device.
        sms: usize,
    },
    /// Every SM is quarantined; the campaign has nothing to measure.
    AllQuarantined,
    /// [`CheckpointedCampaign::finish_full`] was called on a degraded
    /// campaign; full results do not exist, only the salvageable partial
    /// ones [`CheckpointedCampaign::finish`] returns.
    Degraded {
        /// Rows actually measured.
        measured: usize,
        /// SMs skipped as quarantined.
        quarantined: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownDevice(name) => write!(
                f,
                "unknown device preset {name:?} (try v100, a100, a100full, a100fs, h100)"
            ),
            Self::Device(e) => write!(f, "device construction failed: {e}"),
            Self::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            Self::Parse(e) => write!(f, "checkpoint parse failed: {e}"),
            Self::Version(v) => write!(
                f,
                "checkpoint version {v} is not supported (expected {CHECKPOINT_VERSION})"
            ),
            Self::Mismatch(field) => write!(
                f,
                "checkpoint was taken with a different campaign parameter: {field}"
            ),
            Self::TooManyRows { rows, sms } => {
                write!(f, "checkpoint has {rows} rows but the device has {sms} SMs")
            }
            Self::Incomplete { done, total } => {
                write!(f, "campaign has unmeasured rows ({done} of {total} done)")
            }
            Self::QuarantinedSm { sm, sms } => {
                write!(
                    f,
                    "quarantined SM {sm} is out of range for a device with {sms} SMs"
                )
            }
            Self::AllQuarantined => write!(f, "every SM is quarantined; nothing to measure"),
            // `gnoc campaign` prints this when a full run resumes a degraded
            // checkpoint, so it names the CLI route to the salvaged result.
            Self::Degraded {
                measured,
                quarantined,
            } => write!(
                f,
                "campaign ran degraded ({measured} rows measured, {quarantined} SMs \
                 quarantined); rerun with the checkpoint's --quarantine-sms for the \
                 salvaged result"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The spec a device-preset name denotes.
pub fn spec_for_preset(name: &str) -> Result<GpuSpec, CheckpointError> {
    match name {
        "v100" => Ok(GpuSpec::v100()),
        "a100" => Ok(GpuSpec::a100()),
        "a100full" => Ok(GpuSpec::a100_full()),
        "a100fs" => Ok(GpuSpec::a100_floorswept()),
        "h100" => Ok(GpuSpec::h100()),
        other => Err(CheckpointError::UnknownDevice(other.to_string())),
    }
}

/// Builds a preset device with `seed`, applying `plan` when given (its
/// floorsweep, disabled slices, and calibration rescaling included).
pub fn device_for_preset(
    name: &str,
    seed: u64,
    plan: Option<&FaultPlan>,
) -> Result<GpuDevice, CheckpointError> {
    let spec = spec_for_preset(name)?;
    match plan {
        Some(plan) => GpuDevice::with_faults(spec, plan, seed)
            .map_err(|e| CheckpointError::Device(e.to_string())),
        None => {
            GpuDevice::with_seed(spec, seed).map_err(|e| CheckpointError::Device(e.to_string()))
        }
    }
}

/// splitmix64-style row seed: depends only on the campaign seed and the SM
/// index, making every row measurement order-independent — the property that
/// lets [`CheckpointedCampaign`] resume bit-identically and lets its driver
/// compute rows on any worker in any order with identical results.
pub fn row_seed(seed: u64, sm: usize) -> u64 {
    mix64(seed ^ (sm as u64).wrapping_mul(GOLDEN_GAMMA))
}

/// Just the version field — parsed first so that files written by older
/// format versions are rejected with [`CheckpointError::Version`] instead of
/// a confusing missing-field parse error.
#[derive(Debug, Deserialize)]
struct VersionProbe {
    version: u32,
}

/// On-disk checkpoint contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CheckpointFile {
    version: u32,
    device: String,
    seed: u64,
    probe: LatencyProbe,
    plan: Option<FaultPlan>,
    quarantined_sms: Vec<u32>,
    rows: Vec<Vec<f64>>,
}

/// Explicit statement of what a (possibly degraded) campaign covered.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// Rows the full campaign would have (SMs on the device).
    pub total: usize,
    /// Rows actually measured.
    pub measured: usize,
    /// SMs skipped because the health layer quarantined them.
    pub quarantined: Vec<u32>,
    /// Rows never reached (deadline budget ran out before them).
    pub unreached: usize,
}

impl CoverageReport {
    /// Fraction of the device actually measured, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.measured as f64 / self.total as f64
        }
    }

    /// Whether the campaign covered every SM.
    pub fn is_full(&self) -> bool {
        self.measured == self.total
    }
}

/// A latency campaign that runs one SM row at a time and can checkpoint and
/// resume between rows.
#[derive(Debug, Clone)]
pub struct CheckpointedCampaign {
    device: String,
    seed: u64,
    probe: LatencyProbe,
    plan: Option<FaultPlan>,
    /// SMs the health layer has fenced off; their rows are skipped with
    /// explicit empty placeholders. Sorted, deduplicated.
    quarantined_sms: Vec<u32>,
    rows: Vec<Vec<f64>>,
    num_sms: usize,
    telemetry: TelemetryHandle,
}

impl CheckpointedCampaign {
    /// Starts a fresh campaign on preset `device`.
    pub fn new(
        device: &str,
        seed: u64,
        probe: LatencyProbe,
        plan: Option<FaultPlan>,
    ) -> Result<Self, CheckpointError> {
        let dev = device_for_preset(device, seed, plan.as_ref())?;
        Ok(Self {
            device: device.to_string(),
            seed,
            probe,
            plan,
            quarantined_sms: Vec::new(),
            rows: Vec::new(),
            num_sms: dev.hierarchy().num_sms(),
            telemetry: TelemetryHandle::disabled(),
        })
    }

    /// Loads a checkpoint and validates it against the requested campaign
    /// parameters; completed rows carry over.
    pub fn resume(
        path: &Path,
        device: &str,
        seed: u64,
        probe: LatencyProbe,
        plan: Option<FaultPlan>,
    ) -> Result<Self, CheckpointError> {
        remove_orphan_tmp(path);
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let probe_version: VersionProbe =
            serde_json::from_str(&text).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        if probe_version.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version(probe_version.version));
        }
        let file: CheckpointFile =
            serde_json::from_str(&text).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        if file.device != device {
            return Err(CheckpointError::Mismatch("device"));
        }
        if file.seed != seed {
            return Err(CheckpointError::Mismatch("seed"));
        }
        if file.probe != probe {
            return Err(CheckpointError::Mismatch("probe"));
        }
        if file.plan != plan {
            return Err(CheckpointError::Mismatch("plan"));
        }
        let mut campaign = Self::new(device, seed, probe, plan)?;
        if file.rows.len() > campaign.num_sms {
            return Err(CheckpointError::TooManyRows {
                rows: file.rows.len(),
                sms: campaign.num_sms,
            });
        }
        campaign.set_quarantined_sms(file.quarantined_sms)?;
        campaign.rows = file.rows;
        Ok(campaign)
    }

    /// Resumes from `path` when it exists, otherwise starts fresh.
    pub fn resume_or_new(
        path: &Path,
        device: &str,
        seed: u64,
        probe: LatencyProbe,
        plan: Option<FaultPlan>,
    ) -> Result<Self, CheckpointError> {
        remove_orphan_tmp(path);
        if path.exists() {
            Self::resume(path, device, seed, probe, plan)
        } else {
            Self::new(device, seed, probe, plan)
        }
    }

    /// Attaches telemetry; each row device inherits it, and a
    /// `campaign.checkpoint_rows` counter tracks resumable progress.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// Removes `sms` from the schedulable set (their rows will be skipped
    /// with explicit placeholders). The set is sorted and deduplicated.
    ///
    /// A campaign that has already recorded rows is pinned to its quarantine
    /// set: the schedulable set decides *which* SMs the recorded positions
    /// mean, so changing it mid-campaign (or on resume) would silently
    /// reinterpret history. Such a change is rejected with
    /// [`CheckpointError::Mismatch`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::QuarantinedSm`] for an out-of-range SM,
    /// [`CheckpointError::AllQuarantined`] when nothing would remain
    /// schedulable, [`CheckpointError::Mismatch`] when rows exist and the
    /// set differs from the one they were recorded under.
    pub fn set_quarantined_sms(&mut self, sms: Vec<u32>) -> Result<(), CheckpointError> {
        let mut sms = sms;
        sms.sort_unstable();
        sms.dedup();
        if let Some(&sm) = sms.iter().find(|&&sm| sm as usize >= self.num_sms) {
            return Err(CheckpointError::QuarantinedSm {
                sm,
                sms: self.num_sms,
            });
        }
        if sms.len() >= self.num_sms {
            return Err(CheckpointError::AllQuarantined);
        }
        if !self.rows.is_empty() && sms != self.quarantined_sms {
            return Err(CheckpointError::Mismatch("quarantined_sms"));
        }
        self.quarantined_sms = sms;
        Ok(())
    }

    /// The quarantined (skipped) SMs, ascending.
    pub fn quarantined_sms(&self) -> &[u32] {
        &self.quarantined_sms
    }

    /// Whether `sm` is quarantined.
    pub fn is_quarantined(&self, sm: usize) -> bool {
        self.quarantined_sms.binary_search(&(sm as u32)).is_ok()
    }

    /// Rows completed so far.
    pub fn completed_rows(&self) -> usize {
        self.rows.len()
    }

    /// Total rows (SMs on the device).
    pub fn num_sms(&self) -> usize {
        self.num_sms
    }

    /// Whether every row has been measured.
    pub fn is_complete(&self) -> bool {
        self.rows.len() >= self.num_sms
    }

    /// Measures SM `sm`'s row on a fresh device seeded with
    /// [`row_seed`]`(seed, sm)`: the one row kernel, so a row depends only
    /// on the campaign parameters and its index, never on the worker or the
    /// batch that measured it.
    fn measure_row(&self, sm: usize) -> Result<Vec<f64>, CheckpointError> {
        let mut dev = device_for_preset(&self.device, row_seed(self.seed, sm), self.plan.as_ref())?;
        dev.set_telemetry(self.telemetry.clone());
        Ok(self.probe.sm_profile(&mut dev, SmId::new(sm as u32)))
    }

    /// Writes the checkpoint (atomically: temp file + rename) to `path`.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let file = CheckpointFile {
            version: CHECKPOINT_VERSION,
            device: self.device.clone(),
            seed: self.seed,
            probe: self.probe,
            plan: self.plan.clone(),
            quarantined_sms: self.quarantined_sms.clone(),
            rows: self.rows.clone(),
        };
        let text = serde_json::to_string_pretty(&file)
            .map_err(|e| CheckpointError::Parse(e.to_string()))?;
        crate::fsio::atomic_write(path, text.as_bytes())
            .map_err(|e| CheckpointError::Io(e.to_string()))?;
        Ok(())
    }

    /// The campaign driver: measures the remaining rows in batches until the
    /// campaign is complete or `budget` rows have been *measured* this run
    /// (a deterministic row count, not wall-clock, so runs stay replayable;
    /// placeholders do not consume it).
    ///
    /// A batch takes the next rows until it holds `pool.jobs()` measured
    /// rows or the budget left, whichever is smaller; quarantined SMs in
    /// between get explicit empty placeholders. It stops right after its
    /// last measured row, so trailing placeholders join only the batch that
    /// reaches the last row. These are the rows a serial run takes, so the
    /// rows, the coverage and the final checkpoint's bytes are the same for
    /// any worker count. The measured rows fan out across `pool`'s workers.
    ///
    /// `after_batch` runs after every batch; callers save their checkpoint
    /// there, so a kill loses at most the batch in progress.
    ///
    /// # Errors
    ///
    /// Propagates row-measurement errors and the first `after_batch` error.
    pub fn run(
        &mut self,
        pool: &WorkerPool,
        budget: Option<usize>,
        mut after_batch: impl FnMut(&Self) -> Result<(), CheckpointError>,
    ) -> Result<(), CheckpointError> {
        let mut spent = 0;
        while !self.is_complete() {
            let left = budget.map_or(usize::MAX, |budget| budget - spent);
            if left == 0 {
                self.telemetry.emit_with(|| {
                    TraceEvent::new(0, SUBSYSTEM_CAMPAIGN, "deadline_exhausted")
                        .with("measured_this_run", spent)
                        .with("rows_done", self.rows.len())
                });
                break;
            }
            let start = self.rows.len();
            let quota = pool.jobs().min(left);
            let mut sms = Vec::with_capacity(quota);
            let mut end = start;
            while end < self.num_sms && sms.len() < quota {
                if !self.is_quarantined(end) {
                    sms.push(end);
                }
                end += 1;
            }
            let mut measured = pool.par_map(&sms, |&sm| self.measure_row(sm)).into_iter();
            for sm in start..end {
                let row = if self.is_quarantined(sm) {
                    self.telemetry.counter_add("campaign.skipped_rows", 1);
                    self.telemetry.emit_with(|| {
                        TraceEvent::new(0, SUBSYSTEM_CAMPAIGN, "row_skipped_quarantined")
                            .with("sm", sm)
                    });
                    Vec::new()
                } else {
                    self.telemetry.counter_add("campaign.checkpoint_rows", 1);
                    measured.next().expect("one result per measured SM")?
                };
                self.rows.push(row);
            }
            spent += sms.len();
            after_batch(self)?;
            for sm in start..end {
                self.telemetry.emit_with(|| {
                    TraceEvent::new(0, SUBSYSTEM_CAMPAIGN, "checkpoint_row")
                        .with("sm", sm)
                        .with("of", self.num_sms)
                });
            }
        }
        Ok(())
    }

    /// What the campaign has covered so far.
    pub fn coverage(&self) -> CoverageReport {
        CoverageReport {
            total: self.num_sms,
            measured: self.rows.iter().filter(|r| !r.is_empty()).count(),
            quarantined: self.quarantined_sms.clone(),
            unreached: self.num_sms - self.rows.len(),
        }
    }

    /// Assembles a [`LatencyCampaign`] from the measured rows, together with
    /// an explicit [`CoverageReport`] of what is missing. The matrix has one
    /// row per *measured* SM, in SM order; the correlation matrix fans out
    /// across `pool`'s workers, bit-identical to the serial one.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Incomplete`] when no row has been
    /// measured at all.
    pub fn finish(
        &self,
        pool: &WorkerPool,
    ) -> Result<(LatencyCampaign, CoverageReport), CheckpointError> {
        let coverage = self.coverage();
        if coverage.measured == 0 {
            return Err(CheckpointError::Incomplete {
                done: 0,
                total: self.num_sms,
            });
        }
        let matrix: Vec<Vec<f64>> = self
            .rows
            .iter()
            .filter(|r| !r.is_empty())
            .cloned()
            .collect();
        let sm_summaries = matrix.iter().map(|row| Summary::of(row)).collect();
        let correlation = correlation_matrix_par(&matrix, pool);
        Ok((
            LatencyCampaign {
                matrix,
                sm_summaries,
                correlation,
            },
            coverage,
        ))
    }

    /// [`finish`](Self::finish) for callers that need the full result:
    /// checks that every SM was measured first.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Incomplete`] when rows are still
    /// unmeasured, or [`CheckpointError::Degraded`] when quarantined SMs
    /// left placeholder rows — typed errors rather than panics, so a fuzzer
    /// driving campaigns through arbitrary schedules can never abort the
    /// process.
    pub fn finish_full(&self, pool: &WorkerPool) -> Result<LatencyCampaign, CheckpointError> {
        if !self.is_complete() {
            return Err(CheckpointError::Incomplete {
                done: self.rows.len(),
                total: self.num_sms,
            });
        }
        let coverage = self.coverage();
        if !coverage.quarantined.is_empty() || !coverage.is_full() {
            return Err(CheckpointError::Degraded {
                measured: coverage.measured,
                quarantined: coverage.quarantined.len(),
            });
        }
        Ok(self.finish(pool)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_probe() -> LatencyProbe {
        LatencyProbe {
            working_set_lines: 2,
            samples: 2,
        }
    }

    fn tmp_path_file(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gnoc-ckpt-{name}-{}.json", std::process::id()))
    }

    /// Runs every remaining row serially and returns the full result.
    fn run_full(c: &mut CheckpointedCampaign, path: Option<&Path>) -> LatencyCampaign {
        let pool = WorkerPool::serial();
        c.run(&pool, None, |c| path.map_or(Ok(()), |p| c.save(p)))
            .unwrap();
        c.finish_full(&pool).unwrap()
    }

    /// Measures `rows` rows serially, without saving.
    fn run_rows(c: &mut CheckpointedCampaign, rows: usize) {
        c.run(&WorkerPool::serial(), Some(rows), |_| Ok(()))
            .unwrap();
    }

    /// Runs serially within `budget`, saving to `path`, and salvages.
    fn run_salvage(
        c: &mut CheckpointedCampaign,
        path: Option<&Path>,
        budget: Option<usize>,
    ) -> Result<(LatencyCampaign, CoverageReport), CheckpointError> {
        let pool = WorkerPool::serial();
        c.run(&pool, budget, |c| path.map_or(Ok(()), |p| c.save(p)))?;
        c.finish(&pool)
    }

    #[test]
    fn checkpointed_run_matches_itself_and_row_count() {
        let mut c = CheckpointedCampaign::new("v100", 3, quick_probe(), None).unwrap();
        let result = run_full(&mut c, None);
        assert_eq!(result.matrix.len(), 80);
        let mut c2 = CheckpointedCampaign::new("v100", 3, quick_probe(), None).unwrap();
        assert_eq!(run_full(&mut c2, None), result);
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let path = tmp_path_file("resume");
        let _ = std::fs::remove_file(&path);

        // Uninterrupted reference run.
        let mut full = CheckpointedCampaign::new("v100", 9, quick_probe(), None).unwrap();
        let reference = run_full(&mut full, None);

        // Run 13 rows, checkpointing, then "die".
        let mut first = CheckpointedCampaign::new("v100", 9, quick_probe(), None).unwrap();
        run_rows(&mut first, 13);
        first.save(&path).unwrap();
        drop(first);

        // Resume in a "new process" and finish.
        let mut resumed =
            CheckpointedCampaign::resume(&path, "v100", 9, quick_probe(), None).unwrap();
        assert_eq!(resumed.completed_rows(), 13);
        let result = run_full(&mut resumed, Some(&path));
        assert_eq!(result, reference, "resume must be bit-identical");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_mismatched_parameters() {
        let path = tmp_path_file("mismatch");
        let _ = std::fs::remove_file(&path);
        let mut c = CheckpointedCampaign::new("v100", 4, quick_probe(), None).unwrap();
        run_rows(&mut c, 1);
        c.save(&path).unwrap();

        let err = CheckpointedCampaign::resume(&path, "v100", 5, quick_probe(), None).unwrap_err();
        assert_eq!(err, CheckpointError::Mismatch("seed"));
        let err = CheckpointedCampaign::resume(&path, "a100", 4, quick_probe(), None).unwrap_err();
        assert_eq!(err, CheckpointError::Mismatch("device"));
        let other_probe = LatencyProbe {
            working_set_lines: 3,
            samples: 2,
        };
        let err = CheckpointedCampaign::resume(&path, "v100", 4, other_probe, None).unwrap_err();
        assert_eq!(err, CheckpointError::Mismatch("probe"));
        let err =
            CheckpointedCampaign::resume(&path, "v100", 4, quick_probe(), Some(FaultPlan::none()))
                .unwrap_err();
        assert_eq!(err, CheckpointError::Mismatch("plan"));

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn floorswept_preset_campaign_runs_in_paper_band() {
        let mut c = CheckpointedCampaign::new("a100fs", 1, quick_probe(), None).unwrap();
        assert_eq!(c.num_sms(), 108, "floor-swept A100 has 108 SMs");
        let result = run_full(&mut c, None);
        // The A100 mixes near (~212) and far (~400) partition crossings
        // (paper Fig. 8b), so the all-pairs grand mean sits near 300.
        let mean = result.grand_mean();
        assert!(
            (280.0..320.0).contains(&mean),
            "floor-swept A100 grand mean {mean} outside the calibrated band"
        );
    }

    #[test]
    fn corrupt_or_truncated_checkpoint_is_rejected_not_silently_restarted() {
        let path = tmp_path_file("corrupt");
        let _ = std::fs::remove_file(&path);

        // Corrupt: not JSON at all.
        std::fs::write(&path, "{ this is not json").unwrap();
        let err = CheckpointedCampaign::resume(&path, "v100", 1, quick_probe(), None).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse(_)), "got {err:?}");
        // resume_or_new must propagate the error, not restart from row 0.
        let err =
            CheckpointedCampaign::resume_or_new(&path, "v100", 1, quick_probe(), None).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse(_)), "got {err:?}");

        // Truncated: a valid prefix of a real checkpoint.
        let mut c = CheckpointedCampaign::new("v100", 1, quick_probe(), None).unwrap();
        run_rows(&mut c, 1);
        c.save(&path).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = CheckpointedCampaign::resume(&path, "v100", 1, quick_probe(), None).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse(_)), "got {err:?}");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn orphan_tmp_file_is_cleaned_on_resume_and_named_after_the_full_file() {
        let path = tmp_path_file("orphan");
        let _ = std::fs::remove_file(&path);

        let mut c = CheckpointedCampaign::new("v100", 2, quick_probe(), None).unwrap();
        run_rows(&mut c, 1);
        c.save(&path).unwrap();
        // The temp suffix is appended, so the temp of "x.json" is
        // "x.json.tmp" — never colliding with another campaign's "x.tmp".
        let tmp = crate::fsio::tmp_sibling(&path);
        assert_eq!(
            tmp.file_name().unwrap().to_string_lossy(),
            format!("{}.tmp", path.file_name().unwrap().to_string_lossy())
        );
        assert!(!tmp.exists(), "save must rename the temp away");

        // Simulate a kill between write and rename: an orphan temp remains.
        std::fs::write(&tmp, "partial garbage from a dead process").unwrap();
        let resumed = CheckpointedCampaign::resume(&path, "v100", 2, quick_probe(), None).unwrap();
        assert_eq!(resumed.completed_rows(), 1);
        assert!(!tmp.exists(), "resume must clean the orphan temp");

        // resume_or_new with no real checkpoint also cleans the orphan.
        let _ = std::fs::remove_file(&path);
        std::fs::write(&tmp, "orphan with no checkpoint").unwrap();
        let fresh =
            CheckpointedCampaign::resume_or_new(&path, "v100", 2, quick_probe(), None).unwrap();
        assert_eq!(fresh.completed_rows(), 0);
        assert!(!tmp.exists());
    }

    #[test]
    fn finish_on_an_incomplete_campaign_is_a_typed_error() {
        let mut c = CheckpointedCampaign::new("v100", 1, quick_probe(), None).unwrap();
        let pool = WorkerPool::serial();
        assert_eq!(
            c.finish(&pool).unwrap_err(),
            CheckpointError::Incomplete { done: 0, total: 80 }
        );
        run_rows(&mut c, 1);
        let err = c.finish_full(&pool).unwrap_err();
        assert_eq!(err, CheckpointError::Incomplete { done: 1, total: 80 });
        assert!(err.to_string().contains("1 of 80"));
    }

    #[test]
    fn version_1_checkpoint_is_rejected_with_pinned_message() {
        let path = tmp_path_file("v1");
        let _ = std::fs::remove_file(&path);
        // A syntactically valid version-1 file (no quarantined_sms field).
        std::fs::write(
            &path,
            r#"{"version":1,"device":"v100","seed":1,
               "probe":{"working_set_lines":2,"samples":2},
               "plan":null,"rows":[]}"#,
        )
        .unwrap();
        let err = CheckpointedCampaign::resume(&path, "v100", 1, quick_probe(), None).unwrap_err();
        // The version gate must fire before any field comparison, and its
        // message is pinned: scripts grep for it.
        assert_eq!(err, CheckpointError::Version(1));
        assert_eq!(
            err.to_string(),
            "checkpoint version 1 is not supported (expected 2)"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatch_message_is_pinned() {
        assert_eq!(
            CheckpointError::Mismatch("seed").to_string(),
            "checkpoint was taken with a different campaign parameter: seed"
        );
    }

    #[test]
    fn quarantine_set_validates() {
        let mut c = CheckpointedCampaign::new("v100", 1, quick_probe(), None).unwrap();
        assert_eq!(
            c.set_quarantined_sms(vec![200]).unwrap_err(),
            CheckpointError::QuarantinedSm { sm: 200, sms: 80 }
        );
        assert_eq!(
            c.set_quarantined_sms((0..80).collect()).unwrap_err(),
            CheckpointError::AllQuarantined
        );
        c.set_quarantined_sms(vec![5, 3, 5]).unwrap();
        assert_eq!(c.quarantined_sms(), &[3, 5]);
        assert!(c.is_quarantined(3) && c.is_quarantined(5) && !c.is_quarantined(4));
    }

    #[test]
    fn degraded_campaign_skips_quarantined_sms_and_salvages_partial() {
        let mut c = CheckpointedCampaign::new("v100", 6, quick_probe(), None).unwrap();
        c.set_quarantined_sms(vec![0, 7]).unwrap();
        let (campaign, coverage) = run_salvage(&mut c, None, None).unwrap();
        assert_eq!(coverage.total, 80);
        assert_eq!(coverage.measured, 78);
        assert_eq!(coverage.quarantined, vec![0, 7]);
        assert_eq!(coverage.unreached, 0);
        assert!(!coverage.is_full());
        assert!((coverage.fraction() - 78.0 / 80.0).abs() < 1e-12);
        assert_eq!(campaign.matrix.len(), 78, "matrix holds measured rows only");
        // A degraded campaign refuses the full-result path with a typed
        // error naming the salvage route.
        let err = c.finish_full(&WorkerPool::serial()).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::Degraded {
                measured: 78,
                quarantined: 2
            }
        );
        // `gnoc campaign` prints this when a full run resumes a degraded
        // checkpoint; the text is pinned.
        assert_eq!(
            err.to_string(),
            "campaign ran degraded (78 rows measured, 2 SMs quarantined); \
             rerun with the checkpoint's --quarantine-sms for the salvaged result"
        );
        // Measured rows are bit-identical to the same rows of an
        // unquarantined campaign: skipping never perturbs other rows.
        let mut full = CheckpointedCampaign::new("v100", 6, quick_probe(), None).unwrap();
        let reference = run_full(&mut full, None);
        let kept: Vec<&Vec<f64>> = reference
            .matrix
            .iter()
            .enumerate()
            .filter(|(sm, _)| *sm != 0 && *sm != 7)
            .map(|(_, r)| r)
            .collect();
        for (got, want) in campaign.matrix.iter().zip(kept) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn deadline_budget_salvages_partial_results() {
        let mut c = CheckpointedCampaign::new("v100", 2, quick_probe(), None).unwrap();
        let (campaign, coverage) = run_salvage(&mut c, None, Some(10)).unwrap();
        assert_eq!(coverage.measured, 10);
        assert_eq!(coverage.unreached, 70);
        assert_eq!(campaign.matrix.len(), 10);
        // A second run with a fresh budget continues where the first ended.
        let (campaign, coverage) = run_salvage(&mut c, None, Some(10)).unwrap();
        assert_eq!(coverage.measured, 20);
        assert_eq!(campaign.matrix.len(), 20);
        // An exhausted budget with nothing measured yet is a typed error.
        let mut empty = CheckpointedCampaign::new("v100", 2, quick_probe(), None).unwrap();
        assert_eq!(
            run_salvage(&mut empty, None, Some(0)).unwrap_err(),
            CheckpointError::Incomplete { done: 0, total: 80 }
        );
    }

    #[test]
    fn resume_after_quarantine_change_is_rejected() {
        let path = tmp_path_file("quarantine-resume");
        let _ = std::fs::remove_file(&path);

        let mut c = CheckpointedCampaign::new("v100", 8, quick_probe(), None).unwrap();
        c.set_quarantined_sms(vec![1]).unwrap();
        run_rows(&mut c, 3);
        c.save(&path).unwrap();

        // Resume restores the recorded quarantine set...
        let mut resumed =
            CheckpointedCampaign::resume(&path, "v100", 8, quick_probe(), None).unwrap();
        assert_eq!(resumed.quarantined_sms(), &[1]);
        assert_eq!(resumed.completed_rows(), 4);
        // ...re-pinning the same set is fine...
        resumed.set_quarantined_sms(vec![1]).unwrap();
        // ...but changing the schedulable SM set under recorded rows is not:
        // positions would silently change meaning.
        assert_eq!(
            resumed.set_quarantined_sms(vec![2]).unwrap_err(),
            CheckpointError::Mismatch("quarantined_sms")
        );
        // The salvaged result is bit-identical to an uninterrupted degraded
        // run with the same quarantine set.
        let (salvaged, _) = run_salvage(&mut resumed, Some(&path), None).unwrap();
        let mut reference = CheckpointedCampaign::new("v100", 8, quick_probe(), None).unwrap();
        reference.set_quarantined_sms(vec![1]).unwrap();
        let (want, _) = run_salvage(&mut reference, None, None).unwrap();
        assert_eq!(salvaged, want);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_preset_is_rejected() {
        assert!(matches!(
            CheckpointedCampaign::new("b200", 0, quick_probe(), None),
            Err(CheckpointError::UnknownDevice(_))
        ));
    }
}
