//! Latency microbenchmarks — the paper's Algorithm 1.
//!
//! One thread of one warp issues dependent, L1-bypassing loads to addresses
//! known to map to a target L2 slice; the working set is warmed so every
//! measured access hits in L2; round-trip time comes from the SM's cycle
//! counter. Pinning the kernel to an SM (via `smid`) and the addresses to a
//! slice (via the `M[s]` table) isolates the NoC contribution.

use gnoc_engine::GpuDevice;
use gnoc_telemetry::{TraceEvent, SUBSYSTEM_CAMPAIGN};
use gnoc_topo::{GpcId, SliceId, SmId};
use serde::{Deserialize, Serialize};

/// Configuration of the Algorithm 1 probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyProbe {
    /// Distinct lines of the target slice in the working set.
    pub working_set_lines: usize,
    /// Timed accesses per (SM, slice) pair; the mean is reported.
    pub samples: usize,
}

impl Default for LatencyProbe {
    fn default() -> Self {
        Self {
            working_set_lines: 8,
            samples: 12,
        }
    }
}

impl LatencyProbe {
    /// Measures mean L2-*hit* round-trip cycles from `sm` to `slice`.
    ///
    /// Implements Algorithm 1: build `M[slice]`, warm those lines, then time
    /// repeated dependent loads.
    pub fn measure_pair(&self, dev: &mut GpuDevice, sm: SmId, slice: SliceId) -> f64 {
        let reads = self.samples.max(1);
        match dev.warm_and_time_slice(sm, slice, self.working_set_lines.max(1), reads) {
            Some(cycles) => cycles as f64 / reads as f64,
            // The slice can never serve this SM (fused off, or remote under
            // partition-local caching): there is no latency to measure.
            None => f64::NAN,
        }
    }

    /// The latency profile of one SM: mean hit latency to every slice the SM
    /// can be served by (all slices on globally-shared devices, the local
    /// partition's slices on partition-local devices).
    pub fn sm_profile(&self, dev: &mut GpuDevice, sm: SmId) -> Vec<f64> {
        let profile: Vec<f64> = self
            .visible_slices(dev, sm)
            .into_iter()
            .map(|slice| self.measure_pair(dev, sm, slice))
            .collect();
        // Campaign-level progress: one record per SM profiled, so a long
        // matrix run shows where it is in the sweep.
        dev.telemetry().counter_add("campaign.sm_profiles", 1);
        dev.telemetry().emit_with(|| {
            let mean = profile.iter().sum::<f64>() / profile.len().max(1) as f64;
            TraceEvent::new(dev.virtual_cycle(), SUBSYSTEM_CAMPAIGN, "sm_profile")
                .with("sm", sm.index())
                .with("slices", profile.len())
                .with("mean_cycles", mean)
        });
        profile
    }

    /// Full latency matrix `[sm][visible slice]` for every SM.
    ///
    /// On partition-local devices each row covers that SM's local slices (the
    /// paper's footnote 5: H100 rows are per-partition slice indices).
    pub fn matrix(&self, dev: &mut GpuDevice) -> Vec<Vec<f64>> {
        let sms: Vec<SmId> = SmId::range(dev.hierarchy().num_sms()).collect();
        sms.into_iter().map(|sm| self.sm_profile(dev, sm)).collect()
    }

    /// Mean L2-*miss* round-trip cycles from `sm` for lines served by
    /// `slice`, measured on cold lines: each sample reads a distinct line of
    /// `M[slice]` that is not L2-resident, skipping any an earlier probe
    /// warmed or missed in.
    pub fn measure_miss(&self, dev: &mut GpuDevice, sm: SmId, slice: SliceId) -> f64 {
        let lines = dev.cold_addresses_for_slice(sm, slice, self.samples.max(1));
        let mut acc = 0u64;
        for &line in &lines {
            acc += dev.timed_read(sm, line); // first touch: L2 miss
        }
        acc as f64 / lines.len() as f64
    }

    /// Mean L2 miss *penalty* (miss minus hit) from `sm` to `slice`.
    pub fn miss_penalty(&self, dev: &mut GpuDevice, sm: SmId, slice: SliceId) -> f64 {
        let miss = self.measure_miss(dev, sm, slice);
        let hit = self.measure_pair(dev, sm, slice);
        miss - hit
    }

    /// Mean hit latency from every SM of `gpc` to every slice of the target
    /// MP group `mp_slices` — the per-(GPC, MP) averages of Fig. 8 (top).
    pub fn gpc_to_slices_mean(
        &self,
        dev: &mut GpuDevice,
        gpc: GpcId,
        mp_slices: &[SliceId],
    ) -> f64 {
        let sms = dev.hierarchy().sms_in_gpc(gpc).to_vec();
        let mut acc = 0.0;
        let mut n = 0.0;
        for sm in sms {
            for &slice in mp_slices {
                acc += self.measure_pair(dev, sm, slice);
                n += 1.0;
            }
        }
        acc / n
    }

    /// The slices an SM's hits can be served from. Slices fused off by a
    /// fault plan are excluded: no address hashes to them, so a degraded
    /// device simply has shorter profiles.
    pub fn visible_slices(&self, dev: &GpuDevice, sm: SmId) -> Vec<SliceId> {
        let h = dev.hierarchy();
        let all: Vec<SliceId> = match dev.spec().cache_policy {
            gnoc_topo::CachePolicy::GloballyShared => SliceId::range(h.num_slices()).collect(),
            gnoc_topo::CachePolicy::PartitionLocal => {
                h.slices_in_partition(h.sm(sm).partition).to_vec()
            }
        };
        all.into_iter().filter(|&s| dev.slice_enabled(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnoc_analysis::Summary;

    #[test]
    fn v100_sm24_profile_matches_fig1() {
        // Fig. 1a: SM 24 sees 175–248 cycles across the 32 slices.
        let mut dev = GpuDevice::v100(0);
        let probe = LatencyProbe::default();
        let profile = probe.sm_profile(&mut dev, SmId::new(24));
        assert_eq!(profile.len(), 32);
        let s = Summary::of(&profile);
        assert!(s.min > 168.0 && s.max < 262.0, "{s}");
        assert!(s.span() > 25.0, "profile should be non-uniform: {s}");
    }

    #[test]
    fn correlation_matrix_bits_are_pinned() {
        // Every entry of the Fig. 6 correlation matrix, bit for bit, on a
        // fixed device.
        let matrix = LatencyProbe::default().matrix(&mut GpuDevice::a100(3));
        let bytes: Vec<u8> = gnoc_analysis::correlation_matrix(&matrix)
            .iter()
            .flatten()
            .flat_map(|r| r.to_bits().to_le_bytes())
            .collect();
        assert_eq!(gnoc_telemetry::hash::fnv1a64(&bytes), 16839609458029050205);
    }

    #[test]
    fn measured_latency_tracks_model_mean() {
        let mut dev = GpuDevice::v100(3);
        let probe = LatencyProbe {
            working_set_lines: 4,
            samples: 50,
        };
        let sm = SmId::new(10);
        let slice = SliceId::new(5);
        let measured = probe.measure_pair(&mut dev, sm, slice);
        let model = dev.hit_cycles_mean(sm, slice);
        assert!((measured - model).abs() < 2.5, "{measured} vs {model}");
    }

    #[test]
    fn miss_penalty_close_to_dram_constant_on_v100() {
        // Twice: a second call must find fresh cold lines, not re-read the
        // first call's (now resident) ones.
        let mut dev = GpuDevice::v100(1);
        let probe = LatencyProbe::default();
        for _ in 0..2 {
            let p = probe.miss_penalty(&mut dev, SmId::new(0), SliceId::new(2));
            assert!((170.0..215.0).contains(&p), "penalty {p}");
        }
    }

    #[test]
    fn measure_miss_after_measure_pair_skips_warmed_lines() {
        // `measure_pair` warms the first lines of `M[s]`; a miss probe that
        // reused them used to average hits and misses.
        let mut dev = GpuDevice::v100(1);
        let probe = LatencyProbe::default();
        let (sm, slice) = (SmId::new(0), SliceId::new(2));
        probe.measure_pair(&mut dev, sm, slice);
        let penalty = probe.measure_miss(&mut dev, sm, slice) - dev.hit_cycles_mean(sm, slice);
        assert!((170.0..215.0).contains(&penalty), "penalty {penalty}");
    }

    #[test]
    fn h100_profiles_are_partition_local() {
        let mut dev = GpuDevice::h100(0);
        let probe = LatencyProbe::default();
        let profile = probe.sm_profile(&mut dev, SmId::new(0));
        // 80 slices total, 40 per partition.
        assert_eq!(profile.len(), 40);
    }

    #[test]
    fn matrix_has_one_row_per_sm() {
        let mut dev = GpuDevice::v100(0);
        let probe = LatencyProbe {
            working_set_lines: 2,
            samples: 2,
        };
        let m = probe.matrix(&mut dev);
        assert_eq!(m.len(), 80);
        assert!(m.iter().all(|row| row.len() == 32));
    }

    #[test]
    fn gpc_means_are_similar_across_gpcs_on_v100() {
        // Observation #2: per-GPC average latency is similar.
        let mut dev = GpuDevice::v100(0);
        let probe = LatencyProbe {
            working_set_lines: 2,
            samples: 4,
        };
        let slices: Vec<SliceId> = SliceId::range(32).collect();
        let means: Vec<f64> = (0..6)
            .map(|g| probe.gpc_to_slices_mean(&mut dev, GpcId::new(g), &slices))
            .collect();
        let s = Summary::of(&means);
        assert!(
            s.span() / s.mean < 0.06,
            "per-GPC means should be close: {means:?}"
        );
    }
}
