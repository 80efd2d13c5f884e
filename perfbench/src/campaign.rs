//! `campaign`: device characterisation on the analytic model.
//!
//! One op is one SM row: `LatencyProbe::sm_profile` plus
//! `sm_slice_profile_gbps` on one device. Devices take turns a pass at a
//! time (V100, A100, H100, each built from the seed during set-up). After a
//! device's last row, the pass runs `correlation_matrix`, `infer_placement`
//! and one AES and one RSA attack; that per-pass work is not an op, but it
//! counts in the timed seconds. The attacks are sized to about a quarter of
//! a pass, their share of figure regeneration.
//!
//! This path never touches the cycle-level NoC.

use crate::gen::{mix, SplitMix};
use crate::measure::{Fnv, Tracer};
use crate::{Exact, Step, Summary, Workload};
use gnoc_core::engine::CtaScheduler;
use gnoc_core::microbench::bandwidth::sm_slice_profile_gbps;
use gnoc_core::{
    correlation_matrix, infer_placement, run_aes_attack, run_rsa_attack, AesAttackConfig,
    GpuDevice, LatencyCampaign, LatencyProbe, RsaAttackConfig, SmId, Summary as RowSummary,
};
use std::time::Instant;

/// AES launches per attack and RSA decryptions (of 128-bit exponents) per
/// experiment: together about a quarter of a device pass.
const AES_SAMPLES: usize = 220;
const RSA_SAMPLES: usize = 9;
const RSA_BITS: usize = 128;
/// Merge threshold the CLI's `placement` command uses.
const GPC_MERGE_CYCLES: f64 = 2.5;

/// Paper bands (EXPERIMENTS.md): V100 hit latency 175–248 cycles; A100 near
/// ≈212 and far ≈400 cycles, held to the calibration suite's ±7 %.
const V100_BAND: (f64, f64) = (175.0, 248.0);
const A100_NEAR: (f64, f64) = (212.0 * 0.93, 212.0 * 1.07);
const A100_FAR: (f64, f64) = (400.0 * 0.93, 400.0 * 1.07);

struct Device {
    name: &'static str,
    dev: GpuDevice,
}

/// Three devices and the pass in progress.
pub struct Campaign {
    devices: Vec<Device>,
    probe: LatencyProbe,
    seed: u64,
    pass: u64,
    rows: Vec<Vec<f64>>,
    digest: Fnv,
    rows_digested: u64,
    row_cycles: u64,
}

impl Campaign {
    fn current(&self) -> usize {
        (self.pass % self.devices.len() as u64) as usize
    }

    /// Whether the pass in progress is in the first round over the devices,
    /// the part of every run the digest covers.
    fn first_round(&self) -> bool {
        self.pass < self.devices.len() as u64
    }

    /// The per-pass work after a device's last row, and its checks.
    fn end_pass(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let d = self.current();
        let pass_seed = mix(self.seed ^ self.pass);
        let digested = self.first_round();
        self.pass += 1;
        let matrix = std::mem::take(&mut self.rows);
        let correlation = tr.time("analysis.correlation", || correlation_matrix(&matrix));
        let campaign = LatencyCampaign {
            sm_summaries: matrix.iter().map(|r| RowSummary::of(r)).collect(),
            matrix,
            correlation,
        };
        let Device { name, dev } = &mut self.devices[d];
        let placement = tr.time("core.placement", || {
            infer_placement(&campaign, dev, GPC_MERGE_CYCLES)
        });
        let mut key = [0u8; 16];
        key.copy_from_slice(&[pass_seed.to_le_bytes(), mix(pass_seed).to_le_bytes()].concat());
        let aes_cfg = AesAttackConfig {
            samples: AES_SAMPLES,
            ..AesAttackConfig::new(key)
        };
        let aes = tr.time("sidechannel.aes", || {
            run_aes_attack(dev, &aes_cfg, pass_seed)
        });
        let rsa_cfg = RsaAttackConfig {
            exponent_bits: RSA_BITS,
            samples: RSA_SAMPLES,
            scheduler: CtaScheduler::Static,
        };
        let rsa = tr.time("sidechannel.rsa", || {
            run_rsa_attack(dev, &rsa_cfg, pass_seed)
        });

        if digested {
            self.digest.debug(&placement);
            self.digest.debug(&aes);
            self.digest.debug(&rsa.fit);
        }
        let grand = campaign.grand_mean();
        match *name {
            "v100" => {
                in_band("V100 grand mean", grand, V100_BAND)?;
                if placement.gpc_rand_index != 1.0 {
                    return Err(format!(
                        "V100 placement rand index {} (labels {:?}, truth {:?})",
                        placement.gpc_rand_index, placement.gpc_labels, placement.gpc_truth
                    ));
                }
            }
            "a100" => {
                let (near, far) = near_far(dev, &self.probe, &campaign.matrix);
                in_band("A100 near latency", near, A100_NEAR)?;
                in_band("A100 far latency", far, A100_FAR)?;
            }
            _ => {}
        }
        Ok(())
    }
}

fn in_band(what: &str, v: f64, (lo, hi): (f64, f64)) -> Result<(), String> {
    if (lo..=hi).contains(&v) {
        Ok(())
    } else {
        Err(format!(
            "{what} {v:.1} cycles outside the paper band {lo:.0}–{hi:.0}"
        ))
    }
}

/// Mean hit latency over (SM, slice) pairs within and across partitions.
fn near_far(dev: &GpuDevice, probe: &LatencyProbe, matrix: &[Vec<f64>]) -> (f64, f64) {
    let h = dev.hierarchy();
    let (mut near, mut far) = ((0.0, 0u32), (0.0, 0u32));
    for (sm, row) in matrix.iter().enumerate() {
        let sm = SmId::new(sm as u32);
        for (slice, v) in probe.visible_slices(dev, sm).into_iter().zip(row) {
            let acc = if h.crosses_partition(sm, slice) {
                &mut far
            } else {
                &mut near
            };
            acc.0 += v;
            acc.1 += 1;
        }
    }
    (
        near.0 / f64::from(near.1.max(1)),
        far.0 / f64::from(far.1.max(1)),
    )
}

impl Workload for Campaign {
    const NAME: &'static str = "campaign";
    /// One pass over each device: 80 + 108 + 132 rows.
    const DIGEST_OPS: u64 = 320;
    /// Fitted on the test host: see the README's "Host speed".
    const HOST_SENSITIVITY: f64 = 1.2;

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let mut rng = SplitMix::new(seed, "campaign");
        let presets = [
            ("v100", GpuDevice::v100 as fn(u64) -> GpuDevice),
            ("a100", GpuDevice::a100),
            ("h100", GpuDevice::h100),
        ];
        let probe = LatencyProbe::default();
        let mut devices = Vec::new();
        for (name, build) in presets {
            let dev_seed = rng.next_u64();
            let mut dev = tr.time("engine.device_new", || build(dev_seed));
            // Warm-up: one row, so lazy per-device tables exist before the
            // first timed op.
            probe.sm_profile(&mut dev, SmId::new(0));
            sm_slice_profile_gbps(&mut dev, SmId::new(0));
            devices.push(Device { name, dev });
        }
        Ok(Self {
            devices,
            probe,
            seed,
            pass: 0,
            rows: Vec::new(),
            digest: Fnv::default(),
            rows_digested: 0,
            row_cycles: 0,
        })
    }

    fn step(&mut self, _i: u64, tr: &mut Tracer) -> Result<Step, String> {
        let d = self.current();
        let sm = SmId::new(self.rows.len() as u32);
        let probe = self.probe;
        let dev = &mut self.devices[d].dev;
        let cycles_before = dev.virtual_cycle();

        let start = Instant::now();
        let op = tr.enter("op");
        let latency = tr.time("microbench.latency_row", || probe.sm_profile(dev, sm));
        let bandwidth = tr.time("microbench.bandwidth_row", || {
            sm_slice_profile_gbps(dev, sm)
        });
        tr.exit(op);
        let op_s = start.elapsed().as_secs_f64();

        let row_cycles = dev.virtual_cycle() - cycles_before;
        let last_row = self.rows.len() + 1 == dev.hierarchy().num_sms();
        if latency.iter().chain(&bandwidth).any(|v| !v.is_finite()) {
            return Err(format!(
                "non-finite measurement on {} SM {sm}",
                self.devices[d].name
            ));
        }
        if self.first_round() {
            for v in latency.iter().chain(&bandwidth) {
                self.digest.f64(*v);
            }
            self.digest.u64(row_cycles);
            self.row_cycles += row_cycles;
            self.rows_digested += 1;
        }
        self.rows.push(latency);

        let mut sim_cycles = row_cycles;
        if last_row {
            let dev_cycles = self.devices[d].dev.virtual_cycle();
            self.end_pass(tr)?;
            sim_cycles += self.devices[d].dev.virtual_cycle() - dev_cycles;
        }
        Ok(Step { op_s, sim_cycles })
    }

    fn finish(self, _tr: &mut Tracer) -> Result<Summary, String> {
        Ok(Summary {
            digest: self.digest.0,
            exact: vec![(
                "engine.virtual_cycles_per_row",
                self.row_cycles as f64 / self.rows_digested.max(1) as f64,
            )] as Vec<Exact>,
            values: Vec::new(),
        })
    }
}
