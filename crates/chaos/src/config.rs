//! Chaos-run configuration and the deterministic seed → fault-plan map.

use crate::ChaosError;
use gnoc_core::noc::check_mesh_dims;
use gnoc_core::{
    spec_for_preset, FabricTopology, FaultGenConfig, FaultPlan, FlakyBurst, LatencyProbe,
    RegionFault, RetryConfig,
};
use serde::{Deserialize, Serialize};

/// Configuration of a chaos soak. Everything an iteration does is a pure
/// function of this struct plus the iteration seed, so a config + seed pair
/// is a complete reproducer.
///
/// Deserialization is manual so state files written before the multi-device
/// fields existed still load (they default to a single device).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosConfig {
    /// Mesh width (routers per row) for the NoC soak.
    pub width: u32,
    /// Mesh height for the NoC soak.
    pub height: u32,
    /// Devices in the soak: 1 = classic single-die chaos, ≥ 2 = the
    /// iteration soaks a multi-device fabric instead (and the detection
    /// phase monitors fabric links).
    pub devices: u32,
    /// Inter-device topology name (parsed by
    /// [`FabricTopology::parse`]; ignored when `devices` is 1).
    pub topology: String,
    /// Reliable transfers submitted per iteration.
    pub transfers: u32,
    /// Virtual-cycle budget per iteration: the mesh must quiesce within
    /// this many cycles or the progress oracle fires. Must exceed the retry
    /// watchdog window so the watchdog (not the budget) is the arbiter of
    /// "stuck".
    pub soak_cycle_budget: u64,
    /// Device preset driven through campaign oracles (`None` = NoC only).
    pub device: Option<String>,
    /// Run the (expensive) device-campaign oracles on every seed divisible
    /// by this (0 = never). The NoC oracles run on every seed.
    pub device_every: u64,
    /// Probe working-set lines for campaign oracles (small = fast).
    pub probe_lines: usize,
    /// Probe samples per (SM, slice) pair for campaign oracles.
    pub probe_samples: usize,
    /// Retry/watchdog policy for the reliable mesh.
    pub retry: RetryConfig,
    /// Arm the greedy-reroute bug hook (needs the `bug-hooks` feature):
    /// route recomputation takes any minimal detour instead of respecting
    /// the up*/down* discipline, reintroducing routing deadlock for the
    /// progress oracle to catch.
    pub greedy_reroute_bug: bool,
    /// Arm the stuck-crossing bug hook (needs the `bug-hooks` feature):
    /// a fabric crossing that drops is never rescheduled, hanging the
    /// transfer mid-fabric for the fabric progress oracle to catch. Only
    /// meaningful when `devices` ≥ 2.
    pub fabric_stuck_crossing_bug: bool,
    /// Run the hidden-plan detection oracle: every seed's plan is replayed
    /// against a self-healing mesh (and, with a device configured, a
    /// latent-fault device) that must *infer* the faults from behavior; the
    /// oracle scores detected-vs-ground-truth precision, recall on dead
    /// links and faulty slices, and bounded detection latency.
    pub detection: bool,
    /// Run the recorded-vs-replayed oracle: every soak's submission stream
    /// is captured to an in-memory trace and replayed into an identically
    /// configured twin, which must reproduce the soak's outcomes and stats
    /// bit for bit.
    pub replay: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            width: 5,
            height: 5,
            devices: 1,
            topology: "ring".to_string(),
            transfers: 64,
            soak_cycle_budget: 60_000,
            device: Some("v100".to_string()),
            device_every: 4,
            probe_lines: 1,
            probe_samples: 2,
            retry: RetryConfig::default(),
            greedy_reroute_bug: false,
            fabric_stuck_crossing_bug: false,
            detection: false,
            replay: false,
        }
    }
}

impl Deserialize for ChaosConfig {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let defaults = Self::default();
        Ok(Self {
            width: Deserialize::deserialize_value(value.field("width")?)?,
            height: Deserialize::deserialize_value(value.field("height")?)?,
            devices: match value.field("devices") {
                Ok(v) => Deserialize::deserialize_value(v)?,
                Err(_) => defaults.devices,
            },
            topology: match value.field("topology") {
                Ok(v) => Deserialize::deserialize_value(v)?,
                Err(_) => defaults.topology,
            },
            transfers: Deserialize::deserialize_value(value.field("transfers")?)?,
            soak_cycle_budget: Deserialize::deserialize_value(value.field("soak_cycle_budget")?)?,
            device: Deserialize::deserialize_value(value.field("device")?)?,
            device_every: Deserialize::deserialize_value(value.field("device_every")?)?,
            probe_lines: Deserialize::deserialize_value(value.field("probe_lines")?)?,
            probe_samples: Deserialize::deserialize_value(value.field("probe_samples")?)?,
            retry: Deserialize::deserialize_value(value.field("retry")?)?,
            greedy_reroute_bug: Deserialize::deserialize_value(value.field("greedy_reroute_bug")?)?,
            fabric_stuck_crossing_bug: match value.field("fabric_stuck_crossing_bug") {
                Ok(v) => Deserialize::deserialize_value(v)?,
                Err(_) => defaults.fabric_stuck_crossing_bug,
            },
            detection: Deserialize::deserialize_value(value.field("detection")?)?,
            replay: match value.field("replay") {
                Ok(v) => Deserialize::deserialize_value(v)?,
                Err(_) => defaults.replay,
            },
        })
    }
}

impl ChaosConfig {
    /// The parsed fabric topology (only meaningful when `devices` ≥ 2).
    ///
    /// # Panics
    ///
    /// Panics on an unknown topology name; call [`ChaosConfig::validate`]
    /// first.
    pub fn fabric_topology(&self) -> FabricTopology {
        FabricTopology::parse(&self.topology)
            .unwrap_or_else(|| panic!("unknown fabric topology {:?}", self.topology))
    }

    /// The latency probe used by every campaign oracle.
    pub fn probe(&self) -> LatencyProbe {
        LatencyProbe {
            working_set_lines: self.probe_lines,
            samples: self.probe_samples,
        }
    }

    /// Validates every knob, naming the offending field.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Config`] on the first unusable field.
    pub fn validate(&self) -> Result<(), ChaosError> {
        if self.width == 0 || self.height == 0 {
            return Err(ChaosError::Config(
                "width/height: chaos mesh must be non-empty".into(),
            ));
        }
        let routers = check_mesh_dims(self.width as usize, self.height as usize).map_err(|e| {
            ChaosError::Config(format!("width/height: {}x{}: {e}", self.width, self.height))
        })?;
        if routers < 2 {
            return Err(ChaosError::Config(
                "width/height: need at least two terminals to exchange traffic".into(),
            ));
        }
        if self.transfers == 0 {
            return Err(ChaosError::Config(
                "transfers: each iteration must submit at least one transfer".into(),
            ));
        }
        if self.devices == 0 {
            return Err(ChaosError::Config(
                "devices: need at least one device".into(),
            ));
        }
        match FabricTopology::parse(&self.topology) {
            None => {
                return Err(ChaosError::Config(format!(
                    "topology: unknown fabric topology {:?} (try ring, line, p2p, fully, switch)",
                    self.topology
                )));
            }
            Some(t) if self.devices >= 2 && !t.supports_devices(self.devices) => {
                return Err(ChaosError::Config(format!(
                    "devices: topology {t} does not support {} devices",
                    self.devices
                )));
            }
            Some(_) => {}
        }
        if self.soak_cycle_budget <= self.retry.watchdog_cycles {
            return Err(ChaosError::Config(format!(
                "soak_cycle_budget: {} must exceed the watchdog window {} so the \
                 watchdog, not the budget, decides the network is stuck",
                self.soak_cycle_budget, self.retry.watchdog_cycles
            )));
        }
        if let Some(name) = &self.device {
            spec_for_preset(name).map_err(|e| ChaosError::Config(format!("device: {e}")))?;
        }
        if self.probe_lines == 0 || self.probe_samples == 0 {
            return Err(ChaosError::Config(
                "probe_lines/probe_samples: the latency probe needs at least one \
                 line and one sample"
                    .into(),
            ));
        }
        if self.greedy_reroute_bug && !cfg!(feature = "bug-hooks") {
            return Err(ChaosError::Config(
                "greedy_reroute_bug: requires gnoc-chaos built with the bug-hooks \
                 feature"
                    .into(),
            ));
        }
        if self.fabric_stuck_crossing_bug && !cfg!(feature = "bug-hooks") {
            return Err(ChaosError::Config(
                "fabric_stuck_crossing_bug: requires gnoc-chaos built with the \
                 bug-hooks feature"
                    .into(),
            ));
        }
        Ok(())
    }

    /// The deterministic fault plan for one iteration seed. Seeds rotate
    /// through five plan archetypes so any contiguous seed range exercises
    /// the whole space:
    ///
    /// | `seed % 5` | archetype |
    /// |---|---|
    /// | 0 | benign (no faults) — the golden baseline |
    /// | 1 | dead-only: die-wide dead-link fraction, connectivity kept |
    /// | 2 | dead + flaky links + a stalled router |
    /// | 3 | onset storm over a correlated regional failure |
    /// | 4 | flaky-link burst + transient noise + disabled L2 slices |
    ///
    /// `num_slices` is the target device's L2 slice count (0 when no device
    /// is configured; archetype 4 then skips slice faults).
    ///
    /// With `devices` ≥ 2 the same archetypes additionally inject fabric
    /// atoms: a dead fabric link (1), a flaky fabric link (2), an
    /// onset-storm dead link — or a dead switch on the switch topology (3),
    /// and a flaky link plus a whole-device loss (4). Single-die configs
    /// generate bit-identical plans to the pre-fabric harness.
    pub fn plan_for_seed(&self, seed: u64, num_slices: u32) -> FaultPlan {
        let mut g = FaultGenConfig::benign(seed, self.width, self.height);
        if self.devices >= 2 {
            let topo = self.fabric_topology();
            g.devices = self.devices;
            g.fabric_topology = topo;
            match seed % 5 {
                0 => {}
                1 => g.dead_fabric_links = 1,
                2 => {
                    g.flaky_fabric_links = 1;
                    g.fabric_flaky_drop_prob = 0.25;
                }
                3 => {
                    if topo == FabricTopology::Switch {
                        g.dead_switch = true;
                    } else {
                        g.dead_fabric_links = 1;
                    }
                }
                _ => {
                    g.flaky_fabric_links = 1;
                    g.fabric_flaky_drop_prob = 0.20;
                    if self.devices >= 3 {
                        g.dead_devices = 1;
                    }
                }
            }
        }
        match seed % 5 {
            0 => {}
            1 => {
                g.dead_link_fraction = 0.12;
            }
            2 => {
                g.dead_link_fraction = 0.06;
                g.flaky_links = 4;
                g.flaky_drop_prob = 0.30;
                g.stalled_routers = 1;
                g.stall_duration = 500;
                g.onset = 64;
            }
            3 => {
                g.dead_link_fraction = 0.05;
                g.onset_storm_span = 4_000;
                g.region = Some(RegionFault {
                    center: (self.height / 2) * self.width + self.width / 2,
                    radius: 2,
                    dead_fraction: 0.6,
                });
            }
            _ => {
                g.burst = Some(FlakyBurst {
                    links: 6,
                    drop_prob: 0.25,
                    onset: 1_500,
                });
                g.transient_drop_prob = 0.0015;
                g.transient_corrupt_prob = 0.0008;
                g.onset = 200;
                if num_slices >= 2 {
                    g.num_slices = num_slices;
                    g.disabled_slice_count = 2;
                }
            }
        }
        FaultPlan::generate(&g)
    }
}

/// Whether a plan leaves the modeled device itself untouched (no
/// floorsweep, no disabled slices). Mesh faults live in a different layer
/// and never perturb the analytical device, so such plans must preserve the
/// calibration band *and* reproduce the golden campaign bit for bit.
pub fn calibration_safe(plan: &FaultPlan) -> bool {
    plan.sweep.is_none() && plan.disabled_slices.is_empty()
}

/// The empirically calibrated grand-mean band for a device preset, when one
/// has been pinned. Measured with the chaos probe (1 line, 2 samples)
/// across seeds {0, 1, 7, 13, 42, 99}; presets without a pinned band get
/// structural checks only.
pub fn band_for_preset(name: &str) -> Option<(f64, f64)> {
    match name {
        "v100" => Some((205.0, 220.0)),
        "a100fs" => Some((280.0, 320.0)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        ChaosConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_names_the_offending_field() {
        let cases: Vec<(ChaosConfig, &str)> = vec![
            (
                ChaosConfig {
                    width: 0,
                    ..ChaosConfig::default()
                },
                "width",
            ),
            (
                // 70000 × 70000 overflows u32.
                ChaosConfig {
                    width: 70_000,
                    height: 70_000,
                    ..ChaosConfig::default()
                },
                "width",
            ),
            (
                ChaosConfig {
                    width: 65,
                    height: 64,
                    ..ChaosConfig::default()
                },
                "width",
            ),
            (
                ChaosConfig {
                    transfers: 0,
                    ..ChaosConfig::default()
                },
                "transfers",
            ),
            (
                ChaosConfig {
                    soak_cycle_budget: 100,
                    ..ChaosConfig::default()
                },
                "soak_cycle_budget",
            ),
            (
                ChaosConfig {
                    device: Some("b200".into()),
                    ..ChaosConfig::default()
                },
                "device",
            ),
            (
                ChaosConfig {
                    probe_samples: 0,
                    ..ChaosConfig::default()
                },
                "probe_",
            ),
        ];
        for (cfg, field) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(
                err.to_string().contains(field),
                "error {err} does not name {field}"
            );
        }
    }

    #[test]
    fn plans_are_deterministic_and_rotate_archetypes() {
        let cfg = ChaosConfig::default();
        for seed in 0..10 {
            assert_eq!(
                cfg.plan_for_seed(seed, 32),
                cfg.plan_for_seed(seed, 32),
                "seed {seed} must be deterministic"
            );
        }
        assert!(cfg.plan_for_seed(0, 32).is_benign());
        let dead_only = cfg.plan_for_seed(1, 32);
        assert!(!dead_only.links.is_empty());
        assert!(calibration_safe(&dead_only));
        let sliced = cfg.plan_for_seed(4, 32);
        assert_eq!(sliced.disabled_slices.len(), 2);
        assert!(!calibration_safe(&sliced));
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = ChaosConfig {
            device: None,
            greedy_reroute_bug: false,
            ..ChaosConfig::default()
        };
        let text = serde_json::to_string(&cfg).unwrap();
        let back: ChaosConfig = serde_json::from_str(&text).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn pre_fabric_configs_load_with_single_die_defaults() {
        // A config serialized before the fabric layer existed has no
        // `devices`/`topology` keys; it must load as a single-die config.
        let cfg = ChaosConfig::default();
        let text = serde_json::to_string(&cfg).unwrap();
        let value: serde::Value = serde_json::from_str(&text).unwrap();
        let serde::Value::Object(fields) = value else {
            panic!("config serializes as an object");
        };
        let legacy = serde_json::to_string(&serde::Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| {
                    k != "devices"
                        && k != "topology"
                        && k != "fabric_stuck_crossing_bug"
                        && k != "replay"
                })
                .collect(),
        ))
        .unwrap();
        let back: ChaosConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.devices, 1);
        assert_eq!(back.topology, "ring");
        assert_eq!(back, cfg);
    }

    #[test]
    fn single_die_plans_ignore_the_fabric_knobs() {
        // devices == 1 must generate byte-identical plans to the pre-fabric
        // harness regardless of the topology string.
        let cfg = ChaosConfig::default();
        let odd = ChaosConfig {
            topology: "fully".to_string(),
            ..ChaosConfig::default()
        };
        for seed in 0..10 {
            let plan = cfg.plan_for_seed(seed, 32);
            assert!(plan.fabric.is_empty(), "seed {seed}");
            assert_eq!(plan, odd.plan_for_seed(seed, 32), "seed {seed}");
        }
    }

    #[test]
    fn fabric_archetypes_rotate_and_stay_deterministic() {
        let cfg = ChaosConfig {
            devices: 4,
            device: None,
            ..ChaosConfig::default()
        };
        cfg.validate().unwrap();
        for seed in 0..10 {
            assert_eq!(
                cfg.plan_for_seed(seed, 0),
                cfg.plan_for_seed(seed, 0),
                "seed {seed} must be deterministic"
            );
        }
        // Archetype 0 stays fully benign even multi-device.
        assert!(cfg.plan_for_seed(0, 0).is_benign());
        // Archetype 1 kills a fabric link (ring keeps a long way around).
        let dead = cfg.plan_for_seed(1, 0);
        assert!(dead
            .fabric
            .links
            .iter()
            .any(|l| matches!(l.kind, gnoc_core::faults::LinkFaultKind::Dead)));
        // Archetype 2 makes one flaky.
        let flaky = cfg.plan_for_seed(2, 0);
        assert!(flaky.fabric.has_probabilistic_faults());
        // Archetype 4 loses a whole device (devices >= 3).
        let lost = cfg.plan_for_seed(4, 0);
        assert_eq!(lost.fabric.devices.len(), 1);
        assert_ne!(lost.fabric.devices[0].device, 0, "device 0 survives");
        // The switch topology's archetype 3 kills the switch instead.
        let sw = ChaosConfig {
            topology: "switch".to_string(),
            ..cfg.clone()
        };
        assert!(sw.plan_for_seed(3, 0).fabric.dead_switch.is_some());
        assert!(cfg.plan_for_seed(3, 0).fabric.dead_switch.is_none());
        // Every generated multi-device plan validates for its fabric.
        for seed in 0..10 {
            cfg.plan_for_seed(seed, 0)
                .validate_for_fabric(4, cfg.fabric_topology())
                .unwrap();
        }
    }

    #[test]
    fn multi_device_validation_names_the_offending_field() {
        let cases: Vec<(ChaosConfig, &str)> = vec![
            (
                ChaosConfig {
                    devices: 0,
                    ..ChaosConfig::default()
                },
                "devices",
            ),
            (
                ChaosConfig {
                    devices: 2,
                    topology: "moebius".to_string(),
                    ..ChaosConfig::default()
                },
                "topology",
            ),
            (
                ChaosConfig {
                    devices: 3,
                    topology: "p2p".to_string(),
                    ..ChaosConfig::default()
                },
                "devices",
            ),
        ];
        for (cfg, field) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(
                err.to_string().contains(field),
                "error {err} does not name {field}"
            );
        }
    }
}
