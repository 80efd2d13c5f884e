//! The versioned JSON line protocol `gnoc serve` speaks.
//!
//! One request per line in, one or more response envelopes per line out.
//! Every request carries `"schema": 1`; a request with a different (or
//! missing) schema is rejected, never guessed at. Responses are emitted as
//! single-line JSON envelopes whose `"type"` field is one of `accepted`,
//! `rejected`, `done`, `failed`, `health`, or `bye`.
//!
//! ## Canonical form and the cache key
//!
//! Each job kind has a *canonical* serialization produced by
//! [`JobSpec::canonical_json`]: every field explicit (defaults filled in),
//! fields in a fixed order, numbers rendered by Rust's `{}`/`{:.6}`
//! formatting. The content-address of a job is the FNV-1a 64-bit hash of
//! those canonical bytes ([`JobSpec::cache_key`]), so two requests that
//! normalize to the same job — regardless of field order or omitted
//! defaults on the wire — share a cache entry, and any change to device,
//! fault plan, probe config, or seed changes the key.
//!
//! Result *payloads* are also canonical single-line JSON built by the job
//! runners with fixed formatting; byte-identity of payloads is the
//! determinism contract the daemon, cache, and journal all preserve.

use gnoc_core::trace::fnv1a64;
use gnoc_core::FaultPlan;
use gnoc_core::LatencyProbe;
use serde::{Deserialize, Value};

/// The protocol schema version every request must declare.
pub const SCHEMA: u64 = 1;

/// A job request the daemon can queue and execute.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A checkpointed latency campaign on a device preset.
    Campaign {
        /// Device preset name (`v100`, `a100`, `a100full`, `a100fs`, `h100`).
        device: String,
        /// Campaign seed; every SM row derives from `row_seed(seed, sm)`.
        seed: u64,
        /// Probe working-set lines.
        lines: usize,
        /// Probe samples per (SM, slice) pair.
        samples: usize,
        /// Optional row budget: measure at most this many rows this job and
        /// salvage a degraded result (the `--deadline-rows` semantics).
        deadline_rows: Option<usize>,
        /// Optional fault plan applied to the device.
        plan: Option<FaultPlan>,
    },
    /// A reliable-mesh soak on the paper's 6x6 mesh.
    Mesh {
        /// Traffic seed (splitmix64 stream).
        seed: u64,
        /// Transfers to submit.
        transfers: usize,
        /// Optional fault plan applied to the mesh.
        plan: Option<FaultPlan>,
    },
    /// A NoC-only chaos soak over a contiguous seed range.
    Chaos {
        /// First seed.
        seed_start: u64,
        /// Number of seeds.
        seed_count: u64,
        /// Transfers per iteration.
        transfers: u32,
    },
    /// A multi-device fabric soak.
    Fabric {
        /// Device count.
        devices: u32,
        /// Inter-device topology name (normalized to lowercase).
        topology: String,
        /// Traffic seed.
        seed: u64,
        /// Transfers to submit.
        transfers: usize,
    },
    /// A recorded-trace replay: re-drive the captured run and verify the
    /// final-state digest against the trace footer.
    Replay {
        /// The whole trace artifact, hex-encoded (normalized to lowercase).
        trace_hex: String,
        /// Optional fault plan; its digest must match the trace header's.
        plan: Option<FaultPlan>,
    },
}

/// A parsed protocol request: a job, or one of the two control verbs.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Queue (or serve from cache) a measurement job.
    Job(Box<JobSpec>),
    /// Report queue depth, cache hit rate, and overload state.
    Health,
    /// Begin draining: reject new jobs, finish queued ones, then exit.
    Shutdown,
}

fn get_u64(v: &Value, name: &str, default: u64) -> Result<u64, String> {
    match v.field(name) {
        Ok(f) => f
            .as_u64()
            .ok_or_else(|| format!("field `{name}` must be a non-negative integer")),
        Err(_) => Ok(default),
    }
}

fn get_usize(v: &Value, name: &str, default: usize) -> Result<usize, String> {
    Ok(get_u64(v, name, default as u64)? as usize)
}

fn get_plan(v: &Value) -> Result<Option<FaultPlan>, String> {
    match v.field("plan") {
        Ok(Value::Null) | Err(_) => Ok(None),
        Ok(f) => FaultPlan::deserialize_value(f)
            .map(Some)
            .map_err(|e| format!("field `plan` is not a fault plan: {e}")),
    }
}

impl Request {
    /// Parses one request line. The error string is human-readable and is
    /// surfaced verbatim in the daemon's `rejected` envelope (prefixed with
    /// `invalid: `), so it names the offending field.
    pub fn parse(line: &str) -> Result<Self, String> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("request is not JSON: {e:?}"))?;
        match value.field("schema").ok().and_then(Value::as_u64) {
            Some(SCHEMA) => {}
            Some(other) => {
                return Err(format!(
                    "unsupported schema {other} (this daemon speaks {SCHEMA})"
                ))
            }
            None => return Err(format!("missing \"schema\": {SCHEMA} field")),
        }
        let op = value
            .field("op")
            .ok()
            .and_then(Value::as_str)
            .ok_or_else(|| "missing \"op\" field".to_string())?;
        match op {
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            "campaign" => {
                let device = value
                    .field("device")
                    .ok()
                    .and_then(Value::as_str)
                    .ok_or_else(|| "campaign needs a \"device\" preset name".to_string())?
                    .to_ascii_lowercase();
                gnoc_core::spec_for_preset(&device)
                    .map_err(|_| format!("unknown device preset {device:?}"))?;
                let probe = LatencyProbe::default();
                let lines = get_usize(&value, "lines", probe.working_set_lines)?;
                let samples = get_usize(&value, "samples", probe.samples)?;
                if lines == 0 || samples == 0 {
                    return Err("campaign needs lines >= 1 and samples >= 1".to_string());
                }
                let deadline_rows = match value.field("deadline_rows") {
                    Ok(Value::Null) | Err(_) => None,
                    Ok(f) => Some(f.as_u64().ok_or_else(|| {
                        "field `deadline_rows` must be a non-negative integer".to_string()
                    })? as usize),
                };
                if deadline_rows == Some(0) {
                    return Err("deadline_rows must be >= 1 when given".to_string());
                }
                Ok(Request::Job(Box::new(JobSpec::Campaign {
                    device,
                    seed: get_u64(&value, "seed", 0)?,
                    lines,
                    samples,
                    deadline_rows,
                    plan: get_plan(&value)?,
                })))
            }
            "mesh" => {
                let transfers = get_usize(&value, "transfers", 200)?;
                if transfers == 0 {
                    return Err("mesh needs transfers >= 1".to_string());
                }
                Ok(Request::Job(Box::new(JobSpec::Mesh {
                    seed: get_u64(&value, "seed", 0)?,
                    transfers,
                    plan: get_plan(&value)?,
                })))
            }
            "chaos" => {
                let seed_count = get_u64(&value, "seed_count", 4)?;
                let transfers = get_u64(&value, "transfers", 64)? as u32;
                if seed_count == 0 || transfers == 0 {
                    return Err("chaos needs seed_count >= 1 and transfers >= 1".to_string());
                }
                Ok(Request::Job(Box::new(JobSpec::Chaos {
                    seed_start: get_u64(&value, "seed_start", 0)?,
                    seed_count,
                    transfers,
                })))
            }
            "fabric" => {
                let devices = get_u64(&value, "devices", 2)? as u32;
                let topology = match value.field("topology") {
                    Ok(f) => f
                        .as_str()
                        .ok_or_else(|| "field `topology` must be a string".to_string())?
                        .to_ascii_lowercase(),
                    Err(_) => "ring".to_string(),
                };
                let parsed = gnoc_core::FabricTopology::parse(&topology)
                    .ok_or_else(|| format!("unknown fabric topology {topology:?}"))?;
                if devices < 2 {
                    return Err("fabric needs devices >= 2".to_string());
                }
                if !parsed.supports_devices(devices) {
                    return Err(format!(
                        "topology {topology:?} does not support {devices} devices"
                    ));
                }
                let transfers = get_usize(&value, "transfers", 64)?;
                if transfers == 0 {
                    return Err("fabric needs transfers >= 1".to_string());
                }
                Ok(Request::Job(Box::new(JobSpec::Fabric {
                    devices,
                    topology,
                    seed: get_u64(&value, "seed", 0)?,
                    transfers,
                })))
            }
            "replay" => {
                let trace_hex = value
                    .field("trace")
                    .ok()
                    .and_then(Value::as_str)
                    .ok_or_else(|| "replay needs a hex \"trace\" field".to_string())?
                    .to_ascii_lowercase();
                if trace_hex.is_empty()
                    || trace_hex.len() % 2 != 0
                    || !trace_hex.bytes().all(|b| b.is_ascii_hexdigit())
                {
                    return Err(
                        "field `trace` must be a non-empty even-length hex string".to_string()
                    );
                }
                Ok(Request::Job(Box::new(JobSpec::Replay {
                    trace_hex,
                    plan: get_plan(&value)?,
                })))
            }
            other => Err(format!(
                "unknown op {other:?} (known: campaign, mesh, chaos, fabric, replay, health, shutdown)"
            )),
        }
    }
}

/// Escapes `s` as a JSON string literal (with the surrounding quotes).
pub fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings always serialize")
}

impl JobSpec {
    /// Short job-kind label (used in envelopes, journal lines, and logs).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Campaign { .. } => "campaign",
            JobSpec::Mesh { .. } => "mesh",
            JobSpec::Chaos { .. } => "chaos",
            JobSpec::Fabric { .. } => "fabric",
            JobSpec::Replay { .. } => "replay",
        }
    }

    /// The canonical single-line serialization: every field explicit, fixed
    /// order, schema included. This is what gets hashed for the cache key
    /// and embedded in journal `submitted` records — re-parsing it with
    /// [`Request::parse`] round-trips to an equal `JobSpec`.
    pub fn canonical_json(&self) -> String {
        match self {
            JobSpec::Campaign {
                device,
                seed,
                lines,
                samples,
                deadline_rows,
                plan,
            } => {
                let dr = match deadline_rows {
                    Some(n) => n.to_string(),
                    None => "null".to_string(),
                };
                let plan_json = match plan {
                    Some(p) => serde_json::to_string(p).expect("fault plans always serialize"),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"schema\":{SCHEMA},\"op\":\"campaign\",\"device\":{},\"seed\":{seed},\"lines\":{lines},\"samples\":{samples},\"deadline_rows\":{dr},\"plan\":{plan_json}}}",
                    json_str(device)
                )
            }
            JobSpec::Mesh {
                seed,
                transfers,
                plan,
            } => {
                let plan_json = match plan {
                    Some(p) => serde_json::to_string(p).expect("fault plans always serialize"),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"schema\":{SCHEMA},\"op\":\"mesh\",\"seed\":{seed},\"transfers\":{transfers},\"plan\":{plan_json}}}"
                )
            }
            JobSpec::Chaos {
                seed_start,
                seed_count,
                transfers,
            } => format!(
                "{{\"schema\":{SCHEMA},\"op\":\"chaos\",\"seed_start\":{seed_start},\"seed_count\":{seed_count},\"transfers\":{transfers}}}"
            ),
            JobSpec::Fabric {
                devices,
                topology,
                seed,
                transfers,
            } => format!(
                "{{\"schema\":{SCHEMA},\"op\":\"fabric\",\"devices\":{devices},\"topology\":{},\"seed\":{seed},\"transfers\":{transfers}}}",
                json_str(topology)
            ),
            JobSpec::Replay { trace_hex, plan } => {
                let plan_json = match plan {
                    Some(p) => serde_json::to_string(p).expect("fault plans always serialize"),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"schema\":{SCHEMA},\"op\":\"replay\",\"trace\":{},\"plan\":{plan_json}}}",
                    json_str(trace_hex)
                )
            }
        }
    }

    /// The content-address of this job: FNV-1a 64 over the canonical bytes,
    /// as 16 lowercase hex digits. Covers the device spec (via its preset
    /// name), the full fault plan, the probe/traffic config, and the seed —
    /// everything the result is a function of.
    pub fn cache_key(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical_json().as_bytes()))
    }
}

// ----------------------------------------------------------- envelopes ----

/// `{"schema":1,"type":"accepted","job":N}` — the job cleared admission and
/// is queued; a terminal `done`/`failed` envelope follows on this session.
pub fn envelope_accepted(job: u64) -> String {
    format!("{{\"schema\":{SCHEMA},\"type\":\"accepted\",\"job\":{job}}}")
}

/// `{"schema":1,"type":"rejected","reason":"..."}` — admission refused the
/// request (overload, caps, draining) or it was malformed (`invalid: ...`).
pub fn envelope_rejected(reason: &str) -> String {
    format!(
        "{{\"schema\":{SCHEMA},\"type\":\"rejected\",\"reason\":{}}}",
        json_str(reason)
    )
}

/// `{"schema":1,"type":"done",...}` — the job's canonical result payload.
/// `payload` must already be canonical single-line JSON; it is embedded
/// verbatim so its bytes survive the trip. `resumed_rows` is > 0 only when
/// a journal-recovered campaign resumed from its checkpoint.
pub fn envelope_done(job: u64, cached: bool, resumed_rows: usize, payload: &str) -> String {
    format!(
        "{{\"schema\":{SCHEMA},\"type\":\"done\",\"job\":{job},\"cached\":{cached},\"resumed_rows\":{resumed_rows},\"payload\":{payload}}}"
    )
}

/// `{"schema":1,"type":"failed","job":N,"error":"..."}` — the job ran and
/// failed (including a contained worker panic). The daemon stays up.
pub fn envelope_failed(job: u64, error: &str) -> String {
    format!(
        "{{\"schema\":{SCHEMA},\"type\":\"failed\",\"job\":{job},\"error\":{}}}",
        json_str(error)
    )
}

/// `{"schema":1,"type":"health","payload":{...}}`.
pub fn envelope_health(payload: &str) -> String {
    format!("{{\"schema\":{SCHEMA},\"type\":\"health\",\"payload\":{payload}}}")
}

/// `{"schema":1,"type":"bye","pending":N}` — drain acknowledged; `pending`
/// jobs will still be finished before the daemon exits.
pub fn envelope_bye(pending: usize) -> String {
    format!("{{\"schema\":{SCHEMA},\"type\":\"bye\",\"pending\":{pending}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_requires_schema_and_op() {
        assert!(Request::parse("not json").unwrap_err().contains("not JSON"));
        assert!(Request::parse("{\"op\":\"health\"}")
            .unwrap_err()
            .contains("missing \"schema\""));
        assert!(Request::parse("{\"schema\":2,\"op\":\"health\"}")
            .unwrap_err()
            .contains("unsupported schema 2"));
        assert!(Request::parse("{\"schema\":1}")
            .unwrap_err()
            .contains("missing \"op\""));
        assert!(Request::parse("{\"schema\":1,\"op\":\"frobnicate\"}")
            .unwrap_err()
            .contains("unknown op"));
    }

    #[test]
    fn canonical_json_round_trips() {
        let specs = [
            JobSpec::Campaign {
                device: "v100".into(),
                seed: 7,
                lines: 2,
                samples: 3,
                deadline_rows: Some(5),
                plan: None,
            },
            JobSpec::Mesh {
                seed: 1,
                transfers: 50,
                plan: None,
            },
            JobSpec::Chaos {
                seed_start: 4,
                seed_count: 2,
                transfers: 32,
            },
            JobSpec::Fabric {
                devices: 3,
                topology: "ring".into(),
                seed: 9,
                transfers: 16,
            },
            JobSpec::Replay {
                trace_hex: "deadbeef".into(),
                plan: None,
            },
        ];
        for spec in specs {
            let json = spec.canonical_json();
            match Request::parse(&json).expect("canonical json parses") {
                Request::Job(back) => assert_eq!(*back, spec),
                other => panic!("expected a job, got {other:?}"),
            }
            // Canonical form is a fixed point: re-canonicalizing the parsed
            // spec reproduces the same bytes.
            match Request::parse(&json).unwrap() {
                Request::Job(back) => assert_eq!(back.canonical_json(), json),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn defaults_are_filled_and_shared_with_explicit_form() {
        // A minimal wire request and its fully-explicit twin hash equal.
        let short = match Request::parse("{\"schema\":1,\"op\":\"chaos\"}").unwrap() {
            Request::Job(s) => s,
            _ => unreachable!(),
        };
        let long = match Request::parse(
            "{\"schema\":1,\"op\":\"chaos\",\"seed_start\":0,\"seed_count\":4,\"transfers\":64}",
        )
        .unwrap()
        {
            Request::Job(s) => s,
            _ => unreachable!(),
        };
        assert_eq!(short, long);
        assert_eq!(short.cache_key(), long.cache_key());
    }

    #[test]
    fn unknown_device_and_topology_are_invalid() {
        assert!(
            Request::parse("{\"schema\":1,\"op\":\"campaign\",\"device\":\"b200\"}")
                .unwrap_err()
                .contains("unknown device preset")
        );
        assert!(Request::parse(
            "{\"schema\":1,\"op\":\"fabric\",\"devices\":2,\"topology\":\"moebius\"}"
        )
        .unwrap_err()
        .contains("unknown fabric topology"));
    }

    #[test]
    fn replay_requires_well_formed_hex() {
        assert!(Request::parse("{\"schema\":1,\"op\":\"replay\"}")
            .unwrap_err()
            .contains("needs a hex"));
        assert!(
            Request::parse("{\"schema\":1,\"op\":\"replay\",\"trace\":\"xyz\"}")
                .unwrap_err()
                .contains("hex string")
        );
        assert!(
            Request::parse("{\"schema\":1,\"op\":\"replay\",\"trace\":\"abc\"}")
                .unwrap_err()
                .contains("even-length")
        );
        // Hex is normalized to lowercase so equivalent requests share a key.
        let a = Request::parse("{\"schema\":1,\"op\":\"replay\",\"trace\":\"DEADBEEF\"}").unwrap();
        let b = Request::parse("{\"schema\":1,\"op\":\"replay\",\"trace\":\"deadbeef\"}").unwrap();
        assert_eq!(a, b);
    }
}
