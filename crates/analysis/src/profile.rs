//! Stall-attribution analysis over a [`FlightRecorder`] recording.
//!
//! The recorder (in `gnoc-telemetry`) produces per-message lifecycle
//! records whose stall components sum exactly to end-to-end latency. This
//! module reduces a recording to the artifacts `gnoc profile` reports:
//!
//! - a whole-run stall-attribution breakdown (where did all the cycles go:
//!   source wait vs serialization vs contention vs backpressure vs router
//!   stalls vs queueing vs pure transit);
//! - the same breakdown per router and per directed link;
//! - per-router utilization heatmaps (ASCII via [`render_heatmap`], SVG via
//!   [`svg::heatmap`]);
//! - critical paths — the hop-by-hop chain of waits that bounded the
//!   latency of the slowest N messages.
//!
//! Everything here is a pure function of the recording, which is itself a
//! pure function of the simulated cycles, so every artifact is bit-identical
//! across runs and worker counts.

use crate::heatmap::render_heatmap;
use crate::svg;
use gnoc_telemetry::{FlightRecorder, HopRecord, MessageRecord, StallBreakdown, PORT_NAMES};
use serde::Value;
use std::io;
use std::path::{Path, PathBuf};

/// Schema version stamped into profile JSON artifacts.
pub const PROFILE_SCHEMA: u64 = 1;

/// Ports per router in `gnoc-noc`'s mesh (local + 4 directions), mirrored
/// here so the analysis layer needs no dependency on the simulator.
const PORTS: usize = PORT_NAMES.len();

fn port_name(port: u8) -> &'static str {
    PORT_NAMES.get(port as usize).copied().unwrap_or("port?")
}

/// Whole-run cycle attribution. Every delivered message's latency decomposes
/// exactly into these buckets, so their sum equals the sum of delivered
/// end-to-end latencies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleTotals {
    /// Cycles between message generation and network entry (source
    /// queueing; for retransmissions also timeout and backoff).
    pub source_wait: u64,
    /// Head-of-queue cycles lost to an output port still serializing
    /// earlier flits.
    pub serialization: u64,
    /// Head-of-queue cycles lost to arbitration.
    pub contention: u64,
    /// Head-of-queue cycles lost to missing downstream credit or disabled
    /// ejection.
    pub backpressure: u64,
    /// Head-of-queue cycles lost to stalled routers, dead links, or missing
    /// routes.
    pub router_stall: u64,
    /// Cycles attributed to the inter-device fabric (waiting for, crossing,
    /// and sitting behind fabric links); zero for single-die recordings.
    pub fabric_hop: u64,
    /// Cycles spent behind other messages in input queues.
    pub queued: u64,
    /// Pure link-crossing cycles (one per inter-router hop).
    pub transit: u64,
}

impl CycleTotals {
    /// Sum over all buckets — equals total delivered latency plus the
    /// attributed cycles of lost messages.
    pub fn total(&self) -> u64 {
        self.source_wait
            + self.serialization
            + self.contention
            + self.backpressure
            + self.router_stall
            + self.fabric_hop
            + self.queued
            + self.transit
    }

    fn add_message(&mut self, m: &MessageRecord) {
        self.source_wait += m.source_wait();
        self.transit += m.transit();
        let s = m.stalls();
        self.serialization += s.serialization;
        self.contention += s.contention;
        self.backpressure += s.backpressure;
        self.router_stall += s.router_stall;
        self.fabric_hop += s.fabric_hop;
        self.queued += s.queued;
    }
}

/// Stall cycles and traffic attributed to one router.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterProfile {
    /// Stall cycles charged in this router's input queues.
    pub stalls: StallBreakdown,
    /// Flits forwarded out of this router (all ports).
    pub flits: u64,
}

/// Stall cycles and traffic attributed to one directed link
/// (`router` × output port).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkProfile {
    /// Router index.
    pub router: u32,
    /// Output port ([`PORT_NAMES`] indexing; 0 = ejection to the local
    /// terminal).
    pub port: u8,
    /// Flits forwarded over this link.
    pub flits: u64,
    /// Stall cycles charged to messages while waiting for this link.
    pub stalls: StallBreakdown,
}

/// One of the slowest messages, with its full hop chain.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Mesh packet id.
    pub id: u64,
    /// Source terminal.
    pub src: u32,
    /// Destination terminal.
    pub dst: u32,
    /// Packet size in flits.
    pub flits: u32,
    /// End-to-end latency in cycles.
    pub latency: u64,
    /// Source-side wait before injection.
    pub source_wait: u64,
    /// Pure link-crossing cycles.
    pub transit: u64,
    /// The hop chain (injection queue first).
    pub hops: Vec<HopRecord>,
}

/// The full profile of one recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Mesh width the recording came from (heatmap layout).
    pub width: usize,
    /// Mesh height the recording came from (heatmap layout).
    pub height: usize,
    /// Cycles the recorded run simulated.
    pub cycles: u64,
    /// Finished messages in the recording.
    pub messages: usize,
    /// Messages delivered.
    pub delivered: usize,
    /// Messages lost.
    pub lost: usize,
    /// Sum of delivered end-to-end latencies.
    pub delivered_latency: u64,
    /// Whole-run cycle attribution over delivered messages.
    pub totals: CycleTotals,
    /// Per-router attribution, indexed by router id.
    pub routers: Vec<RouterProfile>,
    /// Per-link attribution, sorted by (router, port), zero links omitted.
    pub links: Vec<LinkProfile>,
    /// The slowest delivered messages, slowest first (ties break to the
    /// lower packet id).
    pub critical_paths: Vec<CriticalPath>,
}

impl ProfileReport {
    /// Reduces a recording to a profile. `width`/`height` give the mesh
    /// geometry (for heatmap layout), `cycles` the run length, and
    /// `slowest` how many critical paths to keep.
    ///
    /// # Panics
    ///
    /// Panics if a recorded router index falls outside `width * height`.
    pub fn from_recorder(
        rec: &FlightRecorder,
        width: usize,
        height: usize,
        cycles: u64,
        slowest: usize,
    ) -> Self {
        let n = width * height;
        let mut routers = vec![RouterProfile::default(); n];
        let mut links = vec![LinkProfile::default(); n * PORTS];
        let mut totals = CycleTotals::default();
        let (mut delivered, mut lost, mut delivered_latency) = (0usize, 0usize, 0u64);

        for m in rec.finished() {
            if m.delivered {
                delivered += 1;
                delivered_latency += m.latency();
                totals.add_message(m);
            } else {
                lost += 1;
            }
            for h in &m.hops {
                let r = h.router as usize;
                assert!(r < n, "router {r} outside the {width}x{height} mesh");
                let hop_stalls = StallBreakdown {
                    serialization: h.serialization,
                    contention: h.contention,
                    backpressure: h.backpressure,
                    router_stall: h.router_stall,
                    fabric_hop: h.fabric_hop,
                    queued: h.queued,
                };
                routers[r].stalls.add(&hop_stalls);
                if h.grant.is_some() {
                    routers[r].flits += u64::from(m.flits);
                    let link = &mut links[r * PORTS + h.out_port as usize];
                    link.flits += u64::from(m.flits);
                    link.stalls.add(&hop_stalls);
                }
            }
        }

        for (i, link) in links.iter_mut().enumerate() {
            link.router = (i / PORTS) as u32;
            link.port = (i % PORTS) as u8;
        }
        let links: Vec<LinkProfile> = links
            .into_iter()
            .filter(|l| l.flits > 0 || l.stalls.total() > 0)
            .collect();

        // Slowest delivered messages; deterministic order (latency desc,
        // then id asc).
        let mut by_latency: Vec<&MessageRecord> =
            rec.finished().iter().filter(|m| m.delivered).collect();
        by_latency.sort_by(|a, b| b.latency().cmp(&a.latency()).then(a.id.cmp(&b.id)));
        let critical_paths = by_latency
            .into_iter()
            .take(slowest)
            .map(|m| CriticalPath {
                id: m.id,
                src: m.src,
                dst: m.dst,
                flits: m.flits,
                latency: m.latency(),
                source_wait: m.source_wait(),
                transit: m.transit(),
                hops: m.hops.clone(),
            })
            .collect();

        ProfileReport {
            width,
            height,
            cycles,
            messages: rec.finished().len(),
            delivered,
            lost,
            delivered_latency,
            totals,
            routers,
            links,
            critical_paths,
        }
    }

    /// Per-router forwarded-flit matrix (`height` rows × `width` columns),
    /// normalized to flits/cycle — the utilization heatmap's data.
    pub fn utilization_matrix(&self) -> Vec<Vec<f64>> {
        let cycles = self.cycles.max(1) as f64;
        (0..self.height)
            .map(|y| {
                (0..self.width)
                    .map(|x| self.routers[y * self.width + x].flits as f64 / cycles)
                    .collect()
            })
            .collect()
    }

    /// ASCII utilization heatmap (routers laid out as the mesh).
    pub fn utilization_heatmap_ascii(&self) -> String {
        let m = self.utilization_matrix();
        let hi = m.iter().flatten().cloned().fold(0.0f64, f64::max).max(1e-9);
        render_heatmap(&m, 0.0, hi, 0)
    }

    /// SVG utilization heatmap (routers laid out as the mesh).
    pub fn utilization_heatmap_svg(&self) -> String {
        let m = self.utilization_matrix();
        let hi = m.iter().flatten().cloned().fold(0.0f64, f64::max).max(1e-9);
        svg::heatmap(
            "per-router utilization (flits/cycle)",
            &m,
            0.0,
            hi,
            640,
            480,
        )
    }

    /// Writes the profile to `path` and `rec`'s Chrome trace-event JSON
    /// (loadable at ui.perfetto.dev) beside it at `<path>.trace.json`,
    /// returning the trace's path. An error names the file it failed on.
    ///
    /// # Errors
    ///
    /// Returns the first write that failed.
    pub fn write_with_trace(&self, rec: &FlightRecorder, path: &Path) -> io::Result<PathBuf> {
        let failed = |what: &str, file: &Path, e: io::Error| {
            io::Error::new(
                e.kind(),
                format!("cannot write {what} {}: {e}", file.display()),
            )
        };
        std::fs::write(path, self.to_json_pretty()).map_err(|e| failed("profile", path, e))?;
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".trace.json");
        let trace = path.with_file_name(name);
        write_chrome_trace(rec, &trace).map_err(|e| failed("trace", &trace, e))?;
        Ok(trace)
    }

    /// The machine-readable profile, `"schema": 1` first. This is the file
    /// `gnoc profile --report` / `--profile` write; the CLI's exit-code
    /// tests check the version field.
    pub fn to_json_pretty(&self) -> String {
        let breakdown = |s: &StallBreakdown| {
            Value::Object(vec![
                ("serialization".into(), Value::U64(s.serialization)),
                ("contention".into(), Value::U64(s.contention)),
                ("backpressure".into(), Value::U64(s.backpressure)),
                ("router_stall".into(), Value::U64(s.router_stall)),
                ("fabric_hop".into(), Value::U64(s.fabric_hop)),
                ("queued".into(), Value::U64(s.queued)),
            ])
        };
        let hop = |h: &HopRecord| {
            let mut fields = vec![
                ("router".into(), Value::U64(u64::from(h.router))),
                ("in_port".into(), Value::Str(port_name(h.in_port).into())),
                ("arrive".into(), Value::U64(h.arrive)),
            ];
            if let Some(g) = h.grant {
                fields.push(("out_port".into(), Value::Str(port_name(h.out_port).into())));
                fields.push(("grant".into(), Value::U64(g)));
            }
            fields.push((
                "stalls".into(),
                breakdown(&StallBreakdown {
                    serialization: h.serialization,
                    contention: h.contention,
                    backpressure: h.backpressure,
                    router_stall: h.router_stall,
                    fabric_hop: h.fabric_hop,
                    queued: h.queued,
                }),
            ));
            Value::Object(fields)
        };
        let value = Value::Object(vec![
            ("schema".into(), Value::U64(PROFILE_SCHEMA)),
            ("width".into(), Value::U64(self.width as u64)),
            ("height".into(), Value::U64(self.height as u64)),
            ("cycles".into(), Value::U64(self.cycles)),
            ("messages".into(), Value::U64(self.messages as u64)),
            ("delivered".into(), Value::U64(self.delivered as u64)),
            ("lost".into(), Value::U64(self.lost as u64)),
            (
                "delivered_latency".into(),
                Value::U64(self.delivered_latency),
            ),
            (
                "totals".into(),
                Value::Object(vec![
                    ("source_wait".into(), Value::U64(self.totals.source_wait)),
                    (
                        "serialization".into(),
                        Value::U64(self.totals.serialization),
                    ),
                    ("contention".into(), Value::U64(self.totals.contention)),
                    ("backpressure".into(), Value::U64(self.totals.backpressure)),
                    ("router_stall".into(), Value::U64(self.totals.router_stall)),
                    ("fabric_hop".into(), Value::U64(self.totals.fabric_hop)),
                    ("queued".into(), Value::U64(self.totals.queued)),
                    ("transit".into(), Value::U64(self.totals.transit)),
                    ("total".into(), Value::U64(self.totals.total())),
                ]),
            ),
            (
                "links".into(),
                Value::Array(
                    self.links
                        .iter()
                        .map(|l| {
                            Value::Object(vec![
                                ("router".into(), Value::U64(u64::from(l.router))),
                                ("port".into(), Value::Str(port_name(l.port).into())),
                                ("flits".into(), Value::U64(l.flits)),
                                ("stalls".into(), breakdown(&l.stalls)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "critical_paths".into(),
                Value::Array(
                    self.critical_paths
                        .iter()
                        .map(|p| {
                            Value::Object(vec![
                                ("id".into(), Value::U64(p.id)),
                                ("src".into(), Value::U64(u64::from(p.src))),
                                ("dst".into(), Value::U64(u64::from(p.dst))),
                                ("flits".into(), Value::U64(u64::from(p.flits))),
                                ("latency".into(), Value::U64(p.latency)),
                                ("source_wait".into(), Value::U64(p.source_wait)),
                                ("transit".into(), Value::U64(p.transit)),
                                (
                                    "hops".into(),
                                    Value::Array(p.hops.iter().map(hop).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        serde_json::to_string_pretty(&value).expect("profile serializes")
    }

    /// The human-readable report `gnoc profile` prints: the attribution
    /// table (components sum to delivered latency), the hottest links, the
    /// utilization heatmap, and the critical paths.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {} messages ({} delivered, {} lost) over {} cycles on a {}x{} mesh\n\n",
            self.messages, self.delivered, self.lost, self.cycles, self.width, self.height
        ));

        out.push_str("cycle attribution (delivered messages; components sum to latency)\n");
        let total = self.totals.total().max(1);
        let mut row = |name: &str, v: u64| {
            out.push_str(&format!(
                "  {name:<14} {v:>10} cycles  {:>5.1}%\n",
                100.0 * v as f64 / total as f64
            ));
        };
        row("source_wait", self.totals.source_wait);
        row("serialization", self.totals.serialization);
        row("contention", self.totals.contention);
        row("backpressure", self.totals.backpressure);
        row("router_stall", self.totals.router_stall);
        row("fabric_hop", self.totals.fabric_hop);
        row("queued", self.totals.queued);
        row("transit", self.totals.transit);
        out.push_str(&format!(
            "  {:<14} {:>10} cycles  (= sum of delivered latencies: {})\n\n",
            "total",
            self.totals.total(),
            self.delivered_latency
        ));

        let mut hottest: Vec<&LinkProfile> = self.links.iter().collect();
        hottest.sort_by(|a, b| {
            b.stalls
                .total()
                .cmp(&a.stalls.total())
                .then(a.router.cmp(&b.router))
                .then(a.port.cmp(&b.port))
        });
        out.push_str("hottest links (by attributed stall cycles)\n");
        for l in hottest.iter().take(8) {
            let s = &l.stalls;
            out.push_str(&format!(
                "  router {:>3} {:<6} {:>8} flits  stalls {:>8} (ser {} / cont {} / bp {} / rs {} / fab {} / q {})\n",
                l.router,
                port_name(l.port),
                l.flits,
                s.total(),
                s.serialization,
                s.contention,
                s.backpressure,
                s.router_stall,
                s.fabric_hop,
                s.queued,
            ));
        }

        out.push_str("\nper-router utilization (flits/cycle)\n");
        out.push_str(&self.utilization_heatmap_ascii());
        out.push('\n');

        for (i, p) in self.critical_paths.iter().enumerate() {
            out.push_str(&format!(
                "critical path #{:<2} msg {} {}→{} ({} flits): latency {} = source_wait {} + stalls + transit {}\n",
                i + 1,
                p.id,
                p.src,
                p.dst,
                p.flits,
                p.latency,
                p.source_wait,
                p.transit
            ));
            for h in &p.hops {
                let wait = h.wait();
                let to = if h.grant.is_some() {
                    port_name(h.out_port)
                } else {
                    "lost"
                };
                out.push_str(&format!(
                    "    router {:>3} {}→{}: wait {} (ser {} / cont {} / bp {} / rs {} / fab {} / q {})\n",
                    h.router,
                    port_name(h.in_port),
                    to,
                    wait,
                    h.serialization,
                    h.contention,
                    h.backpressure,
                    h.router_stall,
                    h.fabric_hop,
                    h.queued,
                ));
            }
        }
        out
    }
}

/// Streams `rec`'s Chrome trace-event JSON into a new file at `path`
/// through a buffer, without holding the trace in memory.
///
/// # Errors
///
/// The create, write or flush that failed.
pub fn write_chrome_trace(rec: &FlightRecorder, path: &Path) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    rec.write_chrome_trace(&mut out)?;
    io::Write::flush(&mut out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnoc_telemetry::StallKind;

    fn sample_recorder() -> FlightRecorder {
        let mut rec = FlightRecorder::new();
        // msg 0: 0 → 2 across routers 0,1,2 with a contention stall.
        rec.on_inject(0, 0, 2, 1, 0, 0);
        rec.charge(0, StallKind::Contention);
        rec.on_grant(0, 2, 1);
        rec.on_enqueue(0, 1, 4, 2);
        rec.on_grant(0, 2, 2);
        rec.on_enqueue(0, 2, 4, 3);
        rec.on_grant(0, 0, 3);
        rec.on_deliver(0, 3);
        // msg 1: short local delivery.
        rec.on_inject(1, 3, 3, 2, 0, 0);
        rec.on_grant(1, 0, 0);
        rec.on_deliver(1, 0);
        rec
    }

    #[test]
    fn report_totals_sum_to_delivered_latency() {
        let rec = sample_recorder();
        let rep = ProfileReport::from_recorder(&rec, 3, 3, 10, 2);
        assert_eq!(rep.delivered, 2);
        assert_eq!(rep.totals.total(), rep.delivered_latency);
        assert_eq!(rep.critical_paths.len(), 2);
        // Slowest first.
        assert_eq!(rep.critical_paths[0].id, 0);
        assert_eq!(rep.critical_paths[0].latency, 3);
    }

    #[test]
    fn json_has_schema_version_first() {
        let rec = sample_recorder();
        let rep = ProfileReport::from_recorder(&rec, 3, 3, 10, 1);
        let json = rep.to_json_pretty();
        assert!(
            json.trim_start().starts_with("{\n  \"schema\": 1"),
            "schema must lead: {}",
            &json[..60.min(json.len())]
        );
        let v: Value = serde_json::from_str(&json).expect("profile JSON parses");
        assert_eq!(v.field("schema").unwrap(), &Value::U64(1));
        assert!(v.field("critical_paths").is_ok());
    }

    #[test]
    fn text_report_mentions_all_buckets() {
        let rec = sample_recorder();
        let rep = ProfileReport::from_recorder(&rec, 3, 3, 10, 1);
        let text = rep.render_text();
        for bucket in [
            "source_wait",
            "serialization",
            "contention",
            "backpressure",
            "router_stall",
            "fabric_hop",
            "queued",
            "transit",
            "critical path #1",
        ] {
            assert!(text.contains(bucket), "missing {bucket} in report");
        }
    }

    #[test]
    fn heatmaps_render_for_geometry() {
        let rec = sample_recorder();
        let rep = ProfileReport::from_recorder(&rec, 3, 3, 10, 1);
        let ascii = rep.utilization_heatmap_ascii();
        assert_eq!(ascii.lines().count(), 3, "one line per mesh row");
        let svg = rep.utilization_heatmap_svg();
        assert!(svg.starts_with("<svg"));
    }
}
