//! `serve_mix`: the daemon over its real Unix socket.
//!
//! Set-up opens a state directory, starts `SocketServer::run` on a thread
//! and warms a pool of keys. Then one closed-loop client sends one request
//! at a time through `request_over_socket`; one op is one round trip. The
//! seeded mix repeats in blocks of ten: eight repeats drawn from the warm
//! pool (cache hits: verify-on-read) and two fresh keys (misses: journal
//! fsync, `run::execute`, cache put). Fresh keys rotate over small campaign,
//! mesh, fabric and replay jobs, and every fiftieth op is a `health`.
//!
//! Checks: every payload for a key is byte-identical to the first one seen,
//! and sampled fresh payloads equal a direct `run::execute` of the same spec.

use crate::gen::SplitMix;
use crate::measure::{Fnv, Tracer};
use crate::{run_dir, Step, Summary, Workload};
use gnoc_core::noc::{NodeId, PacketClass};
use gnoc_core::telemetry::TelemetryHandle;
use gnoc_core::trace::{to_hex, TraceHeader, TraceTap};
use gnoc_core::{trace_digest, ArbiterKind, FaultPlan, MeshConfig, ReliableMesh, RetryConfig};
use gnoc_serve::client::{envelope_type, extract_payload, request_over_socket};
use gnoc_serve::engine::{Engine, ServeConfig, ServeError};
use gnoc_serve::protocol::Request;
use gnoc_serve::run;
use gnoc_serve::server::SocketServer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Warm keys the repeats draw from.
const POOL: u64 = 8;
const BLOCK: usize = 10;
const FRESH_PER_BLOCK: usize = 2;
const HEALTH_EVERY: u64 = 50;
/// Fresh keys re-executed directly after the timed section.
const SAMPLED: usize = 4;
/// Transfers in the bench-recorded traces that fresh replay jobs carry.
const REPLAY_TRANSFERS: u64 = 40;

/// Never set: the benchmark stops the daemon with a `shutdown` request.
static TERMINATE: AtomicBool = AtomicBool::new(false);

/// One daemon: state directory, engine and socket server thread. Dropping
/// it shuts the daemon down and removes the directory.
struct Daemon {
    dir: PathBuf,
    socket: PathBuf,
    engine: Arc<Engine>,
    server: Option<JoinHandle<Result<(), ServeError>>>,
}

impl Daemon {
    fn start(dir: PathBuf, tr: &mut Tracer) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let engine = tr
            .time("serve.open", || {
                Engine::open(ServeConfig::new(&dir), TelemetryHandle::disabled())
            })
            .map_err(|e| format!("engine open: {e}"))?;
        let engine = Arc::new(engine);
        let socket = dir.join("d.sock");
        let server = SocketServer::bind(&socket).map_err(|e| format!("bind: {e}"))?;
        let thread_engine = Arc::clone(&engine);
        let server = std::thread::spawn(move || server.run(&thread_engine, &TERMINATE));
        Ok(Self {
            dir,
            socket,
            engine,
            server: Some(server),
        })
    }

    fn request(&self, line: &str) -> Result<String, String> {
        let envelopes = request_over_socket(&self.socket, line).map_err(|e| e.to_string())?;
        envelopes
            .last()
            .cloned()
            .ok_or_else(|| "no response".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = request_over_socket(&self.socket, "{\"schema\":1,\"op\":\"shutdown\"}");
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The payload of a `done` envelope, or why there is none.
fn payload(envelope: &str) -> Result<String, String> {
    match envelope_type(envelope).as_deref() {
        Some("done") => extract_payload(envelope)
            .map(str::to_string)
            .ok_or_else(|| format!("done envelope without payload: {envelope}")),
        _ => Err(format!("request not served: {envelope}")),
    }
}

/// A small mesh soak recorded by the benchmark, as replay-job hex.
fn recorded_trace(seed: u64) -> Result<String, String> {
    let cfg = MeshConfig::paper_6x6(ArbiterKind::RoundRobin);
    let mut rm = ReliableMesh::with_faults(cfg, &FaultPlan::none(), RetryConfig::default())
        .map_err(|e| e.to_string())?;
    let header = TraceHeader::mesh(6, 6, seed, REPLAY_TRANSFERS, 0);
    rm.attach_trace_tap(TraceTap::in_memory(&header));
    let mut rng = SplitMix::new(seed, "serve_mix.replay");
    for _ in 0..REPLAY_TRANSFERS {
        let src = rng.below(36) as u32;
        let dst = (src + 1 + rng.below(35) as u32) % 36;
        rm.submit(NodeId::new(src), NodeId::new(dst), 1, PacketClass::Request);
    }
    if !rm.run_until_quiescent(1_000_000) {
        return Err("recorded soak did not quiesce".into());
    }
    let line = trace_digest::mesh_stats_line(&rm)?;
    let tap = rm.take_trace_tap().ok_or("trace tap missing")?;
    Ok(to_hex(&tap.finish_bytes(trace_digest::line_digest(&line))?))
}

/// The request line of fresh key `n`: campaign, mesh, fabric and replay
/// jobs in turn, each small enough to finish in tens of milliseconds.
fn fresh_request(seed: u64, n: u64) -> Result<String, String> {
    let s = crate::gen::mix(seed ^ crate::gen::mix(n));
    Ok(match n % 4 {
        0 => format!(
            "{{\"schema\":1,\"op\":\"campaign\",\"device\":\"v100\",\"seed\":{s},\"lines\":2,\"samples\":2,\"deadline_rows\":4}}"
        ),
        1 => format!("{{\"schema\":1,\"op\":\"mesh\",\"seed\":{s},\"transfers\":200}}"),
        2 => format!(
            "{{\"schema\":1,\"op\":\"fabric\",\"devices\":2,\"topology\":\"ring\",\"seed\":{s},\"transfers\":64}}"
        ),
        _ => format!(
            "{{\"schema\":1,\"op\":\"replay\",\"trace\":\"{}\"}}",
            recorded_trace(s)?
        ),
    })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Hit,
    Fresh,
    Health,
}

/// The op kinds of block `block`: `FRESH_PER_BLOCK` fresh keys at seeded
/// positions among `BLOCK` ops, the rest repeats.
fn block_kinds(seed: u64, block: u64) -> Vec<bool> {
    let mut fresh = vec![false; BLOCK];
    fresh[..FRESH_PER_BLOCK].fill(true);
    SplitMix::new(seed ^ block, "serve_mix.block").shuffle(&mut fresh);
    fresh
}

/// A running daemon, its key pool, and what the client has seen.
pub struct ServeMix {
    daemon: Daemon,
    seed: u64,
    rng: SplitMix,
    pool: Vec<String>,
    first: BTreeMap<String, String>,
    fresh: u64,
    sampled: Vec<String>,
    digest: Fnv,
}

impl ServeMix {
    fn kind(&self, i: u64) -> Kind {
        if i % HEALTH_EVERY == HEALTH_EVERY - 1 {
            Kind::Health
        } else if block_kinds(self.seed, i / BLOCK as u64)[(i % BLOCK as u64) as usize] {
            Kind::Fresh
        } else {
            Kind::Hit
        }
    }

    /// Checks `payload` against the first payload seen for `line`.
    fn same_as_first(&mut self, line: &str, payload: String) -> Result<(), String> {
        match self.first.get(line) {
            Some(first) if *first != payload => {
                Err(format!("payload changed for a repeated key: {line:.80}"))
            }
            Some(_) => Ok(()),
            None => {
                self.first.insert(line.to_string(), payload);
                Ok(())
            }
        }
    }
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve_mix";
    const SETUP_REPS: usize = 3;
    /// A round trip mostly waits out the daemon's accept poll, whose length
    /// the host's speed does not set.
    const HOST_SENSITIVITY: f64 = 0.0;

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let daemon = Daemon::start(run_dir().join("serve"), tr)?;
        let mut w = Self {
            daemon,
            seed,
            rng: SplitMix::new(seed, "serve_mix"),
            pool: Vec::new(),
            first: BTreeMap::new(),
            fresh: 0,
            sampled: Vec::new(),
            digest: Fnv::default(),
        };
        for n in 0..POOL {
            // Pool keys come from a stream the fresh keys never reach.
            let line = fresh_request(seed ^ 0xb00c_5eed, n)?;
            let envelope = w.daemon.request(&line)?;
            w.same_as_first(&line, payload(&envelope)?)?;
            w.pool.push(line);
        }
        Ok(w)
    }

    fn step(&mut self, i: u64, tr: &mut Tracer) -> Result<Step, String> {
        let kind = self.kind(i);
        let line = match kind {
            Kind::Hit => self.pool[self.rng.below(POOL) as usize].clone(),
            Kind::Fresh => {
                self.fresh += 1;
                fresh_request(self.seed, self.fresh)?
            }
            Kind::Health => "{\"schema\":1,\"op\":\"health\"}".to_string(),
        };
        let layer = match kind {
            Kind::Hit => "serve.hit",
            Kind::Fresh => "serve.miss",
            Kind::Health => "serve.health",
        };
        let start = Instant::now();
        let op = tr.enter("op");
        let envelope = tr.time(layer, || self.daemon.request(&line));
        tr.exit(op);
        let op_s = start.elapsed().as_secs_f64();

        let envelope = envelope?;
        if kind == Kind::Health {
            if envelope_type(&envelope).as_deref() != Some("health") {
                return Err(format!("health not served: {envelope}"));
            }
        } else {
            let payload = payload(&envelope)?;
            if i < Self::DIGEST_OPS {
                self.digest.bytes(line.as_bytes());
                self.digest.bytes(payload.as_bytes());
            }
            if kind == Kind::Fresh && self.sampled.len() < SAMPLED {
                self.sampled.push(line.clone());
            }
            self.same_as_first(&line, payload)?;
        }
        Ok(Step {
            op_s,
            sim_cycles: 0,
        })
    }

    fn finish(self, tr: &mut Tracer) -> Result<Summary, String> {
        let ckpt = self.daemon.dir.join("direct-ckpt.json");
        for line in &self.sampled {
            let Ok(Request::Job(spec)) = Request::parse(line) else {
                return Err(format!("sampled request does not parse: {line:.80}"));
            };
            let direct = tr.time("serve.exec", || run::execute(&spec, &ckpt, 0));
            match (direct.result, self.first.get(line)) {
                (Ok(p), Some(first)) if p == *first => {}
                _ => {
                    return Err(format!(
                        "daemon payload differs from run::execute: {line:.80}"
                    ))
                }
            }
        }
        let health = self.daemon.engine.handle().health();
        Ok(Summary {
            digest: self.digest.0,
            exact: Vec::new(),
            values: vec![("serve.cache_hit_ratio", health.cache_hit_rate())],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_stratified() {
        for block in 0..20 {
            let kinds = block_kinds(3, block);
            assert_eq!(kinds, block_kinds(3, block));
            assert_eq!(kinds.iter().filter(|&&f| f).count(), FRESH_PER_BLOCK);
        }
        assert_ne!(
            (0..20).map(|b| block_kinds(3, b)).collect::<Vec<_>>(),
            (0..20).map(|b| block_kinds(4, b)).collect::<Vec<_>>()
        );
        for n in 0..8 {
            assert_eq!(fresh_request(3, n), fresh_request(3, n));
            assert_ne!(fresh_request(3, n), fresh_request(4, n));
        }
    }
}
