//! `gnoc-trace`: a compact, versioned, delta-encoded, streamed trace format
//! for deterministic workload record/replay.
//!
//! A trace captures the *injected transfer stream* of a mesh, fabric, or
//! campaign run plus enough header context (schema version, device preset,
//! topology, seed, fault-plan hash) to re-instantiate the run. Because every
//! simulator in the workspace is a pure function of its configuration, fault
//! plan, and submission sequence, replaying the stream into an identically
//! configured simulator reproduces the original run bit for bit.
//!
//! # On-disk layout
//!
//! ```text
//! magic "GNOCTRC\0" (8 bytes)
//! schema version   (u32 LE)
//! chunk*           each: [type u8][payload len u32 LE][crc32 u32 LE][payload]
//! ```
//!
//! Chunk types: `1` header (exactly one, first), `2` events (zero or more),
//! `3` footer (exactly one, last). The CRC32 (IEEE) covers the type byte
//! plus the payload, so a bit flip anywhere in a chunk — including its type
//! tag — is detected. Events are delta-encoded LEB128 varints (zigzag for
//! the cycle delta), batched [`EVENTS_PER_CHUNK`] per chunk; the reader
//! streams one chunk at a time and never holds the full trace resident.
//!
//! # Truncation vs corruption
//!
//! The footer is written on [`TraceWriter::finish`] and fsynced by the
//! file-backed sinks, so its presence proves the capture completed. A trace
//! that ends cleanly mid-stream (crash, kill -9, partial copy) decodes as
//! [`TraceError::TruncatedTail`]: every complete chunk before the tail is
//! salvageable and callers are expected to warn and replay that prefix. A
//! chunk whose CRC, length, type, or varint framing is wrong decodes as
//! [`TraceError::CorruptChunk`] naming the chunk index and byte offset:
//! nothing after it can be trusted, and callers must refuse to replay.
//!
//! # Digests
//!
//! The header's `plan_fnv` and the footer's `stats_fnv` are FNV-1a 64
//! digests that the recording caller computes with
//! `gnoc_telemetry::hash::fnv1a64`; this crate stores and compares them but
//! hashes nothing itself. Chunk integrity is its own CRC32.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Current trace schema version. Bump on any incompatible layout change;
/// readers reject other versions with [`TraceError::SchemaVersion`].
pub const TRACE_SCHEMA: u32 = 1;

/// File magic: identifies a gnoc trace before any version negotiation.
pub const TRACE_MAGIC: [u8; 8] = *b"GNOCTRC\0";

/// Events batched per chunk. Small enough that a truncated tail loses at
/// most this many events; large enough that framing overhead stays < 1%.
pub const EVENTS_PER_CHUNK: usize = 128;

/// Upper bound on a plausible chunk payload. A length field above this is
/// corruption, not a big chunk — events chunks encode at most
/// [`EVENTS_PER_CHUNK`] × ~40 bytes and the header/footer are far smaller.
const MAX_CHUNK_LEN: u32 = 1 << 20;

const CHUNK_HEADER: u8 = 1;
const CHUNK_EVENTS: u8 = 2;
const CHUNK_FOOTER: u8 = 3;

// ---------------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------------

/// CRC32 (IEEE 802.3, reflected) over `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let low = crc & 1;
            crc >>= 1;
            if low != 0 {
                crc ^= 0xedb8_8320;
            }
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong opening or streaming a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Underlying I/O failure (not a format problem).
    Io(String),
    /// The file does not start with [`TRACE_MAGIC`] — not a gnoc trace.
    BadMagic {
        /// The bytes actually found (at most 8).
        found: Vec<u8>,
    },
    /// The trace was written by an incompatible schema version.
    SchemaVersion {
        /// Version stamped in the file.
        found: u32,
        /// The only version this reader speaks.
        supported: u32,
    },
    /// A chunk failed its CRC, length, type, or framing checks. Nothing at
    /// or after this chunk can be trusted.
    CorruptChunk {
        /// Zero-based chunk index (the header chunk is 0).
        chunk: u32,
        /// Byte offset of the chunk's type byte from the start of the file.
        offset: u64,
        /// Human-readable description of the specific check that failed.
        reason: String,
    },
    /// The trace ends before its footer: the capture was cut short. Every
    /// event already yielded came from a CRC-verified chunk and is safe to
    /// replay as the complete prefix.
    TruncatedTail {
        /// Zero-based index of the chunk the tail was lost from.
        chunk: u32,
        /// Byte offset where the truncation begins.
        offset: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "trace I/O error: {e}"),
            Self::BadMagic { found } => {
                write!(f, "not a gnoc trace (magic bytes {found:02x?})")
            }
            Self::SchemaVersion { found, supported } => write!(
                f,
                "trace schema version {found} is not supported (this build reads version {supported}); \
                 re-record the trace with a matching gnoc"
            ),
            Self::CorruptChunk {
                chunk,
                offset,
                reason,
            } => write!(
                f,
                "corrupt trace: chunk {chunk} at byte offset {offset}: {reason}"
            ),
            Self::TruncatedTail { chunk, offset } => write!(
                f,
                "trace truncated in chunk {chunk} at byte offset {offset} (no footer); \
                 the complete prefix before it is replayable"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Header / events / footer
// ---------------------------------------------------------------------------

/// What kind of run a trace captures — decides which replay driver applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A single reliable-mesh soak (`src_dev`/`dst_dev` are always 0).
    Mesh,
    /// A multi-device fabric soak.
    Fabric,
    /// A calibration campaign (no injected transfers; the header's preset,
    /// seed, and probe shape re-instantiate the run).
    Campaign,
}

impl TraceKind {
    fn code(self) -> u8 {
        match self {
            Self::Mesh => 0,
            Self::Fabric => 1,
            Self::Campaign => 2,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Mesh),
            1 => Some(Self::Fabric),
            2 => Some(Self::Campaign),
            _ => None,
        }
    }

    /// Lowercase name, stable for display and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Mesh => "mesh",
            Self::Fabric => "fabric",
            Self::Campaign => "campaign",
        }
    }
}

/// Run context captured alongside the event stream: everything needed to
/// re-instantiate the recorded run (the fault plan itself travels separately
/// and is pinned by `plan_fnv`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Which replay driver this trace feeds.
    pub kind: TraceKind,
    /// Die mesh width.
    pub width: u32,
    /// Die mesh height.
    pub height: u32,
    /// Device count (1 for a plain mesh).
    pub devices: u32,
    /// Fabric topology name (empty for mesh/campaign traces).
    pub topology: String,
    /// Traffic/campaign seed.
    pub seed: u64,
    /// Transfers the recorded run injected (or campaign rows measured).
    pub transfers: u64,
    /// FNV-1a 64 of the fault plan's canonical JSON; 0 = no plan. Replay
    /// refuses a plan whose hash does not match.
    pub plan_fnv: u64,
    /// Device preset name for campaign traces.
    pub device: Option<String>,
    /// Campaign probe working-set lines (0 for mesh/fabric traces).
    pub lines: u32,
    /// Campaign probe samples per pair (0 for mesh/fabric traces).
    pub samples: u32,
}

impl TraceHeader {
    /// A mesh-soak header with campaign fields zeroed.
    #[must_use]
    pub fn mesh(width: u32, height: u32, seed: u64, transfers: u64, plan_fnv: u64) -> Self {
        Self {
            kind: TraceKind::Mesh,
            width,
            height,
            devices: 1,
            topology: String::new(),
            seed,
            transfers,
            plan_fnv,
            device: None,
            lines: 0,
            samples: 0,
        }
    }

    /// A fabric-soak header.
    #[must_use]
    pub fn fabric(
        devices: u32,
        topology: &str,
        width: u32,
        height: u32,
        seed: u64,
        transfers: u64,
        plan_fnv: u64,
    ) -> Self {
        Self {
            kind: TraceKind::Fabric,
            width,
            height,
            devices,
            topology: topology.to_owned(),
            seed,
            transfers,
            plan_fnv,
            device: None,
            lines: 0,
            samples: 0,
        }
    }

    /// A campaign header (no injected transfers; replay re-runs the
    /// campaign from these parameters and compares the stats digest).
    #[must_use]
    pub fn campaign(device: &str, seed: u64, lines: u32, samples: u32, plan_fnv: u64) -> Self {
        Self {
            kind: TraceKind::Campaign,
            width: 0,
            height: 0,
            devices: 1,
            topology: String::new(),
            seed,
            transfers: 0,
            plan_fnv,
            device: Some(device.to_owned()),
            lines,
            samples,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(self.kind.code());
        out.extend_from_slice(&self.width.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&self.devices.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.transfers.to_le_bytes());
        out.extend_from_slice(&self.plan_fnv.to_le_bytes());
        out.extend_from_slice(&self.lines.to_le_bytes());
        out.extend_from_slice(&self.samples.to_le_bytes());
        encode_str(&mut out, &self.topology);
        match &self.device {
            Some(d) => {
                out.push(1);
                encode_str(&mut out, d);
            }
            None => out.push(0),
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<Self, String> {
        let mut pos = 0usize;
        let kind = TraceKind::from_code(take_u8(payload, &mut pos)?)
            .ok_or_else(|| "unknown trace kind".to_owned())?;
        let width = take_u32(payload, &mut pos)?;
        let height = take_u32(payload, &mut pos)?;
        let devices = take_u32(payload, &mut pos)?;
        let seed = take_u64(payload, &mut pos)?;
        let transfers = take_u64(payload, &mut pos)?;
        let plan_fnv = take_u64(payload, &mut pos)?;
        let lines = take_u32(payload, &mut pos)?;
        let samples = take_u32(payload, &mut pos)?;
        let topology = take_str(payload, &mut pos)?;
        let device = match take_u8(payload, &mut pos)? {
            0 => None,
            1 => Some(take_str(payload, &mut pos)?),
            _ => return Err("bad device-preset flag".to_owned()),
        };
        if pos != payload.len() {
            return Err("trailing bytes in header".to_owned());
        }
        Ok(Self {
            kind,
            width,
            height,
            devices,
            topology,
            seed,
            transfers,
            plan_fnv,
            device,
            lines,
            samples,
        })
    }
}

/// One injected transfer. Mesh traces carry `src_dev == dst_dev == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulator cycle at submission (nondecreasing along the stream in
    /// every recorder, but zigzag-encoded so regressions still round-trip).
    pub cycle: u64,
    /// Source device.
    pub src_dev: u32,
    /// Source node within the source device's mesh.
    pub src: u32,
    /// Destination device.
    pub dst_dev: u32,
    /// Destination node within the destination device's mesh.
    pub dst: u32,
    /// Packet length in flits.
    pub flits: u32,
    /// Packet class code (0 = Request, 1 = Reply — mirrors `PacketClass`).
    pub class: u8,
}

/// Footer written by [`TraceWriter::finish`]: totals for cheap validation
/// plus the recorded run's stats digest for replay divergence checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFooter {
    /// Total events across all event chunks.
    pub events: u64,
    /// Number of event chunks.
    pub event_chunks: u32,
    /// FNV-1a 64 of the recorded run's canonical stats line; 0 = unknown.
    /// A replay whose stats hash differs is divergent.
    pub stats_fnv: u64,
}

impl TraceFooter {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20);
        out.extend_from_slice(&self.events.to_le_bytes());
        out.extend_from_slice(&self.event_chunks.to_le_bytes());
        out.extend_from_slice(&self.stats_fnv.to_le_bytes());
        out
    }

    fn decode(payload: &[u8]) -> Result<Self, String> {
        let mut pos = 0usize;
        let events = take_u64(payload, &mut pos)?;
        let event_chunks = take_u32(payload, &mut pos)?;
        let stats_fnv = take_u64(payload, &mut pos)?;
        if pos != payload.len() {
            return Err("trailing bytes in footer".to_owned());
        }
        Ok(Self {
            events,
            event_chunks,
            stats_fnv,
        })
    }
}

// ---------------------------------------------------------------------------
// Primitive encoding helpers
// ---------------------------------------------------------------------------

fn encode_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("trace strings are short names");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take_u8(buf: &[u8], pos: &mut usize) -> Result<u8, String> {
    let b = *buf.get(*pos).ok_or("unexpected end of payload")?;
    *pos += 1;
    Ok(b)
}

fn take_u32(buf: &[u8], pos: &mut usize) -> Result<u32, String> {
    let end = pos.checked_add(4).filter(|&e| e <= buf.len());
    let end = end.ok_or("unexpected end of payload")?;
    let v = u32::from_le_bytes(buf[*pos..end].try_into().expect("4 bytes"));
    *pos = end;
    Ok(v)
}

fn take_u64(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let end = pos.checked_add(8).filter(|&e| e <= buf.len());
    let end = end.ok_or("unexpected end of payload")?;
    let v = u64::from_le_bytes(buf[*pos..end].try_into().expect("8 bytes"));
    *pos = end;
    Ok(v)
}

fn take_str(buf: &[u8], pos: &mut usize) -> Result<String, String> {
    let end = pos.checked_add(2).filter(|&e| e <= buf.len());
    let end = end.ok_or("unexpected end of payload")?;
    let len = u16::from_le_bytes(buf[*pos..end].try_into().expect("2 bytes")) as usize;
    *pos = end;
    let send = pos.checked_add(len).filter(|&e| e <= buf.len());
    let send = send.ok_or("string runs past payload")?;
    let s = std::str::from_utf8(&buf[*pos..send])
        .map_err(|_| "non-UTF-8 string".to_owned())?
        .to_owned();
    *pos = send;
    Ok(s)
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    for shift in 0..10u32 {
        let byte = *buf.get(*pos).ok_or("varint runs past chunk")?;
        *pos += 1;
        let payload = u64::from(byte & 0x7f);
        if shift == 9 && payload > 1 {
            return Err("varint overflows u64".to_owned());
        }
        v |= payload << (7 * shift);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err("varint longer than 10 bytes".to_owned())
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming chunked writer. Events are buffered [`EVENTS_PER_CHUNK`] at a
/// time and flushed as CRC-framed chunks, so memory stays O(chunk) no
/// matter how long the capture runs.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    pending: Vec<u8>,
    pending_events: usize,
    last_cycle: u64,
    events: u64,
    event_chunks: u32,
}

fn write_chunk<W: Write>(sink: &mut W, kind: u8, payload: &[u8]) -> io::Result<()> {
    let mut crc_input = Vec::with_capacity(payload.len() + 1);
    crc_input.push(kind);
    crc_input.extend_from_slice(payload);
    let len = u32::try_from(payload.len()).expect("chunk payloads are bounded");
    sink.write_all(&[kind])?;
    sink.write_all(&len.to_le_bytes())?;
    sink.write_all(&crc32(&crc_input).to_le_bytes())?;
    sink.write_all(payload)
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace: writes the magic, schema version, and header chunk.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn new(mut sink: W, header: &TraceHeader) -> io::Result<Self> {
        sink.write_all(&TRACE_MAGIC)?;
        sink.write_all(&TRACE_SCHEMA.to_le_bytes())?;
        write_chunk(&mut sink, CHUNK_HEADER, &header.encode())?;
        Ok(Self {
            sink,
            pending: Vec::new(),
            pending_events: 0,
            last_cycle: 0,
            events: 0,
            event_chunks: 0,
        })
    }

    /// Appends one event, flushing a chunk when the batch fills.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn record(&mut self, ev: &TraceEvent) -> io::Result<()> {
        let delta = ev.cycle.wrapping_sub(self.last_cycle) as i64;
        self.last_cycle = ev.cycle;
        write_varint(&mut self.pending, zigzag(delta));
        write_varint(&mut self.pending, u64::from(ev.src_dev));
        write_varint(&mut self.pending, u64::from(ev.src));
        write_varint(&mut self.pending, u64::from(ev.dst_dev));
        write_varint(&mut self.pending, u64::from(ev.dst));
        write_varint(&mut self.pending, u64::from(ev.flits));
        self.pending.push(ev.class);
        self.pending_events += 1;
        self.events += 1;
        if self.pending_events >= EVENTS_PER_CHUNK {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.pending_events == 0 {
            return Ok(());
        }
        write_chunk(&mut self.sink, CHUNK_EVENTS, &self.pending)?;
        self.pending.clear();
        self.pending_events = 0;
        self.event_chunks += 1;
        Ok(())
    }

    /// Events recorded so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Flushes the last partial chunk, writes the footer, and returns the
    /// sink. `stats_fnv` is the recorded run's stats digest (0 = unknown).
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn finish(mut self, stats_fnv: u64) -> io::Result<W> {
        self.flush_chunk()?;
        let footer = TraceFooter {
            events: self.events,
            event_chunks: self.event_chunks,
            stats_fnv,
        };
        write_chunk(&mut self.sink, CHUNK_FOOTER, &footer.encode())?;
        Ok(self.sink)
    }
}

/// Records a trace straight to a `Vec<u8>` — the in-memory capture the
/// chaos replay oracle and reproducer embedding use.
#[must_use]
pub fn memory_writer(header: &TraceHeader) -> TraceWriter<Vec<u8>> {
    TraceWriter::new(Vec::new(), header).expect("writing to a Vec cannot fail")
}

// ---------------------------------------------------------------------------
// Tap: the sink simulators hold
// ---------------------------------------------------------------------------

enum TapSink {
    File(BufWriter<File>),
    Mem(Vec<u8>),
}

impl Write for TapSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Self::File(f) => f.write(buf),
            Self::Mem(v) => v.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Self::File(f) => f.flush(),
            Self::Mem(v) => v.flush(),
        }
    }
}

/// The record tap a simulator owns. Record errors are stashed sticky (the
/// simulation must never change behaviour because a disk filled up); the
/// driver checks [`TraceTap::error`] after the run and maps it to its I/O
/// exit path.
pub struct TraceTap {
    writer: Option<TraceWriter<TapSink>>,
    error: Option<String>,
}

impl fmt::Debug for TraceTap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceTap")
            .field("events", &self.events())
            .field("error", &self.error)
            .finish()
    }
}

impl TraceTap {
    /// A tap writing to `path` (buffered; [`TraceTap::finish_file`] fsyncs).
    ///
    /// # Errors
    ///
    /// Propagates file-creation and header-write I/O errors.
    pub fn to_file(path: &Path, header: &TraceHeader) -> io::Result<Self> {
        let file = File::create(path)?;
        let writer = TraceWriter::new(TapSink::File(BufWriter::new(file)), header)?;
        Ok(Self {
            writer: Some(writer),
            error: None,
        })
    }

    /// A tap capturing to memory; retrieve with [`TraceTap::finish_bytes`].
    #[must_use]
    pub fn in_memory(header: &TraceHeader) -> Self {
        let writer = TraceWriter::new(TapSink::Mem(Vec::new()), header)
            .expect("writing to a Vec cannot fail");
        Self {
            writer: Some(writer),
            error: None,
        }
    }

    /// Records one event. Never fails: the first I/O error is stashed and
    /// all later events are dropped, keeping the simulation deterministic.
    pub fn record(&mut self, ev: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.record(ev) {
                self.error = Some(e.to_string());
            }
        }
    }

    /// Events recorded so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.writer.as_ref().map_or(0, TraceWriter::events)
    }

    /// The first record error, if any.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Finishes a file-backed tap: footer, flush, and `fsync` so a
    /// finalized trace survives a crash right after record returns.
    ///
    /// # Errors
    ///
    /// Returns the sticky record error or any finalize I/O error.
    pub fn finish_file(mut self, stats_fnv: u64) -> Result<(), String> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let writer = self.writer.take().expect("tap finished once");
        match writer.finish(stats_fnv).map_err(|e| e.to_string())? {
            TapSink::File(buf) => {
                let file = buf.into_inner().map_err(|e| e.to_string())?;
                file.sync_all().map_err(|e| e.to_string())
            }
            TapSink::Mem(_) => Err("finish_file called on an in-memory tap".to_owned()),
        }
    }

    /// Finishes an in-memory tap and returns the encoded trace bytes.
    ///
    /// # Errors
    ///
    /// Returns the sticky record error (I/O on a Vec cannot fail).
    pub fn finish_bytes(mut self, stats_fnv: u64) -> Result<Vec<u8>, String> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let writer = self.writer.take().expect("tap finished once");
        match writer.finish(stats_fnv).map_err(|e| e.to_string())? {
            TapSink::Mem(bytes) => Ok(bytes),
            TapSink::File(_) => Err("finish_bytes called on a file tap".to_owned()),
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

enum ReaderState {
    /// Still streaming event chunks.
    Streaming,
    /// Footer seen and verified; `next_event` returns `Ok(None)`.
    Done,
    /// A terminal error was already returned once; `next_event` returns
    /// `Ok(None)` so drivers that looped past the error don't spin.
    Failed,
}

/// Streaming reader: holds one decoded chunk at a time. Yields every event
/// from CRC-verified chunks, then either `Ok(None)` (footer seen) or the
/// terminal [`TraceError`] once.
pub struct TraceReader<R: Read> {
    src: R,
    header: TraceHeader,
    footer: Option<TraceFooter>,
    /// Byte offset of the next unread byte.
    offset: u64,
    /// Index of the next chunk to read (the header chunk was 0).
    chunk: u32,
    /// Decoded payload of the current events chunk.
    buf: Vec<u8>,
    pos: usize,
    last_cycle: u64,
    events_seen: u64,
    event_chunks_seen: u32,
    state: ReaderState,
}

impl TraceReader<BufReader<File>> {
    /// Opens a trace file for streaming.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be opened; otherwise the
    /// magic/schema/header failures of [`TraceReader::new`].
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let file = File::open(path)
            .map_err(|e| TraceError::Io(format!("cannot open {}: {e}", path.display())))?;
        Self::new(BufReader::new(file))
    }
}

impl TraceReader<io::Cursor<Vec<u8>>> {
    /// Reads a trace from bytes already in memory (reproducer embeds, the
    /// serve replay job, the chaos oracle).
    ///
    /// # Errors
    ///
    /// Same magic/schema/header failures as [`TraceReader::new`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, TraceError> {
        Self::new(io::Cursor::new(bytes))
    }
}

impl<R: Read> TraceReader<R> {
    /// Reads the magic, schema version, and header chunk, leaving the
    /// reader positioned at the first event chunk.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`], [`TraceError::SchemaVersion`], or the
    /// header chunk's corruption/truncation errors.
    pub fn new(mut src: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 8];
        let got = read_up_to(&mut src, &mut magic)?;
        if got < 8 || magic != TRACE_MAGIC {
            return Err(TraceError::BadMagic {
                found: magic[..got].to_vec(),
            });
        }
        let mut schema = [0u8; 4];
        if read_up_to(&mut src, &mut schema)? < 4 {
            return Err(TraceError::TruncatedTail {
                chunk: 0,
                offset: 8,
            });
        }
        let schema = u32::from_le_bytes(schema);
        if schema != TRACE_SCHEMA {
            return Err(TraceError::SchemaVersion {
                found: schema,
                supported: TRACE_SCHEMA,
            });
        }

        let mut offset = 12u64;
        let (kind, payload) = read_chunk(&mut src, 0, &mut offset)?;
        if kind != CHUNK_HEADER {
            return Err(TraceError::CorruptChunk {
                chunk: 0,
                offset: 12,
                reason: format!("expected header chunk, found type {kind}"),
            });
        }
        let header = TraceHeader::decode(&payload).map_err(|reason| TraceError::CorruptChunk {
            chunk: 0,
            offset: 12,
            reason,
        })?;
        Ok(Self {
            src,
            header,
            footer: None,
            offset,
            chunk: 1,
            buf: Vec::new(),
            pos: 0,
            last_cycle: 0,
            events_seen: 0,
            event_chunks_seen: 0,
            state: ReaderState::Streaming,
        })
    }

    /// The run context this trace was recorded under.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The footer, available once `next_event` has returned `Ok(None)`.
    #[must_use]
    pub fn footer(&self) -> Option<&TraceFooter> {
        self.footer.as_ref()
    }

    /// Events yielded so far.
    #[must_use]
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Yields the next event, `Ok(None)` at a verified footer, or the
    /// terminal error exactly once. After [`TraceError::TruncatedTail`]
    /// every previously yielded event is a CRC-verified prefix.
    ///
    /// # Errors
    ///
    /// [`TraceError::TruncatedTail`] (salvageable prefix) or
    /// [`TraceError::CorruptChunk`] / [`TraceError::Io`] (unusable).
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceError> {
        loop {
            match self.state {
                ReaderState::Done | ReaderState::Failed => return Ok(None),
                ReaderState::Streaming => {}
            }
            if self.pos < self.buf.len() {
                let chunk = self.chunk.saturating_sub(1);
                let offset = self.offset;
                let ev = decode_event(&self.buf, &mut self.pos, &mut self.last_cycle).map_err(
                    |reason| {
                        self.state = ReaderState::Failed;
                        TraceError::CorruptChunk {
                            chunk,
                            offset,
                            reason,
                        }
                    },
                )?;
                self.events_seen += 1;
                return Ok(Some(ev));
            }
            match self.read_next_chunk() {
                Ok(true) => {}
                Ok(false) => return Ok(None),
                Err(e) => {
                    self.state = ReaderState::Failed;
                    return Err(e);
                }
            }
        }
    }

    /// Loads the next chunk. `Ok(false)` means the footer was verified.
    fn read_next_chunk(&mut self) -> Result<bool, TraceError> {
        let chunk = self.chunk;
        let chunk_start = self.offset;
        let (kind, payload) = read_chunk(&mut self.src, chunk, &mut self.offset)?;
        self.chunk += 1;
        match kind {
            CHUNK_EVENTS => {
                self.buf = payload;
                self.pos = 0;
                self.event_chunks_seen += 1;
                Ok(true)
            }
            CHUNK_FOOTER => {
                let footer =
                    TraceFooter::decode(&payload).map_err(|reason| TraceError::CorruptChunk {
                        chunk,
                        offset: chunk_start,
                        reason,
                    })?;
                if footer.events != self.events_seen
                    || footer.event_chunks != self.event_chunks_seen
                {
                    return Err(TraceError::CorruptChunk {
                        chunk,
                        offset: chunk_start,
                        reason: format!(
                            "footer claims {} event(s) in {} chunk(s) but the stream held {} in {}",
                            footer.events,
                            footer.event_chunks,
                            self.events_seen,
                            self.event_chunks_seen
                        ),
                    });
                }
                // Anything after the footer is not part of the trace.
                let mut probe = [0u8; 1];
                if read_up_to(&mut self.src, &mut probe)? > 0 {
                    return Err(TraceError::CorruptChunk {
                        chunk: self.chunk,
                        offset: self.offset,
                        reason: "data after the footer chunk".to_owned(),
                    });
                }
                self.footer = Some(footer);
                self.state = ReaderState::Done;
                Ok(false)
            }
            CHUNK_HEADER => Err(TraceError::CorruptChunk {
                chunk,
                offset: chunk_start,
                reason: "second header chunk".to_owned(),
            }),
            other => Err(TraceError::CorruptChunk {
                chunk,
                offset: chunk_start,
                reason: format!("unknown chunk type {other}"),
            }),
        }
    }
}

fn decode_event(buf: &[u8], pos: &mut usize, last_cycle: &mut u64) -> Result<TraceEvent, String> {
    let delta = unzigzag(read_varint(buf, pos)?);
    let cycle = last_cycle.wrapping_add(delta as u64);
    *last_cycle = cycle;
    let src_dev = narrow_u32(read_varint(buf, pos)?, "src_dev")?;
    let src = narrow_u32(read_varint(buf, pos)?, "src")?;
    let dst_dev = narrow_u32(read_varint(buf, pos)?, "dst_dev")?;
    let dst = narrow_u32(read_varint(buf, pos)?, "dst")?;
    let flits = narrow_u32(read_varint(buf, pos)?, "flits")?;
    let class = *buf.get(*pos).ok_or("event runs past chunk")?;
    *pos += 1;
    if class > 1 {
        return Err(format!("packet class {class} out of range"));
    }
    Ok(TraceEvent {
        cycle,
        src_dev,
        src,
        dst_dev,
        dst,
        flits,
        class,
    })
}

fn narrow_u32(v: u64, field: &str) -> Result<u32, String> {
    u32::try_from(v).map_err(|_| format!("{field} does not fit in u32"))
}

/// Reads until `buf` is full or EOF; returns bytes read. Any mid-stream
/// I/O error is a hard error, not a truncation.
fn read_up_to<R: Read>(src: &mut R, buf: &mut [u8]) -> Result<usize, TraceError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match src.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(TraceError::Io(e.to_string())),
        }
    }
    Ok(filled)
}

/// Reads one framed chunk: `(type, payload)`. Truncation anywhere inside
/// the frame is [`TraceError::TruncatedTail`]; implausible lengths and CRC
/// mismatches are [`TraceError::CorruptChunk`].
fn read_chunk<R: Read>(
    src: &mut R,
    chunk: u32,
    offset: &mut u64,
) -> Result<(u8, Vec<u8>), TraceError> {
    let start = *offset;
    let mut frame = [0u8; 9];
    let got = read_up_to(src, &mut frame)?;
    if got < 9 {
        return Err(TraceError::TruncatedTail {
            chunk,
            offset: start + got as u64,
        });
    }
    let kind = frame[0];
    let len = u32::from_le_bytes(frame[1..5].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(frame[5..9].try_into().expect("4 bytes"));
    if len > MAX_CHUNK_LEN {
        return Err(TraceError::CorruptChunk {
            chunk,
            offset: start,
            reason: format!("implausible chunk length {len}"),
        });
    }
    let mut payload = vec![0u8; len as usize];
    let got = read_up_to(src, &mut payload)?;
    if got < payload.len() {
        return Err(TraceError::TruncatedTail {
            chunk,
            offset: start + 9 + got as u64,
        });
    }
    let mut crc_input = Vec::with_capacity(payload.len() + 1);
    crc_input.push(kind);
    crc_input.extend_from_slice(&payload);
    let actual = crc32(&crc_input);
    if actual != crc {
        return Err(TraceError::CorruptChunk {
            chunk,
            offset: start,
            reason: format!("crc mismatch (stored {crc:08x}, computed {actual:08x})"),
        });
    }
    *offset = start + 9 + u64::from(len);
    Ok((kind, payload))
}

// ---------------------------------------------------------------------------
// Replay driver contract
// ---------------------------------------------------------------------------

/// What a replay driver did with a trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Events successfully re-submitted.
    pub replayed: u64,
    /// `Some((chunk, offset))` when the trace was truncated and only the
    /// complete prefix was replayed — callers warn but proceed.
    pub truncated: Option<(u32, u64)>,
}

/// Why a replay driver refused to continue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The trace stream itself failed (corrupt chunk, I/O, bad schema).
    Trace(TraceError),
    /// A CRC-valid event does not fit the simulator being driven (wrong
    /// device/node range, wrong trace kind) — a crafted or mismatched trace.
    Event {
        /// Zero-based index of the offending event.
        index: u64,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Trace(e) => write!(f, "{e}"),
            Self::Event { index, reason } => {
                write!(f, "trace event {index} cannot be replayed: {reason}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> Self {
        Self::Trace(e)
    }
}

/// A simulator a recorded submission stream can be driven into. The
/// stream walk itself is [`replay_into`]; a target only says how to check,
/// advance and submit.
pub trait ReplayTarget {
    /// The simulator's packet class.
    type Class;

    /// Decodes [`TraceEvent::class`]; `None` rejects the event.
    fn decode_class(code: u8) -> Option<Self::Class>;

    /// Rejects an event this simulator cannot take, before it advances.
    ///
    /// # Errors
    ///
    /// Why the event does not fit.
    fn admit(&self, _ev: &TraceEvent) -> Result<(), String> {
        Ok(())
    }

    /// The simulator's current cycle.
    fn now(&self) -> u64;

    /// One step, then an idle skip capped at `until`.
    fn advance(&mut self, until: u64);

    /// Submits one admitted event.
    ///
    /// # Errors
    ///
    /// Why the simulator refused it (device or node out of range).
    fn submit_event(&mut self, ev: &TraceEvent, class: Self::Class) -> Result<(), String>;
}

/// Replays a recorded submission stream into `target`: every event is
/// re-submitted in order, first advancing the simulation to the event's
/// recorded cycle. Built from the trace header's configuration and plan,
/// the target reproduces the recorded run bit for bit.
///
/// A truncated trace replays its complete prefix and reports the
/// truncation point in [`ReplayOutcome::truncated`]; the caller decides
/// whether that is a warning or an error.
///
/// # Errors
///
/// [`ReplayError::Trace`] on a corrupt or unreadable stream;
/// [`ReplayError::Event`] when a CRC-valid event does not fit the target
/// (unknown class, device or node out of range) — never a panic.
pub fn replay_into<T: ReplayTarget + ?Sized, R: Read>(
    target: &mut T,
    reader: &mut TraceReader<R>,
) -> Result<ReplayOutcome, ReplayError> {
    let mut replayed = 0u64;
    loop {
        let ev = match reader.next_event() {
            Ok(Some(ev)) => ev,
            Ok(None) => {
                return Ok(ReplayOutcome {
                    replayed,
                    truncated: None,
                })
            }
            Err(TraceError::TruncatedTail { chunk, offset }) => {
                return Ok(ReplayOutcome {
                    replayed,
                    truncated: Some((chunk, offset)),
                })
            }
            Err(e) => return Err(ReplayError::Trace(e)),
        };
        let reject = |reason| ReplayError::Event {
            index: replayed,
            reason,
        };
        target.admit(&ev).map_err(reject)?;
        let class = T::decode_class(ev.class)
            .ok_or_else(|| reject(format!("unknown packet class {}", ev.class)))?;
        while target.now() < ev.cycle {
            target.advance(ev.cycle);
        }
        target.submit_event(&ev, class).map_err(reject)?;
        replayed += 1;
    }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// What a full validation pass learned about a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Events in the verified prefix.
    pub events: u64,
    /// Event chunks in the verified prefix.
    pub event_chunks: u32,
    /// `true` when the footer was present and consistent.
    pub complete: bool,
    /// The footer's stats digest (0 when unknown or truncated).
    pub stats_fnv: u64,
    /// `(chunk, offset)` of the truncation, when `complete` is false.
    pub truncated: Option<(u32, u64)>,
}

/// Streams the whole trace, CRC-checking every chunk. Truncation is a
/// salvageable `Ok` (with `complete == false`); corruption is an `Err`.
///
/// # Errors
///
/// [`TraceError::CorruptChunk`] or [`TraceError::Io`].
pub fn validate_stream<R: Read>(reader: &mut TraceReader<R>) -> Result<TraceSummary, TraceError> {
    loop {
        match reader.next_event() {
            Ok(Some(_)) => {}
            Ok(None) => {
                let footer = reader.footer().copied();
                return Ok(TraceSummary {
                    events: reader.events_seen,
                    event_chunks: reader.event_chunks_seen,
                    complete: footer.is_some(),
                    stats_fnv: footer.map_or(0, |f| f.stats_fnv),
                    truncated: None,
                });
            }
            Err(TraceError::TruncatedTail { chunk, offset }) => {
                return Ok(TraceSummary {
                    events: reader.events_seen,
                    event_chunks: reader.event_chunks_seen,
                    complete: false,
                    stats_fnv: 0,
                    truncated: Some((chunk, offset)),
                });
            }
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Hex transport (reproducer embeds, serve replay jobs)
// ---------------------------------------------------------------------------

/// Lowercase hex encoding for carrying trace bytes inside JSON artifacts.
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decodes [`to_hex`] output.
///
/// # Errors
///
/// Returns a description of the first malformed position.
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("hex string has odd length".to_owned());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in bytes.chunks(2) {
        let hi = hex_val(pair[0]).ok_or_else(|| format!("bad hex byte {:?}", pair[0] as char))?;
        let lo = hex_val(pair[1]).ok_or_else(|| format!("bad hex byte {:?}", pair[1] as char))?;
        out.push(hi << 4 | lo);
    }
    Ok(out)
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> TraceHeader {
        TraceHeader::fabric(4, "ring", 6, 6, 42, 64, 0xdead_beef)
    }

    fn sample_events(n: usize) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| TraceEvent {
                cycle: (i as u64 / 7) * 3,
                src_dev: (i % 4) as u32,
                src: (i % 36) as u32,
                dst_dev: ((i + 1) % 4) as u32,
                dst: ((i * 5) % 36) as u32,
                flits: 1 + (i % 4) as u32,
                class: (i % 2) as u8,
            })
            .collect()
    }

    fn encode(events: &[TraceEvent], stats_fnv: u64) -> Vec<u8> {
        let mut w = memory_writer(&sample_header());
        for ev in events {
            w.record(ev).expect("vec write");
        }
        w.finish(stats_fnv).expect("finish")
    }

    #[test]
    fn round_trips_header_events_and_footer() {
        let events = sample_events(300); // > 2 chunks
        let bytes = encode(&events, 0x1234);
        let mut r = TraceReader::from_bytes(bytes).expect("open");
        assert_eq!(r.header(), &sample_header());
        let mut back = Vec::new();
        while let Some(ev) = r.next_event().expect("stream") {
            back.push(ev);
        }
        assert_eq!(back, events);
        let footer = r.footer().expect("footer");
        assert_eq!(footer.events, 300);
        assert_eq!(footer.event_chunks, 3);
        assert_eq!(footer.stats_fnv, 0x1234);
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = encode(&[], 7);
        let mut r = TraceReader::from_bytes(bytes).expect("open");
        assert_eq!(r.next_event().expect("stream"), None);
        assert_eq!(r.footer().expect("footer").events, 0);
    }

    #[test]
    fn truncation_salvages_the_complete_prefix() {
        let events = sample_events(300);
        let full = encode(&events, 0);
        // Cut every possible length; the reader must yield a verified
        // prefix (a multiple of the chunk batch, capped by the cut) and
        // then exactly one TruncatedTail — never a panic or a wrong event.
        for cut in 12..full.len() {
            let mut r = match TraceReader::from_bytes(full[..cut].to_vec()) {
                Ok(r) => r,
                Err(TraceError::TruncatedTail { .. }) => continue,
                Err(e) => panic!("cut {cut}: unexpected open error {e}"),
            };
            let mut got = 0usize;
            let err = loop {
                match r.next_event() {
                    Ok(Some(ev)) => {
                        assert_eq!(ev, events[got], "cut {cut}: event {got} diverged");
                        got += 1;
                    }
                    Ok(None) => panic!("cut {cut}: truncated trace claimed completion"),
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(err, TraceError::TruncatedTail { .. }),
                "cut {cut}: expected TruncatedTail, got {err}"
            );
            // A cut inside the footer yields every event; otherwise the
            // prefix ends on a chunk boundary (no partial chunk leaks).
            assert!(
                got.is_multiple_of(EVENTS_PER_CHUNK) || got == events.len(),
                "cut {cut}: partial chunk leaked ({got} events)"
            );
            // The error is terminal but not sticky-looping.
            assert_eq!(r.next_event().expect("post-error"), None);
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected_or_harmless() {
        let events = sample_events(40);
        let full = encode(&events, 0x77);
        for byte in 0..full.len() {
            for bit in 0..8 {
                let mut mutated = full.clone();
                mutated[byte] ^= 1 << bit;
                let mut r = match TraceReader::from_bytes(mutated) {
                    Ok(r) => r,
                    Err(_) => continue, // detected at open: fine
                };
                // Stream to the end; any outcome but a panic is allowed,
                // but a "successful" full read must be byte-faithful.
                let mut got = Vec::new();
                let complete = loop {
                    match r.next_event() {
                        Ok(Some(ev)) => got.push(ev),
                        Ok(None) => break r.footer().is_some(),
                        Err(_) => break false,
                    }
                };
                if complete {
                    assert_eq!(
                        got, events,
                        "byte {byte} bit {bit}: corruption slipped through undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn crc_flip_names_the_chunk_and_offset() {
        let events = sample_events(200);
        let mut bytes = encode(&events, 0);
        // Flip one payload byte in the second events chunk. Layout:
        // 12-byte preamble, header chunk, then events chunks.
        let header_len = {
            let mut r = TraceReader::from_bytes(bytes.clone()).expect("open");
            r.next_event().expect("first");
            r.offset // after chunk 1 loaded
        };
        let target = header_len as usize + 12; // inside chunk 2's frame+payload
        bytes[target] ^= 0x40;
        let mut r = TraceReader::from_bytes(bytes).expect("open");
        let err = loop {
            match r.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("corruption not detected"),
                Err(e) => break e,
            }
        };
        match err {
            TraceError::CorruptChunk { chunk, offset, .. } => {
                assert_eq!(chunk, 2);
                assert!(offset > 0);
            }
            other => panic!("expected CorruptChunk, got {other}"),
        }
    }

    #[test]
    fn schema_bump_is_rejected_with_a_clear_error() {
        let mut bytes = encode(&sample_events(4), 0);
        bytes[8] = 2; // schema u32 LE at offset 8
        match TraceReader::from_bytes(bytes) {
            Err(TraceError::SchemaVersion { found, supported }) => {
                assert_eq!(found, 2);
                assert_eq!(supported, TRACE_SCHEMA);
            }
            Err(other) => panic!("expected SchemaVersion, got {other:?}"),
            Ok(_) => panic!("expected SchemaVersion, got a reader"),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            TraceReader::from_bytes(b"NOTATRACE".to_vec()),
            Err(TraceError::BadMagic { .. })
        ));
    }

    #[test]
    fn footer_count_mismatch_is_corrupt() {
        // Hand-build a trace whose footer claims one extra event.
        let mut w = memory_writer(&sample_header());
        w.record(&sample_events(1)[0]).expect("vec write");
        let mut bytes = w.finish(0).expect("finish");
        // Rewrite the footer chunk with a wrong count but a valid CRC.
        let footer = TraceFooter {
            events: 2,
            event_chunks: 1,
            stats_fnv: 0,
        };
        // Find the footer chunk: it is the last 9 + 20 bytes.
        let cut = bytes.len() - (9 + 20);
        bytes.truncate(cut);
        write_chunk(&mut bytes, CHUNK_FOOTER, &footer.encode()).expect("vec write");
        let mut r = TraceReader::from_bytes(bytes).expect("open");
        r.next_event().expect("event");
        match r.next_event() {
            Err(TraceError::CorruptChunk { reason, .. }) => {
                assert!(reason.contains("footer claims"), "reason: {reason}");
            }
            other => panic!("expected CorruptChunk, got {other:?}"),
        }
    }

    #[test]
    fn data_after_footer_is_corrupt() {
        let mut bytes = encode(&sample_events(2), 0);
        bytes.push(0xaa);
        let mut r = TraceReader::from_bytes(bytes).expect("open");
        let err = loop {
            match r.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("trailing garbage accepted"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, TraceError::CorruptChunk { .. }));
    }

    #[test]
    fn validate_stream_reports_complete_and_truncated() {
        let full = encode(&sample_events(300), 0xabcd);
        let mut r = TraceReader::from_bytes(full.clone()).expect("open");
        let s = validate_stream(&mut r).expect("validate");
        assert!(s.complete);
        assert_eq!(s.events, 300);
        assert_eq!(s.stats_fnv, 0xabcd);

        let mut r = TraceReader::from_bytes(full[..full.len() - 5].to_vec()).expect("open");
        let s = validate_stream(&mut r).expect("validate");
        assert!(!s.complete);
        assert!(s.truncated.is_some());
        // The cut landed in the footer: every event chunk was intact.
        assert_eq!(s.events, 300);
    }

    #[test]
    fn tap_records_to_file_with_fsynced_footer() {
        let dir = std::env::temp_dir().join(format!("gnoc-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("tap.trc");
        let mut tap = TraceTap::to_file(&path, &sample_header()).expect("create");
        for ev in sample_events(10) {
            tap.record(&ev);
        }
        assert_eq!(tap.events(), 10);
        assert!(tap.error().is_none());
        tap.finish_file(99).expect("finish");
        let mut r = TraceReader::open(&path).expect("open");
        let s = validate_stream(&mut r).expect("validate");
        assert!(s.complete);
        assert_eq!(s.events, 10);
        assert_eq!(s.stats_fnv, 99);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hex_round_trips() {
        let bytes = encode(&sample_events(5), 3);
        let hex = to_hex(&bytes);
        assert_eq!(from_hex(&hex).expect("decode"), bytes);
        assert!(from_hex("0g").is_err());
        assert!(from_hex("abc").is_err());
    }

    #[test]
    fn varint_and_zigzag_round_trip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).expect("decode"), v);
            assert_eq!(pos, buf.len());
        }
        for d in [0i64, 1, -1, 1000, -1000, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }
}
