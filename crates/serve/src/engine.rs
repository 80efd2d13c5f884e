//! The admission-controlled job engine behind the daemon.
//!
//! One scheduler thread owns a [`gnoc_core::WorkerPool`] and drains a
//! bounded queue; connection threads call [`EngineHandle::admit`] and block
//! on a per-job channel. Everything that makes the daemon *robust* lives
//! here:
//!
//! - **Admission control** — the queue is bounded ([`ServeConfig::queue_cap`]),
//!   each session is bounded ([`ServeConfig::session_cap`]), and optional
//!   work budgets reject oversized jobs up front with an explicit
//!   [`Admission::Rejected`] reason instead of letting them starve the queue.
//! - **Crash safety** — every admitted job hits the [`Journal`] *before* it
//!   is queued; on restart [`Engine::open`] replays the journal and re-queues
//!   unfinished jobs (campaigns resume from their checkpoints).
//! - **Panic containment** — each job body runs under its own
//!   `catch_unwind`, so a panicking job becomes a `Failed` response while
//!   the pool, queue, and daemon keep running.
//! - **Dedup** — a request whose cache key matches a pending/running job
//!   attaches to it instead of queuing a duplicate.

use crate::cache::{MissReason, ResultCache};
use crate::journal::Journal;
use crate::protocol::JobSpec;
use crate::run;
use gnoc_core::telemetry::TelemetryHandle;
use gnoc_core::WorkerPool;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

/// Daemon configuration. Budgets set to `0` are unlimited.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory holding the journal, cache, and campaign checkpoints.
    pub state_dir: PathBuf,
    /// Maximum queued (not yet running) jobs before new work is rejected.
    pub queue_cap: usize,
    /// Maximum in-flight (queued + running) jobs a single session may own.
    pub session_cap: usize,
    /// Maximum campaign rows a single job may measure (full campaigns count
    /// their device's SM count; `deadline_rows` caps it).
    pub max_rows: usize,
    /// Maximum seeds a single chaos job may sweep.
    pub max_seeds: u64,
    /// Maximum transfers a single mesh/fabric soak may submit.
    pub max_transfers: usize,
    /// Per-row sleep for campaign jobs, in milliseconds. A testing aid: it
    /// widens the window in which a kill lands mid-job so the crash-recovery
    /// suite is not racing the (fast) simulator.
    pub row_delay_ms: u64,
    /// Worker threads in the execution pool (0 = resolve from environment).
    pub jobs: usize,
    /// The NoC engine mesh, fabric, chaos and replay jobs step on. Never
    /// changes a payload, so it is not part of a job's cache key.
    pub engine: gnoc_core::noc::Engine,
}

impl ServeConfig {
    /// Defaults: queue of 16, 8 jobs per session, no work budgets.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        Self {
            state_dir: state_dir.into(),
            queue_cap: 16,
            session_cap: 8,
            max_rows: 0,
            max_seeds: 0,
            max_transfers: 0,
            row_delay_ms: 0,
            jobs: 1,
            engine: gnoc_core::noc::Engine::default(),
        }
    }
}

/// Errors opening or operating the engine.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid configuration (bad socket path, zero queue, ...).
    Config(String),
    /// An I/O failure on the state directory, journal, or socket.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(msg) => write!(f, "config: {msg}"),
            Self::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Terminal state of one job, delivered to every attached waiter.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job id.
    pub job: u64,
    /// Checkpoint rows that were already complete when the job started
    /// (non-zero only for resumed campaigns).
    pub resumed_rows: usize,
    /// Canonical payload on success, human-readable error on failure.
    pub result: Result<String, String>,
}

/// What [`EngineHandle::admit`] decided.
#[derive(Debug)]
pub enum Admission {
    /// Served from the result cache; no job was created.
    Cached {
        /// The exact payload bytes originally computed for this key.
        payload: String,
    },
    /// Queued as a new job; await the outcome on `rx`.
    Enqueued {
        /// Assigned job id.
        job: u64,
        /// Outcome channel (exactly one message).
        rx: mpsc::Receiver<JobOutcome>,
    },
    /// Attached to an existing pending/running job with the same cache key.
    Attached {
        /// The existing job's id.
        job: u64,
        /// Outcome channel (exactly one message).
        rx: mpsc::Receiver<JobOutcome>,
    },
    /// Refused; the daemon state is unchanged.
    Rejected {
        /// Human-readable refusal, stable enough to grep in tests.
        reason: String,
    },
}

/// One queued or running job plus everyone waiting on it.
struct QueuedJob {
    id: u64,
    key: String,
    spec: JobSpec,
    /// True when the job was recovered from the journal on restart.
    resumed: bool,
    waiters: Vec<(u64, mpsc::Sender<JobOutcome>)>,
}

#[derive(Default)]
struct QueueState {
    pending: VecDeque<QueuedJob>,
    running: Vec<QueuedJob>,
    next_job: u64,
    /// In-flight job count per session id.
    sessions: BTreeMap<u64, usize>,
}

/// A point-in-time health snapshot (the `health` request's payload).
#[derive(Debug, Clone)]
pub struct HealthSnapshot {
    /// Jobs queued but not yet running.
    pub queue_depth: usize,
    /// The queue bound.
    pub queue_cap: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Completed jobs since start.
    pub jobs_done: u64,
    /// Failed jobs (including contained panics) since start.
    pub jobs_failed: u64,
    /// Rejected admissions since start.
    pub jobs_rejected: u64,
    /// Cache hits since start.
    pub cache_hits: u64,
    /// Cache misses (including evictions) since start.
    pub cache_misses: u64,
    /// Breaker-style overload state: `closed` (healthy), `half-open`
    /// (queue ≥ 50% full), `open` (queue full or draining).
    pub overload: &'static str,
    /// Whether the daemon is draining (rejecting new work).
    pub draining: bool,
}

impl HealthSnapshot {
    /// Hit rate over all cache lookups so far (0 when none).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    telemetry: TelemetryHandle,
    cache: ResultCache,
    journal: Mutex<Journal>,
    // Lock order: `q` before `journal`; never the reverse.
    q: Mutex<QueueState>,
    wake: Condvar,
    draining: AtomicBool,
    shutdown: AtomicBool,
    done: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The daemon engine: owns the scheduler thread; dropped = hard stop.
pub struct Engine {
    shared: Arc<Shared>,
    scheduler: Option<std::thread::JoinHandle<()>>,
    /// Jobs recovered from the journal at open.
    recovered: usize,
}

/// A cloneable handle connection threads use to talk to the engine.
#[derive(Clone)]
pub struct EngineHandle {
    shared: Arc<Shared>,
}

impl Engine {
    /// Opens the state directory, replays the journal, re-queues unfinished
    /// jobs, and starts the scheduler.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on state-directory failures.
    pub fn open(cfg: ServeConfig, telemetry: TelemetryHandle) -> Result<Self, ServeError> {
        let mut engine = Self::open_idle(cfg, telemetry)?;
        engine.kick();
        Ok(engine)
    }

    /// [`open`](Self::open) without starting the scheduler. Jobs accumulate
    /// in the queue until [`kick`](Self::kick); tests use this to observe
    /// admission decisions deterministically (nothing drains underneath
    /// them).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on state-directory failures.
    pub fn open_idle(cfg: ServeConfig, telemetry: TelemetryHandle) -> Result<Self, ServeError> {
        if cfg.queue_cap == 0 {
            return Err(ServeError::Config("queue_cap must be at least 1".into()));
        }
        std::fs::create_dir_all(&cfg.state_dir)?;
        std::fs::create_dir_all(cfg.state_dir.join("ckpt"))?;
        let cache = ResultCache::open(&cfg.state_dir)?;
        let (journal, replay) = Journal::open(&Journal::path_in(&cfg.state_dir))?;

        let mut q = QueueState {
            next_job: replay.next_job,
            ..QueueState::default()
        };
        let recovered = replay.unfinished.len();
        for job in replay.unfinished {
            // Recovered jobs bypass admission: they were already admitted
            // once, and dropping them would break the crash-safety promise.
            q.pending.push_back(QueuedJob {
                id: job.job,
                key: job.key,
                spec: job.spec,
                resumed: true,
                waiters: Vec::new(),
            });
        }

        let shared = Arc::new(Shared {
            cfg,
            telemetry,
            cache,
            journal: Mutex::new(journal),
            q: Mutex::new(q),
            wake: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        });
        Ok(Self {
            shared,
            scheduler: None,
            recovered,
        })
    }

    /// Starts the scheduler thread if it is not already running.
    pub fn kick(&mut self) {
        if self.scheduler.is_some() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        self.scheduler = Some(
            std::thread::Builder::new()
                .name("gnoc-serve-sched".into())
                .spawn(move || scheduler_loop(&shared))
                .expect("spawn scheduler thread"),
        );
    }

    /// Number of journal jobs re-queued at open.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// A cloneable handle for connection threads.
    pub fn handle(&self) -> EngineHandle {
        EngineHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops accepting work; queued and running jobs still finish.
    pub fn begin_drain(&self) {
        self.handle().begin_drain();
    }

    /// True when nothing is queued or running.
    pub fn is_idle(&self) -> bool {
        self.handle().is_idle()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Hard stop: pending jobs are lost from memory but not from the
        // journal — the next open re-queues them. Running jobs finish
        // (the pool joins inside the scheduler before it exits).
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
    }
}

impl EngineHandle {
    /// Admits one job for `session`. See [`Admission`] for the outcomes.
    pub fn admit(&self, session: u64, spec: &JobSpec) -> Admission {
        let s = &*self.shared;
        if s.draining.load(Ordering::SeqCst) {
            return self.reject("daemon is draining; not accepting new work".into());
        }
        if let Some(reason) = budget_violation(&s.cfg, spec) {
            return self.reject(reason);
        }

        let key = spec.cache_key();
        match s.cache.get(&key) {
            Ok(payload) => {
                s.hits.fetch_add(1, Ordering::Relaxed);
                return Admission::Cached { payload };
            }
            Err(MissReason::Evicted(why)) => {
                // Integrity failure: recompute, never serve. Counted as a
                // miss; the recomputed result will repopulate the entry.
                s.telemetry.emit_with(|| {
                    gnoc_core::telemetry::TraceEvent::new(0, "serve", "cache_evicted")
                        .with("key", key.as_str())
                        .with("why", why.as_str())
                });
                s.misses.fetch_add(1, Ordering::Relaxed);
            }
            Err(MissReason::Absent) => {
                s.misses.fetch_add(1, Ordering::Relaxed);
            }
        }

        let mut q = s.q.lock().expect("queue lock");
        let in_flight = q.sessions.get(&session).copied().unwrap_or(0);
        if in_flight >= s.cfg.session_cap {
            drop(q);
            return self.reject(format!(
                "session already has {in_flight} job(s) in flight (cap {})",
                s.cfg.session_cap
            ));
        }

        // Same key already pending or running? Attach instead of duplicating
        // the work — both waiters get the identical payload.
        let (tx, rx) = mpsc::channel();
        let q_ref = &mut *q;
        let existing = q_ref
            .pending
            .iter_mut()
            .chain(q_ref.running.iter_mut())
            .find(|job| job.key == key);
        if let Some(job) = existing {
            job.waiters.push((session, tx));
            let id = job.id;
            *q.sessions.entry(session).or_insert(0) += 1;
            drop(q);
            return Admission::Attached { job: id, rx };
        }

        if q.pending.len() >= s.cfg.queue_cap {
            drop(q);
            return self.reject(format!(
                "queue full ({} pending, cap {})",
                s.cfg.queue_cap, s.cfg.queue_cap
            ));
        }

        let id = q.next_job;
        q.next_job += 1;
        // Journal *before* queueing (see journal.rs for why this order).
        {
            let mut journal = s.journal.lock().expect("journal lock");
            if let Err(e) = journal.record_submitted(id, &key, &spec.canonical_json()) {
                drop(journal);
                drop(q);
                return self.reject(format!("journal write failed: {e}"));
            }
        }
        q.pending.push_back(QueuedJob {
            id,
            key,
            spec: spec.clone(),
            resumed: false,
            waiters: vec![(session, tx)],
        });
        *q.sessions.entry(session).or_insert(0) += 1;
        drop(q);
        s.wake.notify_all();
        Admission::Enqueued { job: id, rx }
    }

    fn reject(&self, reason: String) -> Admission {
        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
        Admission::Rejected { reason }
    }

    /// Stops admitting new jobs; in-flight work continues to completion.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
    }

    /// Whether the engine is draining.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// True when nothing is queued or running.
    pub fn is_idle(&self) -> bool {
        let q = self.shared.q.lock().expect("queue lock");
        q.pending.is_empty() && q.running.is_empty()
    }

    /// Queued + running jobs (the `pending` count `shutdown` reports).
    pub fn in_flight(&self) -> usize {
        let q = self.shared.q.lock().expect("queue lock");
        q.pending.len() + q.running.len()
    }

    /// A point-in-time health snapshot.
    pub fn health(&self) -> HealthSnapshot {
        let s = &*self.shared;
        let (depth, running) = {
            let q = s.q.lock().expect("queue lock");
            (q.pending.len(), q.running.len())
        };
        let draining = s.draining.load(Ordering::SeqCst);
        let overload = if draining || depth >= s.cfg.queue_cap {
            "open"
        } else if depth * 2 >= s.cfg.queue_cap {
            "half-open"
        } else {
            "closed"
        };
        HealthSnapshot {
            queue_depth: depth,
            queue_cap: s.cfg.queue_cap,
            running,
            jobs_done: s.done.load(Ordering::Relaxed),
            jobs_failed: s.failed.load(Ordering::Relaxed),
            jobs_rejected: s.rejected.load(Ordering::Relaxed),
            cache_hits: s.hits.load(Ordering::Relaxed),
            cache_misses: s.misses.load(Ordering::Relaxed),
            overload,
            draining,
        }
    }
}

/// Returns the refusal reason when `spec` exceeds a configured work budget.
fn budget_violation(cfg: &ServeConfig, spec: &JobSpec) -> Option<String> {
    match spec {
        JobSpec::Campaign {
            device,
            deadline_rows,
            ..
        } => {
            if cfg.max_rows == 0 {
                return None;
            }
            let full = gnoc_core::spec_for_preset(device)
                .map(|s| s.num_sms())
                .unwrap_or(usize::MAX);
            let rows = deadline_rows.map_or(full, |d| d.min(full));
            (rows > cfg.max_rows).then(|| {
                format!(
                    "campaign would measure {rows} rows, budget is {} \
                     (pass deadline_rows to salvage a partial matrix)",
                    cfg.max_rows
                )
            })
        }
        JobSpec::Chaos { seed_count, .. } => (cfg.max_seeds > 0 && *seed_count > cfg.max_seeds)
            .then(|| {
                format!(
                    "chaos sweep of {seed_count} seeds exceeds budget {}",
                    cfg.max_seeds
                )
            }),
        JobSpec::Mesh { transfers, .. } | JobSpec::Fabric { transfers, .. } => {
            (cfg.max_transfers > 0 && *transfers > cfg.max_transfers).then(|| {
                format!(
                    "soak of {transfers} transfers exceeds budget {}",
                    cfg.max_transfers
                )
            })
        }
        // A replay re-drives a stream someone already paid to record; the
        // trace header pins its size, so the transfer budget applies to the
        // recorded event count.
        JobSpec::Replay { trace_hex, .. } => {
            let events = gnoc_core::trace::from_hex(trace_hex)
                .ok()
                .and_then(|bytes| {
                    let mut r = gnoc_core::trace::TraceReader::from_bytes(bytes).ok()?;
                    gnoc_core::trace::validate_stream(&mut r)
                        .ok()
                        .map(|s| s.events)
                })
                .unwrap_or(0) as usize;
            (cfg.max_transfers > 0 && events > cfg.max_transfers).then(|| {
                format!(
                    "replay of {events} recorded events exceeds budget {}",
                    cfg.max_transfers
                )
            })
        }
    }
}

/// The scheduler: pops batches off the queue and fans them across the pool.
fn scheduler_loop(s: &Shared) {
    let pool = WorkerPool::new(s.cfg.jobs.max(1));
    loop {
        // Claim a batch (moving it to `running`) or wait for work.
        let batch: Vec<QueuedJob> = {
            let mut q = s.q.lock().expect("queue lock");
            loop {
                if s.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !q.pending.is_empty() {
                    break;
                }
                q = s.wake.wait(q).expect("queue lock");
            }
            let n = q.pending.len().min(pool.jobs().max(1));
            let batch: Vec<QueuedJob> = q.pending.drain(..n).collect();
            q.running.extend(batch.iter().map(|j| QueuedJob {
                id: j.id,
                key: j.key.clone(),
                spec: j.spec.clone(),
                resumed: j.resumed,
                waiters: Vec::new(),
            }));
            batch
        };

        // Execute the batch. Each job body is individually wrapped in
        // catch_unwind so one panicking simulation is one Failed response,
        // not a dead worker or daemon.
        let ckpt_dir = s.cfg.state_dir.join("ckpt");
        let (row_delay, engine) = (s.cfg.row_delay_ms, s.cfg.engine);
        let outcomes: Vec<run::ExecOutcome> = pool.par_map(&batch, |job| {
            match catch_unwind(AssertUnwindSafe(|| {
                run::execute_on(
                    &job.spec,
                    &ckpt_dir.join(format!("{}.json", job.key)),
                    row_delay,
                    engine,
                )
            })) {
                Ok(outcome) => outcome,
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(ToString::to_string)
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".into());
                    run::ExecOutcome {
                        resumed_rows: 0,
                        result: Err(format!("job panicked: {msg}")),
                    }
                }
            }
        });

        for (job, outcome) in batch.into_iter().zip(outcomes) {
            finish_job(s, job, outcome);
        }
    }
}

/// Records one finished job: cache + journal first, then waiters.
fn finish_job(s: &Shared, job: QueuedJob, outcome: run::ExecOutcome) {
    // Persist before notifying: once a client sees `done`, a restart must
    // serve the identical payload from cache rather than re-run the job.
    match &outcome.result {
        Ok(payload) => {
            if let Err(e) = s.cache.put(&job.key, payload) {
                // Best effort: the response is still correct, the next
                // identical request just recomputes.
                s.telemetry.emit_with(|| {
                    gnoc_core::telemetry::TraceEvent::new(0, "serve", "cache_put_failed")
                        .with("key", job.key.as_str())
                        .with("error", e.to_string())
                });
            }
            let mut journal = s.journal.lock().expect("journal lock");
            let _ = journal.record_done(job.id, &job.key);
            s.done.fetch_add(1, Ordering::Relaxed);
        }
        Err(error) => {
            let mut journal = s.journal.lock().expect("journal lock");
            let _ = journal.record_failed(job.id, &job.key, error);
            s.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    // Collect waiters that attached while the job ran, then notify all.
    let mut waiters = job.waiters;
    {
        let mut q = s.q.lock().expect("queue lock");
        if let Some(pos) = q.running.iter().position(|j| j.id == job.id) {
            let shadow = q.running.swap_remove(pos);
            waiters.extend(shadow.waiters);
        }
        for (session, _) in &waiters {
            if let Some(n) = q.sessions.get_mut(session) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    q.sessions.remove(session);
                }
            }
        }
    }
    for (_, tx) in waiters {
        // A waiter whose connection died is fine to skip.
        let _ = tx.send(JobOutcome {
            job: job.id,
            resumed_rows: outcome.resumed_rows,
            result: outcome.result.clone(),
        });
    }
    s.wake.notify_all();
}
