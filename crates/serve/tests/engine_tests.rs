//! End-to-end engine tests: admission control, dedup, crash recovery, and
//! the bit-identity contract across `--jobs` counts and the cache.

use gnoc_core::telemetry::TelemetryHandle;
use gnoc_core::{CheckpointedCampaign, LatencyProbe, WorkerPool};
use gnoc_serve::engine::{Admission, Engine, JobOutcome, ServeConfig};
use gnoc_serve::protocol::JobSpec;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnoc-serve-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mesh_spec(seed: u64) -> JobSpec {
    JobSpec::Mesh {
        seed,
        transfers: 40,
        plan: None,
    }
}

fn campaign_spec(deadline_rows: Option<usize>) -> JobSpec {
    JobSpec::Campaign {
        device: "v100".into(),
        seed: 7,
        lines: 2,
        samples: 2,
        deadline_rows,
        plan: None,
    }
}

fn recv_ok(rx: &mpsc::Receiver<JobOutcome>) -> String {
    let outcome = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("job outcome");
    outcome.result.expect("job succeeded")
}

fn wait_idle(engine: &Engine) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !engine.is_idle() {
        assert!(Instant::now() < deadline, "engine did not drain in time");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn overload_rejects_past_queue_cap_then_recovers() {
    let mut cfg = ServeConfig::new(scratch("overload"));
    cfg.queue_cap = 2;
    // Idle engine: nothing drains the queue, so the admission decisions
    // below are deterministic.
    let mut engine = Engine::open_idle(cfg, TelemetryHandle::disabled()).unwrap();
    let h = engine.handle();

    let a = h.admit(1, &mesh_spec(1));
    let b = h.admit(2, &mesh_spec(2));
    let (rx_a, rx_b) = match (a, b) {
        (Admission::Enqueued { rx: ra, .. }, Admission::Enqueued { rx: rb, .. }) => (ra, rb),
        other => panic!("expected two enqueues, got {other:?}"),
    };
    match h.admit(3, &mesh_spec(3)) {
        Admission::Rejected { reason } => {
            assert!(reason.contains("queue full"), "reason: {reason}")
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    assert_eq!(h.health().overload, "open");
    assert_eq!(h.health().jobs_rejected, 1);

    // Once the scheduler drains the queue the breaker closes again and the
    // previously rejected work is admissible.
    engine.kick();
    recv_ok(&rx_a);
    recv_ok(&rx_b);
    wait_idle(&engine);
    assert_eq!(h.health().overload, "closed");
    match h.admit(3, &mesh_spec(3)) {
        Admission::Enqueued { rx, .. } => {
            recv_ok(&rx);
        }
        other => panic!("expected enqueue after drain, got {other:?}"),
    }
}

#[test]
fn session_cap_bounds_per_session_work() {
    let mut cfg = ServeConfig::new(scratch("sessioncap"));
    cfg.session_cap = 1;
    let engine = Engine::open_idle(cfg, TelemetryHandle::disabled()).unwrap();
    let h = engine.handle();

    assert!(matches!(
        h.admit(1, &mesh_spec(1)),
        Admission::Enqueued { .. }
    ));
    match h.admit(1, &mesh_spec(2)) {
        Admission::Rejected { reason } => {
            assert!(reason.contains("in flight"), "reason: {reason}")
        }
        other => panic!("expected session-cap rejection, got {other:?}"),
    }
    // A different session is unaffected.
    assert!(matches!(
        h.admit(2, &mesh_spec(2)),
        Admission::Enqueued { .. }
    ));
}

#[test]
fn work_budgets_reject_oversized_jobs_with_reasons() {
    let mut cfg = ServeConfig::new(scratch("budgets"));
    cfg.max_rows = 4;
    cfg.max_seeds = 2;
    cfg.max_transfers = 100;
    let engine = Engine::open_idle(cfg, TelemetryHandle::disabled()).unwrap();
    let h = engine.handle();

    // A full v100 campaign is 80 rows: over the 4-row budget.
    match h.admit(1, &campaign_spec(None)) {
        Admission::Rejected { reason } => {
            assert!(reason.contains("deadline_rows"), "reason: {reason}")
        }
        other => panic!("expected budget rejection, got {other:?}"),
    }
    // The salvage path the reason suggests is admissible.
    assert!(matches!(
        h.admit(1, &campaign_spec(Some(3))),
        Admission::Enqueued { .. }
    ));
    match h.admit(
        2,
        &JobSpec::Chaos {
            seed_start: 0,
            seed_count: 3,
            transfers: 8,
        },
    ) {
        Admission::Rejected { reason } => assert!(reason.contains("budget"), "reason: {reason}"),
        other => panic!("expected seed-budget rejection, got {other:?}"),
    }
    match h.admit(
        2,
        &JobSpec::Mesh {
            seed: 1,
            transfers: 101,
            plan: None,
        },
    ) {
        Admission::Rejected { reason } => assert!(reason.contains("budget"), "reason: {reason}"),
        other => panic!("expected transfer-budget rejection, got {other:?}"),
    }
}

#[test]
fn duplicate_requests_attach_to_one_job() {
    let mut engine = Engine::open_idle(
        ServeConfig::new(scratch("dedup")),
        TelemetryHandle::disabled(),
    )
    .unwrap();
    let h = engine.handle();

    let first = h.admit(1, &mesh_spec(9));
    let second = h.admit(2, &mesh_spec(9));
    let (job_a, rx_a) = match first {
        Admission::Enqueued { job, rx } => (job, rx),
        other => panic!("expected enqueue, got {other:?}"),
    };
    let (job_b, rx_b) = match second {
        Admission::Attached { job, rx } => (job, rx),
        other => panic!("expected attach, got {other:?}"),
    };
    assert_eq!(job_a, job_b, "attached to the same job id");

    engine.kick();
    let pa = recv_ok(&rx_a);
    let pb = recv_ok(&rx_b);
    assert_eq!(pa, pb, "all waiters get the identical payload");
}

/// The crash-safety pin: a daemon killed mid-campaign restarts, replays its
/// journal, resumes the checkpointed job, and produces *exactly* the bytes
/// an uninterrupted run produces.
#[test]
fn killed_engine_resumes_journaled_job_bit_identically() {
    let dir = scratch("crash");
    let spec = campaign_spec(None);
    let key = spec.cache_key();

    // 1. Admit the job but "crash" before it runs (idle engine, dropped).
    {
        let engine =
            Engine::open_idle(ServeConfig::new(dir.clone()), TelemetryHandle::disabled()).unwrap();
        match engine.handle().admit(1, &spec) {
            Admission::Enqueued { .. } => {}
            other => panic!("expected enqueue, got {other:?}"),
        }
    } // drop = hard kill; journal has `submitted` with no terminal record

    // 2. Simulate the partial progress a killed worker left behind: a
    //    checkpoint holding a strict prefix of the campaign.
    let ckpt = dir.join("ckpt").join(format!("{key}.json"));
    {
        let probe = LatencyProbe {
            working_set_lines: 2,
            samples: 2,
        };
        let mut partial = CheckpointedCampaign::new("v100", 7, probe, None).unwrap();
        partial
            .run(&WorkerPool::serial(), Some(5), |_| Ok(()))
            .unwrap();
        assert_eq!(partial.completed_rows(), 5);
        partial.save(&ckpt).unwrap();
    }

    // 3. Restart: the journal re-queues the job, the checkpoint resumes it.
    {
        let engine =
            Engine::open(ServeConfig::new(dir.clone()), TelemetryHandle::disabled()).unwrap();
        assert_eq!(engine.recovered(), 1, "journal replay re-queued the job");
        wait_idle(&engine);
        assert!(!ckpt.exists(), "checkpoint is consumed on completion");
    }
    let resumed = gnoc_serve::cache::ResultCache::open(&dir)
        .unwrap()
        .get(&key)
        .expect("resumed result is cached");

    // 4. Reference: the same job, uninterrupted, in a fresh state dir.
    let fresh_dir = scratch("crash-ref");
    {
        let engine = Engine::open(
            ServeConfig::new(fresh_dir.clone()),
            TelemetryHandle::disabled(),
        )
        .unwrap();
        match engine.handle().admit(1, &spec) {
            Admission::Enqueued { rx, .. } => {
                recv_ok(&rx);
            }
            other => panic!("expected enqueue, got {other:?}"),
        }
    }
    let fresh = gnoc_serve::cache::ResultCache::open(&fresh_dir)
        .unwrap()
        .get(&key)
        .expect("fresh result is cached");
    assert_eq!(resumed, fresh, "resumed payload is bit-identical");

    // 5. The journal owes nothing after the resume completed.
    let (_, replay) =
        gnoc_serve::journal::Journal::open(&gnoc_serve::journal::Journal::path_in(&dir)).unwrap();
    assert!(replay.unfinished.is_empty());
}

/// The determinism pin across worker counts, ops, and the cache: payloads
/// from a 1-worker engine, a 2-worker engine, and a cache hit are all
/// byte-identical.
#[test]
fn payloads_are_identical_across_jobs_counts_and_cache() {
    let specs: Vec<JobSpec> = vec![
        campaign_spec(Some(3)),
        mesh_spec(11),
        JobSpec::Chaos {
            seed_start: 4,
            seed_count: 1,
            transfers: 8,
        },
        JobSpec::Fabric {
            devices: 2,
            topology: "ring".into(),
            seed: 5,
            transfers: 24,
        },
    ];

    let run_all = |dir: PathBuf, jobs: usize| -> Vec<String> {
        let mut cfg = ServeConfig::new(dir);
        cfg.jobs = jobs;
        let engine = Engine::open(cfg, TelemetryHandle::disabled()).unwrap();
        let h = engine.handle();
        let rxs: Vec<_> = specs
            .iter()
            .map(|s| match h.admit(1, s) {
                Admission::Enqueued { rx, .. } => rx,
                other => panic!("expected enqueue, got {other:?}"),
            })
            .collect();
        rxs.iter().map(recv_ok).collect()
    };

    let serial_dir = scratch("det-j1");
    let serial = run_all(serial_dir.clone(), 1);
    let parallel = run_all(scratch("det-j2"), 2);
    assert_eq!(serial, parallel, "payloads differ between --jobs 1 and 2");

    // Resubmitting against the first state dir hits the cache with the
    // exact same bytes.
    let engine = Engine::open(ServeConfig::new(serial_dir), TelemetryHandle::disabled()).unwrap();
    let h = engine.handle();
    for (spec, expected) in specs.iter().zip(&serial) {
        match h.admit(1, spec) {
            Admission::Cached { payload } => assert_eq!(&payload, expected),
            other => panic!("expected cache hit, got {other:?}"),
        }
    }
    assert_eq!(h.health().cache_hits, specs.len() as u64);
}

#[test]
fn draining_engine_rejects_new_work() {
    let engine = Engine::open_idle(
        ServeConfig::new(scratch("drain")),
        TelemetryHandle::disabled(),
    )
    .unwrap();
    let h = engine.handle();
    h.begin_drain();
    match h.admit(1, &mesh_spec(1)) {
        Admission::Rejected { reason } => assert!(reason.contains("draining"), "{reason}"),
        other => panic!("expected drain rejection, got {other:?}"),
    }
    assert_eq!(h.health().overload, "open");
    assert!(h.health().draining);
}
