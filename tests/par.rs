//! Cross-crate determinism tests for the parallel execution layer: the
//! campaign driver and the analysis paths must be bit-identical for every
//! worker count, and a panicking task must never leak workers or deadlock
//! the pool.

use gnoc_core::telemetry::hash::fnv1a64;
use gnoc_core::telemetry::{MemorySink, Telemetry, TelemetryHandle};
use gnoc_core::trace_digest::campaign_matrix_fnv;
use gnoc_core::{resolve_jobs, CheckpointedCampaign, LatencyProbe, WorkerPool};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn quick_probe() -> LatencyProbe {
    LatencyProbe {
        working_set_lines: 2,
        samples: 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The ordered `par_map` contract: results land in input order for any
    /// worker count, bit-identical to a plain serial map.
    #[test]
    fn par_map_is_ordered_for_any_jobs(
        items in proptest::collection::vec(any::<u64>(), 0..200),
        jobs in 1usize..9,
    ) {
        let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31).rotate_left(7)).collect();
        let pool = WorkerPool::new(jobs);
        let got = pool.par_map(&items, |&x| x.wrapping_mul(31).rotate_left(7));
        prop_assert_eq!(got, expect);
    }

    /// Parallel correlation matrices match serial ones bit for bit.
    #[test]
    fn correlation_matrix_par_matches_serial(
        rows in proptest::collection::vec(
            proptest::collection::vec(-100.0f64..100.0, 4..10),
            2..8,
        ),
        jobs in 1usize..9,
    ) {
        let n = rows.iter().map(Vec::len).min().unwrap();
        let rows: Vec<Vec<f64>> = rows.into_iter().map(|r| r[..n].to_vec()).collect();
        let serial = gnoc_core::correlation_matrix(&rows);
        let pool = WorkerPool::new(jobs);
        prop_assert_eq!(
            gnoc_core::analysis::correlation_matrix_par(&rows, &pool),
            serial
        );
    }
}

/// Runs the remaining rows at `pool`, saving to `path` after each batch.
fn run_saving(c: &mut CheckpointedCampaign, pool: &WorkerPool, budget: Option<usize>, path: &Path) {
    c.run(pool, budget, |c| c.save(path)).unwrap();
}

/// A fresh scratch checkpoint path for `name`.
fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("gnoc-par-{name}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// One pinned case: device, row budget, quarantined SMs, then the matrix
/// FNV-1a, the coverage `(total, measured, unreached)` and the FNV-1a of the
/// final checkpoint file's bytes.
type Pin = (
    &'static str,
    Option<usize>,
    &'static [u32],
    u64,
    (usize, usize, usize),
    u64,
);

/// Captured from the serial per-row drivers the batch driver replaced, at
/// seed 1 with a 2-line, 2-sample probe. Each quarantine set adds, to SMs 3
/// and 17, the SM just after the run's last measured row (budgets 1 and 9)
/// or the last SM (no budget), so a batch that took a trailing placeholder
/// it should not, or dropped one it should take, changes the checkpoint.
#[rustfmt::skip]
const PINS: [Pin; 12] = [
    ("v100", None, &[], 0xe9cebef2c9001982, (80, 80, 0), 0xb12f9c068f37472e),
    ("v100", None, &[3, 17, 79], 0xd3411f528cb55323, (80, 77, 0), 0x5fefb85fbe89c370),
    ("v100", Some(1), &[], 0x848a39a90ecb0892, (80, 1, 79), 0x421aee70dab275c2),
    ("v100", Some(1), &[1, 3, 17], 0x848a39a90ecb0892, (80, 1, 79), 0xdf3df9462f332852),
    ("v100", Some(9), &[], 0xf0303e064924b28b, (80, 9, 71), 0x45ac426c3dd331fe),
    ("v100", Some(9), &[3, 10, 17], 0x98e0054f733796e0, (80, 9, 70), 0x3cf6220818aaa997),
    ("a100fs", None, &[], 0xa133275a45dc22a4, (108, 108, 0), 0xf3a814c7ae2c0c35),
    ("a100fs", None, &[3, 17, 107], 0x3dbfbb1059f462d2, (108, 105, 0), 0x08e47bbde3c0e34c),
    ("a100fs", Some(1), &[], 0xdc791dae7d5ecc91, (108, 1, 107), 0xd767365487909b94),
    ("a100fs", Some(1), &[1, 3, 17], 0xdc791dae7d5ecc91, (108, 1, 107), 0x5e40621772d04404),
    ("a100fs", Some(9), &[], 0x08632609596cec56, (108, 9, 99), 0xaff3dd0b8c2be28d),
    ("a100fs", Some(9), &[3, 10, 17], 0x4a6c8e9828eb00bd, (108, 9, 98), 0xc44737d2a3d95fca),
];

/// The tentpole determinism guarantee: the batch driver reproduces every
/// serially captured matrix, coverage and checkpoint at `jobs ∈ {1, 2, 7}`,
/// and its telemetry reports each row once, in order: one
/// `row_skipped_quarantined` per placeholder, one `checkpoint_row` per row,
/// and `deadline_exhausted` exactly when the budget left rows unrun.
#[test]
fn parallel_campaign_is_bit_identical_across_job_counts_and_to_serial() {
    let probe = quick_probe();
    for (i, &(device, budget, quarantine, matrix_fnv, (total, measured, unreached), file_fnv)) in
        PINS.iter().enumerate()
    {
        for jobs in [1usize, 2, 7] {
            let case = format!("{device} budget {budget:?} quarantine {quarantine:?} jobs {jobs}");
            let path = scratch(&format!("pin{i}-j{jobs}"));
            let sink = MemorySink::new();
            let mut c = CheckpointedCampaign::new(device, 1, probe, None).unwrap();
            c.set_telemetry(TelemetryHandle::attach(Telemetry::with_sink(Box::new(
                sink.clone(),
            ))));
            c.set_quarantined_sms(quarantine.to_vec()).unwrap();
            let pool = WorkerPool::new(jobs);
            run_saving(&mut c, &pool, budget, &path);
            let (result, coverage) = c.finish(&pool).unwrap();
            if quarantine.is_empty() && budget.is_none() {
                assert_eq!(c.finish_full(&pool).unwrap(), result, "{case}");
            }

            assert_eq!(campaign_matrix_fnv(&result.matrix), matrix_fnv, "{case}");
            assert_eq!(
                (coverage.total, coverage.measured, coverage.unreached),
                (total, measured, unreached),
                "{case}"
            );
            assert_eq!(coverage.quarantined, quarantine, "{case}");
            assert_eq!(fnv1a64(&std::fs::read(&path).unwrap()), file_fnv, "{case}");
            let _ = std::fs::remove_file(&path);

            let events = sink.take();
            let sms_of = |name: &str| -> Vec<String> {
                events
                    .iter()
                    .filter(|e| e.event == name)
                    .map(|e| e.field("sm").expect("sm field").to_string())
                    .collect()
            };
            let done = total - unreached;
            let placeholders: Vec<String> = quarantine
                .iter()
                .filter(|&&sm| (sm as usize) < done)
                .map(u32::to_string)
                .collect();
            assert_eq!(sms_of("row_skipped_quarantined"), placeholders, "{case}");
            let rows: Vec<String> = (0..done).map(|sm| sm.to_string()).collect();
            assert_eq!(sms_of("checkpoint_row"), rows, "{case}");
            let exhausted = events
                .iter()
                .filter(|e| e.event == "deadline_exhausted")
                .count();
            assert_eq!(exhausted, usize::from(unreached > 0), "{case}");
        }
    }
}

/// A prefix measured at one worker count, checkpointed and resumed at
/// another, finishes bit-identical to an uninterrupted run, in its result
/// and in its final checkpoint's bytes: the row-seeded scheme makes the
/// splice seamless.
#[test]
fn parallel_checkpoint_kill_and_resume_is_bit_identical() {
    let probe = quick_probe();
    let path = scratch("resume");
    let serial = WorkerPool::serial();
    let mut full = CheckpointedCampaign::new("v100", 5, probe, None).unwrap();
    run_saving(&mut full, &serial, None, &path);
    let reference = full.finish_full(&serial).unwrap();
    let reference_bytes = std::fs::read(&path).unwrap();

    for (before, after) in [(1usize, 4usize), (4, 1), (2, 7)] {
        let _ = std::fs::remove_file(&path);
        let mut first = CheckpointedCampaign::new("v100", 5, probe, None).unwrap();
        run_saving(&mut first, &WorkerPool::new(before), Some(13), &path);
        assert_eq!(first.completed_rows(), 13);
        drop(first);

        let pool = WorkerPool::new(after);
        let mut resumed = CheckpointedCampaign::resume(&path, "v100", 5, probe, None).unwrap();
        assert_eq!(resumed.completed_rows(), 13);
        run_saving(&mut resumed, &pool, None, &path);
        assert_eq!(
            resumed.finish_full(&pool).unwrap(),
            reference,
            "{before} -> {after}"
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reference_bytes,
            "{before} -> {after}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// A panicking task poisons the batch, joins every worker (the scope
/// guarantees it — this test would hang forever on a leak), reports the
/// panic as a typed error, and leaves the pool fully reusable.
#[test]
fn pool_survives_task_panics_without_leaking_workers() {
    let pool = WorkerPool::new(4);
    let items: Vec<u64> = (0..100).collect();
    let err = pool
        .try_par_map(&items, |&x| {
            if x % 10 == 3 {
                panic!("injected failure at {x}");
            }
            x
        })
        .unwrap_err();
    assert!(err.message.contains("injected failure"), "{err}");
    assert!(err.task_index % 10 == 3, "{err}");

    // The pool is stateless between batches: the very next call succeeds.
    let ok = pool.par_map(&items, |&x| x + 1);
    assert_eq!(ok.len(), 100);
    assert_eq!(ok[99], 100);

    // par_map (the panicking wrapper) re-raises rather than deadlocking.
    let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.par_map(&items, |&x| if x == 7 { panic!("boom") } else { x })
    }));
    assert!(raised.is_err(), "panic must propagate to the caller");
    assert_eq!(pool.par_map(&[1u64], |&x| x), vec![1]);
}

/// `resolve_jobs` is the single knob: flag beats env beats detection.
#[test]
fn jobs_resolution_is_flag_then_env() {
    assert_eq!(resolve_jobs(Some(5)), 5);
    assert_eq!(resolve_jobs(Some(0)), 1);
    // Env interaction is covered in gnoc-par's unit tests (mutating
    // GNOC_JOBS here would race other integration tests in this binary).
    assert!(resolve_jobs(None) >= 1);
}
