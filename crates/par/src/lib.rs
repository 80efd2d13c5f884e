//! # gnoc-par — deterministic parallel execution
//!
//! A hand-rolled, std-only scoped worker pool (the build environment is
//! offline, so no rayon — see `shims/README.md` for the precedent) built
//! around one primitive: an **ordered** [`WorkerPool::par_map`] whose result
//! vector always matches input-index order, regardless of which worker
//! finished which task first. Every parallel hot path in the workspace
//! (latency campaigns, correlation matrices, chaos soaks) is expressed as a
//! `par_map` over *independently seeded* work items, which makes the
//! parallel result **bit-identical to the serial one by construction**: each
//! item's result depends only on the item, never on scheduling.
//!
//! Panics inside a task do not leak threads or deadlock the pool:
//! [`WorkerPool::try_par_map`] catches the unwind, poisons the batch so idle
//! workers stop pulling new tasks, joins everything (the scope guarantees
//! it), and reports the lowest-index failure as a typed [`PoolPanic`].
//!
//! The worker count comes from [`resolve_jobs`]: an explicit `--jobs N`
//! beats the `GNOC_JOBS` environment variable, which beats the machine's
//! available parallelism. `jobs = 1` runs inline on the calling thread — the
//! exact serial path, with no thread spawned at all.
//!
//! ```
//! use gnoc_par::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let squares = pool.par_map(&[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]); // input order, always
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use gnoc_telemetry::TelemetryHandle;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves the worker count: `explicit` (a `--jobs N` flag) wins, then the
/// `GNOC_JOBS` environment variable, then the machine's available
/// parallelism. Always at least 1; unparsable `GNOC_JOBS` values are
/// ignored rather than fatal.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("GNOC_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A task panicked inside [`WorkerPool::try_par_map`]. The pool is already
/// drained and joined when this is returned; no worker leaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolPanic {
    /// Input index of the panicking task (the lowest one when several
    /// tasks panicked in one batch).
    pub task_index: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for PoolPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.task_index, self.message)
    }
}

impl std::error::Error for PoolPanic {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A scoped worker pool with a fixed degree of parallelism.
///
/// The pool is stateless between calls: each `par_map` spawns (at most)
/// `jobs` scoped threads, joins them before returning, and leaves nothing
/// behind. That keeps the pool trivially reusable after a poisoned batch and
/// means dropping it never blocks.
#[derive(Debug, Clone, Default)]
pub struct WorkerPool {
    jobs: usize,
    telemetry: TelemetryHandle,
}

impl WorkerPool {
    /// A pool running `jobs` tasks concurrently (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        WorkerPool {
            jobs: jobs.max(1),
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// The serial pool: `jobs = 1`, tasks run inline on the calling thread.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Attaches telemetry: each batch records `par.tasks` /
    /// `par.batches`, and every worker its own `par.worker.N.tasks`.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// The shared telemetry handle (disabled unless
    /// [`set_telemetry`](Self::set_telemetry) was called).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// The configured degree of parallelism.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items` with up to [`jobs`](Self::jobs) concurrent
    /// workers, returning results **in input order** regardless of
    /// completion order. `f` must be a pure function of its item for the
    /// parallel result to be bit-identical to the serial one — which is how
    /// every caller in this workspace uses it (per-row / per-seed
    /// independence).
    ///
    /// # Panics
    ///
    /// Re-raises the first (lowest-index) task panic on the calling thread,
    /// after the whole batch has been drained and joined.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        match self.try_par_map(items, f) {
            Ok(out) => out,
            Err(p) => panic!("{p}"),
        }
    }

    /// Like [`par_map`](Self::par_map), but a task panic is returned as a
    /// typed [`PoolPanic`] instead of unwinding: the batch is poisoned (idle
    /// workers stop pulling tasks), every thread is joined, and the pool
    /// stays usable for the next call.
    pub fn try_par_map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, PoolPanic>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let workers = self.jobs.min(n);
        let result = if workers <= 1 {
            self.map_serial(items, &f)
        } else {
            self.map_scoped(items, &f, workers)
        };
        if result.is_ok() {
            self.telemetry.with(|t| {
                t.registry.counter_add("par.tasks", n as u64);
                t.registry.counter_add("par.batches", 1);
                t.registry.gauge_max("par.jobs", self.jobs as f64);
            });
        }
        result
    }

    /// The `jobs = 1` path: inline on the calling thread, no spawn.
    fn map_serial<T, R, F>(&self, items: &[T], f: &F) -> Result<Vec<R>, PoolPanic>
    where
        F: Fn(&T) -> R,
    {
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => out.push(r),
                Err(payload) => {
                    return Err(PoolPanic {
                        task_index: i,
                        message: panic_message(&*payload),
                    })
                }
            }
        }
        self.telemetry
            .counter_add("par.worker.0.tasks", items.len() as u64);
        Ok(out)
    }

    /// The parallel path: `workers` scoped threads pull indices from a
    /// shared cursor and write each result into its input-index slot.
    fn map_scoped<T, R, F>(&self, items: &[T], f: &F, workers: usize) -> Result<Vec<R>, PoolPanic>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        // One slot per input index: per-slot locks never contend (each index
        // is claimed by exactly one worker), so writes are cheap and the
        // result order is input order by construction.
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let first_panic: Mutex<Option<PoolPanic>> = Mutex::new(None);

        std::thread::scope(|s| {
            for w in 0..workers {
                let slots = &slots;
                let cursor = &cursor;
                let poisoned = &poisoned;
                let first_panic = &first_panic;
                let telemetry = &self.telemetry;
                s.spawn(move || {
                    let mut done = 0u64;
                    loop {
                        if poisoned.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                            Ok(r) => {
                                *slots[i].lock().expect("result slot lock") = Some(r);
                                done += 1;
                            }
                            Err(payload) => {
                                let panic = PoolPanic {
                                    task_index: i,
                                    message: panic_message(&*payload),
                                };
                                let mut slot = first_panic.lock().expect("panic slot lock");
                                // Keep the lowest-index panic so the error
                                // is deterministic under racing failures.
                                match &*slot {
                                    Some(p) if p.task_index <= i => {}
                                    _ => *slot = Some(panic),
                                }
                                poisoned.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                    telemetry.counter_add(&format!("par.worker.{w}.tasks"), done);
                });
            }
        });

        if let Some(panic) = first_panic.into_inner().expect("panic slot lock") {
            return Err(panic);
        }
        Ok(slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot lock")
                    .expect("unpoisoned batch fills every slot")
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnoc_telemetry::{Telemetry, TelemetryHandle};

    #[test]
    fn par_map_preserves_input_order_for_any_jobs() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for jobs in [1, 2, 3, 7, 16] {
            let pool = WorkerPool::new(jobs);
            assert_eq!(pool.par_map(&items, |&x| x * x + 1), expect, "jobs {jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_batches_work() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.par_map(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(pool.par_map(&[9u64], |&x| x + 1), vec![10]);
    }

    #[test]
    fn jobs_are_clamped_to_at_least_one() {
        assert_eq!(WorkerPool::new(0).jobs(), 1);
        assert_eq!(WorkerPool::serial().jobs(), 1);
    }

    #[test]
    fn slow_early_tasks_do_not_scramble_order() {
        // Task 0 finishes last; its result must still land in slot 0.
        let pool = WorkerPool::new(4);
        let out = pool.par_map(&[30u64, 1, 1, 1, 1, 1, 1, 1], |&ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            ms
        });
        assert_eq!(out, vec![30, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn panic_poisons_the_batch_and_reports_the_lowest_index() {
        for jobs in [1, 4] {
            let pool = WorkerPool::new(jobs);
            let err = pool
                .try_par_map(&(0..64u64).collect::<Vec<_>>(), |&x| {
                    if x == 5 || x == 40 {
                        panic!("boom at {x}");
                    }
                    x
                })
                .unwrap_err();
            assert!(
                err.task_index == 5 || err.task_index == 40,
                "jobs {jobs}: {err:?}"
            );
            assert!(err.message.contains("boom"), "jobs {jobs}: {err:?}");
            // The pool is stateless: the next batch works normally.
            assert_eq!(pool.par_map(&[1u64, 2], |&x| x), vec![1, 2]);
        }
    }

    #[test]
    fn telemetry_counts_tasks_batches_and_workers() {
        let handle = TelemetryHandle::attach(Telemetry::new());
        let mut pool = WorkerPool::new(3);
        pool.set_telemetry(handle.clone());
        pool.par_map(&(0..10u64).collect::<Vec<_>>(), |&x| x);
        let reg = handle.snapshot_registry().unwrap();
        assert_eq!(reg.counter("par.tasks"), 10);
        assert_eq!(reg.counter("par.batches"), 1);
        let per_worker: u64 = (0..3)
            .map(|w| reg.counter(&format!("par.worker.{w}.tasks")))
            .sum();
        assert_eq!(per_worker, 10, "every task is attributed to one worker");
    }

    #[test]
    fn resolve_jobs_prefers_explicit_then_env() {
        assert_eq!(resolve_jobs(Some(6)), 6);
        assert_eq!(resolve_jobs(Some(0)), 1, "explicit 0 clamps to 1");
        std::env::set_var("GNOC_JOBS", "3");
        assert_eq!(resolve_jobs(None), 3);
        assert_eq!(resolve_jobs(Some(2)), 2, "flag beats env");
        std::env::set_var("GNOC_JOBS", "not-a-number");
        assert!(resolve_jobs(None) >= 1, "bad env falls through");
        std::env::remove_var("GNOC_JOBS");
        assert!(resolve_jobs(None) >= 1);
    }
}
