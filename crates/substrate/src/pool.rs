//! A scoped worker pool with deterministic, in-order result collection.
//!
//! This is the concurrency primitive behind the parallel study executor:
//! a fixed number of workers drain a shared queue of indexed tasks inside
//! [`std::thread::scope`], so closures may borrow from the caller's stack
//! (no `'static` bound, no `Arc` plumbing). Three properties matter more
//! than raw speed here:
//!
//! 1. **In-order results.** [`Pool::run`]/[`par_map`] return results in
//!    task-index order, regardless of which worker ran what when. Callers
//!    never observe scheduling.
//! 2. **Panic propagation.** If any task panics, the pool finishes joining
//!    and then re-raises the panic of the *lowest-indexed* failed task via
//!    [`std::panic::resume_unwind`] — deterministic even when several tasks
//!    fail in the same run.
//! 3. **Worker count is a pure throughput knob.** Tasks receive only their
//!    index and payload — never a worker id — so nothing downstream can
//!    accidentally key behaviour (or a seed) on thread identity.
//!
//! `workers == 1` executes inline on the calling thread: no threads are
//! spawned, which keeps single-threaded runs trivially deterministic and
//! makes the pool safe to use in environments where spawning is costly.

use crate::rng::mix64;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

/// Hooks bracketing the pool's own setup work: result-buffer construction
/// and worker spawning, which run on the calling thread and scale with the
/// worker count. Instrumentation (the bench allocator's accounting run)
/// registers these to exclude pool-internal bookkeeping from per-run
/// measurements — the study's work is worker-count-invariant, the pool's
/// scaffolding is not, and conflating them turns the invariance evidence
/// into noise. Process-wide, set once; `None` costs one relaxed load.
static SETUP_OBSERVER: OnceLock<SetupObserver> = OnceLock::new();

/// An `(enter, exit)` hook pair bracketing pool setup.
type SetupObserver = (fn(), fn());

/// Register the setup observer (`enter` fires before pool setup on the
/// calling thread, `exit` after the last worker is spawned, before the
/// join). Returns false if an observer was already registered.
pub fn set_setup_observer(enter: fn(), exit: fn()) -> bool {
    SETUP_OBSERVER.set((enter, exit)).is_ok()
}

/// A fixed-size scoped worker pool.
///
/// The pool itself is just a validated worker count; all threads live only
/// for the duration of a single [`Pool::run`] call.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with `workers` worker threads.
    ///
    /// # Panics
    /// Panics if `workers == 0` — a pool that can run nothing is a
    /// configuration bug, not a degenerate mode.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "Pool requires at least one worker");
        Pool { workers }
    }

    /// The configured worker count.
    pub fn workers(self) -> usize {
        self.workers
    }

    /// Run `task` once per item of `items`, returning results in item order.
    ///
    /// `task` is called as `task(index, item)`. With one worker the tasks
    /// run inline on the calling thread in index order; with more, workers
    /// claim `(index, item)` pairs from one shared queue — the *assignment*
    /// of tasks to workers is nondeterministic, but the returned `Vec` is
    /// always in index order, so callers cannot observe it.
    ///
    /// # Panics
    /// If one or more tasks panic, re-raises the payload of the
    /// lowest-indexed panicking task after all workers have stopped.
    pub fn run<T, R, F>(self, items: Vec<T>, task: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if self.workers == 1 || items.len() <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| task(i, item))
                .collect();
        }

        let n = items.len();
        let observer = SETUP_OBSERVER.get().copied();
        if let Some((enter, _)) = observer {
            enter();
        }
        let queue = Mutex::new(items.into_iter().enumerate());
        let (task, queue) = (&task, &queue);
        let mut outcomes = thread::scope(|s| {
            let workers: Vec<_> = (0..self.workers.min(n))
                .map(|_| {
                    // Sized for every task, and built here inside the setup
                    // window, so a worker never grows it mid-run.
                    let mut done: Vec<(usize, thread::Result<R>)> = Vec::with_capacity(n);
                    s.spawn(move || loop {
                        // The lock is held only to advance the iterator,
                        // which cannot panic, so it is never poisoned.
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, item)) = next else {
                            return done;
                        };
                        // Tasks are required to be panic-safe by contract: a
                        // panicking task's partial effects are confined to its
                        // own inputs, which are dropped with the payload.
                        done.push((i, panic::catch_unwind(AssertUnwindSafe(|| task(i, item)))));
                    })
                })
                .collect();
            // Setup ends here: every worker is spawned and the calling
            // thread only joins from this point.
            if let Some((_, exit)) = observer {
                exit();
            }
            // Pool the per-worker outcomes into the first worker's buffer,
            // which has room for all `n` of them.
            let mut joined = workers.into_iter().map(|w| match w.join() {
                Ok(done) => done,
                Err(payload) => panic::resume_unwind(payload),
            });
            let mut outcomes = joined.next().expect("a threaded run spawns workers");
            joined.for_each(|done| outcomes.extend(done));
            outcomes
        });
        outcomes.sort_unstable_by_key(|&(i, _)| i);

        let mut results = Vec::with_capacity(n);
        let mut first_panic = None;
        for (_, outcome) in outcomes {
            match outcome {
                Ok(r) => results.push(r),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            panic::resume_unwind(payload);
        }
        results
    }

    /// Run `task` once per item under supervision: per-task panics are
    /// contained instead of unwinding, failed tasks are retried up to
    /// [`FaultPolicy::max_retries`] times, and tasks that keep failing are
    /// quarantined into the returned [`TaskReport`].
    ///
    /// Determinism: the main wave runs attempt 0 of every task across the
    /// pool; failures then drain on the *calling* thread in ascending
    /// task-index order. The attempt schedule — which task ran how many
    /// attempts — is therefore a pure function of task behaviour (and the
    /// optional [`FaultInjector`]), never of worker scheduling, so a run
    /// where task `i` succeeded on attempt `k` returns byte-identical
    /// results to one where it succeeded on attempt 0, at any worker count.
    ///
    /// Items are borrowed (not consumed) because a retried task must see
    /// the same input as the failed attempt. Tasks must be idempotent up to
    /// their return value: a panicking attempt's partial effects are the
    /// caller's responsibility to confine.
    ///
    /// Returns `(results, report)` where `results[i]` is `None` exactly
    /// when `report.statuses[i]` is [`TaskStatus::Poisoned`].
    pub fn run_supervised<T, R, F>(
        self,
        items: &[T],
        policy: &FaultPolicy,
        task: F,
    ) -> (Vec<Option<R>>, TaskReport)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let attempt_one = |i: usize, attempt: usize| -> thread::Result<R> {
            panic::catch_unwind(AssertUnwindSafe(|| {
                if let Some(injector) = policy.injector.as_ref() {
                    if injector.should_fail(i, attempt) {
                        panic!("injected fault: task {i}, attempt {attempt}");
                    }
                }
                task(i, &items[i])
            }))
        };

        // Main wave: attempt 0 of every task across the pool. Each attempt
        // is wrapped in `catch_unwind`, so the wave itself never unwinds.
        let first: Vec<thread::Result<R>> = self.run((0..n).collect(), |_, i| attempt_one(i, 0));

        let mut results: Vec<Option<R>> = Vec::with_capacity(n);
        let mut statuses = vec![TaskStatus::Ok; n];
        // tft-lint: allow(hot-path-alloc, reason = "once per supervised wave, not per task; empty Vec allocates nothing until a task actually fails")
        let mut failed: Vec<(usize, String)> = Vec::new();
        for (i, outcome) in first.into_iter().enumerate() {
            match outcome {
                Ok(r) => results.push(Some(r)),
                Err(payload) => {
                    failed.push((i, panic_message(payload.as_ref())));
                    results.push(None);
                }
            }
        }

        // Retry drain: sequential, ascending task index, on the calling
        // thread — independent of how the wave was scheduled.
        // tft-lint: allow(hot-path-alloc, reason = "once per supervised wave; empty Vec allocates nothing unless tasks poison")
        let mut quarantined = Vec::new();
        for (i, mut last_msg) in failed {
            let mut recovered = false;
            for attempt in 1..=policy.max_retries {
                match attempt_one(i, attempt) {
                    Ok(r) => {
                        results[i] = Some(r);
                        statuses[i] = TaskStatus::Retried(attempt);
                        recovered = true;
                        break;
                    }
                    Err(payload) => last_msg = panic_message(payload.as_ref()),
                }
            }
            if !recovered {
                statuses[i] = TaskStatus::Poisoned;
                quarantined.push((i, last_msg));
            }
        }

        (
            results,
            TaskReport {
                statuses,
                quarantined,
            },
        )
    }
}

/// Best-effort rendering of a caught panic payload for quarantine records.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        // tft-lint: allow(hot-path-alloc, reason = "failure path only: runs once per caught panic, never on the success path")
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        // tft-lint: allow(hot-path-alloc, reason = "failure path only: runs once per caught panic, never on the success path")
        s.clone()
    } else {
        // tft-lint: allow(hot-path-alloc, reason = "failure path only: runs once per caught panic, never on the success path")
        "non-string panic payload".to_string()
    }
}

/// How [`Pool::run_supervised`] responds to task failure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Additional attempts after the first. `0` contains panics but never
    /// retries — every failed task is quarantined immediately.
    pub max_retries: usize,
    /// Optional deterministic fault injection (test seam).
    pub injector: Option<FaultInjector>,
}

impl FaultPolicy {
    /// A policy that retries each failed task up to `max_retries` times.
    pub fn retries(max_retries: usize) -> Self {
        FaultPolicy {
            max_retries,
            injector: None,
        }
    }

    /// Attach a deterministic fault injector.
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }
}

/// Deterministic transient-panic injection for supervision tests.
///
/// Whether task `i` fails on attempt `a` is a pure function of
/// `(seed, i, a)`: a hash of the seed and task index selects faulty tasks
/// at roughly `fail_per_mille`/1000 probability and assigns each a fault
/// count in `1..=max_faults_per_task`; attempts below that count panic,
/// later attempts succeed. Identical across worker counts and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInjector {
    seed: u64,
    fail_per_mille: u32,
    max_faults_per_task: u32,
}

impl FaultInjector {
    /// An injector failing ~`fail_per_mille`/1000 of tasks, each for
    /// `1..=max_faults_per_task` leading attempts.
    pub fn seeded(seed: u64, fail_per_mille: u32, max_faults_per_task: u32) -> Self {
        FaultInjector {
            seed,
            fail_per_mille,
            max_faults_per_task,
        }
    }

    /// How many leading attempts of task `index` will panic.
    pub fn faults_for(&self, index: usize) -> u32 {
        if self.fail_per_mille == 0 || self.max_faults_per_task == 0 {
            return 0;
        }
        let h = mix64(self.seed ^ mix64(index as u64 ^ 0x7466_745f_6661_756c));
        if (h % 1000) as u32 >= self.fail_per_mille {
            return 0;
        }
        1 + (mix64(h) % u64::from(self.max_faults_per_task)) as u32
    }

    /// Whether attempt `attempt` (0-based) of task `index` should panic.
    pub fn should_fail(&self, index: usize, attempt: usize) -> bool {
        u32::try_from(attempt).is_ok_and(|a| a < self.faults_for(index))
    }
}

/// Per-task outcome under [`Pool::run_supervised`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Succeeded on the first attempt.
    Ok,
    /// Succeeded on retry `n` (after `n` failed attempts).
    Retried(usize),
    /// Failed every attempt; quarantined, result slot is `None`.
    Poisoned,
}

/// Supervision summary returned by [`Pool::run_supervised`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskReport {
    /// One status per task, in task-index order.
    pub statuses: Vec<TaskStatus>,
    /// `(task index, last panic message)` for each poisoned task, in
    /// ascending index order.
    pub quarantined: Vec<(usize, String)>,
}

impl TaskReport {
    /// True when every task succeeded on its first attempt.
    pub fn all_ok(&self) -> bool {
        self.statuses.iter().all(|s| *s == TaskStatus::Ok)
    }

    /// Indices of quarantined tasks, ascending.
    pub fn poisoned(&self) -> Vec<usize> {
        self.quarantined.iter().map(|(i, _)| *i).collect()
    }

    /// Number of tasks that needed at least one retry to succeed.
    pub fn retried(&self) -> usize {
        self.statuses
            .iter()
            .filter(|s| matches!(s, TaskStatus::Retried(_)))
            .count()
    }
}

/// Map `f` over `items` on a pool of `workers` threads, preserving order.
///
/// Convenience wrapper over [`Pool::run`] for the common case where the
/// task doesn't need its index.
///
/// # Panics
/// Propagates the lowest-indexed task panic, and panics if `workers == 0`.
pub fn par_map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    Pool::new(workers).run(items, |_, item| f(item))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        for workers in [1, 2, 3, 8] {
            let out = par_map(workers, (0..100u64).collect(), |x| x * x);
            let expected: Vec<u64> = (0..100).map(|x| x * x).collect();
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn borrows_from_the_caller_scope() {
        let base = [10u64, 20, 30];
        let out = par_map(4, vec![0usize, 1, 2], |i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn run_passes_indices() {
        let out = Pool::new(4).run(vec!["a", "b", "c"], |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(4, empty, |x| x).is_empty());
        assert_eq!(par_map(4, vec![7u8], |x| x + 1), vec![8]);
    }

    #[test]
    fn more_workers_than_tasks() {
        let out = par_map(16, vec![1u8, 2], |x| x * 10);
        assert_eq!(out, vec![10, 20]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Pool::new(0);
    }

    #[test]
    fn setup_observer_brackets_setup_on_the_calling_thread() {
        use std::cell::Cell;
        // The hooks fire on the calling thread, so thread-local counters
        // see only this test's pool runs, never those of tests running
        // concurrently on other threads.
        thread_local! {
            static ENTERS: Cell<u32> = const { Cell::new(0) };
            static EXITS: Cell<u32> = const { Cell::new(0) };
        }
        fn enter() {
            ENTERS.with(|c| c.set(c.get() + 1));
        }
        fn exit() {
            EXITS.with(|c| c.set(c.get() + 1));
        }
        // First registration wins; the process-wide hook stays set.
        let first = set_setup_observer(enter, exit);
        let second = set_setup_observer(enter, exit);
        assert!(!second || first, "second registration must not override");
        let before_e = ENTERS.with(Cell::get);
        let before_x = EXITS.with(Cell::get);
        // Inline path (single worker): no setup, observer must not fire.
        let out = Pool::new(1).run(vec![1, 2, 3], |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
        if first {
            assert_eq!(ENTERS.with(Cell::get), before_e);
            assert_eq!(EXITS.with(Cell::get), before_x);
        }
        // Threaded path: exactly one enter/exit pair per run.
        let out = Pool::new(4).run(vec![1, 2, 3, 4], |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4, 5]);
        if first {
            assert_eq!(ENTERS.with(Cell::get), before_e + 1);
            assert_eq!(EXITS.with(Cell::get), before_x + 1);
        }
    }

    #[test]
    fn contention_stress_many_tiny_tasks() {
        // The per-task overhead path: thousands of near-empty tasks hammer
        // the claim cursor from every worker. Every task must run exactly
        // once, every result must land in index order, and nothing may be
        // lost — at every worker count, including oversubscribed ones.
        use std::sync::atomic::{AtomicU64, Ordering};
        const N: u64 = 10_000;
        for workers in [1usize, 2, 8, 16] {
            let executed = AtomicU64::new(0);
            let out = par_map(workers, (0..N).collect(), |x| {
                executed.fetch_add(1, Ordering::Relaxed);
                x.wrapping_mul(2654435761).rotate_left(7)
            });
            assert_eq!(out.len() as u64, N, "workers={workers}: task lost");
            assert_eq!(
                executed.load(Ordering::Relaxed),
                N,
                "workers={workers}: execution count off"
            );
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(
                    v,
                    (i as u64).wrapping_mul(2654435761).rotate_left(7),
                    "workers={workers}: result {i} out of order"
                );
            }
        }
    }

    #[test]
    fn panic_propagates_lowest_index() {
        // Several tasks panic; the surfaced payload must be the
        // lowest-indexed one regardless of scheduling.
        for workers in [1, 2, 8] {
            let err = std::panic::catch_unwind(|| {
                par_map(workers, (0..32u32).collect(), |x| {
                    if x % 5 == 3 {
                        panic!("task {x} failed");
                    }
                    x
                })
            })
            .expect_err("pool must propagate task panics");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string payload".into());
            assert_eq!(msg, "task 3 failed", "workers={workers}");
        }
    }

    #[test]
    fn supervised_without_faults_matches_plain_run() {
        for workers in [1, 2, 8] {
            let items: Vec<u64> = (0..50).collect();
            let (out, report) =
                Pool::new(workers)
                    .run_supervised(&items, &FaultPolicy::retries(2), |i, x| x * 3 + i as u64);
            let expected: Vec<Option<u64>> = (0..50).map(|x| Some(x * 3 + x)).collect();
            assert_eq!(out, expected, "workers={workers}");
            assert!(report.all_ok(), "workers={workers}");
            assert_eq!(report.retried(), 0);
            assert!(report.quarantined.is_empty());
        }
    }

    #[test]
    fn supervised_injected_transients_recover_byte_identical() {
        // Inject transient panics that succeed on a later attempt; results
        // and the supervision report must be identical to the fault-free
        // run at every worker count.
        let items: Vec<u64> = (0..200).collect();
        let clean: Vec<Option<u64>> = items.iter().map(|x| Some(x.wrapping_mul(31) ^ 7)).collect();
        let injector = FaultInjector::seeded(0xC0FFEE, 300, 2);
        let faulty: usize = (0..items.len())
            .filter(|&i| injector.faults_for(i) > 0)
            .count();
        assert!(faulty > 10, "injector must actually fire (got {faulty})");
        let mut reports = Vec::new();
        for workers in [1, 2, 8] {
            let policy = FaultPolicy::retries(3).with_injector(injector);
            let (out, report) =
                Pool::new(workers).run_supervised(&items, &policy, |_, x| x.wrapping_mul(31) ^ 7);
            assert_eq!(out, clean, "workers={workers}");
            assert_eq!(report.retried(), faulty, "workers={workers}");
            assert!(report.quarantined.is_empty(), "workers={workers}");
            reports.push(report);
        }
        // The full supervision report — statuses and attempt counts — is
        // itself worker-count-invariant.
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[1], reports[2]);
    }

    #[test]
    fn supervised_quarantines_persistent_failures() {
        let items: Vec<u32> = (0..30).collect();
        for workers in [1, 4] {
            let (out, report) =
                Pool::new(workers).run_supervised(&items, &FaultPolicy::retries(2), |_, x| {
                    if x % 7 == 0 {
                        panic!("task {x} is cursed");
                    }
                    x * 2
                });
            for (i, slot) in out.iter().enumerate() {
                if i % 7 == 0 {
                    assert_eq!(*slot, None, "workers={workers} i={i}");
                    assert_eq!(report.statuses[i], TaskStatus::Poisoned);
                } else {
                    assert_eq!(*slot, Some(i as u32 * 2), "workers={workers} i={i}");
                    assert_eq!(report.statuses[i], TaskStatus::Ok);
                }
            }
            assert_eq!(report.poisoned(), vec![0, 7, 14, 21, 28]);
            let (idx, msg) = &report.quarantined[1];
            assert_eq!(*idx, 7);
            assert!(msg.contains("task 7 is cursed"), "msg: {msg}");
        }
    }

    #[test]
    fn supervised_zero_retries_still_contains_panics() {
        let items = vec![1u8, 2, 3];
        let (out, report) = Pool::new(2).run_supervised(&items, &FaultPolicy::default(), |_, x| {
            if *x == 2 {
                panic!("no second chances");
            }
            *x
        });
        assert_eq!(out, vec![Some(1), None, Some(3)]);
        assert_eq!(report.statuses[1], TaskStatus::Poisoned);
    }

    #[test]
    fn all_tasks_still_complete_when_one_panics() {
        // A panic must not wedge the queue: the remaining tasks run to
        // completion (observable via a side counter) before propagation.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(4, (0..64u32).collect(), |x| {
                if x == 10 {
                    panic!("boom");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        assert!(result.is_err());
        assert_eq!(completed.load(Ordering::Relaxed), 63);
    }
}
