//! The process-wide work-stealing solve executor.
//!
//! `Mc3Solver` used to spawn a fresh `std::thread::scope` worker set per
//! parallel solve, so `N` concurrent `/solve` requests oversubscribed
//! the machine with `N × cores` threads. This module replaces that with
//! **one** lazily-initialized pool shared by every solve in the process:
//! a global injector queue feeding per-worker deques, sibling stealing
//! when a deque runs dry, and condvar parking when the whole pool is
//! idle. No external dependencies — the deques are mutexed `VecDeque`s,
//! which at component-solve granularity (microseconds to milliseconds
//! per task) costs noise compared to the solve itself.
//!
//! # Who uses it
//!
//! `Mc3Solver` builds one component dispatch plan per solve and, under
//! `parallel(true)`, spawns one task per leader group here; a sequential
//! solve runs the same plan inline and never touches the pool, which
//! therefore starts only with the first parallel solve. The pool's size
//! is a process setting with one entry point, [`configure_threads`],
//! called by `mc3 solve --threads` and `mc3 serve --solve-threads`.
//!
//! # Scoped submission
//!
//! [`scope`] is the only way to run tasks: it hands out a [`Scope`]
//! whose [`spawn`](Scope::spawn) accepts closures borrowing from the
//! caller's stack frame (the solver submits tasks that borrow its
//! `WorkState`). The scope blocks on a completion latch until every
//! spawned task has finished — including panicked ones — before
//! returning, which is what makes the lifetime erasure below sound and
//! guarantees **no task is ever lost**: a panicking task trips the
//! latch like any other, and the first panic payload is re-thrown on
//! the submitting thread once all of the scope's tasks are accounted
//! for.
//!
//! # Telemetry
//!
//! Workers keep raw, always-on counters ([`tasks_total`],
//! [`steals_total`], [`thread_spawns_total`], [`queue_depth`]) and
//! mirror them into the gated registry (`exec_tasks`, `exec_steals`,
//! `exec_park_ns`, and the `exec_wait_ns` queue-latency histogram) so
//! `mc3 serve` exposes them on `/metrics`. While a session records,
//! [`scope`] captures the submitting thread's open-span path once
//! ([`mc3_telemetry::SpanParent`]) and every task adopts it, so the span
//! roots a task closes on a worker file under the submitter's spans —
//! a parallel solve's `general.solve`, `setcover.*` and `dinic.*` spans
//! nest under its `solve_core` exactly as in an inline solve. With the
//! gate off the capture is skipped and nothing is allocated.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Tasks a worker grabs from the injector in one lock acquisition: the
/// first runs immediately, the rest land in its local deque — which is
/// what gives idle siblings something to steal.
const INJECTOR_GRAB: usize = 8;

/// Park timeout; a periodic wake-up bounds the damage if a submission's
/// notify races a worker already committed to parking.
const PARK_TIMEOUT_MS: u64 = 100;

/// A lifetime-erased unit of work plus its enqueue timestamp.
struct Task {
    job: Box<dyn FnOnce() + Send + 'static>,
    enqueue_ns: u64,
}

struct Pool {
    injector: Mutex<VecDeque<Task>>,
    /// Per-worker deques: the owner pops the front (preserving the
    /// scheduler's dispatch order), thieves steal from the back.
    deques: Vec<Mutex<VecDeque<Task>>>,
    idle: Mutex<()>,
    wake: Condvar,
}

/// Desired worker count for the pool, set before first use; `0` = auto
/// (`available_parallelism`).
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);
static POOL: OnceLock<&'static Pool> = OnceLock::new();

static THREAD_SPAWNS: AtomicU64 = AtomicU64::new(0);
static TASKS: AtomicU64 = AtomicU64::new(0);
static STEALS: AtomicU64 = AtomicU64::new(0);

/// Requests a worker count for the shared pool. Only effective before
/// the pool's first use (it is sized exactly once, lazily); returns
/// whether the request took effect. Calling it after the pool exists is
/// not an error — the running size simply wins, and the caller can
/// compare against [`pool_threads`].
pub fn configure_threads(n: usize) -> bool {
    if POOL.get().is_some() {
        return false;
    }
    // audit:allow(no-relaxed-atomics) reviewed: config word read once under OnceLock's initialization fence; racing configs pick one winner either way
    CONFIGURED.store(n, Ordering::Relaxed);
    POOL.get().is_none()
}

/// The worker count the pool runs (or would run) with: the configured
/// override, else `available_parallelism()` (4 when unknown).
pub fn effective_threads() -> usize {
    // audit:allow(no-relaxed-atomics) reviewed: config word — single value, no ordering dependency
    let configured = CONFIGURED.load(Ordering::Relaxed);
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    }
}

/// Worker threads the live pool runs; `0` before first use.
pub fn pool_threads() -> usize {
    POOL.get().map_or(0, |p| p.deques.len())
}

/// Total worker threads ever spawned by the executor. The pool is fixed
/// after initialization, so under steady load this **must not grow** —
/// the serving acceptance gate reads it before and after a warm load
/// run and requires a zero delta.
pub fn thread_spawns_total() -> u64 {
    // audit:allow(no-relaxed-atomics) reviewed: monotonic diagnostic counter
    THREAD_SPAWNS.load(Ordering::Relaxed)
}

/// Tasks executed by the pool since process start (always on, unlike the
/// gated `exec_tasks` registry counter).
pub fn tasks_total() -> u64 {
    // audit:allow(no-relaxed-atomics) reviewed: monotonic diagnostic counter
    TASKS.load(Ordering::Relaxed)
}

/// Tasks taken from a sibling worker's deque since process start.
pub fn steals_total() -> u64 {
    // audit:allow(no-relaxed-atomics) reviewed: monotonic diagnostic counter
    STEALS.load(Ordering::Relaxed)
}

/// Instantaneous queued-task count (injector + every worker deque) —
/// the `mc3_exec_queue_depth` gauge.
pub fn queue_depth() -> u64 {
    let Some(pool) = POOL.get() else {
        return 0;
    };
    let mut depth = pool.injector.lock().map_or(0, |q| q.len() as u64);
    for deque in &pool.deques {
        depth += deque.lock().map_or(0, |q| q.len() as u64);
    }
    depth
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = effective_threads().max(1);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Mutex::new(()),
            wake: Condvar::new(),
        }));
        for i in 0..threads {
            // audit:allow(no-relaxed-atomics) reviewed: monotonic diagnostic counter
            THREAD_SPAWNS.fetch_add(1, Ordering::Relaxed);
            let spawned = std::thread::Builder::new()
                .name(format!("mc3-exec-{i}"))
                .spawn(move || worker_loop(pool, i));
            if let Err(e) = spawned {
                // A partially-spawned pool still drains every task —
                // workers are interchangeable — so degrade loudly
                // rather than failing the solve.
                mc3_obs::warn(
                    "solver.executor",
                    "worker spawn failed; pool runs below configured size",
                    &[("error", mc3_obs::Value::Str(e.to_string()))],
                );
            }
        }
        pool
    })
}

fn worker_loop(pool: &'static Pool, me: usize) {
    loop {
        if let Some(task) = next_task(pool, me) {
            let waited = mc3_telemetry::monotonic_ns().saturating_sub(task.enqueue_ns);
            mc3_telemetry::record(mc3_telemetry::Hist::ExecWaitNs, waited);
            // audit:allow(no-relaxed-atomics) reviewed: monotonic diagnostic counter
            TASKS.fetch_add(1, Ordering::Relaxed);
            mc3_telemetry::count(mc3_telemetry::Counter::ExecTasks, 1);
            (task.job)();
        } else {
            let parked_at = mc3_telemetry::monotonic_ns();
            if let Ok(guard) = pool.idle.lock() {
                // Re-check under the lock: a task enqueued between our
                // empty poll and this lock must not be slept through.
                if has_work(pool) {
                    continue;
                }
                // audit:allow(no-swallowed-result) reviewed: timeout-based park — both wake paths rejoin the poll loop above
                let _ = pool
                    .wake
                    .wait_timeout(guard, std::time::Duration::from_millis(PARK_TIMEOUT_MS));
            }
            let parked = mc3_telemetry::monotonic_ns().saturating_sub(parked_at);
            mc3_telemetry::count(mc3_telemetry::Counter::ExecParkNs, parked);
        }
    }
}

fn has_work(pool: &Pool) -> bool {
    if pool.injector.lock().is_ok_and(|q| !q.is_empty()) {
        return true;
    }
    pool.deques
        .iter()
        .any(|d| d.lock().is_ok_and(|q| !q.is_empty()))
}

/// Takes the next task for worker `me`: own deque front → a batch from
/// the injector → steal from a sibling's back.
fn next_task(pool: &Pool, me: usize) -> Option<Task> {
    if let Some(task) = pool.deques.get(me).and_then(|d| match d.lock() {
        Ok(mut q) => q.pop_front(),
        Err(_) => None,
    }) {
        return Some(task);
    }
    // Injector: move a small batch into the local deque so siblings that
    // drain first have something to steal.
    if let Ok(mut injector) = pool.injector.lock() {
        if let Some(first) = injector.pop_front() {
            if let Some(Ok(mut local)) = pool.deques.get(me).map(|d| d.lock()) {
                for _ in 1..INJECTOR_GRAB {
                    match injector.pop_front() {
                        Some(t) => local.push_back(t),
                        None => break,
                    }
                }
            }
            drop(injector);
            // The batch left surplus in our deque — siblings may want it.
            pool.wake.notify_all();
            return Some(first);
        }
    }
    // Steal: scan siblings starting after ourselves, taking from the
    // *back* (the owner consumes the front, so contention only meets at
    // a one-element deque).
    let n = pool.deques.len();
    for off in 1..n {
        let victim = (me + off) % n;
        let stolen = pool.deques.get(victim).and_then(|d| match d.lock() {
            Ok(mut q) => q.pop_back(),
            Err(_) => None,
        });
        if let Some(task) = stolen {
            // audit:allow(no-relaxed-atomics) reviewed: monotonic diagnostic counter
            STEALS.fetch_add(1, Ordering::Relaxed);
            mc3_telemetry::count(mc3_telemetry::Counter::ExecSteals, 1);
            return Some(task);
        }
    }
    None
}

/// Synchronization state of one [`scope`] call: how many spawned tasks
/// are still outstanding, and the first panic payload any of them
/// produced.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    outstanding: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            state: Mutex::new(LatchState {
                outstanding: 0,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn task_finished(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.outstanding -= 1;
        if state.panic.is_none() {
            state.panic = panic;
        }
        if state.outstanding == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every registered task has finished; returns the
    /// first captured panic payload.
    fn wait(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        while state.outstanding > 0 {
            state = match self.done.wait(state) {
                Ok(s) => s,
                Err(p) => p.into_inner(),
            };
        }
        state.panic.take()
    }
}

/// A `Send` latch pointer for the worker side of a task. Soundness is
/// argued at the use sites: the latch outlives every task registered
/// with it because [`scope`] blocks until the count drains.
struct LatchPtr(*const Latch);
// SAFETY: `Latch` itself is `Sync` (a Mutex + Condvar), and the pointer
// is only dereferenced while `scope` keeps the pointee alive.
unsafe impl Send for LatchPtr {}

/// A handle for spawning borrowing tasks onto the shared pool; only
/// obtainable through [`scope`], which guarantees every task finishes
/// before the borrowed data goes out of scope.
pub struct Scope<'scope> {
    pool: &'static Pool,
    /// The owning [`scope`] call's latch. A raw pointer rather than a
    /// borrow so `'scope` stays free for the *spawned closures'* data —
    /// the latch is a local of `scope`, which provably outlives every
    /// use (it drains the count before returning).
    latch: *const Latch,
    /// The submitter's open-span path, captured once per scope while a
    /// telemetry session records; each task files its span roots under it.
    parent: Option<mc3_telemetry::SpanParent>,
    /// Ties the borrow lifetime to the scope (invariantly) so spawned
    /// closures may borrow from the caller's frame.
    _marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Submits a task to the shared pool. The closure may borrow
    /// anything that outlives the [`scope`] call.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        {
            // SAFETY: `Scope` only exists inside `scope`'s body, whose
            // stack frame owns the latch.
            let latch = unsafe { &*self.latch };
            let mut state = latch.state.lock().unwrap_or_else(|p| p.into_inner());
            state.outstanding += 1;
        }
        let latch_ptr = LatchPtr(self.latch);
        let parent = self.parent.clone();
        // Wrap the user closure so completion (or panic) always reaches
        // the latch, then erase its borrow lifetime for the queue.
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            // Bind the wrapper itself so closure capture takes the `Send`
            // struct, not its raw-pointer field.
            let latch_ptr = latch_ptr;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _parent = parent.as_ref().map(mc3_telemetry::SpanParent::adopt);
                f();
            }));
            // SAFETY: `scope` does not return until the latch counts
            // this task finished, so the latch (owned by `scope`'s
            // stack frame) is alive for every dereference here.
            let latch = unsafe { &*latch_ptr.0 };
            latch.task_finished(outcome.err());
        });
        // SAFETY: lifetime erasure only — the pointee type is identical.
        // The closure (and every borrow inside it) is consumed before
        // `scope` returns: `Scope` is only handed out inside `scope`,
        // which blocks on `latch.wait()` until `outstanding == 0`, and
        // `outstanding` reaches 0 only after each job ran (or panicked
        // inside `catch_unwind`) on a worker. Workers never drop a task
        // un-run: the queues are only consumed by `next_task`, and
        // worker threads live for the whole process.
        let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
        let task = Task {
            job,
            enqueue_ns: mc3_telemetry::monotonic_ns(),
        };
        if let Ok(mut injector) = self.pool.injector.lock() {
            injector.push_back(task);
        } else {
            // A poisoned injector means a worker panicked *inside the
            // queue lock*, which no code path does; run inline rather
            // than lose the task.
            (task.job)();
        }
        self.pool.wake.notify_one();
    }
}

/// Runs `f` with a [`Scope`] bound to the shared pool and blocks until
/// every task it spawned has completed. If any task panicked, the first
/// panic payload is resumed on this thread — after all sibling tasks
/// finished, so no task is ever abandoned mid-queue. While a telemetry
/// session records, the span roots the tasks close file under this
/// thread's open spans. The pool is created on first use, sized by
/// [`configure_threads`].
pub fn scope<'env, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    let pool = pool();
    let latch = Latch::new();
    let scope = Scope {
        pool,
        latch: &latch,
        parent: mc3_telemetry::SpanParent::current(),
        _marker: std::marker::PhantomData,
    };
    // `f` itself may panic after spawning tasks; those tasks still
    // borrow the caller's frame, so the latch wait must happen before
    // the panic propagates.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&scope)));
    let task_panic = latch.wait();
    match result {
        Ok(r) => {
            if let Some(payload) = task_panic {
                std::panic::resume_unwind(payload);
            }
            r
        }
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_every_task_and_waits() {
        let hits = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn tasks_may_borrow_the_callers_stack() {
        let data: Vec<u64> = (0..100).collect();
        let results: Vec<Mutex<u64>> = data.iter().map(|_| Mutex::new(0)).collect();
        scope(|s| {
            for (i, &v) in data.iter().enumerate() {
                let cell = &results[i];
                s.spawn(move || {
                    if let Ok(mut slot) = cell.lock() {
                        *slot = v * 2;
                    }
                });
            }
        });
        for (i, cell) in results.iter().enumerate() {
            assert_eq!(*cell.lock().expect("unpoisoned"), (i as u64) * 2);
        }
    }

    #[test]
    fn panicking_task_propagates_after_all_tasks_finish() {
        let hits = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scope(|s| {
                for i in 0..32 {
                    let hits = &hits;
                    s.spawn(move || {
                        if i == 7 {
                            panic!("task 7 exploded");
                        }
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(caught.is_err(), "the task panic must reach the scope");
        // No task was lost: every non-panicking task still ran.
        assert_eq!(hits.load(Ordering::SeqCst), 31);
    }

    #[test]
    fn nested_scopes_from_tasks_do_not_deadlock() {
        // A task that opens its own scope would deadlock a pool whose
        // workers block on inner completion — this pins that inner
        // scopes submitted from the *caller* thread (the solver's actual
        // pattern: scopes only ever open on request/CLI threads) drain
        // even while outer tasks hold workers busy.
        let outer = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    outer.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    outer.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(outer.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn accounting_counters_are_monotone() {
        let spawns_before = thread_spawns_total();
        let tasks_before = tasks_total();
        scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {});
            }
        });
        assert!(tasks_total() >= tasks_before + 16);
        // The pool exists now; running more work must not spawn threads.
        let spawns_mid = thread_spawns_total();
        assert!(spawns_mid >= spawns_before);
        scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {});
            }
        });
        assert_eq!(
            thread_spawns_total(),
            spawns_mid,
            "steady-state executor must never spawn"
        );
        assert!(pool_threads() >= 1);
    }
}
