//! The engine's resident worker pool.
//!
//! Earlier engine versions spawned a fresh `thread::scope` of workers for
//! every batch.  That was fine when every batch cost ~100 ms of oblivious
//! execution, but once the result cache made warm batches µs-scale, the
//! per-batch thread spawn became the dominant cost of any batch containing
//! even one miss.  The pool here is *resident*: `workers` threads are
//! spawned once, by the first unit of work the pool is handed, pull work
//! from a shared injector queue for the rest of the engine's lifetime, and
//! shut down gracefully (drain, then join) when the engine is dropped.  An
//! engine that only ever validates plans or serves result-cache hits — a
//! coordinator's gather engine, most of the time — never starts a thread,
//! and constructing an [`Engine`](crate::Engine) costs no `thread::spawn`.
//!
//! Concurrent batches share the same workers: each submitted job carries
//! its own reply channel, so two callers inside `execute_batch` at the same
//! time interleave their jobs on the pool without observing each other's
//! results.  Per-query obliviousness is untouched — a job builds its own
//! [`Tracer`](obliv_trace::Tracer) exactly as the scoped workers did, so
//! which thread runs a query (and when) can never change its trace.
//!
//! On top of whole-query jobs the pool serves *scoped* fork-join work
//! ([`PoolShared::run_scoped`]): a job already running on a worker can
//! split one oblivious pass into partitions and fan them out to its sibling
//! workers, waiting on a latch until every partition has finished.  The
//! submitting thread runs one partition itself and *help-steals* queued
//! partitions while it waits, so intra-query parallelism composes with
//! inter-query parallelism on the same resident threads instead of
//! spawning a nested pool.  Partitions and whole-query jobs wait in two
//! separate queues: a stealing submitter only ever takes partitions, so a
//! query's fork-join barrier can absorb at most other queries' (bounded,
//! pass-sized) partitions — never a stranger's whole runtime.
//!
//! The pool is instrumented through [`PoolMetrics`]: queue depth (work
//! submitted but not yet picked up), jobs executed, cumulative worker busy
//! time and a queue-wait histogram.  Each unit of work is stamped at
//! submission and query jobs receive the measured queue wait, which the
//! executor folds into the query's phase breakdown.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};
use std::thread;
use std::time::{Duration, Instant};

use obliv_telemetry::{Counter, Gauge, Histogram};

/// Acquire `mutex`, recovering from poisoning.
///
/// Every mutex in this module guards state that a panicking holder cannot
/// leave logically torn: the queue mutex is held only across one push or
/// pop, and the scope latch wraps a counter updated in one step.  Poison
/// here would mean some
/// *other* job panicked — which the pool already contains via
/// `catch_unwind` — so aborting the whole process (the `unwrap` default)
/// would turn one contained query panic into a wedged engine.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Registry handles the pool reports into; all cheap cloneable atomics.
#[derive(Debug, Clone)]
pub(crate) struct PoolMetrics {
    /// Work submitted but not yet picked up by a worker (timing class:
    /// scheduling-dependent, and fault-injected batches re-submit work).
    pub queue_depth: Gauge,
    /// Work units a worker has started executing (timing class: an aborted
    /// batch still ran jobs, and its re-run runs them again).
    pub jobs: Counter,
    /// Cumulative nanoseconds workers spent running tasks (timing class).
    pub busy_ns: Counter,
    /// Queue-wait distribution in microseconds (timing class).
    pub queue_wait_us: Histogram,
}

/// What one job produced: its output, or the panic payload its task
/// unwound with (the submitter re-raises it via `resume_unwind`, so the
/// original panic message survives the thread hop).
pub(crate) type JobOutput<T> = std::thread::Result<T>;

/// A pool task: receives the job's measured queue wait (submission → a
/// worker picks it up) so per-query timing can attribute it.
pub(crate) type PoolTask<T> = Box<dyn FnOnce(Duration) -> T + Send + 'static>;

/// One partition of a scoped fork-join pass ([`PoolShared::run_scoped`]).
/// Already wrapped with its latch bookkeeping by the submitter, so workers
/// just call it.
pub(crate) type ScopedTask = Box<dyn FnOnce() + Send + 'static>;

/// A unit of pool work: run `task`, send its output to `reply` tagged with
/// `slot`.  The reply receiver may already be gone (a caller that panicked
/// between submit and collect); the send error is ignored because nobody is
/// left to care about the result.
pub(crate) struct Job<T: Send + 'static> {
    /// Caller-chosen tag returned with the output (the executor uses the
    /// distinct-plan slot index).
    pub slot: usize,
    /// The work itself, executed on a worker thread.
    pub task: PoolTask<T>,
    /// Where the tagged output goes.
    pub reply: mpsc::Sender<(usize, JobOutput<T>)>,
}

/// A queued unit of work plus its submission stamp (the thread that picks
/// it up derives the queue wait from it).
struct Queued<W> {
    submitted: Instant,
    work: W,
}

/// The two injector queues.  Whole-query jobs and scoped partitions are
/// kept apart so help-stealing submitters can take partitions only.
struct Queues<T: Send + 'static> {
    /// Whole-query jobs, each with its own reply channel.
    queries: VecDeque<Queued<Job<T>>>,
    /// Partitions of scoped fork-join passes; completion is reported
    /// through the latch captured inside the closure, not a channel.
    scoped: VecDeque<Queued<ScopedTask>>,
    /// Set once at shutdown: workers drain what is queued, then exit.
    shutdown: bool,
}

/// What a resident worker pulled from the queues.
enum Pulled<T: Send + 'static> {
    Query(Queued<Job<T>>),
    Scoped(Queued<ScopedTask>),
}

/// Completion latch for one [`PoolShared::run_scoped`] scope: remaining
/// task count plus the first panic payload any partition unwound with.
struct ScopeLatch {
    state: Mutex<(usize, Option<Box<dyn std::any::Any + Send>>)>,
    done: Condvar,
}

/// The state shared between the pool handle, its worker threads, and any
/// scoped-parallelism executors holding on to the pool.
///
/// Split out of [`WorkerPool`] (whose drop is the shutdown) so long-lived
/// `Arc` holders — the engine's intra-query
/// [`ParExecutor`](obliv_primitives::ParExecutor) — never keep the worker
/// threads themselves alive: shutdown is still "raise the flag, join".
pub(crate) struct PoolShared<T: Send + 'static> {
    /// Both injector queues behind one mutex, held only while pushing or
    /// pulling work — never while running it.
    queues: Mutex<Queues<T>>,
    /// Signalled on every push and at shutdown; idle workers park here.
    available: Condvar,
    /// Submission-side handles (queue depth is incremented on submit,
    /// decremented by the thread that picks the work up).
    metrics: Option<PoolMetrics>,
    /// Number of resident worker threads (0 = everything runs inline).
    workers: usize,
    /// Guards the one-time spawn of the workers by the first `enqueue`.
    spawn: Once,
    /// Handles of the spawned workers (empty until then), joined when the
    /// owning [`WorkerPool`] is dropped.
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl<T: Send + 'static> PoolShared<T> {
    /// Account for one unit of work leaving the queue; returns its queue
    /// wait.
    fn picked_up<W>(&self, queued: &Queued<W>) -> Duration {
        let wait = queued.submitted.elapsed();
        if let Some(m) = &self.metrics {
            m.queue_depth.dec();
            m.jobs.inc();
            m.queue_wait_us.observe_duration_us(wait);
        }
        wait
    }

    fn add_busy(&self, since: Instant) {
        if let Some(m) = &self.metrics {
            m.busy_ns.add(since.elapsed().as_nanos() as u64);
        }
    }

    /// Run one whole-query job, with metrics.  Worker threads only.
    fn run_query(&self, queued: Queued<Job<T>>) {
        let wait = self.picked_up(&queued);
        let busy = Instant::now();
        let Job { slot, task, reply } = queued.work;
        // A panicking task must not kill a resident worker (the pool would
        // silently shrink for the engine's lifetime).  Contain it and ship
        // the payload back: the submitter re-raises it with the original
        // message.
        let output = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || task(wait)));
        // Busy time is recorded *before* the reply ships: once the
        // submitter has drained every reply, the counters it snapshots
        // already include every job it waited for.
        self.add_busy(busy);
        let _ = reply.send((slot, output));
    }

    /// Run one scoped partition, with metrics.  Called from worker threads
    /// and from help-stealing scoped submitters alike; the task carries its
    /// own `catch_unwind` + latch wrapper.
    fn run_partition(&self, queued: Queued<ScopedTask>) {
        self.picked_up(&queued);
        let busy = Instant::now();
        (queued.work)();
        self.add_busy(busy);
    }

    /// Push one unit of work (stamped for queue-wait accounting), start the
    /// workers if this is the first, and wake a parked one.
    ///
    /// # Panics
    ///
    /// Panics if called during/after shutdown (the engine drops the pool
    /// only when the engine itself is dropped, so a live `&Engine` can
    /// always submit).
    fn enqueue<W>(
        self: &Arc<Self>,
        work: W,
        queue: impl FnOnce(&mut Queues<T>) -> &mut VecDeque<Queued<W>>,
    ) {
        let mut queues = lock_recover(&self.queues);
        assert!(!queues.shutdown, "worker pool is shut down");
        if let Some(m) = &self.metrics {
            m.queue_depth.inc();
        }
        queue(&mut queues).push_back(Queued {
            submitted: Instant::now(),
            work,
        });
        drop(queues);
        self.spawn.call_once(|| self.spawn_workers());
        self.available.notify_one();
    }

    /// Start the `workers` resident threads.  Runs once, under `spawn`.
    fn spawn_workers(self: &Arc<Self>) {
        let mut handles = lock_recover(&self.handles);
        for i in 0..self.workers {
            let shared = Arc::clone(self);
            let handle = thread::Builder::new()
                .name(format!("obliv-engine-worker-{i}"))
                .spawn(move || {
                    while let Some(pulled) = shared.pull() {
                        match pulled {
                            Pulled::Query(job) => shared.run_query(job),
                            Pulled::Scoped(partition) => shared.run_partition(partition),
                        }
                    }
                })
                .expect("spawning an engine worker thread failed");
            handles.push(handle);
        }
    }

    /// Block until work is available and take it — partitions first, since
    /// each one holds up a query that is already running — or return `None`
    /// once the pool is shut down and drained.
    fn pull(&self) -> Option<Pulled<T>> {
        let mut queues = lock_recover(&self.queues);
        loop {
            if let Some(partition) = queues.scoped.pop_front() {
                return Some(Pulled::Scoped(partition));
            }
            if let Some(job) = queues.queries.pop_front() {
                return Some(Pulled::Query(job));
            }
            if queues.shutdown {
                return None;
            }
            queues = self
                .available
                .wait(queues)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Execute `tasks` as one fork-join scope and wait for all of them.
    ///
    /// The calling thread runs one task itself; the rest go through the
    /// scoped queue so sibling workers pick them up.  While waiting, the
    /// caller *help-steals*: it pulls queued partitions — its own scope's or
    /// another's — and runs them inline, so a pool saturated with scopes
    /// cannot deadlock: every submitter is also a worker for exactly the
    /// work a barrier can be waiting on.  It never takes a whole-query job:
    /// that would run a stranger's entire query inside this query's
    /// barrier, and nobody's barrier waits on an unstarted query.
    ///
    /// Every task runs to completion even if one of them panics (a failed
    /// partition must not leave the pool's workers occupied or the latch
    /// unresolved); the first panic payload is re-raised on the calling
    /// thread after the barrier.  With zero resident workers all tasks run
    /// inline, preserving exact fork-join semantics for the serial engine.
    pub(crate) fn run_scoped(self: &Arc<Self>, tasks: Vec<ScopedTask>) {
        let total = tasks.len();
        if total == 0 {
            return;
        }
        let latch = Arc::new(ScopeLatch {
            state: Mutex::new((total, None)),
            done: Condvar::new(),
        });
        let wrap = |task: ScopedTask, latch: Arc<ScopeLatch>| -> ScopedTask {
            Box::new(move || {
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                let mut state = lock_recover(&latch.state);
                state.0 -= 1;
                if let Err(payload) = out {
                    if state.1.is_none() {
                        state.1 = Some(payload);
                    }
                }
                if state.0 == 0 {
                    latch.done.notify_all();
                }
            })
        };

        let mut tasks = tasks.into_iter();
        if self.workers == 0 {
            // Inline fork-join: same latch bookkeeping (and the same
            // run-everything-despite-a-panic guarantee) on one thread.
            for task in tasks {
                wrap(task, Arc::clone(&latch))();
            }
        } else {
            let run_here = tasks.next_back().expect("scope has at least one task");
            for task in tasks {
                self.enqueue(wrap(task, Arc::clone(&latch)), |q| &mut q.scoped);
            }
            wrap(run_here, Arc::clone(&latch))();
            loop {
                if lock_recover(&latch.state).0 == 0 {
                    break;
                }
                let stolen = lock_recover(&self.queues).scoped.pop_front();
                if let Some(partition) = stolen {
                    self.run_partition(partition);
                    continue;
                }
                let state = lock_recover(&latch.state);
                if state.0 == 0 {
                    break;
                }
                // Short timeout so partitions queued by other scopes
                // become stealable while this one's are still running.
                let _ = latch
                    .done
                    .wait_timeout(state, Duration::from_millis(1))
                    .map(|(guard, _)| drop(guard));
            }
        }

        let payload = lock_recover(&latch.state).1.take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

/// A fixed-size pool of long-lived worker threads fed by one pair of
/// shared queues: every worker pulls the next unit of work as soon as it
/// finishes the last, which gives work-stealing behaviour without
/// per-worker deques.
pub(crate) struct WorkerPool<T: Send + 'static> {
    shared: Arc<PoolShared<T>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// A pool of `workers` resident threads, none of them started yet: the
    /// first submitted job or scoped partition spawns them (zero is allowed
    /// and never spawns — useful for a serial engine that never submits).
    pub(crate) fn new(workers: usize, metrics: Option<PoolMetrics>) -> Self {
        let shared = Arc::new(PoolShared {
            queues: Mutex::new(Queues {
                queries: VecDeque::new(),
                scoped: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            metrics,
            workers,
            spawn: Once::new(),
            handles: Mutex::new(Vec::new()),
        });
        WorkerPool { shared }
    }

    /// Number of resident worker threads the pool runs once started.
    pub(crate) fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Number of worker threads actually running: 0 until the first unit
    /// of work arrives, [`workers`](WorkerPool::workers) from then on.
    #[cfg(test)]
    pub(crate) fn spawned(&self) -> usize {
        lock_recover(&self.shared.handles).len()
    }

    /// The pool state scoped-parallelism executors hold on to.
    pub(crate) fn shared(&self) -> &Arc<PoolShared<T>> {
        &self.shared
    }

    /// Submit a batch of jobs and a reply sender; outputs arrive on the
    /// corresponding receiver in completion order, tagged with each job's
    /// slot.  The caller typically drops its own clone of the reply sender
    /// and then `iter().take(n)`s the receiver.
    ///
    /// # Panics
    ///
    /// Panics if called during/after shutdown (the engine drops the pool
    /// only when the engine itself is dropped, so a live `&Engine` can
    /// always submit).
    pub(crate) fn submit(
        &self,
        jobs: impl IntoIterator<Item = (usize, PoolTask<T>)>,
        reply: &mpsc::Sender<(usize, JobOutput<T>)>,
    ) {
        for (slot, task) in jobs {
            self.shared.enqueue(
                Job {
                    slot,
                    task,
                    reply: reply.clone(),
                },
                |q| &mut q.queries,
            );
        }
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    /// Graceful shutdown: raise the shutdown flag (workers finish whatever
    /// is queued, then exit), then join every worker that was ever spawned
    /// so no thread outlives the engine.
    fn drop(&mut self) {
        lock_recover(&self.shared.queues).shutdown = true;
        self.shared.available.notify_all();
        let handles = std::mem::take(&mut *lock_recover(&self.shared.handles));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_telemetry::{MetricClass, MetricsRegistry};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_jobs_and_tags_slots() {
        let pool: WorkerPool<u64> = WorkerPool::new(3, None);
        assert_eq!(pool.workers(), 3);
        let (tx, rx) = mpsc::channel();
        pool.submit(
            (0..8usize).map(|i| {
                let task: PoolTask<u64> = Box::new(move |_wait| (i as u64) * 10);
                (i, task)
            }),
            &tx,
        );
        drop(tx);
        let mut out: Vec<(usize, u64)> = rx.iter().map(|(s, r)| (s, r.unwrap())).collect();
        out.sort_unstable();
        assert_eq!(
            out,
            (0..8usize)
                .map(|i| (i, (i as u64) * 10))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn pool_serves_many_batches_without_respawning() {
        let pool: WorkerPool<usize> = WorkerPool::new(2, None);
        assert_eq!(pool.spawned(), 0, "no work yet, no threads yet");
        for round in 0..50 {
            let (tx, rx) = mpsc::channel();
            pool.submit(
                (0..4usize).map(|i| {
                    let task: PoolTask<usize> = Box::new(move |_wait| i + round);
                    (i, task)
                }),
                &tx,
            );
            drop(tx);
            assert_eq!(rx.iter().count(), 4);
            assert_eq!(pool.spawned(), 2, "round {round}");
        }
    }

    #[test]
    fn first_scoped_partition_starts_the_workers() {
        let pool: WorkerPool<()> = WorkerPool::new(2, None);
        assert_eq!(pool.spawned(), 0);
        // A one-task scope runs on the submitting thread alone ...
        pool.shared().run_scoped(vec![Box::new(|| {})]);
        assert_eq!(pool.spawned(), 0);
        // ... a second task has to be queued for a sibling.
        pool.shared()
            .run_scoped(vec![Box::new(|| {}), Box::new(|| {})]);
        assert_eq!(pool.spawned(), 2);
    }

    #[test]
    fn zero_worker_pool_constructs_and_drops() {
        let pool: WorkerPool<()> = WorkerPool::new(0, None);
        assert_eq!(pool.workers(), 0);
        drop(pool);
    }

    #[test]
    fn pool_reports_jobs_depth_and_busy_time() {
        let registry = MetricsRegistry::new();
        let metrics = PoolMetrics {
            queue_depth: registry.gauge("engine_pool_queue_depth", MetricClass::Timing, &[]),
            jobs: registry.counter("engine_pool_jobs_total", MetricClass::Timing, &[]),
            busy_ns: registry.counter("engine_pool_busy_ns_total", MetricClass::Timing, &[]),
            queue_wait_us: registry.histogram(
                "engine_pool_queue_wait_us",
                MetricClass::Timing,
                &[],
            ),
        };
        let pool: WorkerPool<u8> = WorkerPool::new(2, Some(metrics));
        let (tx, rx) = mpsc::channel();
        pool.submit(
            (0..6usize).map(|i| {
                let task: PoolTask<u8> = Box::new(move |_wait| {
                    thread::sleep(Duration::from_millis(1));
                    i as u8
                });
                (i, task)
            }),
            &tx,
        );
        drop(tx);
        assert_eq!(rx.iter().count(), 6);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine_pool_jobs_total", &[]), 6);
        assert_eq!(snap.gauge("engine_pool_queue_depth", &[]), 0);
        assert!(snap.counter("engine_pool_busy_ns_total", &[]) >= 6_000_000);
    }

    #[test]
    fn tasks_receive_their_queue_wait() {
        let pool: WorkerPool<Duration> = WorkerPool::new(1, None);
        let (tx, rx) = mpsc::channel();
        pool.submit(
            (0..2usize).map(|i| {
                let task: PoolTask<Duration> = Box::new(move |wait| {
                    thread::sleep(Duration::from_millis(2));
                    wait
                });
                (i, task)
            }),
            &tx,
        );
        drop(tx);
        let waits: Vec<Duration> = rx.iter().map(|(_, r)| r.unwrap()).collect();
        // With one worker the second job waits at least as long as the
        // first job's sleep.
        assert!(waits.iter().any(|w| *w >= Duration::from_millis(2)));
    }

    #[test]
    fn panicking_job_does_not_kill_its_worker() {
        let pool: WorkerPool<u8> = WorkerPool::new(1, None);
        let (tx, rx) = mpsc::channel();
        pool.submit(
            [
                (
                    0usize,
                    Box::new(|_wait: Duration| -> u8 { panic!("job bug") }) as PoolTask<u8>,
                ),
                (1usize, Box::new(|_wait: Duration| 5u8) as PoolTask<u8>),
            ],
            &tx,
        );
        drop(tx);
        // The panicked job ships its payload back; the same worker still
        // runs the next job in the queue.
        let out: Vec<(usize, JobOutput<u8>)> = rx.iter().collect();
        assert_eq!(out.len(), 2);
        let payload = out[0].1.as_ref().unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job bug"));
        assert_eq!(out[1].0, 1);
        assert_eq!(*out[1].1.as_ref().unwrap(), 5);
        // And the pool serves later batches.
        let (tx2, rx2) = mpsc::channel();
        pool.submit(
            std::iter::once((2usize, Box::new(|_wait: Duration| 9u8) as PoolTask<u8>)),
            &tx2,
        );
        drop(tx2);
        let out: Vec<(usize, u8)> = rx2.iter().map(|(s, r)| (s, r.unwrap())).collect();
        assert_eq!(out, vec![(2, 9)]);
    }

    #[test]
    fn dropped_reply_receiver_does_not_kill_workers() {
        let pool: WorkerPool<u8> = WorkerPool::new(1, None);
        let (tx, rx) = mpsc::channel();
        drop(rx); // Caller gave up before the job ran.
        pool.submit(
            std::iter::once((0usize, Box::new(|_wait: Duration| 7u8) as PoolTask<u8>)),
            &tx,
        );
        drop(tx);
        // The worker must survive the failed send and serve the next batch.
        let (tx2, rx2) = mpsc::channel();
        pool.submit(
            std::iter::once((1usize, Box::new(|_wait: Duration| 9u8) as PoolTask<u8>)),
            &tx2,
        );
        drop(tx2);
        let out: Vec<(usize, u8)> = rx2.iter().map(|(s, r)| (s, r.unwrap())).collect();
        assert_eq!(out, vec![(1, 9)]);
    }

    #[test]
    fn run_scoped_executes_every_task_once() {
        let pool: WorkerPool<()> = WorkerPool::new(2, None);
        let hits = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<ScopedTask> = (0..16)
            .map(|_| {
                let hits = Arc::clone(&hits);
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as ScopedTask
            })
            .collect();
        pool.shared().run_scoped(tasks);
        assert_eq!(hits.load(Ordering::Relaxed), 16);
        // Scopes are reusable back to back.
        pool.shared().run_scoped(vec![]);
        let hits2 = Arc::clone(&hits);
        pool.shared().run_scoped(vec![Box::new(move || {
            hits2.fetch_add(10, Ordering::Relaxed);
        })]);
        assert_eq!(hits.load(Ordering::Relaxed), 26);
    }

    #[test]
    fn run_scoped_on_a_zero_worker_pool_runs_inline() {
        let pool: WorkerPool<()> = WorkerPool::new(0, None);
        let hits = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<ScopedTask> = (0..4)
            .map(|_| {
                let hits = Arc::clone(&hits);
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as ScopedTask
            })
            .collect();
        pool.shared().run_scoped(tasks);
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn run_scoped_panic_propagates_after_every_task_ran() {
        let pool: WorkerPool<()> = WorkerPool::new(2, None);
        let hits = Arc::new(AtomicUsize::new(0));
        let mut tasks: Vec<ScopedTask> = Vec::new();
        for i in 0..8 {
            let hits = Arc::clone(&hits);
            tasks.push(Box::new(move || {
                hits.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    panic!("partition bug");
                }
            }));
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.shared().run_scoped(tasks)
        }));
        let payload = result.expect_err("the partition panic reaches the scope owner");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"partition bug"));
        // The barrier still waited for everything: all 8 tasks ran.
        assert_eq!(hits.load(Ordering::Relaxed), 8);
        // The pool is at full capacity afterwards: plain jobs still run.
        let (tx, rx) = mpsc::channel();
        pool.submit(
            (0..4usize).map(|i| (i, Box::new(move |_wait: Duration| ()) as PoolTask<()>)),
            &tx,
        );
        drop(tx);
        assert_eq!(rx.iter().count(), 4);
        // And so do later scopes.
        let hits2 = Arc::clone(&hits);
        pool.shared().run_scoped(vec![Box::new(move || {
            hits2.fetch_add(1, Ordering::Relaxed);
        })]);
        assert_eq!(hits.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn scoped_submitters_help_steal_when_workers_are_busy() {
        // One worker, held inside a whole-query job until the test releases
        // it, with a second whole-query job (the "stranger") queued behind
        // it: the scope's queued partitions can only finish because the
        // submitting thread steals them — and it must steal *only* them.
        let pool: WorkerPool<&'static str> = WorkerPool::new(1, None);
        let (tx, rx) = mpsc::channel();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let stranger_thread = Arc::new(Mutex::new(None::<String>));
        let ran_on = Arc::clone(&stranger_thread);
        pool.submit(
            [
                (
                    0usize,
                    Box::new(move |_wait: Duration| {
                        started_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        "blocker"
                    }) as PoolTask<&'static str>,
                ),
                (
                    1usize,
                    Box::new(move |_wait: Duration| {
                        *ran_on.lock().unwrap() = thread::current().name().map(String::from);
                        "stranger"
                    }) as PoolTask<&'static str>,
                ),
            ],
            &tx,
        );
        drop(tx);
        // The only worker is now inside the blocker, so nothing but this
        // thread can run the scope's partitions.
        started_rx.recv().unwrap();

        let hits = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<ScopedTask> = (0..8)
            .map(|_| {
                let hits = Arc::clone(&hits);
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as ScopedTask
            })
            .collect();
        pool.shared().run_scoped(tasks);
        assert_eq!(hits.load(Ordering::Relaxed), 8);
        // The barrier closed without running (or waiting for) either
        // whole-query job: the stranger is still queued, no reply exists.
        assert_eq!(*stranger_thread.lock().unwrap(), None);
        assert!(rx.try_recv().is_err());

        release_tx.send(()).unwrap();
        let mut replies: Vec<(usize, &str)> = rx.iter().map(|(s, r)| (s, r.unwrap())).collect();
        replies.sort_unstable();
        assert_eq!(replies, vec![(0, "blocker"), (1, "stranger")]);
        // ... and the stranger ran where whole queries belong.
        assert_eq!(
            stranger_thread.lock().unwrap().as_deref(),
            Some("obliv-engine-worker-0")
        );
    }

    #[test]
    fn concurrent_scopes_share_the_pool() {
        let pool: Arc<WorkerPool<()>> = Arc::new(WorkerPool::new(2, None));
        let hits = Arc::new(AtomicUsize::new(0));
        thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let hits = Arc::clone(&hits);
                scope.spawn(move || {
                    for _ in 0..10 {
                        let tasks: Vec<ScopedTask> = (0..4)
                            .map(|_| {
                                let hits = Arc::clone(&hits);
                                Box::new(move || {
                                    hits.fetch_add(1, Ordering::Relaxed);
                                }) as ScopedTask
                            })
                            .collect();
                        pool.shared().run_scoped(tasks);
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4 * 10 * 4);
    }
}
