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
//! engine that only ever serves result-cache hits or one-plan batches — a
//! network server's engine (each wire query is its own one-request batch,
//! run inline on the connection's handler), a coordinator's gather engine
//! most of the time — never starts a thread,
//! and constructing an [`Engine`](crate::Engine) costs no `thread::spawn`.
//!
//! Concurrent batches share the same workers: each submitted job carries
//! its own reply channel, so two callers inside `execute_batch` at the same
//! time interleave their jobs on the pool without observing each other's
//! results.  Per-query obliviousness is untouched — a job builds its own
//! [`Tracer`](obliv_trace::Tracer) exactly as the scoped workers did, so
//! which thread runs a query (and when) can never change its trace.
//!
//! The pool runs whole queries only.  A query whose sorts fork
//! (`EngineConfig::intra_query_threads`) runs the extra branches on scoped
//! threads that live for one fork of one sort, not on the pool.
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
/// pop.  Poison here would mean some
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

/// A queued job plus its submission stamp (the thread that picks it up
/// derives the queue wait from it).
struct Queued<T: Send + 'static> {
    submitted: Instant,
    job: Job<T>,
}

/// The injector queue.
struct Queue<T: Send + 'static> {
    /// Whole-query jobs, each with its own reply channel.
    jobs: VecDeque<Queued<T>>,
    /// Set once at shutdown: workers drain what is queued, then exit.
    shutdown: bool,
}

/// The state shared between the pool handle and its worker threads.
///
/// Split out of [`WorkerPool`] (whose drop is the shutdown) so the workers'
/// own `Arc`s never keep the pool alive: shutdown is "raise the flag,
/// join".
struct PoolShared<T: Send + 'static> {
    /// The injector queue, held only while pushing or pulling work — never
    /// while running it.
    queue: Mutex<Queue<T>>,
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
    /// Run one job, with metrics.  Worker threads only.
    fn run(&self, queued: Queued<T>) {
        let wait = queued.submitted.elapsed();
        if let Some(m) = &self.metrics {
            m.queue_depth.dec();
            m.jobs.inc();
            m.queue_wait_us.observe_duration_us(wait);
        }
        let busy = Instant::now();
        let Job { slot, task, reply } = queued.job;
        // A panicking task must not kill a resident worker (the pool would
        // silently shrink for the engine's lifetime).  Contain it and ship
        // the payload back: the submitter re-raises it with the original
        // message.
        let output = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || task(wait)));
        // Busy time is recorded *before* the reply ships: once the
        // submitter has drained every reply, the counters it snapshots
        // already include every job it waited for.
        if let Some(m) = &self.metrics {
            m.busy_ns.add(busy.elapsed().as_nanos() as u64);
        }
        let _ = reply.send((slot, output));
    }

    /// Push one job (stamped for queue-wait accounting), start the workers
    /// if this is the first, and wake a parked one.
    ///
    /// # Panics
    ///
    /// Panics if called during/after shutdown (the engine drops the pool
    /// only when the engine itself is dropped, so a live `&Engine` can
    /// always submit).
    fn enqueue(self: &Arc<Self>, job: Job<T>) {
        let mut queue = lock_recover(&self.queue);
        assert!(!queue.shutdown, "worker pool is shut down");
        if let Some(m) = &self.metrics {
            m.queue_depth.inc();
        }
        queue.jobs.push_back(Queued {
            submitted: Instant::now(),
            job,
        });
        drop(queue);
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
                    while let Some(job) = shared.pull() {
                        shared.run(job);
                    }
                })
                .expect("spawning an engine worker thread failed");
            handles.push(handle);
        }
    }

    /// Block until a job is available and take it, or return `None` once
    /// the pool is shut down and drained.
    fn pull(&self) -> Option<Queued<T>> {
        let mut queue = lock_recover(&self.queue);
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                return Some(job);
            }
            if queue.shutdown {
                return None;
            }
            queue = self
                .available
                .wait(queue)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// A fixed-size pool of long-lived worker threads fed by one shared queue: every worker pulls the next unit of work as soon as it
/// finishes the last, which gives work-stealing behaviour without
/// per-worker deques.
pub(crate) struct WorkerPool<T: Send + 'static> {
    shared: Arc<PoolShared<T>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// A pool of `workers` resident threads, none of them started yet: the
    /// first submitted job spawns them (zero is allowed and never spawns —
    /// useful for a serial engine that never submits).
    pub(crate) fn new(workers: usize, metrics: Option<PoolMetrics>) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
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
            self.shared.enqueue(Job {
                slot,
                task,
                reply: reply.clone(),
            });
        }
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    /// Graceful shutdown: raise the shutdown flag (workers finish whatever
    /// is queued, then exit), then join every worker that was ever spawned
    /// so no thread outlives the engine.
    fn drop(&mut self) {
        lock_recover(&self.shared.queue).shutdown = true;
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
}
