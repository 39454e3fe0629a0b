//! Intra-query parallel execution context.
//!
//! A sorting network's trace is a function of its length alone, and the two
//! halves of every bitonic sort — and of every merge after its top run —
//! touch disjoint cells.  The recursion is therefore its own parallel
//! schedule: the sort driver ([`crate::sort::bitonic`]) forks the two
//! halves onto two threads over borrowed, disjoint slices and records the
//! trace afterwards by the same walk of the network as a serial sort, so a
//! forked sort's trace is the serial one by construction.
//!
//! This module provides what the driver consults:
//!
//! * [`ParExecutor`] — how to run two borrowed branches to completion.  The
//!   default [`join`](ParExecutor::join) runs one of them on a scoped
//!   thread ([`ScopedThreads`]); the engine's implementation adds a fault
//!   point in front of each branch.
//! * [`ParCtx`] — executor + thread budget + shared [`ParStats`], installed
//!   for the duration of a query via [`with_parallelism`] and consulted by
//!   the sort driver via [`context`].  The context is thread-local:
//!   installing it on the query's worker thread parallelises exactly that
//!   query's sorts, never a neighbour's.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// One branch of a fork-join: borrowed work that may run on another thread.
pub type Branch<'a> = dyn FnMut() + Send + 'a;

/// Strategy for running the two branches of one fork-join.
///
/// `join` must not return before both branches have finished.  If a branch
/// panics, the panic must propagate to the caller of `join` with its
/// original payload, after the other branch has finished too.
pub trait ParExecutor: Send + Sync {
    /// Run `a` and `b`, possibly concurrently, and wait for both.
    ///
    /// The default runs `a` on a scoped thread and `b` on the calling
    /// thread, then joins the thread explicitly and re-raises its panic
    /// payload: `thread::scope`'s implicit join would replace the payload
    /// with a generic message.
    fn join(&self, a: &mut Branch<'_>, b: &mut Branch<'_>) {
        thread::scope(|scope| {
            let spawned = scope.spawn(a);
            b();
            if let Err(payload) = spawned.join() {
                std::panic::resume_unwind(payload);
            }
        });
    }
}

/// The default executor: each fork runs one branch on a fresh scoped
/// thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScopedThreads;

impl ParExecutor for ScopedThreads {}

/// Cumulative parallelism counters for one query, shared between the
/// installing engine and the sort driver.
#[derive(Debug, Default)]
pub struct ParStats {
    forks: AtomicU64,
    join_wait_ns: AtomicU64,
}

impl ParStats {
    /// Fresh zeroed stats.
    pub fn new() -> Self {
        ParStats::default()
    }

    /// Fork-joins made so far.
    pub fn forks(&self) -> u64 {
        self.forks.load(Ordering::Relaxed)
    }

    /// Nanoseconds the forking threads spent waiting for the other branch
    /// after finishing their own.
    pub fn join_wait_ns(&self) -> u64 {
        self.join_wait_ns.load(Ordering::Relaxed)
    }
}

/// The installed parallelism policy: executor, thread budget and stats
/// sink.
#[derive(Clone)]
pub struct ParCtx {
    exec: Arc<dyn ParExecutor>,
    threads: usize,
    stats: Arc<ParStats>,
}

impl ParCtx {
    /// A context forking on `exec`, with at most `threads` threads working
    /// on one sort at a time.
    pub fn new(exec: Arc<dyn ParExecutor>, threads: usize) -> Self {
        ParCtx {
            exec,
            threads,
            stats: Arc::new(ParStats::new()),
        }
    }

    /// Maximum threads working on one sort at a time.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many times a recursion may fork before every thread of the
    /// budget is busy: ⌈log₂ threads⌉.
    pub fn fork_depth(&self) -> u32 {
        self.threads.max(1).next_power_of_two().trailing_zeros()
    }

    /// The shared stats sink (the engine reads it back after the query to
    /// emit per-query Timing metrics).
    pub fn stats(&self) -> Arc<ParStats> {
        Arc::clone(&self.stats)
    }

    /// Run `a` and `b` on the executor and wait for both, counting the fork
    /// and the time this thread waited for `a` after finishing `b`.
    pub fn join(&self, a: &mut Branch<'_>, b: &mut Branch<'_>) {
        self.stats.forks.fetch_add(1, Ordering::Relaxed);
        let mut b_done = None;
        self.exec.join(a, &mut || {
            b();
            b_done = Some(Instant::now());
        });
        if let Some(done) = b_done {
            self.stats
                .join_wait_ns
                .fetch_add(done.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for ParCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParCtx")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

thread_local! {
    static CTX: RefCell<Option<ParCtx>> = const { RefCell::new(None) };
}

/// Run `f` with `ctx` installed as this thread's parallelism context; the
/// previous context (if any) is restored afterwards, even on panic.
pub fn with_parallelism<R>(ctx: ParCtx, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<ParCtx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CTX.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = CTX.with(|c| c.borrow_mut().replace(ctx));
    let _restore = Restore(prev);
    f()
}

/// The currently installed context, if any.  The sort driver takes its
/// serial path when it finds `None` or a budget of one thread.
pub fn context() -> Option<ParCtx> {
    CTX.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(threads: usize) -> ParCtx {
        ParCtx::new(Arc::new(ScopedThreads), threads)
    }

    #[test]
    fn join_runs_both_branches_and_accounts_the_fork() {
        let c = ctx(2);
        let stats = c.stats();
        let (mut left, mut right) = (0u64, 0u64);
        c.join(&mut || left = 1, &mut || right = 2);
        assert_eq!((left, right), (1, 2));
        assert_eq!(stats.forks(), 1);
        let before = stats.join_wait_ns();
        c.join(
            &mut || thread::sleep(std::time::Duration::from_millis(5)),
            &mut || {},
        );
        assert_eq!(stats.forks(), 2);
        assert!(
            stats.join_wait_ns() >= before + 1_000_000,
            "waited on the sleeper"
        );
    }

    #[test]
    fn a_panicking_branch_keeps_its_payload() {
        for spawned in [true, false] {
            let result = std::panic::catch_unwind(|| {
                let mut boom = || std::panic::panic_any("branch bug");
                let mut fine = || {};
                if spawned {
                    ctx(2).join(&mut boom, &mut fine);
                } else {
                    ctx(2).join(&mut fine, &mut boom);
                }
            });
            let payload = result.expect_err("the branch panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"branch bug"));
        }
    }

    #[test]
    fn fork_depth_is_the_ceiling_of_log2_threads() {
        let depths: Vec<u32> = [0, 1, 2, 3, 4, 5, 8, 9].map(|t| ctx(t).fork_depth()).into();
        assert_eq!(depths, vec![0, 0, 1, 2, 2, 3, 3, 4]);
    }

    #[test]
    fn with_parallelism_restores_previous_context() {
        assert!(context().is_none());
        with_parallelism(ctx(2), || {
            assert_eq!(context().expect("outer installed").threads(), 2);
            with_parallelism(ctx(8), || {
                assert_eq!(context().expect("inner installed").threads(), 8);
            });
            assert_eq!(context().expect("outer restored").threads(), 2);
        });
        assert!(context().is_none());
    }

    #[test]
    fn context_is_restored_after_a_panic() {
        let result = std::panic::catch_unwind(|| {
            with_parallelism(ctx(2), || panic!("boom"));
        });
        assert!(result.is_err());
        assert!(context().is_none(), "panic must not leak the context");
    }
}
