//! The digest memo: trace digests computed once per public shape instead
//! of once per query.
//!
//! A query's trace digest is, by the obliviousness contract, a pure
//! function of its *public shape*: the plan, the input schemas, and every
//! size the execution reveals.  Hashing the trace again for a shape that
//! has been hashed before can only reproduce the same 32 bytes — at ~15×
//! the cost of the oblivious work itself.  So every execution runs under
//! [`NullSink`] first (the operators are generic over the sink, so this is
//! the same code monomorphised to zero tracing cost), and its shape key is
//! built from the plan description plus the Content fields of the span
//! tree the run just recorded (operator names and details, every revealed
//! input and output size, row widths, op counters —
//! [`SpanNode::render_text`] without timing).  Then:
//!
//! * a known shape is a **hit**: `(trace_digest, trace_events)` are served
//!   from a bounded map and nothing is hashed;
//! * an unknown shape (a new plan, a filter constant that changed a
//!   survivor count, a different join `m`) is a **miss**: the work is
//!   re-run under [`HashingSink`] from the same inputs and the memo filled;
//! * a hit that finds its entry [`REAUDIT_PERIOD`] hits past its last real
//!   trace is **re-audited**: traced anyway and compared.  A difference
//!   means two executions of one public shape produced different access
//!   traces — a genuine leak — so it bumps the `…_digest_mismatch_total`
//!   counter and replaces the entry.  The digest stops being a per-query
//!   tax and becomes a running obliviousness alarm.
//!
//! **Over-keying is safe, under-keying is caught.**  A key that includes
//! more than the trace depends on (say, op counters that are themselves
//! determined by the sizes) only splits one shape into several entries,
//! each still correct.  A key that *missed* a revealed value would serve
//! one shape's digest for another; the periodic re-audit compares a served
//! digest against a real trace and reports exactly that.
//!
//! The memo is split into a read-only decision ([`DigestMemo::trace`],
//! safe to call on any batch thread) and a deferred [`MemoUpdate`] applied
//! by [`DigestMemo::commit`] when the batch is finalised, so an aborted
//! batch leaves neither entries nor counts behind — the same rule the
//! engine's other Content metrics follow.
//!
//! **Concurrency.**  The hit count and the next-audit mark are kept per
//! entry, so as long as executions of one shape do not overlap, which of
//! them is re-audited (every `REAUDIT_PERIOD`-th) is a function of the
//! sequence of public shapes alone.  Executions of one shape that *are* in
//! flight together all decide against the same committed state: several
//! may miss where a serial stream would miss once, and several may
//! re-audit where it would re-audit once.  Due-ness is monotone — an entry
//! stays due until a re-audit commits and moves its mark — so overlap can
//! duplicate an audit or delay it by the few hits already in flight, but
//! never skip one.  The four counters are Content-classed on the same
//! terms as the result cache's miss counter: exact for non-overlapping
//! streams, which is what the Content comparisons run.

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use obliv_telemetry::{Counter, MetricClass, MetricsRegistry, SpanNode};
use obliv_trace::sha256::Sha256;
use obliv_trace::{HashingSink, NullSink, TraceSink, Tracer};

/// How many shape entries the memo retains; the oldest is evicted first.
pub const CAPACITY: usize = 2048;

/// An entry is re-traced and compared once it has served this many hits
/// since it was last really traced.
pub const REAUDIT_PERIOD: u64 = 512;

/// One traceable computation: the same code for every sink, so the memo
/// can run it untraced and, when it must, traced.
pub trait TracedWork {
    /// What the computation produces (result rows, a merged table).
    type Output;

    /// Run against `tracer`, returning the output and the finished root of
    /// the span tree recorded on the way.  Must be repeatable: a miss or a
    /// re-audit calls it a second time from the same inputs.
    fn run<S: TraceSink>(&self, tracer: &Tracer<S>) -> (Self::Output, SpanNode);
}

/// What [`DigestMemo::trace`] hands back.
#[derive(Debug)]
pub struct Traced<O> {
    /// The computation's output.
    pub output: O,
    /// Its span tree; a miss's or re-audit's second run shows as a
    /// synthetic `trace_audit` last child of the root.
    pub trace: SpanNode,
    /// Hex trace digest — hashed by this call or served from the memo.
    pub digest: String,
    /// Trace event count belonging to `digest`.
    pub events: u64,
    /// The memo bookkeeping this execution owes; pass it to
    /// [`DigestMemo::commit`] once the execution is finalised.
    pub update: MemoUpdate,
}

type Key = [u8; 32];

/// Deferred memo bookkeeping for one execution (see
/// [`DigestMemo::commit`]).
#[derive(Debug, Clone, Copy)]
pub struct MemoUpdate(Update);

#[derive(Debug, Clone, Copy)]
enum Update {
    /// Served from the entry under this shape key.
    Hit(Key),
    /// Traced because the shape was unknown: record the entry.
    Fill { shape: Key, fresh: Fresh },
    /// A due hit, re-traced: compare with the entry, replace on mismatch.
    Reaudit { shape: Key, fresh: Fresh },
}

/// A digest computed by this execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fresh {
    digest: [u8; 32],
    events: u64,
}

struct Entry {
    value: Fresh,
    /// Hits served from this entry so far.
    hits: u64,
    /// The hit that finds `hits + 1` at or past this mark is re-audited;
    /// only a committed re-audit moves it, so a due audit cannot be
    /// skipped by concurrent hits stepping over it.
    next_audit_at: u64,
}

/// The shape map, bounded at [`CAPACITY`] entries, evicting in insertion
/// order.
struct Shapes {
    map: HashMap<Key, Entry>,
    /// Keys in insertion order; exactly the keys of `map`.
    order: VecDeque<Key>,
}

impl Shapes {
    fn insert(&mut self, key: Key, entry: Entry) {
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = entry;
            return;
        }
        if self.map.len() >= CAPACITY {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, entry);
        self.order.push_back(key);
    }
}

/// A bounded, shape-keyed memo of trace digests, shared by every execution
/// of one engine (or one coordinator's merges).  See the [module
/// docs](self).
pub struct DigestMemo {
    shapes: Mutex<Shapes>,
    hits: Counter,
    misses: Counter,
    reaudits: Counter,
    mismatches: Counter,
}

impl DigestMemo {
    /// An empty memo reporting into `registry` as
    /// `{prefix}_digest_memo_hits_total`, `{prefix}_digest_memo_misses_total`,
    /// `{prefix}_digest_reaudits_total` and `{prefix}_digest_mismatch_total`.
    /// All four are Content-classed: for executions that do not overlap
    /// they are functions of the sequence of public shapes committed,
    /// nothing else (see the module docs for what overlap can shift).
    pub fn new(registry: &MetricsRegistry, prefix: &str) -> Self {
        let counter =
            |name: &str| registry.counter(&format!("{prefix}_{name}"), MetricClass::Content, &[]);
        DigestMemo {
            shapes: Mutex::new(Shapes {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            hits: counter("digest_memo_hits_total"),
            misses: counter("digest_memo_misses_total"),
            reaudits: counter("digest_reaudits_total"),
            mismatches: counter("digest_mismatch_total"),
        }
    }

    /// Every update below is a single-step insert or field write, so the
    /// map is valid even if a holder panicked.
    fn lock(&self) -> MutexGuard<'_, Shapes> {
        self.shapes
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Shape entries currently retained (at most [`CAPACITY`]).
    pub fn entries(&self) -> usize {
        self.lock().map.len()
    }

    /// Execute `work` and produce its trace digest as the [module
    /// docs](self) describe.  `plan` is the public description of what
    /// `work` computes (canonical plan text plus whatever else public the
    /// resolution consumed); the revealed sizes come from the span tree.
    ///
    /// Reads the memo but never changes it: the returned
    /// [`Traced::update`] does that, through [`commit`](DigestMemo::commit).
    pub fn trace<W: TracedWork>(&self, plan: &str, work: &W) -> Traced<W::Output> {
        let (output, mut trace) = work.run(&Tracer::new(NullSink));
        let shape = shape_key(plan, &trace);
        let known = self
            .lock()
            .map
            .get(&shape)
            .map(|entry| (entry.value, entry.hits + 1 >= entry.next_audit_at));
        if let Some((value, false)) = known {
            return value.traced(output, trace, Update::Hit(shape));
        }
        // Unknown shape, or a hit that is due its re-audit: trace for real,
        // from the same inputs, and show the cost apart from the kernel's.
        let started = Instant::now();
        let (_, _, fresh) = hashed(work);
        trace.append_synthetic("trace_audit", started.elapsed().as_nanos() as u64);
        let update = match known {
            Some(_) => Update::Reaudit { shape, fresh },
            None => Update::Fill { shape, fresh },
        };
        fresh.traced(output, trace, update)
    }

    /// Apply the bookkeeping of one finalised execution: count it, fill or
    /// refresh its entry, and — for a re-audit — compare the fresh digest
    /// with the memoised one, raising the mismatch alarm if they differ.
    pub fn commit(&self, update: &MemoUpdate) {
        let mut shapes = self.lock();
        match update.0 {
            Update::Hit(shape) => {
                self.hits.inc();
                if let Some(entry) = shapes.map.get_mut(&shape) {
                    entry.hits += 1;
                }
            }
            Update::Fill { shape, fresh } => {
                self.misses.inc();
                shapes.insert(
                    shape,
                    Entry {
                        value: fresh,
                        hits: 0,
                        next_audit_at: REAUDIT_PERIOD,
                    },
                );
            }
            Update::Reaudit { shape, fresh } => {
                self.hits.inc();
                self.reaudits.inc();
                if let Some(entry) = shapes.map.get_mut(&shape) {
                    entry.hits += 1;
                    entry.next_audit_at = entry.hits + REAUDIT_PERIOD;
                    if entry.value != fresh {
                        self.mismatches.inc();
                        entry.value = fresh;
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for DigestMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DigestMemo")
            .field("entries", &self.entries())
            .finish()
    }
}

impl Fresh {
    fn traced<O>(self, output: O, trace: SpanNode, update: Update) -> Traced<O> {
        Traced {
            output,
            trace,
            digest: Sha256::hex(&self.digest),
            events: self.events,
            update: MemoUpdate(update),
        }
    }
}

/// Run `work` under a fresh [`HashingSink`] tracer.
fn hashed<W: TracedWork>(work: &W) -> (W::Output, SpanNode, Fresh) {
    let tracer = Tracer::new(HashingSink::new());
    let (output, trace) = work.run(&tracer);
    let fresh = tracer.with_sink(|sink| Fresh {
        digest: sink.digest(),
        events: sink.events(),
    });
    (output, trace, fresh)
}

/// The shape key: the plan description plus every Content field of the
/// span tree (its timing-free rendering is a pure function of them).
fn shape_key(plan: &str, trace: &SpanNode) -> Key {
    let mut hasher = Sha256::new();
    hasher.update(&(plan.len() as u64).to_le_bytes());
    hasher.update(plan.as_bytes());
    hasher.update(trace.render_text(false).as_bytes());
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_telemetry::SpanRecorder;

    /// Reads a public array at positions chosen by `probe`; the revealed
    /// shape is just the two lengths.
    struct Reads {
        cells: usize,
        probe: Vec<u64>,
        /// `false`: position `i` (oblivious).  `true`: position
        /// `probe[i] % cells` — a deliberately data-dependent access.
        leaky: bool,
    }

    impl TracedWork for Reads {
        type Output = u64;

        fn run<S: TraceSink>(&self, tracer: &Tracer<S>) -> (u64, SpanNode) {
            let recorder = SpanRecorder::new("reads", tracer.counters());
            let buffer = tracer.alloc_from((0..self.cells as u64).collect::<Vec<u64>>());
            let mut sum = 0u64;
            for (i, value) in self.probe.iter().enumerate() {
                let at = if self.leaky { *value as usize } else { i } % self.cells;
                sum = sum.wrapping_add(buffer.read(at) ^ value);
            }
            tracer.bump_linear_steps(self.probe.len() as u64);
            let trace = recorder.finish(
                vec![self.cells as u64],
                self.probe.len() as u64,
                8,
                tracer.counters(),
            );
            (sum, trace)
        }
    }

    fn reads(probe: &[u64], leaky: bool) -> Reads {
        Reads {
            cells: 16,
            probe: probe.to_vec(),
            leaky,
        }
    }

    fn counts(registry: &MetricsRegistry) -> [u64; 4] {
        let snap = registry.snapshot();
        [
            snap.counter("engine_digest_memo_hits_total", &[]),
            snap.counter("engine_digest_memo_misses_total", &[]),
            snap.counter("engine_digest_reaudits_total", &[]),
            snap.counter("engine_digest_mismatch_total", &[]),
        ]
    }

    /// `trace` + `commit`, as a finalising caller does.
    fn run<W: TracedWork>(memo: &DigestMemo, plan: &str, work: &W) -> Traced<W::Output> {
        let traced = memo.trace(plan, work);
        memo.commit(&traced.update);
        traced
    }

    /// The reference: what tracing `work` directly yields.
    fn direct<W: TracedWork>(work: &W) -> (String, u64) {
        let (_, _, fresh) = hashed(work);
        (Sha256::hex(&fresh.digest), fresh.events)
    }

    fn audited<O>(traced: &Traced<O>) -> bool {
        traced
            .trace
            .children
            .last()
            .is_some_and(|span| span.name == "trace_audit")
    }

    const A: [u64; 6] = [3, 1, 4, 1, 5, 9];
    const B: [u64; 6] = [2, 7, 1, 8, 2, 8];

    #[test]
    fn same_shape_is_served_and_a_new_size_is_retraced() {
        let registry = MetricsRegistry::new();
        let memo = DigestMemo::new(&registry, "engine");
        let reference = direct(&reads(&A, false));

        let first = run(&memo, "reads", &reads(&A, false));
        assert_eq!(counts(&registry), [0, 1, 0, 0], "unseen shape: one miss");
        assert_eq!((first.digest.clone(), first.events), reference);
        assert!(audited(&first), "the miss's real trace is visible");
        assert!(first.trace.timing_is_consistent());

        // Different contents, same public shape: a hit, equal digest.
        let second = run(&memo, "reads", &reads(&B, false));
        assert_eq!(counts(&registry), [1, 1, 0, 0]);
        assert_eq!(second.digest, first.digest);
        assert_eq!(second.events, first.events);
        assert_ne!(second.output, first.output, "the work really ran on B");
        assert_eq!(second.trace.children.len(), 0, "nothing was hashed");

        // One revealed size changes: a miss, re-traced, different digest.
        let longer = run(&memo, "reads", &reads(&[1, 2, 3, 4, 5, 6, 7], false));
        assert_eq!(counts(&registry), [1, 2, 0, 0]);
        assert_ne!(longer.digest, first.digest);
        assert!(audited(&longer));
        // So does the plan description alone.
        let renamed = run(&memo, "other reads", &reads(&A, false));
        assert_eq!(counts(&registry), [1, 3, 0, 0]);
        assert_eq!(renamed.digest, first.digest, "same trace, separate entry");
        assert_eq!(memo.entries(), 3);
    }

    #[test]
    fn uncommitted_executions_leave_no_trace_in_the_memo() {
        let registry = MetricsRegistry::new();
        let memo = DigestMemo::new(&registry, "engine");
        // An aborted batch: traced, never committed.
        let _ = memo.trace("reads", &reads(&A, false));
        assert_eq!(memo.entries(), 0);
        assert_eq!(counts(&registry), [0, 0, 0, 0]);
        // Its re-run behaves exactly like a first run.
        run(&memo, "reads", &reads(&A, false));
        assert_eq!(counts(&registry), [0, 1, 0, 0]);
    }

    #[test]
    fn a_data_dependent_operator_trips_the_mismatch_alarm_at_the_reaudit() {
        // Traced directly, two same-shape datasets visibly disagree.
        let on_a = direct(&reads(&A, true));
        let on_b = direct(&reads(&B, true));
        assert_ne!(on_a.0, on_b.0);
        let shape = |probe| reads(probe, true).run(&Tracer::new(NullSink)).1;
        assert_eq!(shape(&A).without_timing(), shape(&B).without_timing());

        // Through the memo, A fills the entry and B is served A's digest —
        // until the entry's 512th hit is re-traced and the two compared.
        let registry = MetricsRegistry::new();
        let memo = DigestMemo::new(&registry, "engine");
        assert_eq!(run(&memo, "leaky", &reads(&A, true)).digest, on_a.0);
        for hit in 1..REAUDIT_PERIOD {
            let served = run(&memo, "leaky", &reads(&B, true));
            assert_eq!(served.digest, on_a.0, "hit {hit}");
        }
        assert_eq!(counts(&registry), [REAUDIT_PERIOD - 1, 1, 0, 0]);
        let caught = run(&memo, "leaky", &reads(&B, true));
        assert_eq!(counts(&registry), [REAUDIT_PERIOD, 1, 1, 1]);
        assert_eq!(caught.digest, on_b.0, "the real trace is served");
        assert!(audited(&caught));
        // The entry was replaced: B is now what the memo believes.
        assert_eq!(run(&memo, "leaky", &reads(&B, true)).digest, on_b.0);
        assert_eq!(counts(&registry), [REAUDIT_PERIOD + 1, 1, 1, 1]);
    }

    #[test]
    fn an_oblivious_operator_passes_its_reaudits() {
        let registry = MetricsRegistry::new();
        let memo = DigestMemo::new(&registry, "engine");
        for i in 0..=2 * REAUDIT_PERIOD {
            run(&memo, "reads", &reads(&[i, i + 1, i + 2], false));
        }
        assert_eq!(counts(&registry), [2 * REAUDIT_PERIOD, 1, 2, 0]);
    }

    /// Serve `n` serial hits of the `reads` shape.
    fn serve(memo: &DigestMemo, n: u64) {
        for _ in 0..n {
            assert!(!audited(&run(memo, "reads", &reads(&B, false))));
        }
    }

    #[test]
    fn overlapping_hits_cannot_step_over_a_due_reaudit() {
        let registry = MetricsRegistry::new();
        let memo = DigestMemo::new(&registry, "engine");
        run(&memo, "reads", &reads(&A, false));
        serve(&memo, REAUDIT_PERIOD - 2);
        // Two executions in flight together both see 510 committed hits:
        // neither is due, and their commits carry the count past 511.
        let (x, y) = (
            memo.trace("reads", &reads(&A, false)),
            memo.trace("reads", &reads(&B, false)),
        );
        assert!(!audited(&x) && !audited(&y));
        memo.commit(&x.update);
        memo.commit(&y.update);
        assert_eq!(counts(&registry), [REAUDIT_PERIOD, 1, 0, 0]);
        // The audit is late by the one hit that overlapped, not lost.
        assert!(audited(&run(&memo, "reads", &reads(&B, false))));
        assert_eq!(counts(&registry), [REAUDIT_PERIOD + 1, 1, 1, 0]);
        // The next one is due a full period after this one was committed.
        serve(&memo, REAUDIT_PERIOD - 1);
        assert!(audited(&run(&memo, "reads", &reads(&A, false))));
        assert_eq!(counts(&registry), [2 * REAUDIT_PERIOD + 1, 1, 2, 0]);
    }

    #[test]
    fn overlapping_due_hits_both_reaudit() {
        let registry = MetricsRegistry::new();
        let memo = DigestMemo::new(&registry, "engine");
        run(&memo, "reads", &reads(&A, false));
        serve(&memo, REAUDIT_PERIOD - 1);
        // Both see 511 committed hits: both are due, both trace for real.
        let (x, y) = (
            memo.trace("reads", &reads(&A, false)),
            memo.trace("reads", &reads(&B, false)),
        );
        assert!(audited(&x) && audited(&y));
        memo.commit(&x.update);
        memo.commit(&y.update);
        assert_eq!(counts(&registry), [REAUDIT_PERIOD + 1, 1, 2, 0]);
        serve(&memo, REAUDIT_PERIOD - 1);
        assert!(audited(&run(&memo, "reads", &reads(&A, false))));
    }

    #[test]
    fn two_threads_on_one_shape_never_lose_an_audit() {
        const PER_THREAD: u64 = 3 * REAUDIT_PERIOD;
        let registry = MetricsRegistry::new();
        let memo = DigestMemo::new(&registry, "engine");
        run(&memo, "reads", &reads(&A, false));
        std::thread::scope(|scope| {
            for probe in [A, B] {
                let memo = &memo;
                scope.spawn(move || {
                    for _ in 0..PER_THREAD {
                        run(memo, "reads", &reads(&probe, false));
                    }
                });
            }
        });
        let [hits, misses, reaudits, mismatches] = counts(&registry);
        assert_eq!((hits, misses, mismatches), (2 * PER_THREAD, 1, 0));
        // Between two committed audits lie at most a period of hits plus
        // the one execution that overlapped; serially there are exactly 6.
        assert!(reaudits >= hits / (REAUDIT_PERIOD + 1), "{reaudits}");
        assert!(reaudits <= 2 * (hits / REAUDIT_PERIOD), "{reaudits}");
    }

    #[test]
    fn never_repeated_shapes_stay_within_capacity() {
        let registry = MetricsRegistry::new();
        let memo = DigestMemo::new(&registry, "engine");
        let work = reads(&A, false);
        for i in 0..CAPACITY + 100 {
            run(&memo, &format!("plan {i}"), &work);
        }
        assert_eq!(memo.entries(), CAPACITY);
        assert_eq!(memo.lock().order.len(), CAPACITY);
        assert_eq!(counts(&registry), [0, (CAPACITY + 100) as u64, 0, 0]);
        // The oldest shapes were evicted: plan 0 is unknown again, the
        // newest still known.
        run(&memo, "plan 0", &work);
        run(&memo, &format!("plan {}", CAPACITY + 99), &work);
        assert_eq!(counts(&registry), [1, (CAPACITY + 101) as u64, 0, 0]);
    }
}
