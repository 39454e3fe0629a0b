//! One run of one workload: set up several times, warm up, measure for the
//! given number of seconds, check every output, and report.
//!
//! Untraced, the run reports the end-to-end metrics.  Traced, it measures a
//! short untraced window, then a window with span recording on in which
//! sampled ops are replayed down their ladder, and reports the per-layer
//! metrics plus the difference between the two windows' medians.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{self, median, ms, percentile, quiet_quartile, sorted, Tail};
use crate::workloads::{with_workload, Layers, Spec, Verifier, Workload, WorkloadFn, SPECS};

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test: corrupt one result row before the oracle sees it.
    pub inject_wrong_row: bool,
    /// Where the traced pass writes `trace_<workload>.json`.
    pub out_dir: PathBuf,
}

/// What a run prints as its last line.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line of the benchmark contract.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::object(self.metrics.iter().map(|(def, value)| {
                    (
                        def.name,
                        Json::object([
                            ("value", Json::from(*value)),
                            ("unit", Json::from(def.unit)),
                        ]),
                    )
                })),
            ),
        ])
    }
}

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Run `spec`'s workload once.
pub fn run(spec: &'static Spec, config: &RunConfig) -> Result<RunResult, String> {
    struct Run<'a>(&'static Spec, &'a RunConfig);
    impl WorkloadFn for Run<'_> {
        type Out = Result<RunResult, String>;
        fn call<W: Workload>(self) -> Self::Out {
            run_workload::<W>(self.0, self.1)
        }
    }
    with_workload(spec.name, Run(spec, config)).expect("every spec names a workload")
}

/// Set-up is repeated and the median reported, so one slow start does not
/// decide `setup_s`: at least `MIN_SETUPS` times, and while that took less
/// than `SETUP_BUDGET` (a set-up of a few ms is a short sample and needs
/// more of them to repeat), up to `MAX_SETUPS` times.
const MIN_SETUPS: usize = 9;
const MAX_SETUPS: usize = 201;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// Warm-up before the measured window: at least this many ops and this long.
const WARMUP_OPS: usize = 2;
const WARMUP: Duration = Duration::from_millis(500);

/// Failure messages echoed to stderr (all failures are counted).
const MAX_REPORTED_FAILURES: u64 = 5;

/// The measured window is cut into this many slices (each closed by the
/// first op that ends after its share of the window).  Every timing metric
/// is taken per slice, and the run reports the value at the quiet quartile
/// of its slices: the lower quartile of latencies and CPU, the upper of
/// throughput.  Interference on a shared box only ever slows a slice down,
/// in bursts of 2–15 s, so a run that is disturbed for most of its length
/// still reports the undisturbed speed, while a slower program slows every
/// slice and moves the quartile as it would move the median.
const SLICES: u32 = 15;

/// One slice of a window.  `wall - busy` is the harness's own time between
/// ops (`prepare`, `verify`, bookkeeping); it runs on the calling thread
/// while every thread of the program waits, so it is also the harness's
/// share of `cpu_ms`.
struct Slice {
    /// Latency of every op that ended in the slice, ascending.
    latencies_ms: Vec<f64>,
    wall: Duration,
    /// Time inside ops.
    busy: Duration,
    /// Process CPU time over the slice, harness included.
    cpu_ms: f64,
}

impl Slice {
    /// Ops per second of time spent inside ops.
    fn ops_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.busy.as_secs_f64()
    }

    /// Process CPU per op, the harness's share taken out.
    fn cpu_ms_per_op(&self) -> f64 {
        (self.cpu_ms - ms(self.wall - self.busy)).max(0.0) / self.latencies_ms.len() as f64
    }
}

/// The slice being filled.
struct OpenSlice {
    start: Instant,
    cpu_ms: f64,
    latencies_ms: Vec<f64>,
    busy: Duration,
}

impl OpenSlice {
    fn at(start: Instant) -> Self {
        OpenSlice {
            start,
            cpu_ms: stats::process_cpu_ms(),
            latencies_ms: Vec::new(),
            busy: Duration::ZERO,
        }
    }

    /// Close the slice at `now` and open the next one there.
    fn close(&mut self, now: Instant) -> Slice {
        let done = std::mem::replace(self, OpenSlice::at(now));
        Slice {
            latencies_ms: sorted(done.latencies_ms),
            wall: now - done.start,
            busy: done.busy,
            cpu_ms: self.cpu_ms - done.cpu_ms,
        }
    }
}

/// One measured window of ops.
#[derive(Default)]
struct Window {
    attempted: u64,
    failed: u64,
    wall: Duration,
    /// The slices in which an op ended, in order.
    slices: Vec<Slice>,
}

impl Window {
    fn fail(&mut self, why: &str) {
        self.failed += 1;
        if self.failed <= MAX_REPORTED_FAILURES {
            eprintln!("FAILED op {}: {why}", self.attempted);
        }
    }

    /// The latency of every completed op, ascending.
    fn latencies_ms(&self) -> Vec<f64> {
        sorted(
            self.slices
                .iter()
                .flat_map(|s| s.latencies_ms.iter().copied())
                .collect(),
        )
    }
}

/// Run ops until `budget` has passed (and at least `min_ops`).  With
/// `layers`, every `ladder_every`-th op is replayed down its ladder.
/// Returns the window and the latency of its first op.
fn window<W: Workload>(
    w: &mut W,
    budget: Duration,
    min_ops: usize,
    spans: &mut Spans,
    verifier: &mut Verifier,
    mut layers: Option<&mut Layers>,
) -> (Window, Option<Duration>) {
    let mut out = Window::default();
    let mut first_op = None;
    let every = w.ladder_every() as u64;
    let slice_len = budget / SLICES;
    let start = Instant::now();
    let mut open = OpenSlice::at(start);
    while start.elapsed() < budget || (out.attempted as usize) < min_ops {
        out.attempted += 1;
        spans.next_op();
        let attempt = w.prepare(spans).and_then(|()| {
            let (result, wall) = spans.timed("op", |spans| w.op(spans));
            result.map(|output| (output, wall))
        });
        let (output, wall) = match attempt {
            Ok(done) => done,
            Err(why) => {
                out.fail(&why);
                continue;
            }
        };
        first_op.get_or_insert(wall);
        let mut checks = Ok(());
        if let Some(layers) = layers.as_deref_mut() {
            if (out.attempted - 1) % every == 0 {
                checks = spans
                    .timed("ladder", |spans| w.ladder(&output, wall, spans, layers))
                    .0;
            }
        }
        if let Err(why) = checks.and_then(|()| w.verify(output, verifier)) {
            out.fail(&why);
        }
        open.latencies_ms.push(ms(wall));
        open.busy += wall;
        let now = Instant::now();
        if now - open.start >= slice_len {
            out.slices.push(open.close(now));
        }
    }
    out.wall = start.elapsed();
    if !open.latencies_ms.is_empty() {
        out.slices.push(open.close(Instant::now()));
    }
    (out, first_op)
}

fn run_workload<W: Workload>(spec: &Spec, config: &RunConfig) -> Result<RunResult, String> {
    // Set up several times; keep the last one.  A set-up ends where the
    // first op could start; an earlier set-up is dropped outside the span.
    let mut spans = Spans::new(config.trace);
    let mut setups_s = Vec::new();
    let setups_start = Instant::now();
    let mut w = loop {
        let (w, wall) = spans.timed("setup", |spans| W::setup(config.seed, spans));
        setups_s.push(wall.as_secs_f64());
        let w = w?;
        let spent = setups_start.elapsed();
        if setups_s.len() >= MAX_SETUPS || (setups_s.len() >= MIN_SETUPS && spent >= SETUP_BUDGET) {
            break w;
        }
    };
    w.arm_oracle()?;
    let mut verifier = Verifier::default();
    let budget = Duration::from_secs_f64(config.seconds);

    // Warm-up: ops are checked but not counted.  Its first op is the
    // process's first, so whatever the program builds lazily shows there.
    let quiet = &mut Spans::new(false);
    let (warm, first_op) = window(
        &mut w,
        WARMUP,
        WARMUP_OPS,
        quiet,
        &mut Verifier::default(),
        None,
    );
    let first_op = first_op.filter(|_| warm.failed == 0);
    let first_op = first_op.ok_or("an op failed during warm-up")?;
    verifier.inject_wrong_row = config.inject_wrong_row;

    if !config.trace {
        let (run, _) = window(&mut w, budget, 1, quiet, &mut verifier, None);
        let ops = run.slices.iter().map(|s| s.latencies_ms.len()).sum();
        if ops == 0 {
            return Err("no op completed".to_string());
        }
        let at_quiet_quartile = |better: Better, f: &dyn Fn(&Slice) -> f64| {
            quiet_quartile(&run.slices.iter().map(f).collect::<Vec<_>>(), better)
        };
        let values = [
            at_quiet_quartile(Better::Lower, &|s| percentile(&s.latencies_ms, 0.5)),
            at_quiet_quartile(Better::Lower, &|s| {
                percentile(&s.latencies_ms, spec.tail.p())
            }),
            at_quiet_quartile(Better::Higher, &Slice::ops_per_s),
            at_quiet_quartile(Better::Lower, &Slice::cpu_ms_per_op),
            median(&setups_s),
            stats::peak_rss_mb(),
        ];
        let busy: Duration = run.slices.iter().map(|s| s.busy).sum();
        println!(
            "{}: {ops} ops in {:.2} s ({} slices, {:.2} % of it between ops), {} set-ups, \
             op_tail_ms is {} ({} samples beyond it)",
            spec.name,
            run.wall.as_secs_f64(),
            run.slices.len(),
            (1.0 - busy.as_secs_f64() / run.wall.as_secs_f64()) * 100.0,
            setups_s.len(),
            spec.tail.label(),
            stats::samples_beyond(ops, spec.tail.p()),
        );
        if Tail::supported(ops) < Some(spec.tail) {
            println!(
                "{}: note: fewer than ten samples lie beyond {} in this run",
                spec.name,
                spec.tail.label()
            );
        }
        return Ok(RunResult {
            attempted: run.attempted,
            failed: run.failed,
            metrics: END_TO_END.into_iter().zip(values).collect(),
        });
    }

    // Traced: a short untraced window, then the traced window with ladders,
    // then the probes that need no op.
    let (plain, _) = window(&mut w, budget.mul_f64(0.3), 1, quiet, &mut verifier, None);
    let mut layers = Layers::default();
    let (mut traced, _) = window(
        &mut w,
        budget.mul_f64(0.5),
        1,
        &mut spans,
        &mut verifier,
        Some(&mut layers),
    );
    spans.next_op();
    if let Err(why) = spans
        .timed("probes", |spans| w.probes(spans, &mut layers))
        .0
    {
        traced.attempted += 1;
        traced.fail(&why);
    }
    let (plain_ms, traced_ms) = (plain.latencies_ms(), traced.latencies_ms());
    if plain_ms.is_empty() || traced_ms.is_empty() {
        return Err("no op completed".to_string());
    }
    let (p50_plain, p50_traced) = (median(&plain_ms), median(&traced_ms));
    layers.push(
        "bench.tracing_overhead_pct",
        (p50_traced - p50_plain) / p50_plain * 100.0,
    );
    layers.push("bench.first_op_ms", ms(first_op));
    let (attempted, failed) = (
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    );
    layers.push("failed_share", failed as f64 / attempted as f64);
    println!(
        "{}: traced {} ops ({} untraced before them), {} spans",
        spec.name,
        traced_ms.len(),
        plain_ms.len(),
        spans.spans().len(),
    );

    std::fs::create_dir_all(&config.out_dir)
        .and_then(|()| {
            std::fs::write(
                config.out_dir.join(format!("trace_{}.json", spec.name)),
                spans.to_json(spec.name, config.seed).compact(),
            )
        })
        .map_err(|e| format!("writing the trace to {}: {e}", config.out_dir.display()))?;

    Ok(RunResult {
        attempted,
        failed,
        metrics: PER_LAYER
            .into_iter()
            .map(|def| (def, median(layers.samples(def.name))))
            .collect(),
    })
}

/// What `benchmark check` looks at: one op on a fresh set-up, checked
/// against the oracle, and the counts of it that must repeat exactly.  With
/// `ladder`, the op is also replayed down its ladder, which asserts that the
/// direct operator replay traces exactly as the engine does.
pub fn one_op(spec: &Spec, seed: u64, ladder: bool) -> Result<Vec<(&'static str, u64)>, String> {
    struct OneOp(u64, bool);
    impl WorkloadFn for OneOp {
        type Out = Result<Vec<(&'static str, u64)>, String>;
        fn call<W: Workload>(self) -> Self::Out {
            let OneOp(seed, ladder) = self;
            let spans = &mut Spans::new(ladder);
            let mut w = W::setup(seed, spans)?;
            w.arm_oracle()?;
            w.prepare(spans)?;
            let (out, wall) = spans.timed("op", |spans| w.op(spans));
            let out = out?;
            let counts = w.counts(&out);
            if ladder {
                w.ladder(&out, wall, spans, &mut Layers::default())?;
            }
            w.verify(out, &mut Verifier::default())?;
            Ok(counts)
        }
    }
    with_workload(spec.name, OneOp(seed, ladder)).expect("every spec names a workload")
}
