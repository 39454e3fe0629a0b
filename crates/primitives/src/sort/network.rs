//! Static descriptions of sorting networks.
//!
//! A network's *schedule* — its sequence of compare-exchange index pairs —
//! is a pure function of the array length.  Materialising the schedule is
//! useful in three places:
//!
//! * tests assert that executing a sort touches exactly the scheduled pairs
//!   (data independence by construction),
//! * the analytical cost model (Table 1 and Table 3 predictions) needs gate
//!   counts without running anything,
//! * the enclave simulator can replay a schedule against its cost model.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

pub(crate) use obliv_trace::network::greatest_power_of_two_below;
use obliv_trace::BlockOp;

use super::Direction;

/// One compare-exchange gate of a network: the pair of positions touched,
/// with `lo < hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// Lower position.
    pub lo: usize,
    /// Higher position.
    pub hi: usize,
}

/// One maximal run of independent compare-exchange gates sharing a stride
/// and a direction: gate `g` (for `g < count`) touches the pair
/// `(lo + g, lo + stride + g)`.
///
/// A bitonic merge level is exactly such a run, so flattening the network
/// into runs turns the recursive per-gate walk into an iterative pass that
/// can batch trace emission and counter updates per run.  Since
/// `count ≤ stride` for every bitonic run, the two windows
/// `[lo, lo+count)` and `[lo+stride, lo+stride+count)` never overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateRun {
    /// First gate's lower position.
    pub lo: usize,
    /// Distance between the two positions of every gate in the run.
    pub stride: usize,
    /// Number of gates in the run.
    pub count: usize,
    /// `true` if these gates order larger keys first.
    pub descending: bool,
}

impl GateRun {
    /// The gates of this run, in execution order.
    pub fn gates(&self) -> impl Iterator<Item = Gate> + '_ {
        (0..self.count).map(move |g| Gate {
            lo: self.lo + g,
            hi: self.lo + self.stride + g,
        })
    }

    /// Split the run into at most `chunks` disjoint sub-runs that cover
    /// every gate exactly once, in execution order.
    ///
    /// The gates of a run are mutually independent (each touches a distinct
    /// `(lo+g, lo+stride+g)` pair), so the sub-runs can execute
    /// concurrently; concatenating the sub-runs' [`gates`](GateRun::gates)
    /// reproduces this run's gate sequence exactly.  Sub-run sizes are
    /// balanced: they differ by at most one gate.  `chunks` is clamped to
    /// `[1, count]` — asking for more chunks than gates yields one
    /// single-gate sub-run per gate, and `chunks = 0` is treated as 1.
    pub fn partition(&self, chunks: usize) -> Vec<GateRun> {
        let chunks = chunks.clamp(1, self.count.max(1));
        let base = self.count / chunks;
        let extra = self.count % chunks;
        let mut parts = Vec::with_capacity(chunks);
        let mut offset = 0;
        for i in 0..chunks {
            let take = base + usize::from(i < extra);
            if take == 0 {
                continue;
            }
            parts.push(GateRun {
                lo: self.lo + offset,
                stride: self.stride,
                count: take,
                descending: self.descending,
            });
            offset += take;
        }
        parts
    }
}

/// A sorting network flattened into an iterative sequence of [`GateRun`]s.
///
/// The serial sort driver walks the recursion in blocks and never stores
/// its runs; the materialised form is what needs run *identity* — the
/// parallel driver's wave leveling and the access-pattern checker.  At 32
/// bytes per run and ≈ n·log₂ n runs it is not small: 48 MB at n = 10⁵,
/// 578 MB at n = 10⁶.
/// The flattened gate order is identical to the recursive schedule's
/// ([`crate::sort::bitonic::schedule`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSchedule {
    runs: Vec<GateRun>,
    gates: u64,
}

impl RunSchedule {
    /// An empty run schedule.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn push_run(&mut self, run: GateRun) {
        debug_assert!(run.stride >= 1 && run.count >= 1 && run.count <= run.stride);
        self.gates += run.count as u64;
        self.runs.push(run);
    }

    /// The runs in execution order.
    pub fn runs(&self) -> &[GateRun] {
        &self.runs
    }

    /// Total number of compare-exchange gates across all runs.
    pub fn gate_count(&self) -> u64 {
        self.gates
    }

    /// True if the schedule contains no runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

/// Upper bound on distinct `(n, direction)` entries each registry level
/// retains.  Requests beyond the cap still get a schedule — it just isn't
/// memoised — so a workload cycling through many distinct input sizes
/// cannot grow the registries without bound.
const SCHEDULE_REGISTRY_CAP: usize = 64;

/// Registry key `(n, descending)` → memoised schedule.
type ScheduleMap = HashMap<(usize, bool), Arc<RunSchedule>>;

thread_local! {
    /// Per-thread front cache: a worker repeats parallel sorts of the same
    /// length without taking any lock.
    static THREAD_REGISTRY: RefCell<ScheduleMap> = RefCell::new(HashMap::new());
}

/// Process-wide second level, shared across threads.  Short-lived worker
/// threads (the engine pool spawns a fresh scope per batch) start with an
/// empty thread-local cache but find schedules already built by earlier
/// batches here, behind a read lock taken once per sort.
fn shared_registry() -> &'static RwLock<ScheduleMap> {
    static SHARED: OnceLock<RwLock<ScheduleMap>> = OnceLock::new();
    SHARED.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Look up `key` in the shared registry, building (and publishing) the
/// schedule on a miss.
fn shared_bitonic_runs(key: (usize, bool), n: usize, dir: Direction) -> Arc<RunSchedule> {
    if let Some(sched) = shared_registry()
        .read()
        .expect("schedule registry poisoned")
        .get(&key)
    {
        return Arc::clone(sched);
    }
    let sched = Arc::new(crate::sort::bitonic::run_schedule(n, dir));
    let mut map = shared_registry()
        .write()
        .expect("schedule registry poisoned");
    if map.len() < SCHEDULE_REGISTRY_CAP {
        // A racing thread may have inserted meanwhile; keep the first.
        return Arc::clone(map.entry(key).or_insert(sched));
    }
    sched
}

/// The bitonic network's [`RunSchedule`] for `n` elements sorted in
/// direction `dir`, memoised per thread with a process-wide fallback.  Only
/// the parallel sort driver (once it has decided to fork) and the
/// access-pattern checker materialise schedules; the serial driver does not.
///
/// Schedules are pure functions of the *public* pair `(n, dir)`, so after
/// first use the per-sort cost of the schedule drops to a thread-local
/// hash lookup (no lock); a fresh thread pays one read-locked lookup to
/// adopt schedules built by earlier threads.
pub fn cached_bitonic_runs(n: usize, dir: Direction) -> Arc<RunSchedule> {
    let key = (n, dir == Direction::Descending);
    THREAD_REGISTRY.with(|registry| {
        let mut map = registry.borrow_mut();
        if let Some(sched) = map.get(&key) {
            return Arc::clone(sched);
        }
        let sched = shared_bitonic_runs(key, n, dir);
        if map.len() < SCHEDULE_REGISTRY_CAP {
            map.insert(key, Arc::clone(&sched));
        }
        sched
    })
}

/// The full schedule of a sorting network over `len` elements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    gates: Vec<Gate>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn push(&mut self, lo: usize, hi: usize) {
        debug_assert!(lo < hi);
        self.gates.push(Gate { lo, hi });
    }

    /// The gates in execution order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of compare-exchange gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True if the schedule contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }
}

/// Number of comparators in a bitonic sort of `n` elements: exactly the
/// gate count of [`crate::sort::bitonic::run_schedule`]`(n, _)`, computed in
/// `O(log² n)` without building it (the parallel sort driver asks before
/// every sort whether the network is worth forking).  The closed form lives
/// beside the network's recursion, in [`obliv_trace::network`].
pub fn bitonic_comparator_count(n: usize) -> u64 {
    obliv_trace::network::gate_count(n as u64, BlockOp::Sort)
}

/// Number of comparators in an odd-even mergesort of `n` elements (counting
/// only gates where both endpoints are below `n`).
pub fn odd_even_comparator_count(n: usize) -> u64 {
    crate::sort::odd_even::schedule(n).len() as u64
}

/// The asymptotic estimate the paper uses for a bitonic sort on `n` keys:
/// roughly `n·(log₂ n)²/4` comparisons (§6.2).
pub fn bitonic_comparator_estimate(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let n = n as f64;
    let lg = n.log2();
    n * lg * lg / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greatest_power_of_two_below_small_values() {
        assert_eq!(greatest_power_of_two_below(2), 1);
        assert_eq!(greatest_power_of_two_below(3), 2);
        assert_eq!(greatest_power_of_two_below(4), 2);
        assert_eq!(greatest_power_of_two_below(5), 4);
        assert_eq!(greatest_power_of_two_below(8), 4);
        assert_eq!(greatest_power_of_two_below(9), 8);
        assert_eq!(greatest_power_of_two_below(1025), 1024);
    }

    #[test]
    fn greatest_power_of_two_below_matches_the_doubling_loop() {
        for n in 2..=1u64 << 20 {
            let mut p = 1u64;
            while p * 2 < n {
                p *= 2;
            }
            assert_eq!(greatest_power_of_two_below(n), p, "n={n}");
        }
        assert_eq!(greatest_power_of_two_below(u64::MAX), 1 << 63);
    }

    #[test]
    fn comparator_count_matches_the_recursive_definition() {
        fn sort_count(n: u64) -> u64 {
            if n <= 1 {
                return 0;
            }
            sort_count(n / 2) + sort_count(n - n / 2) + merge_count(n)
        }
        fn merge_count(n: u64) -> u64 {
            if n <= 1 {
                return 0;
            }
            let m = greatest_power_of_two_below(n);
            (n - m) + merge_count(m) + merge_count(n - m)
        }
        for n in (0..3000).chain([4095, 4096, 4097, 50_000, 65_535, 100_000]) {
            assert_eq!(bitonic_comparator_count(n), sort_count(n as u64), "n={n}");
        }
    }

    #[test]
    fn counts_match_schedules() {
        for n in 0..64 {
            let sched = crate::sort::bitonic::schedule(n);
            assert_eq!(
                sched.len() as u64,
                bitonic_comparator_count(n),
                "bitonic n={n}"
            );
            let oes = crate::sort::odd_even::schedule(n);
            assert_eq!(
                oes.len() as u64,
                odd_even_comparator_count(n),
                "odd-even n={n}"
            );
        }
    }

    #[test]
    fn power_of_two_counts_match_closed_forms() {
        // For n = 2^k the bitonic sorter has n·k·(k+1)/4 comparators.
        for k in 1..=10u32 {
            let n = 1usize << k;
            let expected = (n as u64) * (k as u64) * (k as u64 + 1) / 4;
            assert_eq!(bitonic_comparator_count(n), expected, "n = 2^{k}");
        }
    }

    #[test]
    fn estimate_tracks_exact_count_within_factor() {
        for &n in &[64usize, 256, 1024, 4096] {
            let exact = bitonic_comparator_count(n) as f64;
            let est = bitonic_comparator_estimate(n);
            let ratio = exact / est;
            assert!(ratio > 0.5 && ratio < 2.5, "n={n} ratio={ratio}");
        }
    }

    #[test]
    fn run_schedule_flattens_to_the_recursive_gate_schedule() {
        for n in 0..200usize {
            for dir in [Direction::Ascending, Direction::Descending] {
                let runs = crate::sort::bitonic::run_schedule(n, dir);
                let flat: Vec<Gate> = runs.runs().iter().flat_map(|r| r.gates()).collect();
                let recursive = crate::sort::bitonic::schedule(n);
                assert_eq!(flat, recursive.gates(), "n={n} dir={dir:?}");
                assert_eq!(runs.gate_count(), recursive.len() as u64);
            }
        }
    }

    #[test]
    fn run_windows_never_overlap() {
        for n in 0..200usize {
            for r in crate::sort::bitonic::run_schedule(n, Direction::Ascending).runs() {
                assert!(r.count <= r.stride, "n={n} run {r:?}");
                assert!(r.lo + r.stride + r.count <= n, "n={n} run {r:?}");
            }
        }
    }

    #[test]
    fn registry_memoises_per_length_and_direction() {
        let a = cached_bitonic_runs(37, Direction::Ascending);
        let b = cached_bitonic_runs(37, Direction::Ascending);
        assert!(Arc::ptr_eq(&a, &b), "same (n, dir) shares one schedule");
        let d = cached_bitonic_runs(37, Direction::Descending);
        assert_eq!(a.gate_count(), d.gate_count());
        // Directions differ per run, not in shape.
        assert_eq!(a.runs().len(), d.runs().len());
        assert!(a
            .runs()
            .iter()
            .zip(d.runs())
            .all(|(x, y)| x.descending != y.descending
                && (x.lo, x.stride, x.count) == (y.lo, y.stride, y.count)));
    }

    #[test]
    fn uncached_sizes_beyond_the_cap_still_get_schedules() {
        // Drive well past the cap; every call must still return a correct
        // schedule whether or not it was memoised.
        for n in 1000..1000 + SCHEDULE_REGISTRY_CAP + 8 {
            let sched = cached_bitonic_runs(n, Direction::Ascending);
            assert_eq!(sched.gate_count(), bitonic_comparator_count(n), "n={n}");
        }
    }

    #[test]
    fn partition_covers_every_gate_exactly_once_in_order() {
        let run = GateRun {
            lo: 3,
            stride: 8,
            count: 7,
            descending: true,
        };
        for chunks in [1usize, 2, 3, 4, 7, 9, 100] {
            let parts = run.partition(chunks);
            assert!(parts.len() <= chunks.max(1));
            assert!(parts.iter().all(|p| p.stride == 8 && p.descending));
            // Balanced: sizes differ by at most one gate.
            let max = parts.iter().map(|p| p.count).max().unwrap();
            let min = parts.iter().map(|p| p.count).min().unwrap();
            assert!(max - min <= 1, "chunks={chunks}");
            let flat: Vec<Gate> = parts.iter().flat_map(|p| p.gates()).collect();
            let original: Vec<Gate> = run.gates().collect();
            assert_eq!(flat, original, "chunks={chunks}");
        }
    }

    #[test]
    fn partition_degenerate_inputs() {
        let run = GateRun {
            lo: 0,
            stride: 4,
            count: 1,
            descending: false,
        };
        assert_eq!(run.partition(0), vec![run]);
        assert_eq!(run.partition(1), vec![run]);
        assert_eq!(run.partition(5), vec![run]);
        let empty = GateRun {
            lo: 0,
            stride: 1,
            count: 0,
            descending: false,
        };
        assert!(empty.partition(3).is_empty());
    }

    #[test]
    fn schedule_push_and_access() {
        let mut s = Schedule::new();
        assert!(s.is_empty());
        s.push(0, 3);
        s.push(1, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.gates()[0], Gate { lo: 0, hi: 3 });
        assert_eq!(s.gates()[1], Gate { lo: 1, hi: 2 });
    }
}
