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

pub(crate) use obliv_trace::network::greatest_power_of_two_below;
use obliv_trace::BlockOp;

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
}

/// A sorting network flattened into an iterative sequence of [`GateRun`]s.
///
/// The sort driver walks the recursion in blocks and never stores its
/// runs; the materialised form is for what needs run *identity* — the
/// access-pattern checker and the kernel structure tests.  At 32 bytes per
/// run and ≈ n·log₂ n runs it is not small: 48 MB at n = 10⁵, 578 MB at
/// n = 10⁶.
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
/// `O(log² n)` without building it.  The closed form lives beside the
/// network's recursion, in [`obliv_trace::network`].
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
    use super::super::Direction;
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
