//! The shape of Batcher's bitonic network — what a *block* trace event
//! stands for.
//!
//! A block event ([`TraceSink::record_block`](crate::TraceSink::record_block))
//! names a whole sub-network by its public parameters `(lo, n, direction,
//! sort | merge)`; this module is the one place that says which gates that
//! is, in which order.  The sort driver in `obliv-primitives` walks the same
//! recursion ([`walk`]) to decide where its blocks and runs fall, the sinks
//! that keep the per-element stream replay it ([`for_each_run`]), and the
//! sinks that only fold read the gate count off a closed form
//! ([`gate_count`]).
//!
//! The construction is the standard arbitrary-length one: *sort* `n` cells by
//! sorting the halves `⌊n/2⌋` and `⌈n/2⌉` in opposite directions and merging;
//! *merge* `n` cells with one run of `n − p` gates at stride `p`, the
//! greatest power of two below `n`, then merging `p` and `n − p` cells.

/// Which sub-network a block event covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockOp {
    /// The full sorting network over the window.
    Sort,
    /// Only the merge of an already bitonic window.
    Merge,
}

/// One step of the network, as [`walk`] yields them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A whole sub-network over the `n ≥ 2` cells `[lo, lo + n)`, small
    /// enough (`n ≤ leaf`) to be handed out as one unit.
    Block {
        /// First cell of the window.
        lo: usize,
        /// Number of cells.
        n: usize,
        /// `true` if the sub-network orders larger keys first.
        descending: bool,
        /// Sort, or merge only.
        op: BlockOp,
    },
    /// One merge level above the leaves: `count` independent gates, gate
    /// `g` on the pair `(lo + g, lo + stride + g)`, with `count ≤ stride`.
    Run {
        /// First gate's lower position.
        lo: usize,
        /// Distance between the two positions of every gate.
        stride: usize,
        /// Number of gates.
        count: usize,
        /// `true` if these gates order larger keys first.
        descending: bool,
    },
}

/// Visit, in execution order, the steps of the network `op` over `[lo,
/// lo + n)`: every sub-sort or sub-merge over at most `leaf` cells is one
/// [`Step::Block`], every merge level above that one [`Step::Run`].  With
/// `leaf ≤ 1` nothing is a block and the walk yields the network's gate
/// runs ([`for_each_run`]).  Windows of fewer than two cells hold no gate
/// and yield nothing.
pub fn walk(
    lo: usize,
    n: usize,
    descending: bool,
    op: BlockOp,
    leaf: usize,
    visit: &mut impl FnMut(Step),
) {
    if n <= 1 {
        return;
    }
    if n <= leaf {
        return visit(Step::Block {
            lo,
            n,
            descending,
            op,
        });
    }
    match op {
        BlockOp::Sort => {
            // Halves in opposite directions make the window bitonic.
            let m = n / 2;
            walk(lo, m, !descending, BlockOp::Sort, leaf, visit);
            walk(lo + m, n - m, descending, BlockOp::Sort, leaf, visit);
            walk(lo, n, descending, BlockOp::Merge, leaf, visit);
        }
        BlockOp::Merge => {
            let m = greatest_power_of_two_below(n as u64) as usize;
            visit(Step::Run {
                lo,
                stride: m,
                count: n - m,
                descending,
            });
            walk(lo, m, descending, BlockOp::Merge, leaf, visit);
            walk(lo + m, n - m, descending, BlockOp::Merge, leaf, visit);
        }
    }
}

/// Visit the gate runs `(lo, stride, count, descending)` of the network
/// `op` over `[lo, lo + n)` in execution order — [`walk`] with no blocks.
pub fn for_each_run(
    lo: usize,
    n: usize,
    descending: bool,
    op: BlockOp,
    visit: &mut impl FnMut(usize, usize, usize, bool),
) {
    walk(lo, n, descending, op, 1, &mut |step| match step {
        Step::Run {
            lo,
            stride,
            count,
            descending,
        } => visit(lo, stride, count, descending),
        Step::Block { .. } => unreachable!("no window of two cells fits a leaf of one"),
    });
}

/// Number of compare-exchange gates in the network `op` over `n` cells:
/// exactly the gates [`for_each_run`] visits, in `O(log² n)` without
/// visiting them.
///
/// A merge of `n` cells places `n − p` gates at stride `p` and then merges
/// `p` and `n − p` cells; a merge of `2^k` cells has `k·2^(k−1)` gates,
/// which leaves one chain of `O(log n)` links.  The sort recursion halves
/// every range, so each of its levels holds ranges of at most two lengths,
/// `s` and `s + 1`, and is summed with multiplicities.
pub fn gate_count(n: u64, op: BlockOp) -> u64 {
    fn merge_count(mut n: u64) -> u64 {
        let mut gates = 0;
        while n > 1 {
            let p = greatest_power_of_two_below(n);
            gates += (n - p) + u64::from(p.trailing_zeros()) * (p / 2);
            n -= p;
        }
        gates
    }
    if op == BlockOp::Merge {
        return merge_count(n);
    }
    // `small` ranges of length `s` and `large` ranges of length `s + 1`.
    let (mut s, mut small, mut large) = (n, 1u64, 0u64);
    let mut gates = 0;
    while s >= 1 {
        gates += small * merge_count(s) + large * merge_count(s + 1);
        // ⌊·/2⌋ and ⌈·/2⌉ of `s` and `s + 1`: an even `s` yields two halves
        // of length s/2 and the odd `s + 1` one of each length; an odd `s`
        // the mirror image.
        (small, large) = if s % 2 == 0 {
            (2 * small + large, large)
        } else {
            (small, small + 2 * large)
        };
        s /= 2;
    }
    gates
}

/// Largest power of two strictly below `n` (assumes `n >= 2`).
#[inline]
pub fn greatest_power_of_two_below(n: u64) -> u64 {
    debug_assert!(n >= 2);
    1 << (63 - (n - 1).leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(n: usize, descending: bool, op: BlockOp) -> Vec<(usize, usize, usize, bool)> {
        let mut out = Vec::new();
        for_each_run(3, n, descending, op, &mut |lo, stride, count, desc| {
            out.push((lo, stride, count, desc))
        });
        out
    }

    #[test]
    fn gate_count_is_the_number_of_gates_the_runs_hold() {
        for n in 0..=300usize {
            for op in [BlockOp::Sort, BlockOp::Merge] {
                let walked: usize = runs(n, false, op).iter().map(|r| r.2).sum();
                assert_eq!(gate_count(n as u64, op), walked as u64, "n={n} {op:?}");
            }
        }
        assert_eq!(gate_count(64, BlockOp::Sort), 672);
        assert_eq!(gate_count(64, BlockOp::Merge), 192);
    }

    #[test]
    fn runs_stay_inside_the_window_and_never_overlap_themselves() {
        for n in 0..=130usize {
            for op in [BlockOp::Sort, BlockOp::Merge] {
                for (lo, stride, count, _) in runs(n, true, op) {
                    assert!(count >= 1 && count <= stride, "n={n} {op:?}");
                    assert!(lo >= 3 && lo + stride + count <= 3 + n, "n={n} {op:?}");
                }
            }
        }
    }

    #[test]
    fn a_merge_keeps_its_direction_and_a_sort_ends_in_that_merge() {
        for descending in [false, true] {
            let merge = runs(37, descending, BlockOp::Merge);
            assert!(merge.iter().all(|r| r.3 == descending));
            let sort = runs(37, descending, BlockOp::Sort);
            assert!(sort.ends_with(&merge));
            // The first half is sorted the other way round.
            assert_eq!(sort[0].3, runs(18, !descending, BlockOp::Sort)[0].3);
        }
    }

    #[test]
    fn blocked_walk_expands_to_the_run_walk() {
        // Whatever the leaf size, replacing every block by its own runs
        // gives back the plain run sequence.
        for n in [0usize, 1, 2, 7, 64, 65, 100, 129, 300] {
            for leaf in [0usize, 1, 2, 5, 16, 64, 1000] {
                for descending in [false, true] {
                    let mut expanded = Vec::new();
                    let mut largest = 0;
                    walk(
                        3,
                        n,
                        descending,
                        BlockOp::Sort,
                        leaf,
                        &mut |step| match step {
                            Step::Run {
                                lo,
                                stride,
                                count,
                                descending,
                            } => expanded.push((lo, stride, count, descending)),
                            Step::Block {
                                lo,
                                n,
                                descending,
                                op,
                            } => {
                                largest = largest.max(n);
                                for_each_run(
                                    lo,
                                    n,
                                    descending,
                                    op,
                                    &mut |lo, stride, count, desc| {
                                        expanded.push((lo, stride, count, desc))
                                    },
                                );
                            }
                        },
                    );
                    assert!(largest <= leaf.max(1), "n={n} leaf={leaf}");
                    assert_eq!(
                        expanded,
                        runs(n, descending, BlockOp::Sort),
                        "n={n} leaf={leaf}"
                    );
                }
            }
        }
    }

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
            assert_eq!(gate_count(n, BlockOp::Sort), sort_count(n), "n={n}");
            assert_eq!(gate_count(n, BlockOp::Merge), merge_count(n), "n={n}");
        }
    }

    #[test]
    fn power_of_two_counts_match_closed_forms() {
        // For n = 2^k the bitonic sorter has n·k·(k+1)/4 comparators.
        for k in 1..=10u64 {
            let n = 1u64 << k;
            assert_eq!(
                gate_count(n, BlockOp::Sort),
                n * k * (k + 1) / 4,
                "n = 2^{k}"
            );
        }
    }
}
