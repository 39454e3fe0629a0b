//! Access-pattern checker for sorting-network traces.
//!
//! The type system in [`check`](crate::check) certifies obliviousness
//! *symbolically*, over the small verification language.  This module adds
//! the complementary *concrete* check: given a recorded public-memory
//! access stream (from a
//! [`CollectingSink`](obliv_trace::CollectingSink)) and the length and
//! direction of the sort that produced it, confirm that the stream is
//! exactly the serial reference walk of the network's gate runs.
//!
//! The runs are the real sort's own ([`for_each_run`] walks the recursion
//! its trace is recorded from, one run at a time, without storing them),
//! and the tests below run the real executor, serially and forked across
//! threads: a forked sort runs its gates on several threads and records its
//! trace afterwards by one walk of the network, and that stream must be
//! indistinguishable from the serial one.  A stream with runs missing,
//! duplicated or out of place is rejected at the first diverging access.

use obliv_primitives::sort::Direction;
use obliv_trace::network::{for_each_run, gate_count};
use obliv_trace::{Access, ArrayId, BlockOp};

/// Why a recorded access stream is not the serial reference walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessCheckError {
    /// The stream has the wrong number of accesses — entire runs are
    /// missing or duplicated (each gate run contributes `4 × count`
    /// accesses: two read runs and two write runs over its windows).
    LengthMismatch {
        /// Accesses the network's serial walk performs.
        expected: usize,
        /// Accesses actually recorded.
        actual: usize,
    },
    /// The stream diverges from the reference walk at one position.
    Divergence {
        /// Index of the first differing access.
        at: usize,
        /// What the serial walk does there.
        expected: Access,
        /// What the stream recorded there.
        actual: Access,
    },
}

impl std::fmt::Display for AccessCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessCheckError::LengthMismatch { expected, actual } => write!(
                f,
                "access stream has {actual} accesses, the network's serial walk has {expected}"
            ),
            AccessCheckError::Divergence {
                at,
                expected,
                actual,
            } => write!(
                f,
                "access stream diverges at position {at}: expected {expected:?}, got {actual:?}"
            ),
        }
    }
}

impl std::error::Error for AccessCheckError {}

/// The serial reference walk of the sorting network over `n` cells of
/// `array` in direction `dir`: for every gate run, a read run over each of
/// its two windows followed by a write run over each — the exact emission
/// order of the sort driver, forked or not.
pub fn expected_sort_accesses(array: ArrayId, n: usize, dir: Direction) -> Vec<Access> {
    let mut expected = Vec::with_capacity(4 * gate_count(n as u64, BlockOp::Sort) as usize);
    let descending = dir == Direction::Descending;
    for_each_run(
        0,
        n,
        descending,
        BlockOp::Sort,
        &mut |lo, stride, count, _| {
            for start in [lo as u64, (lo + stride) as u64] {
                expected.extend((start..start + count as u64).map(|i| Access::read(array, i)));
            }
            for start in [lo as u64, (lo + stride) as u64] {
                expected.extend((start..start + count as u64).map(|i| Access::write(array, i)));
            }
        },
    );
    expected
}

/// Check `actual` element-wise against a precomputed reference stream.
pub fn check_against_reference(
    expected: &[Access],
    actual: &[Access],
) -> Result<(), AccessCheckError> {
    if expected.len() != actual.len() {
        return Err(AccessCheckError::LengthMismatch {
            expected: expected.len(),
            actual: actual.len(),
        });
    }
    for (at, (want, got)) in expected.iter().zip(actual).enumerate() {
        if want != got {
            return Err(AccessCheckError::Divergence {
                at,
                expected: *want,
                actual: *got,
            });
        }
    }
    Ok(())
}

/// Check that `actual` is exactly the serial walk of the sorting network
/// over `n` cells of `array` in direction `dir`.
pub fn check_sort_accesses(
    array: ArrayId,
    n: usize,
    dir: Direction,
    actual: &[Access],
) -> Result<(), AccessCheckError> {
    check_against_reference(&expected_sort_accesses(array, n, dir), actual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obliv_primitives::sort::bitonic::{self, FORK_CELLS};
    use obliv_primitives::{with_parallelism, ParCtx, ScopedThreads};
    use obliv_trace::{CollectingSink, Tracer};
    use std::sync::Arc;

    const N: usize = 32;

    fn input(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 29) % 17).collect()
    }

    /// Accesses recorded while sorting only (the allocation is an event,
    /// not an access, so the stream is purely the sort's), forked over
    /// `threads` threads when given.
    fn sorted_accesses(n: usize, threads: Option<usize>) -> Vec<Access> {
        let tracer = Tracer::new(CollectingSink::new());
        let mut buf = tracer.alloc_from(input(n));
        match threads {
            Some(threads) => {
                let ctx = ParCtx::new(Arc::new(ScopedThreads), threads);
                let stats = ctx.stats();
                with_parallelism(ctx, || bitonic::sort_by_key(&mut buf, |v: &u64| *v));
                assert!(stats.forks() > 0, "n={n} forks");
            }
            None => bitonic::sort_by_key(&mut buf, |v| *v),
        }
        tracer.with_sink(|s| s.accesses().to_vec())
    }

    #[test]
    fn serial_sort_trace_is_the_reference_walk() {
        let accesses = sorted_accesses(N, None);
        let array = accesses[0].array;
        check_sort_accesses(array, N, Direction::Ascending, &accesses)
            .expect("serial walk is the reference");
    }

    #[test]
    fn forked_sort_trace_is_the_reference_walk() {
        let expected = expected_sort_accesses(ArrayId(0), FORK_CELLS, Direction::Ascending);
        for threads in [2usize, 4] {
            let accesses = sorted_accesses(FORK_CELLS, Some(threads));
            check_against_reference(&expected, &accesses)
                .unwrap_or_else(|e| panic!("threads={threads}: {e}"));
        }
    }

    #[test]
    fn misplaced_runs_are_a_divergence() {
        // The real stream with two of its runs swapped: same length, the
        // first access of the earlier run now out of place.
        let mut accesses = sorted_accesses(N, None);
        let array = accesses[0].array;
        let mut counts = Vec::new();
        for_each_run(0, N, false, BlockOp::Sort, &mut |_, _, count, _| {
            counts.push(count)
        });
        let first = 4 * counts[0];
        let second = 4 * counts[1];
        assert_eq!(first, second, "the first two runs are single-gate sorts");
        accesses[..first + second].rotate_left(first);
        assert!(matches!(
            check_sort_accesses(array, N, Direction::Ascending, &accesses),
            Err(AccessCheckError::Divergence { at: 0, .. })
        ));
    }

    #[test]
    fn missing_runs_are_a_length_mismatch() {
        let accesses = sorted_accesses(N, None);
        let array = accesses[0].array;
        let truncated = &accesses[..accesses.len() - 4];
        assert!(matches!(
            check_sort_accesses(array, N, Direction::Ascending, truncated),
            Err(AccessCheckError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn errors_render_their_positions() {
        let e = AccessCheckError::Divergence {
            at: 7,
            expected: Access::read(ArrayId(0), 1),
            actual: Access::read(ArrayId(0), 2),
        };
        assert!(e.to_string().contains("position 7"));
        let e = AccessCheckError::LengthMismatch {
            expected: 8,
            actual: 4,
        };
        assert!(e.to_string().contains('8') && e.to_string().contains('4'));
    }
}
