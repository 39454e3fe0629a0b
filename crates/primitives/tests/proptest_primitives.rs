//! Property-based tests for the oblivious primitives.
//!
//! Each property is checked against a straightforward (non-oblivious)
//! reference computation, and the obliviousness-critical primitives are also
//! checked for trace invariance: the recorded access sequence may depend on
//! the public parameters only.

use obliv_primitives::sort::{bitonic, Direction};
use obliv_primitives::{
    oblivious_compact, oblivious_distribute, oblivious_expand, Keyed, Routable,
};
use obliv_trace::network::gate_count;
use obliv_trace::{BlockOp, CollectingSink, CountingSink, HashingSink, Tracer};
use proptest::prelude::*;

type K = Keyed<u64>;

fn counting() -> Tracer<CountingSink> {
    Tracer::new(CountingSink::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitonic_sort_matches_std_sort(values in prop::collection::vec(0u64..1000, 0..200)) {
        let tracer = counting();
        let mut buf = tracer.alloc_from(values.clone());
        bitonic::sort_by_key(&mut buf, |x| *x);
        let mut expected = values;
        expected.sort_unstable();
        prop_assert_eq!(buf.as_slice(), expected.as_slice());
    }

    #[test]
    fn scheduled_sort_output_and_comparator_count_match_closed_form(
        // Every length 0..=64 — including every non-power-of-two — drawn
        // with random contents; the scheduled iterative driver must sort
        // and spend exactly `gate_count(n, Sort)` comparisons.
        (n, values) in (0usize..=64).prop_flat_map(|n| {
            (Just(n), prop::collection::vec(any::<u64>(), n..=n))
        })
    ) {
        let tracer = counting();
        let mut buf = tracer.alloc_from(values.clone());
        bitonic::sort_by_key(&mut buf, |x| *x);
        let mut expected = values;
        expected.sort_unstable();
        prop_assert_eq!(buf.as_slice(), expected.as_slice());
        prop_assert_eq!(tracer.counters().comparisons, gate_count(n as u64, BlockOp::Sort));
    }

    #[test]
    fn scheduled_sort_matches_per_gate_oracle(
        values in prop::collection::vec(any::<u64>(), 0..=64),
        descending in any::<bool>(),
    ) {
        let dir = if descending { Direction::Descending } else { Direction::Ascending };
        let t_sched = counting();
        let mut scheduled = t_sched.alloc_from(values.clone());
        bitonic::sort_by_key_dir(&mut scheduled, dir, |x| *x);
        let t_gate = counting();
        let mut per_gate = t_gate.alloc_from(values);
        bitonic::sort_by_key_dir_per_gate(&mut per_gate, dir, |x| *x);
        prop_assert_eq!(scheduled.as_slice(), per_gate.as_slice());
        prop_assert_eq!(t_sched.counters(), t_gate.counters());
        prop_assert_eq!(t_sched.with_sink(|s| s.overall()), t_gate.with_sink(|s| s.overall()));
    }

    #[test]
    fn bitonic_trace_hash_depends_only_on_length(
        a in prop::collection::vec(0u64..1000, 1..120),
        seed in 0u64..u64::MAX,
    ) {
        // Scramble `a` into a second input of the same length; the chained
        // trace hashes must agree.
        let b: Vec<u64> = a.iter().map(|x| x.wrapping_mul(seed | 1).wrapping_add(seed)).collect();
        let run = |v: Vec<u64>| {
            let tracer = Tracer::new(HashingSink::new());
            let mut buf = tracer.alloc_from(v);
            bitonic::sort_by_key(&mut buf, |x| *x);
            tracer.with_sink(|s| s.digest())
        };
        prop_assert_eq!(run(a), run(b));
    }

    #[test]
    fn distribute_places_every_element(
        // Random injective destination assignment: shuffle 1..=m and take n.
        (m, picks) in (1usize..160).prop_flat_map(|m| {
            (Just(m), prop::collection::vec(any::<u64>(), 1..=m))
        })
    ) {
        let n = picks.len();
        // Build an injective destination map by ranking the random picks.
        let mut order: Vec<usize> = (0..m).collect();
        // Deterministic pseudo-shuffle driven by the random picks.
        for (i, p) in picks.iter().enumerate() {
            let j = (*p as usize) % m;
            order.swap(i % m, j);
        }
        let dests: Vec<u64> = order.iter().take(n).map(|&d| d as u64 + 1).collect();

        let tracer = counting();
        let input: Vec<K> = dests.iter().enumerate().map(|(i, &d)| Keyed::new(i as u64 + 1, d)).collect();
        let buf = tracer.alloc_from(input.clone());
        let out = oblivious_distribute(buf, m);

        prop_assert_eq!(out.len(), m);
        for e in &input {
            let slot = out.as_slice()[(e.dest - 1) as usize];
            prop_assert_eq!(slot.value, e.value);
        }
        let live = out.as_slice().iter().filter(|e| !e.is_null()).count();
        prop_assert_eq!(live, n);
    }

    #[test]
    fn expand_matches_reference(counts in prop::collection::vec(0u64..6, 0..80)) {
        let tracer = counting();
        let x: Vec<K> = (0..counts.len() as u64).map(|i| Keyed::new(i, 1)).collect();
        let buf = tracer.alloc_from(x);
        let counts_for_closure = counts.clone();
        let out = oblivious_expand(buf, move |e| counts_for_closure[e.value as usize]);

        let expected: Vec<u64> = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &c)| std::iter::repeat_n(i as u64, c as usize))
            .collect();
        prop_assert_eq!(out.total as usize, expected.len());
        let got: Vec<u64> = out.table.as_slice().iter().map(|e| e.value).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn expand_trace_depends_only_on_shape(
        counts_a in prop::collection::vec(0u64..5, 1..60),
        swap_seed in any::<u64>(),
    ) {
        // Redistribute the same total over the same number of elements.
        let total: u64 = counts_a.iter().sum();
        let n = counts_a.len();
        let mut counts_b = vec![0u64; n];
        counts_b[(swap_seed as usize) % n] = total;

        let run = |counts: Vec<u64>| {
            let tracer = Tracer::new(CollectingSink::new());
            let x: Vec<K> = (0..counts.len() as u64).map(|i| Keyed::new(i, 1)).collect();
            let buf = tracer.alloc_from(x);
            let _ = oblivious_expand(buf, move |e| counts[e.value as usize]);
            tracer.with_sink(|s| s.accesses().to_vec())
        };
        prop_assert_eq!(run(counts_a), run(counts_b));
    }

    #[test]
    fn compact_matches_reference(pattern in prop::collection::vec(prop::option::of(0u64..1000), 0..150)) {
        let tracer = counting();
        let buf = tracer.alloc_from(
            pattern
                .iter()
                .map(|p| match p {
                    Some(v) => Keyed::new(*v, 1),
                    None => Keyed::null(),
                })
                .collect::<Vec<K>>(),
        );
        let c = oblivious_compact(buf);
        let expected: Vec<u64> = pattern.iter().flatten().copied().collect();
        prop_assert_eq!(c.live as usize, expected.len());
        let got: Vec<u64> = c.table.as_slice()[..c.live as usize].iter().map(|e| e.value).collect();
        prop_assert_eq!(got, expected);
        prop_assert!(c.table.as_slice()[c.live as usize..].iter().all(|e| e.is_null()));
    }

    #[test]
    fn comparison_counts_are_input_independent(
        a in prop::collection::vec(any::<u64>(), 1..150),
        seed in any::<u64>(),
    ) {
        let b: Vec<u64> = a.iter().map(|x| x.rotate_left((seed % 64) as u32) ^ seed).collect();
        let count = |v: Vec<u64>| {
            let tracer = counting();
            let mut buf = tracer.alloc_from(v);
            bitonic::sort_by_key(&mut buf, |x| *x);
            tracer.counters()
        };
        prop_assert_eq!(count(a), count(b));
    }
}

proptest! {
    // Sorts of ten thousand cells and more: fewer cases than above.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn partitioned_parallel_sort_is_trace_identical_to_serial(
        values in prop::collection::vec(0u64..64, bitonic::FORK_CELLS - 1..=2 * bitonic::FORK_CELLS + 3),
        threads in 2usize..9,
        descending in any::<bool>(),
    ) {
        use obliv_primitives::{with_parallelism, ParCtx, ScopedThreads};
        use std::sync::Arc;

        // Few distinct keys and a start position riding along: equal rows
        // mean the same permutation, ties included.
        let rows: Vec<(u64, u64)> = values.iter().enumerate().map(|(i, &v)| (v, i as u64)).collect();
        let dir = if descending { Direction::Descending } else { Direction::Ascending };
        let sort = |ctx: Option<ParCtx>| {
            let tracer = Tracer::new(HashingSink::new());
            let mut buf = tracer.alloc_from(rows.clone());
            match ctx {
                Some(ctx) => with_parallelism(ctx, || bitonic::sort_by_key_dir(&mut buf, dir, |r| r.0)),
                None => bitonic::sort_by_key_dir(&mut buf, dir, |r| r.0),
            }
            let (digest, events) = tracer.with_sink(|s| (s.digest(), s.events()));
            (buf.into_vec(), digest, events, tracer.counters())
        };
        let ctx = ParCtx::new(Arc::new(ScopedThreads), threads);
        let stats = ctx.stats();
        let forked = sort(Some(ctx));
        prop_assert_eq!(forked, sort(None));
        prop_assert_eq!(stats.forks() > 0, values.len() >= bitonic::FORK_CELLS);
    }
}
