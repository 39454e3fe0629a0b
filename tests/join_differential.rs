//! Differential test of the join kernel on random skewed inputs: the output
//! must be the insecure sort-merge join's multiset **and** keep the order
//! contract callers rely on — grouped by join value ascending, and within a
//! group every `T₁` row in `d₁` order paired with the group's `T₂` rows in
//! `d₂` order (`(d₁, d₂)`-lexicographic wherever a group's `d₁` are distinct)
//! — whatever the kernel does internally to get there (one sort over `T_C`,
//! expansion straight from it).
//!
//! The same cases run a second time through `oblivious_join_payloads` with
//! three-word payloads, so the kernel's records are checked at a width
//! other than one word: the wide rows must project back to the `u64`
//! join's, row for row.

use obliv_join_suite::join::sorted_rows;
use obliv_join_suite::prelude::*;

/// splitmix64, so the cases are the same on every run and every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn table(&mut self, rows: u64, mut key: impl FnMut(&mut Rng) -> u64, values: u64) -> Table {
        (0..rows)
            .map(|_| {
                let k = key(self);
                (k, self.below(values))
            })
            .collect()
    }
}

/// One input pair per `(shape, seed)`; every shape is one the kernel's
/// restructuring could plausibly get wrong.
fn case(shape: u64, rng: &mut Rng) -> (&'static str, Table, Table) {
    let n1 = 1 + rng.below(120);
    let n2 = 1 + rng.below(120);
    match shape {
        0 => (
            "many-to-many over a small key domain",
            rng.table(n1, |r| r.below(9), 1000),
            rng.table(n2, |r| r.below(9), 1000),
        ),
        1 => (
            "disjoint keys (m = 0)",
            rng.table(n1, |r| 2 * r.below(50), 1000),
            rng.table(n2, |r| 2 * r.below(50) + 1, 1000),
        ),
        2 => (
            "empty left side",
            Table::new(),
            rng.table(n2, |r| r.below(9), 1000),
        ),
        3 => (
            "empty right side",
            rng.table(n1, |r| r.below(9), 1000),
            Table::new(),
        ),
        4 => (
            "one giant group beside singletons",
            rng.table(
                n1,
                |r| if r.below(4) == 0 { 1 + r.below(40) } else { 0 },
                1000,
            ),
            rng.table(
                n2,
                |r| if r.below(4) == 0 { 1 + r.below(40) } else { 0 },
                1000,
            ),
        ),
        5 => (
            "duplicate (j, d) rows",
            rng.table(n1, |r| r.below(4), 2),
            rng.table(n2, |r| r.below(4), 2),
        ),
        6 => (
            "n1 << n2",
            rng.table(1 + n1 % 4, |r| r.below(6), 1000),
            rng.table(300 + n2, |r| r.below(6), 1000),
        ),
        7 => (
            "n1 >> n2",
            rng.table(300 + n1, |r| r.below(6), 1000),
            rng.table(1 + n2 % 4, |r| r.below(6), 1000),
        ),
        _ => (
            "cubic key skew, keys on one side only at both ends",
            rng.table(n1, |r| r.below(30).pow(3) / 900, 1000),
            rng.table(n2, |r| 5 + r.below(30).pow(3) / 900, 1000),
        ),
    }
}

#[test]
fn kernel_output_equals_sort_merge_in_multiset_and_order() {
    let mut rng = Rng(0x5eed_0017);
    for round in 0..40 {
        for shape in 0..9 {
            let (label, left, right) = case(shape, &mut rng);
            let result = oblivious_join(&left, &right);
            let (baseline, _) = sort_merge_join(&left, &right);
            let label = format!(
                "{label}, round {round}, n1={} n2={}",
                left.len(),
                right.len()
            );

            assert_eq!(result.stats.output_size as usize, baseline.len(), "{label}");
            assert_eq!(
                sorted_rows(result.rows.clone()),
                sorted_rows(baseline.clone()),
                "multiset: {label}"
            );

            // The order contract: groups by j ascending; inside a group the
            // T₁ rows in d₁ order, each paired with the group's T₂ rows in d₂
            // order.  The first half stated on its own ...
            assert_eq!(result.keys.len(), result.rows.len(), "{label}");
            let outer: Vec<(u64, u64)> = result
                .keys
                .iter()
                .zip(&result.rows)
                .map(|(&j, row)| (j, row.left))
                .collect();
            assert!(outer.windows(2).all(|w| w[0] <= w[1]), "order: {label}");
            // ... and the whole of it as what a sort-merge join over
            // (j, d)-sorted inputs emits, row for row.
            assert_eq!(result.rows, baseline, "row-for-row: {label}");
        }
    }
}

/// A three-word payload whose words are distinct functions of `d`; the
/// first word is `d` itself, so the payloads order as the `d` they carry.
fn widen(d: u64) -> [u64; 3] {
    [d, d.wrapping_mul(0x9E37_79B9_7F4A_7C15), !d.rotate_left(17)]
}

#[test]
fn wide_payload_kernel_keeps_the_order_contract() {
    let mut rng = Rng(0x5eed_0017);
    for round in 0..40 {
        for shape in 0..9 {
            let (label, left, right) = case(shape, &mut rng);
            let label = format!(
                "{label}, round {round}, n1={} n2={}",
                left.len(),
                right.len()
            );
            let narrow = oblivious_join(&left, &right);
            let wide_side = |t: &Table| -> Vec<(u64, [u64; 3])> {
                t.iter().map(|e| (e.key, widen(e.value))).collect()
            };
            let tracer = Tracer::new(NullSink);
            let wide = obliv_join_suite::join::oblivious_join_payloads(
                &tracer,
                &wide_side(&left),
                &wide_side(&right),
            );

            assert_eq!(wide.stats.output_size, narrow.stats.output_size, "{label}");
            assert_eq!(wide.keys, narrow.keys, "keys: {label}");
            // Every word of a row travels with the row ...
            assert!(
                wide.rows
                    .iter()
                    .all(|r| r.left == widen(r.left[0]) && r.right == widen(r.right[0])),
                "words: {label}"
            );
            // ... the first words are the u64 join's rows, row for row, so
            // the wide kernel keeps its order contract ...
            let projected: Vec<JoinRow> = wide
                .rows
                .iter()
                .map(|r| JoinRow::new(r.left[0], r.right[0]))
                .collect();
            assert_eq!(projected, narrow.rows, "row-for-row: {label}");
            // ... which, stated on the wide rows alone, starts with groups
            // by j ascending and each group's T₁ rows in d₁ order.
            let outer: Vec<(u64, [u64; 3])> = wide
                .keys
                .iter()
                .zip(&wide.rows)
                .map(|(&j, row)| (j, row.left))
                .collect();
            assert!(outer.windows(2).all(|w| w[0] <= w[1]), "order: {label}");
        }
    }
}
