//! Seeded input generators.
//!
//! The benchmark owns its PRNG and its generators (it does not call the
//! repo's `obliv-workloads`), so a program change cannot alter the inputs:
//! the program receives only the generated rows.  Every *public size* (row
//! counts, join output size `m`) is a constant of the workload, never a
//! function of the seed — the seed only changes contents and row order —
//! so runs with different seeds do the same amount of oblivious work and
//! their timings are comparable.

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, seedable, good enough to
/// fill tables.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One `(join key, data value)` row of a pair table.
pub type Pair = (u64, u64);

/// `kernel_balanced` inputs: `n` rows per side over the same `n` unique
/// keys, so `m = n` exactly.  Each side is in its own seeded order.
pub fn balanced_pairs(n: usize, rng: &mut SplitMix64) -> (Vec<Pair>, Vec<Pair>) {
    // Distinct keys: a seeded odd stride over a seeded offset.
    let stride = rng.next_u64() >> 24 | 1;
    let offset = rng.next_u64() >> 24;
    let keys: Vec<u64> = (0..n as u64).map(|i| offset + i * stride).collect();
    let side = |rng: &mut SplitMix64| {
        let mut rows: Vec<Pair> = keys.iter().map(|&k| (k, rng.next_u64() >> 16)).collect();
        rng.shuffle(&mut rows);
        rows
    };
    let left = side(rng);
    let right = side(rng);
    (left, right)
}

/// `kernel_expanding` inputs: `rows` rows per side spread evenly over
/// `keys` keys, so every key matches `(rows / keys)²` pairs and
/// `m = rows² / keys` exactly.
pub fn grouped_pairs(rows: usize, keys: usize, rng: &mut SplitMix64) -> (Vec<Pair>, Vec<Pair>) {
    assert_eq!(rows % keys, 0, "rows must divide evenly over the keys");
    let labels: Vec<u64> = {
        let stride = rng.next_u64() >> 24 | 1;
        (0..keys as u64).map(|k| 1 + k * stride).collect()
    };
    let side = |rng: &mut SplitMix64| {
        let mut out: Vec<Pair> = (0..rows)
            .map(|i| (labels[i % keys], rng.next_u64() >> 16))
            .collect();
        rng.shuffle(&mut out);
        out
    };
    let left = side(rng);
    let right = side(rng);
    (left, right)
}

/// One row of the wide `orders` table:
/// `{o_key: u64, price: u64, priority: i64, urgent: bool, region: bytes[4]}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Order {
    pub o_key: u64,
    pub price: u64,
    pub priority: i64,
    pub urgent: bool,
    pub region: [u8; 4],
}

/// One row of the wide `lineitem` table:
/// `{o_key: u64, qty: u64, tax: i64, part: bytes[8]}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    pub o_key: u64,
    pub qty: u64,
    pub tax: i64,
    pub part: [u8; 8],
}

pub const REGIONS: [[u8; 4]; 4] = [*b"east", *b"west", *b"nrth", *b"sth "];

/// Orders in the wide tables.
pub const ORDERS: usize = 256;
/// Value ranges.  `price` and `qty` are a thousand times wider than in the
/// repo's `wide_orders_lineitem`, so `engine_adhoc` can draw a filter
/// constant that no earlier op used (see `queries::AdhocDraws`); the
/// oblivious work does not depend on the values.
pub const PRICE: (u64, u64) = (10_000, 1_000_000);
pub const QTY: (u64, u64) = (1_000, 50_000);

/// Items per order: every order has 1–7 items, and the multiset of counts
/// is fixed so `|lineitem|` is the same for every seed; the seed decides
/// which order gets which count.
fn item_counts(orders: usize, rng: &mut SplitMix64) -> Vec<u64> {
    // 256 orders: 36 full 1..7 cycles (1008 items) and four orders of 7,
    // 1036 items in all — deliberately not a power of two.
    let mut counts: Vec<u64> = (0..orders as u64)
        .map(|i| if i < 252 { 1 + i % 7 } else { 7 })
        .collect();
    rng.shuffle(&mut counts);
    counts
}

/// The wide `orders ⋈ lineitem` tables (schemas as in the repo's
/// `wide_orders_lineitem`): [`ORDERS`] orders with unique `o_key`, each with
/// 1–7 line items, `lineitem` in seeded order.
pub fn orders_lineitem(rng: &mut SplitMix64) -> (Vec<Order>, Vec<Item>) {
    let orders: Vec<Order> = (0..ORDERS as u64)
        .map(|o| Order {
            o_key: o,
            price: rng.range(PRICE.0, PRICE.1),
            priority: rng.below(11) as i64 - 5,
            urgent: rng.below(4) == 0,
            region: REGIONS[rng.below(4) as usize],
        })
        .collect();
    let mut items = Vec::new();
    for (order, count) in item_counts(ORDERS, rng).into_iter().enumerate() {
        for item in 0..count {
            let mut part = [0u8; 8];
            part.copy_from_slice(format!("pt{:03}-{:02}", order % 1000, item).as_bytes());
            items.push(Item {
                o_key: order as u64,
                qty: rng.range(QTY.0, QTY.1),
                tax: rng.below(13) as i64 - 3,
                part,
            });
        }
    }
    rng.shuffle(&mut items);
    (orders, items)
}

/// A seeded permutation of `items` (same rows, new order).
pub fn permuted(items: &[Item], rng: &mut SplitMix64) -> Vec<Item> {
    let mut out = items.to_vec();
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_sizes_do_not_depend_on_the_seed() {
        let (o1, i1) = orders_lineitem(&mut SplitMix64::new(11));
        let (o2, i2) = orders_lineitem(&mut SplitMix64::new(11));
        let (o3, i3) = orders_lineitem(&mut SplitMix64::new(12));
        assert_eq!((&o1, &i1), (&o2, &i2));
        assert_ne!(i1, i3);
        assert_eq!((o1.len(), i1.len()), (o3.len(), i3.len()));
        assert_eq!(o1.len(), ORDERS);
    }

    #[test]
    fn pair_generators_hit_their_exact_output_sizes() {
        let (l, r) = balanced_pairs(1000, &mut SplitMix64::new(3));
        let mut keys: Vec<u64> = l.iter().map(|p| p.0).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 1000, "keys are unique");
        assert_eq!(crate::oracle::pair_join(&l, &r).len(), 1000);

        let (l, r) = grouped_pairs(256, 8, &mut SplitMix64::new(3));
        assert_eq!(crate::oracle::pair_join(&l, &r).len(), 256 * 256 / 8);
    }
}
