//! The plaintext oracle: a plain `HashMap`/`sort` evaluator for the pair join
//! and the eight query templates.  Every result the program returns is
//! compared with it as a multiset of rows, outside the timed span.

use std::collections::{BTreeMap, HashMap};

use crate::gen::{Item, Order, Pair};
use crate::queries::{Cell, Query, Table};

/// The `(d₁, d₂)` multiset of the equi-join of two pair tables, sorted.
pub fn pair_join(left: &[Pair], right: &[Pair]) -> Vec<Pair> {
    let mut by_key: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(k, v) in right {
        by_key.entry(k).or_default().push(v);
    }
    let mut out = Vec::new();
    for &(k, v) in left {
        for &w in by_key.get(&k).map_or(&[][..], Vec::as_slice) {
            out.push((v, w));
        }
    }
    out.sort_unstable();
    out
}

/// Sort `rows` in place and compare with the (already sorted) expectation.
pub fn same_multiset<T: Ord>(expected_sorted: &[T], rows: &mut [T]) -> bool {
    rows.sort_unstable();
    expected_sorted == rows
}

/// `orders ⋈ lineitem ON o_key`, as `(order, item)` pairs.
fn joined<'a>(orders: &'a [Order], items: &'a [Item]) -> Vec<(&'a Order, &'a Item)> {
    let by_key: HashMap<u64, &Order> = orders.iter().map(|o| (o.o_key, o)).collect();
    items
        .iter()
        .filter_map(|i| by_key.get(&i.o_key).map(|o| (*o, i)))
        .collect()
}

/// `SELECT key, fold(value) … GROUP BY key` over `(key, value)` pairs.
fn grouped<K: Ord>(
    pairs: impl Iterator<Item = (K, u64)>,
    fold: impl Fn(u64, u64) -> u64,
    key_cell: impl Fn(K) -> Cell,
) -> Table {
    let mut groups: BTreeMap<K, u64> = BTreeMap::new();
    for (k, v) in pairs {
        groups
            .entry(k)
            .and_modify(|acc| *acc = fold(*acc, v))
            .or_insert(v);
    }
    groups
        .into_iter()
        .map(|(k, v)| vec![key_cell(k), Cell::U(v)])
        .collect()
}

/// Evaluate `query` in plaintext; rows sorted.  Column order follows the
/// program's output schemas (`{group key, aggregate}`; the bare join is
/// `{o_key, orders payload…, lineitem payload…}`).
pub fn eval(query: &Query, orders: &[Order], items: &[Item]) -> Table {
    let sum = u64::wrapping_add;
    let region = |r: [u8; 4]| Cell::S(r.to_vec());
    let mut rows = match *query {
        Query::JoinPriceSumQty(c) => grouped(
            joined(orders, items)
                .into_iter()
                .filter(|(o, _)| o.price >= c)
                .map(|(o, i)| (o.o_key, i.qty)),
            sum,
            Cell::U,
        ),
        Query::OrdersSumPriceByRegion(c) => grouped(
            orders
                .iter()
                .filter(|o| o.price >= c)
                .map(|o| (o.region, o.price)),
            sum,
            region,
        ),
        Query::JoinCount => grouped(
            joined(orders, items).into_iter().map(|(o, _)| (o.o_key, 1)),
            sum,
            Cell::U,
        ),
        Query::ItemsMaxQtyByKey(c) => grouped(
            items
                .iter()
                .filter(|i| i.qty >= c)
                .map(|i| (i.o_key, i.qty)),
            u64::max,
            Cell::U,
        ),
        Query::UrgentCountByRegion => grouped(
            orders.iter().filter(|o| o.urgent).map(|o| (o.region, 1)),
            sum,
            region,
        ),
        Query::JoinQtySumQty(c) => grouped(
            joined(orders, items)
                .into_iter()
                .filter(|(_, i)| i.qty >= c)
                .map(|(o, i)| (o.o_key, i.qty)),
            sum,
            Cell::U,
        ),
        Query::JoinAll => joined(orders, items)
            .into_iter()
            .map(|(o, i)| {
                vec![
                    Cell::U(o.o_key),
                    Cell::U(o.price),
                    Cell::I(o.priority),
                    Cell::B(o.urgent),
                    Cell::S(o.region.to_vec()),
                    Cell::U(i.qty),
                    Cell::I(i.tax),
                    Cell::S(i.part.to_vec()),
                ]
            })
            .collect(),
        Query::ItemsSumQtyByKey => grouped(items.iter().map(|i| (i.o_key, i.qty)), sum, Cell::U),
    };
    rows.sort_unstable();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(o_key: u64, price: u64, urgent: bool, region: &[u8; 4]) -> Order {
        Order {
            o_key,
            price,
            priority: 0,
            urgent,
            region: *region,
        }
    }

    fn item(o_key: u64, qty: u64) -> Item {
        Item {
            o_key,
            qty,
            tax: 1,
            part: *b"pt000-00",
        }
    }

    #[test]
    fn pair_join_is_the_multiset_of_matching_values() {
        let left = [(1, 10), (1, 11), (2, 20), (3, 30)];
        let right = [(1, 100), (2, 200), (2, 201), (4, 400)];
        assert_eq!(
            pair_join(&left, &right),
            vec![(10, 100), (11, 100), (20, 200), (20, 201)]
        );
    }

    #[test]
    fn templates_evaluate_by_hand() {
        let orders = [
            order(1, 700, true, b"east"),
            order(2, 300, false, b"west"),
            order(3, 900, true, b"east"),
        ];
        let items = [item(1, 5), item(1, 30), item(2, 40), item(3, 7)];
        let u = Cell::U;
        let s = |b: &[u8]| Cell::S(b.to_vec());
        assert_eq!(
            eval(&Query::JoinPriceSumQty(500), &orders, &items),
            vec![vec![u(1), u(35)], vec![u(3), u(7)]]
        );
        assert_eq!(
            eval(&Query::OrdersSumPriceByRegion(500), &orders, &items),
            vec![vec![s(b"east"), u(1600)]]
        );
        assert_eq!(
            eval(&Query::JoinCount, &orders, &items),
            vec![vec![u(1), u(2)], vec![u(2), u(1)], vec![u(3), u(1)]]
        );
        assert_eq!(
            eval(&Query::ItemsMaxQtyByKey(25), &orders, &items),
            vec![vec![u(1), u(30)], vec![u(2), u(40)]]
        );
        assert_eq!(
            eval(&Query::UrgentCountByRegion, &orders, &items),
            vec![vec![s(b"east"), u(2)]]
        );
        assert_eq!(
            eval(&Query::JoinQtySumQty(10), &orders, &items),
            vec![vec![u(1), u(30)], vec![u(2), u(40)]]
        );
        assert_eq!(eval(&Query::JoinAll, &orders, &items).len(), 4);
        assert_eq!(
            eval(&Query::ItemsSumQtyByKey, &orders, &items),
            vec![vec![u(1), u(35)], vec![u(2), u(40)], vec![u(3), u(7)]]
        );
    }

    #[test]
    fn a_wrong_row_is_a_mismatch() {
        let expected = vec![(1u64, 2u64), (3, 4)];
        assert!(same_multiset(&expected, &mut [(3, 4), (1, 2)]));
        assert!(!same_multiset(&expected, &mut [(3, 4), (1, 3)]));
        assert!(!same_multiset(&expected, &mut [(3, 4)]));
    }
}
