//! The eight query templates of the engine, server and shard workloads.
//!
//! A [`Query`] is plain data: [`Query::text`] renders it for the repo's text
//! frontend, `oracle::eval` evaluates it in plaintext, and
//! `layers::run_direct` replays it as direct operator calls.

use std::collections::HashSet;

use crate::gen::{SplitMix64, PRICE, QTY};

/// One value of a result row, in the benchmark's own terms.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cell {
    U(u64),
    I(i64),
    B(bool),
    S(Vec<u8>),
}

/// A result table: rows of cells.
pub type Table = Vec<Vec<Cell>>;

/// One instantiated query template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// `JOIN orders lineitem ON o_key | FILTER price>=C | AGG sum(qty)`
    JoinPriceSumQty(u64),
    /// `SCAN orders | FILTER price>=C | AGG sum(price) BY region`
    OrdersSumPriceByRegion(u64),
    /// `JOIN orders lineitem ON o_key | AGG count`
    JoinCount,
    /// `SCAN lineitem | FILTER qty>=C | AGG max(qty) BY o_key`
    ItemsMaxQtyByKey(u64),
    /// `SCAN orders | FILTER urgent=true | AGG count BY region`
    UrgentCountByRegion,
    /// `JOIN orders lineitem ON o_key | FILTER qty>=C | AGG sum(qty)`
    JoinQtySumQty(u64),
    /// `JOIN orders lineitem ON o_key`
    JoinAll,
    /// `SCAN lineitem | AGG sum(qty) BY o_key`
    ItemsSumQtyByKey,
}

/// The filter constants of the fixed templates: the middle of the `price`
/// range, the middle of the `qty` range, and a fifth of the way into it
/// (500 / 25 / 10 on the repo generator's thousand-times-narrower ranges).
pub const C1: u64 = 500_000;
pub const C2: u64 = 25_000;
pub const C3: u64 = 10_000;

impl Query {
    /// The query in the repo's pipeline text language.
    pub fn text(&self) -> String {
        match self {
            Query::JoinPriceSumQty(c) => {
                format!("JOIN orders lineitem ON o_key | FILTER price>={c} | AGG sum(qty)")
            }
            Query::OrdersSumPriceByRegion(c) => {
                format!("SCAN orders | FILTER price>={c} | AGG sum(price) BY region")
            }
            Query::JoinCount => "JOIN orders lineitem ON o_key | AGG count".to_string(),
            Query::ItemsMaxQtyByKey(c) => {
                format!("SCAN lineitem | FILTER qty>={c} | AGG max(qty) BY o_key")
            }
            Query::UrgentCountByRegion => {
                "SCAN orders | FILTER urgent=true | AGG count BY region".to_string()
            }
            Query::JoinQtySumQty(c) => {
                format!("JOIN orders lineitem ON o_key | FILTER qty>={c} | AGG sum(qty)")
            }
            Query::JoinAll => "JOIN orders lineitem ON o_key".to_string(),
            Query::ItemsSumQtyByKey => "SCAN lineitem | AGG sum(qty) BY o_key".to_string(),
        }
    }
}

/// The eight templates with their fixed constants (`engine_refresh`,
/// `server_warm`, `shard_scatter`).
pub fn fixed_batch() -> Vec<Query> {
    vec![
        Query::JoinPriceSumQty(C1),
        Query::OrdersSumPriceByRegion(C1),
        Query::JoinCount,
        Query::ItemsMaxQtyByKey(C2),
        Query::UrgentCountByRegion,
        Query::JoinQtySumQty(C3),
        Query::JoinAll,
        Query::ItemsSumQtyByKey,
    ]
}

/// Fresh filter constants for `engine_adhoc`.
///
/// Every plan of every op must be new to the engine's result cache, so the
/// batch is the four templates that carry a filter constant, instantiated
/// twice each (the other four have nothing to vary and would be cache hits
/// from the second op on), and no constant is ever drawn twice for the same
/// column.  Constants come from the middle 30 % of the column's range: the
/// revealed filter sizes differ from op to op, but an op's cost does not
/// swing with the luck of the draw.
#[derive(Debug)]
pub struct AdhocDraws {
    rng: SplitMix64,
    used_price: HashSet<u64>,
    used_qty: HashSet<u64>,
}

impl AdhocDraws {
    pub fn new(rng: SplitMix64) -> Self {
        AdhocDraws {
            rng,
            used_price: HashSet::new(),
            used_qty: HashSet::new(),
        }
    }

    fn fresh(rng: &mut SplitMix64, used: &mut HashSet<u64>, (lo, hi): (u64, u64)) -> u64 {
        let span = hi - lo;
        let (lo, hi) = (lo + span * 35 / 100, lo + span * 65 / 100);
        loop {
            let c = rng.range(lo, hi);
            if used.insert(c) {
                return c;
            }
        }
    }

    /// The next op's eight plans.
    pub fn next_batch(&mut self) -> Vec<Query> {
        let mut batch = Vec::with_capacity(8);
        for _ in 0..2 {
            let price = |s: &mut Self| Self::fresh(&mut s.rng, &mut s.used_price, PRICE);
            let qty = |s: &mut Self| Self::fresh(&mut s.rng, &mut s.used_qty, QTY);
            batch.push(Query::JoinPriceSumQty(price(self)));
            batch.push(Query::OrdersSumPriceByRegion(price(self)));
            batch.push(Query::ItemsMaxQtyByKey(qty(self)));
            batch.push(Query::JoinQtySumQty(qty(self)));
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adhoc_never_repeats_a_plan() {
        let mut draws = AdhocDraws::new(SplitMix64::new(11));
        let mut seen = HashSet::new();
        for _ in 0..200 {
            for q in draws.next_batch() {
                assert!(seen.insert(q.text()), "plan text repeated");
            }
        }
    }
}
