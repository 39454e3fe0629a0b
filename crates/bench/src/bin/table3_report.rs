//! Table 3 reproduction: per-subroutine operation counts and runtime share.
//!
//! The paper reports, for `m ≈ n₁ = n₂` and `n = 10⁶`:
//!
//! | subroutine              | comparisons        | runtime share |
//! |-------------------------|--------------------|---------------|
//! | initial sorts on TC     | n(log₂ n)²/2       | 60 %          |
//! | o.d. on T1, T2 (sort)   | n₁(log₂ n₁)²/2     | 25 %          |
//! | o.d. on T1, T2 (route)  | 2m·log₂ m          |  3 %          |
//! | align sort on S2        | m(log₂ m)²/4       | 12 %          |
//!
//! This implementation has a different set of subroutines — one sort on
//! `T_C` instead of two, and an order-preserving compaction where each
//! distribution sorted — so the report has two parts: the breakdown of what
//! the code runs (exact counts from the per-phase counters and the cost
//! model, wall-clock shares from the per-phase timers), and the paper's
//! table as published, for comparison of the totals.
//!
//! Run with `cargo run --release -p obliv-bench --bin table3_report
//! [--full]` (`--full` uses n = 10⁶ like the paper; the default is 10⁵).

use obliv_bench::ReportOptions;
use obliv_join::cost;
use obliv_join::{oblivious_join, Phase};
use obliv_workloads::balanced_unique_keys;

fn main() {
    let opts = ReportOptions::from_args();
    let n: usize = if opts.full { 1_000_000 } else { 100_000 };
    let workload = balanced_unique_keys(n / 2, 7);

    println!("# Table 3 reproduction — n = {n}, m = n1 = n2 = {}", n / 2);
    let result = oblivious_join(&workload.left, &workload.right);
    assert_eq!(result.stats.output_size as usize, n / 2);

    let stats = &result.stats;
    let total_wall = stats.total_wall().as_secs_f64();
    let share = |seconds: f64| 100.0 * seconds / total_wall.max(1e-12);
    let predicted = cost::predict(n / 2, n / 2, result.stats.output_size as usize);

    // Wall-clock attribution: the augment and align phases are single
    // subroutines; the two expand phases contain both the compaction and
    // the route, so their wall time is split proportionally to the hop
    // counts of the two parts (the cost model's, which the cross-check
    // below holds equal to the measured total).
    let expand_wall = stats.phase(Phase::ExpandLeft).wall.as_secs_f64()
        + stats.phase(Phase::ExpandRight).wall.as_secs_f64();
    let route_hops = predicted.routing_hops - predicted.compaction_hops;
    let hop_share = |hops: u64| hops as f64 / predicted.routing_hops.max(1) as f64;

    println!();
    println!(
        "{:<34} {:>16} {:>10}",
        "subroutine (this implementation)", "measured ops", "runtime %"
    );
    let measured = stats.table3_rows();
    for (label, ops, wall) in [
        (
            measured[0].0,
            measured[0].1,
            stats.phase(Phase::Augment).wall.as_secs_f64(),
        ),
        (
            "  compaction of TC, twice",
            predicted.compaction_hops,
            expand_wall * hop_share(predicted.compaction_hops),
        ),
        (
            "  route to S1, S2",
            route_hops,
            expand_wall * hop_share(route_hops),
        ),
        (
            measured[2].0,
            measured[2].1,
            stats.phase(Phase::Align).wall.as_secs_f64(),
        ),
    ] {
        println!("{label:<34} {ops:>16} {:>9.1}%", share(wall));
    }
    assert_eq!(measured[1].1, predicted.routing_hops, "{}", measured[1].0);

    println!(
        "{:<34} {:>16} {:>9.1}%",
        "linear passes + zip",
        stats.total_ops().linear_steps,
        share(stats.phase(Phase::Zip).wall.as_secs_f64()),
    );

    println!();
    println!("# the paper's Table 3 (Algorithms 2-5 as published, formulas at this n)");
    println!(
        "{:<34} {:>16} {:>10}",
        "subroutine (paper)", "paper formula", "paper %"
    );
    for ((label, formula), paper_share) in cost::paper_estimate(n).iter().zip([60, 25, 3, 12]) {
        println!("{label:<34} {formula:>16.0} {paper_share:>9}%");
    }

    println!();
    println!(
        "total counted ops measured: {} (paper estimate n log^2 n + n log n = {:.0})",
        stats.total_ops().comparisons + stats.total_ops().routing_hops,
        cost::paper_total_estimate(n)
    );
    println!("total wall time: {:.3} s", total_wall);
    println!();
    println!("# exact cost-model cross-check (must match the measured counters)");
    println!(
        "measured comparisons {} vs predicted {}",
        stats.total_ops().comparisons,
        predicted.total_comparisons()
    );
    println!(
        "measured routing hops {} vs predicted {}",
        stats.total_ops().routing_hops,
        predicted.routing_hops
    );
    assert_eq!(stats.total_ops().comparisons, predicted.total_comparisons());
    assert_eq!(stats.total_ops().routing_hops, predicted.routing_hops);
}
