//! Per-phase execution statistics.
//!
//! The paper's Table 3 breaks the algorithm's cost down by subroutine
//! (initial sorts on `T_C`, the sorts inside the two oblivious
//! distributions, the routing passes, the alignment sort) in terms of
//! comparison counts and share of total runtime.  [`JoinStats`] captures the
//! breakdown of this implementation for every run of the join — operation
//! counters and wall time per phase — where the distributions' sorts are
//! compactions and count as routing hops (see [`crate::cost`]).

use std::time::Duration;

use obliv_trace::OpCounters;

/// The phases of Algorithm 1, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Algorithm 2: concatenate, one sort over `n = n₁ + n₂`, two linear
    /// passes.
    Augment,
    /// Oblivious expansion of `T_C`'s `T₁` entries into `S₁` (copy and
    /// compaction over `n`, route over `m`).
    ExpandLeft,
    /// Oblivious expansion of `T_C`'s `T₂` entries into `S₂` (compaction
    /// over `n`, route over `m`).
    ExpandRight,
    /// Algorithm 5: alignment pass and sort over `m`.
    Align,
    /// The final linear zip producing the output rows.
    Zip,
}

impl Phase {
    /// All phases in execution order.
    pub const ALL: [Phase; 5] = [
        Phase::Augment,
        Phase::ExpandLeft,
        Phase::ExpandRight,
        Phase::Align,
        Phase::Zip,
    ];

    /// Human-readable label used by reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Augment => "augment (sort on TC)",
            Phase::ExpandLeft => "expand TC -> S1",
            Phase::ExpandRight => "expand TC -> S2",
            Phase::Align => "align S2",
            Phase::Zip => "zip output",
        }
    }
}

/// Counters and wall time attributed to one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Operation counters accumulated during the phase.
    pub ops: OpCounters,
    /// Wall-clock time spent in the phase.
    pub wall: Duration,
}

/// Statistics for one full join execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Size of the left input table.
    pub n1: u64,
    /// Size of the right input table.
    pub n2: u64,
    /// Output size `m`.
    pub output_size: u64,
    /// Per-phase breakdown, indexed by [`Phase::ALL`] order.
    phases: [PhaseStats; 5],
}

impl JoinStats {
    /// Create an empty statistics record for the given input sizes.
    pub fn new(n1: u64, n2: u64) -> Self {
        JoinStats {
            n1,
            n2,
            output_size: 0,
            phases: [PhaseStats::default(); 5],
        }
    }

    pub(crate) fn record_phase(&mut self, phase: Phase, ops: OpCounters, wall: Duration) {
        self.phases[phase as usize] = PhaseStats { ops, wall };
    }

    /// Statistics for one phase.
    pub fn phase(&self, phase: Phase) -> PhaseStats {
        self.phases[phase as usize]
    }

    /// Sum of the operation counters across all phases.
    pub fn total_ops(&self) -> OpCounters {
        self.phases
            .iter()
            .fold(OpCounters::zero(), |acc, p| acc + p.ops)
    }

    /// Total wall-clock time across all phases.
    pub fn total_wall(&self) -> Duration {
        self.phases.iter().map(|p| p.wall).sum()
    }

    /// Fraction of the total wall time spent in `phase` (0 if nothing was
    /// timed, e.g. for empty inputs).
    pub fn wall_share(&self, phase: Phase) -> f64 {
        let total = self.total_wall().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        self.phase(phase).wall.as_secs_f64() / total
    }

    /// This implementation's counterpart of the paper's Table 3 rows, as
    /// (label, comparison-or-hop count) pairs: the sort on `T_C`, the hops
    /// of the two expansions (compaction over `n₁ + n₂` plus route over `m`,
    /// per side), and the alignment sort.
    pub fn table3_rows(&self) -> Vec<(&'static str, u64)> {
        let augment = self.phase(Phase::Augment).ops;
        let expand = self.phase(Phase::ExpandLeft).ops + self.phase(Phase::ExpandRight).ops;
        let align = self.phase(Phase::Align).ops;
        vec![
            ("sort on TC", augment.comparisons),
            ("expand S1, S2 (compact + route)", expand.routing_hops),
            ("align sort on S2", align.comparisons),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(comparisons: u64, hops: u64) -> OpCounters {
        OpCounters {
            comparisons,
            compare_exchanges: comparisons,
            routing_hops: hops,
            linear_steps: 1,
        }
    }

    #[test]
    fn phases_enumerate_in_order() {
        assert_eq!(Phase::ALL.len(), 5);
        assert_eq!(Phase::ALL[0], Phase::Augment);
        assert_eq!(Phase::ALL[4], Phase::Zip);
        for p in Phase::ALL {
            assert!(!p.label().is_empty());
        }
    }

    #[test]
    fn record_and_aggregate() {
        let mut stats = JoinStats::new(4, 6);
        stats.output_size = 9;
        stats.record_phase(Phase::Augment, counters(10, 0), Duration::from_millis(10));
        stats.record_phase(Phase::ExpandLeft, counters(0, 7), Duration::from_millis(20));
        stats.record_phase(
            Phase::ExpandRight,
            counters(0, 8),
            Duration::from_millis(30),
        );
        stats.record_phase(Phase::Align, counters(5, 0), Duration::from_millis(40));

        assert_eq!(stats.phase(Phase::Augment).ops.comparisons, 10);
        assert_eq!(stats.total_ops().comparisons, 15);
        assert_eq!(stats.total_ops().routing_hops, 15);
        assert_eq!(stats.total_wall(), Duration::from_millis(100));
        assert!((stats.wall_share(Phase::Align) - 0.4).abs() < 1e-9);

        let rows = stats.table3_rows();
        assert_eq!(rows[0], ("sort on TC", 10));
        assert_eq!(rows[1], ("expand S1, S2 (compact + route)", 15));
        assert_eq!(rows[2], ("align sort on S2", 5));
    }

    #[test]
    fn wall_share_of_empty_stats_is_zero() {
        let stats = JoinStats::new(0, 0);
        assert_eq!(stats.wall_share(Phase::Zip), 0.0);
        assert_eq!(stats.total_ops(), OpCounters::zero());
    }
}
