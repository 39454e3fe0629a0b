//! The per-query phase breakdown recorded into `QuerySummary`.

use std::time::Duration;

/// Per-query phase durations, in pipeline order.
///
/// All fields are wall-clock measurements and therefore **timing-class
/// leakage**: they appear in `QuerySummary` and in timing metrics but are
/// never part of a content-independence comparison.  The phases partition a
/// query's in-engine life:
///
/// | phase | span |
/// |---|---|
/// | `parse` | query text → logical plan (zero for pre-built plans) |
/// | `resolve` | plan resolution / lowering against the catalog |
/// | `queue_wait` | batch dispatched → a batch thread picks the job up |
/// | `execute` | the oblivious operator pipeline itself |
/// | `publish` | worker hand-off, result collection and finalisation |
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Text front-end time (zero when the query arrived as a plan).
    pub parse: Duration,
    /// Catalog resolution and lowering.
    pub resolve: Duration,
    /// Time the job waited behind its batch's earlier jobs.
    pub queue_wait: Duration,
    /// Oblivious execution proper.
    pub execute: Duration,
    /// Hand-off and result finalisation after execution.
    pub publish: Duration,
}

impl PhaseBreakdown {
    /// Phase names in pipeline order, matching [`Self::in_order`].
    pub const NAMES: [&'static str; 5] = ["parse", "resolve", "queue_wait", "execute", "publish"];

    /// Durations in pipeline order, matching [`Self::NAMES`].
    pub fn in_order(&self) -> [Duration; 5] {
        [
            self.parse,
            self.resolve,
            self.queue_wait,
            self.execute,
            self.publish,
        ]
    }

    /// Sum of all phases; a lower bound on the query's wall time.
    pub fn total(&self) -> Duration {
        self.in_order().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_total_sums_all_phases() {
        let p = PhaseBreakdown {
            parse: Duration::from_micros(1),
            resolve: Duration::from_micros(2),
            queue_wait: Duration::from_micros(3),
            execute: Duration::from_micros(4),
            publish: Duration::from_micros(5),
        };
        assert_eq!(p.total(), Duration::from_micros(15));
        assert_eq!(p.in_order().len(), PhaseBreakdown::NAMES.len());
    }
}
