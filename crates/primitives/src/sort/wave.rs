//! Wave leveling: grouping a [`RunSchedule`]'s gate runs into mutually
//! independent *waves* for intra-query parallel execution.
//!
//! Consecutive runs of a bitonic schedule frequently touch disjoint
//! windows — the recursion sorts sibling sub-ranges back to back — but the
//! serial driver executes them one after another anyway.  Splitting only
//! *within* runs caps the parallel fraction at the mass of the few large
//! runs; leveling runs into waves recovers essentially the whole network:
//! every run in a wave is pairwise disjoint from the others, so a parallel
//! driver can execute a whole wave concurrently and place one barrier per
//! wave instead of one per run.
//!
//! Leveling is a single scan of the schedule in execution order.  Each
//! array cell carries the level of the last run that touched it; a run's
//! level is one more than the maximum level over the cells of its two
//! windows.  This respects schedule order exactly where it matters: if two
//! runs overlap, the later one always lands in a strictly later wave, so
//! executing waves in order (with a barrier between them) performs the same
//! compare-exchanges on the same intermediate values as the serial walk.
//! Runs that the leveling reorders across waves are provably disjoint, and
//! the trace is emitted after the last wave by a walk of the network in
//! schedule order regardless (see
//! [`par_sort_by_key_dir`](super::bitonic::par_sort_by_key_dir)), so the
//! observable trace is unchanged.
//!
//! Like the run schedule itself, the wave plan is a pure function of the
//! public pair `(n, direction)` and is memoised process-wide.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use super::network::RunSchedule;
use super::Direction;

/// A [`RunSchedule`] leveled into waves of mutually independent runs.
///
/// Each wave holds indices into the schedule's run list; runs within a wave
/// touch pairwise disjoint windows, and a run always appears in a strictly
/// later wave than any earlier-scheduled run it overlaps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WavePlan {
    waves: Vec<Vec<u32>>,
}

impl WavePlan {
    /// Level `sched` (over an array of `n` elements) into waves.
    pub fn build(sched: &RunSchedule, n: usize) -> WavePlan {
        let mut cell_level = vec![0u32; n];
        let mut waves: Vec<Vec<u32>> = Vec::new();
        for (idx, run) in sched.runs().iter().enumerate() {
            let mut level = 0u32;
            for window in [run.lo, run.lo + run.stride] {
                for cell in &cell_level[window..window + run.count] {
                    level = level.max(*cell);
                }
            }
            let level = level + 1;
            for window in [run.lo, run.lo + run.stride] {
                for cell in &mut cell_level[window..window + run.count] {
                    *cell = level;
                }
            }
            let slot = (level - 1) as usize;
            if waves.len() <= slot {
                waves.resize_with(slot + 1, Vec::new);
            }
            waves[slot].push(idx as u32);
        }
        WavePlan { waves }
    }

    /// The waves in execution order; each entry is a list of run indices
    /// into the originating schedule, in schedule order.
    pub fn waves(&self) -> &[Vec<u32>] {
        &self.waves
    }

    /// Number of waves (the parallel driver's barrier count).
    pub fn len(&self) -> usize {
        self.waves.len()
    }

    /// True if the plan contains no waves.
    pub fn is_empty(&self) -> bool {
        self.waves.is_empty()
    }
}

/// Upper bound on distinct `(n, direction)` wave plans retained, mirroring
/// the schedule registry's cap: uncached requests still get a plan, it just
/// is not memoised.
const WAVE_REGISTRY_CAP: usize = 64;

type WaveMap = HashMap<(usize, bool), Arc<WavePlan>>;

fn wave_registry() -> &'static RwLock<WaveMap> {
    static SHARED: OnceLock<RwLock<WaveMap>> = OnceLock::new();
    SHARED.get_or_init(|| RwLock::new(HashMap::new()))
}

/// The memoised [`WavePlan`] for the bitonic schedule of `(n, dir)`.
///
/// Wave plans are pure functions of the public pair `(n, dir)`; a parallel
/// sort takes one read-locked lookup, and a miss builds and (capacity
/// permitting) publishes the plan.
pub fn cached_wave_plan(n: usize, dir: Direction) -> Arc<WavePlan> {
    let key = (n, dir == Direction::Descending);
    if let Some(plan) = wave_registry()
        .read()
        .expect("wave registry poisoned")
        .get(&key)
    {
        return Arc::clone(plan);
    }
    let sched = super::network::cached_bitonic_runs(n, dir);
    let plan = Arc::new(WavePlan::build(&sched, n));
    let mut map = wave_registry().write().expect("wave registry poisoned");
    if map.len() < WAVE_REGISTRY_CAP {
        return Arc::clone(map.entry(key).or_insert(plan));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::super::bitonic::run_schedule;
    use super::*;

    fn cells(run: &super::super::network::GateRun) -> Vec<usize> {
        let mut v: Vec<usize> = (run.lo..run.lo + run.count)
            .chain(run.lo + run.stride..run.lo + run.stride + run.count)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn waves_partition_the_schedule_and_respect_dependencies() {
        for n in [0usize, 1, 2, 3, 5, 8, 13, 33, 64, 100, 129] {
            let sched = run_schedule(n, Direction::Ascending);
            let plan = WavePlan::build(&sched, n);

            // Every run appears in exactly one wave.
            let mut seen = vec![false; sched.runs().len()];
            for wave in plan.waves() {
                for &ri in wave {
                    assert!(!seen[ri as usize], "run {ri} appears twice (n={n})");
                    seen[ri as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "every run leveled (n={n})");

            // Runs within a wave are pairwise disjoint.
            for wave in plan.waves() {
                for (a, &ra) in wave.iter().enumerate() {
                    for &rb in &wave[a + 1..] {
                        let ca = cells(&sched.runs()[ra as usize]);
                        let cb = cells(&sched.runs()[rb as usize]);
                        assert!(
                            ca.iter().all(|c| cb.binary_search(c).is_err()),
                            "runs {ra} and {rb} overlap within a wave (n={n})"
                        );
                    }
                }
            }

            // Overlapping runs keep their schedule order across waves.
            let mut wave_of = vec![0usize; sched.runs().len()];
            for (w, wave) in plan.waves().iter().enumerate() {
                for &ri in wave {
                    wave_of[ri as usize] = w;
                }
            }
            for (i, ra) in sched.runs().iter().enumerate() {
                for (j, rb) in sched.runs().iter().enumerate().skip(i + 1) {
                    let ca = cells(ra);
                    let cb = cells(rb);
                    if ca.iter().any(|c| cb.binary_search(c).is_ok()) {
                        assert!(
                            wave_of[i] < wave_of[j],
                            "overlapping runs {i} -> {j} share or invert waves (n={n})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn leveling_compresses_the_schedule() {
        // The whole point: far fewer barriers than runs.
        let n = 1024usize;
        let sched = run_schedule(n, Direction::Ascending);
        let plan = WavePlan::build(&sched, n);
        assert!(!plan.is_empty());
        assert!(
            plan.len() * 4 < sched.runs().len(),
            "waves {} vs runs {}",
            plan.len(),
            sched.runs().len()
        );
    }

    #[test]
    fn cached_plans_are_shared() {
        let a = cached_wave_plan(57, Direction::Ascending);
        let b = cached_wave_plan(57, Direction::Ascending);
        assert!(Arc::ptr_eq(&a, &b));
        let sched = run_schedule(57, Direction::Ascending);
        assert_eq!(*a, WavePlan::build(&sched, 57));
    }
}
