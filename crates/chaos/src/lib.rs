//! # obliv-chaos — deterministic, seeded fault injection
//!
//! The server and engine thread named *injection points* through their
//! failure-prone paths (`server/read`, `engine/worker`, …).  A test builds
//! a [`FaultPlan`] — "panic on the 2nd hit of `engine/worker`", "delay
//! `server/read` with probability 150‰ under seed 42" — and hands the
//! resulting [`Faults`] handle to a `ServerConfig`/`EngineConfig`.
//! Production code consults [`Faults::hit`] at each point and applies
//! whatever fault it returns.
//!
//! Two properties make the harness usable:
//!
//! * **Determinism.**  Each point keeps its own hit counter; deterministic
//!   rules fire on exact hit windows, and probabilistic rules hash
//!   `(seed, point, hit index)` with a splitmix64-style mixer — so a fault
//!   schedule replays identically for a given seed regardless of thread
//!   interleaving, and a failing run is reproducible from its printed seed.
//! * **Zero cost when disabled.**  With the `inject` feature off (release
//!   builds depend on this crate with `default-features = false`),
//!   [`Faults`] is a unit type and [`Faults::hit`] is a constant `None`
//!   that the optimiser deletes along with every injection point.
//!
//! `ServerConfig` and `EngineConfig` above refer to `obliv-server` and
//! `obliv-engine`; this crate depends on nothing, so it sits below both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

/// A fault to apply at an injection point.  The *meaning* of each variant
/// is up to the call site (documented at each injection point): transport
/// points interpret `Torn` as "write part of the frame, then fail",
/// compute points interpret `Panic` as an actual `panic!`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic at the injection point (exercises `catch_unwind` recovery).
    Panic,
    /// Sleep for the given duration before continuing (slow handler, slow
    /// job, delayed frame).
    Delay(Duration),
    /// Fail with an I/O-style error (accept failure, read/write error).
    Error,
    /// Tear the operation: perform it partially, then fail (torn frame,
    /// mid-frame disconnect).
    Torn,
    /// Drop the connection/operation outright without a partial effect.
    Disconnect,
}

/// Splitmix64 — a tiny, high-quality 64-bit mixer; the standard choice for
/// seeding deterministic test randomness without a rand dependency.
#[cfg(feature = "inject")]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over the point name, so each point gets an independent
/// deterministic stream for a given seed.
#[cfg(feature = "inject")]
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(feature = "inject")]
mod imp {
    use super::{fnv1a, splitmix64, Fault};
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    #[derive(Debug, Clone)]
    enum Trigger {
        /// Fire on hit indices `start..end` (0-based).
        Window { start: u64, end: u64 },
        /// Fire on each hit independently with probability `per_mille`/1000,
        /// derived deterministically from `(seed, point, hit index)`.
        PerMille(u16),
    }

    #[derive(Debug, Clone)]
    struct Rule {
        point: &'static str,
        trigger: Trigger,
        fault: Fault,
    }

    #[derive(Debug, Default)]
    struct Counters {
        /// Consults per point (every `hit` call).
        seen: HashMap<&'static str, u64>,
        /// Faults actually fired per point.
        fired: HashMap<&'static str, u64>,
    }

    #[derive(Debug)]
    pub(super) struct Injector {
        seed: u64,
        rules: Vec<Rule>,
        counters: Mutex<Counters>,
    }

    /// Builder for a fault schedule.  See the crate docs for semantics.
    #[derive(Debug, Default)]
    pub struct FaultPlan {
        seed: u64,
        rules: Vec<Rule>,
    }

    impl FaultPlan {
        /// Start an empty plan (seed 0, no rules).
        pub fn new() -> Self {
            Self::default()
        }

        /// Set the seed for probabilistic rules.
        #[must_use]
        pub fn seed(mut self, seed: u64) -> Self {
            self.seed = seed;
            self
        }

        /// Fire `fault` on the first hit of `point`, once.
        #[must_use]
        pub fn once(self, point: &'static str, fault: Fault) -> Self {
            self.nth(point, 0, fault)
        }

        /// Fire `fault` on the `n`-th (0-based) hit of `point`, once.
        #[must_use]
        pub fn nth(mut self, point: &'static str, n: u64, fault: Fault) -> Self {
            self.rules.push(Rule {
                point,
                trigger: Trigger::Window {
                    start: n,
                    end: n + 1,
                },
                fault,
            });
            self
        }

        /// Fire `fault` on hits `start..end` (0-based, half-open) of `point`.
        #[must_use]
        pub fn window(mut self, point: &'static str, start: u64, end: u64, fault: Fault) -> Self {
            self.rules.push(Rule {
                point,
                trigger: Trigger::Window { start, end },
                fault,
            });
            self
        }

        /// Fire `fault` on each hit of `point` independently with
        /// probability `per_mille`/1000, deterministically in the plan's
        /// seed (clamped to 1000).
        #[must_use]
        pub fn with_probability(
            mut self,
            point: &'static str,
            per_mille: u16,
            fault: Fault,
        ) -> Self {
            self.rules.push(Rule {
                point,
                trigger: Trigger::PerMille(per_mille.min(1000)),
                fault,
            });
            self
        }

        /// Finish the plan into a cheap, cloneable [`Faults`] handle.
        pub fn build(self) -> Faults {
            Faults(Some(Arc::new(Injector {
                seed: self.seed,
                rules: self.rules,
                counters: Mutex::new(Counters::default()),
            })))
        }
    }

    /// A handle to a fault schedule, threaded through `ServerConfig` /
    /// `EngineConfig`.  `Faults::default()` injects nothing.  Clones share
    /// the same hit counters, so a schedule built once observes every
    /// component it was handed to.
    #[derive(Debug, Clone, Default)]
    pub struct Faults(Option<Arc<Injector>>);

    impl Faults {
        /// Consult the schedule at a named injection point.  Returns the
        /// fault to apply, if any rule fires on this hit.
        #[inline]
        pub fn hit(&self, point: &'static str) -> Option<Fault> {
            let injector = self.0.as_ref()?;
            let mut counters = injector
                .counters
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let n = counters.seen.entry(point).or_insert(0);
            let hit_index = *n;
            *n += 1;
            let fault = injector.rules.iter().find_map(|rule| {
                if rule.point != point {
                    return None;
                }
                let fires = match rule.trigger {
                    Trigger::Window { start, end } => hit_index >= start && hit_index < end,
                    Trigger::PerMille(p) => {
                        splitmix64(injector.seed ^ fnv1a(point) ^ hit_index) % 1000 < u64::from(p)
                    }
                };
                fires.then_some(rule.fault)
            })?;
            *counters.fired.entry(point).or_insert(0) += 1;
            Some(fault)
        }

        /// How many times `point` has been consulted.
        pub fn seen(&self, point: &'static str) -> u64 {
            self.0.as_ref().map_or(0, |injector| {
                let counters = injector
                    .counters
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                counters.seen.get(point).copied().unwrap_or(0)
            })
        }

        /// How many faults have fired at `point`.
        pub fn fired(&self, point: &'static str) -> u64 {
            self.0.as_ref().map_or(0, |injector| {
                let counters = injector
                    .counters
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                counters.fired.get(point).copied().unwrap_or(0)
            })
        }

        /// Total faults fired across every point.
        pub fn fired_total(&self) -> u64 {
            self.0.as_ref().map_or(0, |injector| {
                let counters = injector
                    .counters
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                counters.fired.values().sum()
            })
        }
    }
}

#[cfg(not(feature = "inject"))]
mod imp {
    use super::Fault;

    /// Builder for a fault schedule.  With the `inject` feature disabled
    /// every rule is discarded and [`FaultPlan::build`] returns the inert
    /// handle.
    #[derive(Debug, Default)]
    pub struct FaultPlan;

    impl FaultPlan {
        /// Start an empty plan.
        pub fn new() -> Self {
            Self
        }

        /// No-op (injection disabled).
        #[must_use]
        pub fn seed(self, _seed: u64) -> Self {
            self
        }

        /// No-op (injection disabled).
        #[must_use]
        pub fn once(self, _point: &'static str, _fault: Fault) -> Self {
            self
        }

        /// No-op (injection disabled).
        #[must_use]
        pub fn nth(self, _point: &'static str, _n: u64, _fault: Fault) -> Self {
            self
        }

        /// No-op (injection disabled).
        #[must_use]
        pub fn window(self, _point: &'static str, _start: u64, _end: u64, _fault: Fault) -> Self {
            self
        }

        /// No-op (injection disabled).
        #[must_use]
        pub fn with_probability(
            self,
            _point: &'static str,
            _per_mille: u16,
            _fault: Fault,
        ) -> Self {
            self
        }

        /// The inert handle: injects nothing, costs nothing.
        pub fn build(self) -> Faults {
            Faults
        }
    }

    /// The inert fault handle: [`Faults::hit`] is a constant `None`, so
    /// injection points vanish under optimisation.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Faults;

    impl Faults {
        /// Always `None` (injection disabled).
        #[inline(always)]
        pub fn hit(&self, _point: &'static str) -> Option<Fault> {
            None
        }

        /// Always 0 (injection disabled).
        pub fn seen(&self, _point: &'static str) -> u64 {
            0
        }

        /// Always 0 (injection disabled).
        pub fn fired(&self, _point: &'static str) -> u64 {
            0
        }

        /// Always 0 (injection disabled).
        pub fn fired_total(&self) -> u64 {
            0
        }
    }
}

pub use imp::{FaultPlan, Faults};

/// Injection point names used across the stack, collected here so tests
/// and call sites cannot drift apart on spelling.
pub mod points {
    /// Server accept loop, before `accept()` is serviced.
    pub const SERVER_ACCEPT: &str = "server/accept";
    /// Connection handler, before reading a request frame.  `Delay` stalls
    /// the read; `Disconnect` closes the connection before the frame.
    pub const SERVER_READ: &str = "server/read";
    /// Connection handler, between decoding a request and dispatching it
    /// (`Delay` = slow handler).
    pub const SERVER_HANDLE: &str = "server/handle";
    /// Connection handler, before writing a response frame.  `Torn` writes
    /// a partial frame and then drops the connection.
    pub const SERVER_WRITE: &str = "server/write";
    /// Engine job start, on a pool worker or inline on the submitting
    /// thread — a server's connection handler for every wire query
    /// (`Panic` = worker panic, `Delay` = artificially slow job).
    pub const ENGINE_WORKER: &str = "engine/worker";
    /// One branch of a forked sort, at its start (`Panic` = failed
    /// branch, `Delay` = straggler).
    pub const ENGINE_PARALLEL_WORKER: &str = "engine/parallel_worker";
    /// Sharded coordinator, at batch start before any subplan is
    /// scattered (`Panic` = coordinator crash surfaced as a typed shard
    /// failure, `Delay` = slow decomposition).
    pub const SHARD_COORDINATOR: &str = "shard/coordinator";
}

#[cfg(all(test, feature = "inject"))]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn default_faults_never_fire() {
        let faults = Faults::default();
        for _ in 0..100 {
            assert_eq!(faults.hit(points::ENGINE_WORKER), None);
        }
        assert_eq!(faults.seen(points::ENGINE_WORKER), 0);
        assert_eq!(faults.fired_total(), 0);
    }

    #[test]
    fn once_fires_exactly_on_the_first_hit() {
        let faults = FaultPlan::new()
            .once(points::SERVER_READ, Fault::Disconnect)
            .build();
        assert_eq!(faults.hit(points::SERVER_READ), Some(Fault::Disconnect));
        for _ in 0..10 {
            assert_eq!(faults.hit(points::SERVER_READ), None);
        }
        assert_eq!(faults.seen(points::SERVER_READ), 11);
        assert_eq!(faults.fired(points::SERVER_READ), 1);
        // Other points are untouched.
        assert_eq!(faults.hit(points::SERVER_WRITE), None);
    }

    #[test]
    fn nth_and_window_fire_on_exact_hit_indices() {
        let faults = FaultPlan::new()
            .nth(points::ENGINE_WORKER, 2, Fault::Panic)
            .window(points::SERVER_WRITE, 1, 3, Fault::Torn)
            .build();
        let worker: Vec<_> = (0..5).map(|_| faults.hit(points::ENGINE_WORKER)).collect();
        assert_eq!(worker, [None, None, Some(Fault::Panic), None, None]);
        let write: Vec<_> = (0..5).map(|_| faults.hit(points::SERVER_WRITE)).collect();
        assert_eq!(
            write,
            [None, Some(Fault::Torn), Some(Fault::Torn), None, None]
        );
    }

    #[test]
    fn probabilistic_rules_are_deterministic_in_the_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let faults = FaultPlan::new()
                .seed(seed)
                .with_probability(points::SERVER_READ, 300, Fault::Error)
                .build();
            (0..256)
                .map(|_| faults.hit(points::SERVER_READ).is_some())
                .collect()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed must replay identically");
        assert_ne!(a, run(43), "different seeds must differ");
        let fired = a.iter().filter(|fired| **fired).count();
        // 300‰ of 256 ≈ 77; allow a generous band — the point is "roughly
        // the requested rate", not an exact binomial test.
        assert!((38..=120).contains(&fired), "fired {fired}/256 at 300‰");
    }

    #[test]
    fn clones_share_counters_across_threads() {
        let faults = FaultPlan::new()
            .window(
                points::ENGINE_WORKER,
                0,
                8,
                Fault::Delay(std::time::Duration::ZERO),
            )
            .build();
        let shared = Arc::new(faults);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let faults = Faults::clone(&shared);
                thread::spawn(move || {
                    (0..4)
                        .filter(|_| faults.hit(points::ENGINE_WORKER).is_some())
                        .count()
                })
            })
            .collect();
        let fired: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // 16 total hits across threads, exactly the first 8 fire —
        // regardless of interleaving, because the counter is shared.
        assert_eq!(fired, 8);
        assert_eq!(shared.seen(points::ENGINE_WORKER), 16);
        assert_eq!(shared.fired(points::ENGINE_WORKER), 8);
    }

    #[test]
    fn first_matching_rule_wins() {
        let faults = FaultPlan::new()
            .once(points::SERVER_HANDLE, Fault::Panic)
            .with_probability(points::SERVER_HANDLE, 1000, Fault::Error)
            .build();
        assert_eq!(faults.hit(points::SERVER_HANDLE), Some(Fault::Panic));
        // After the window passes, the 1000‰ rule fires every time.
        assert_eq!(faults.hit(points::SERVER_HANDLE), Some(Fault::Error));
    }
}
