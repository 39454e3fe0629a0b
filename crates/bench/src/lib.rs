//! # obliv-bench — the evaluation harness
//!
//! Shared plumbing for the binaries and Criterion benchmarks that regenerate
//! every table and figure of the paper's evaluation (§6).  The mapping from
//! experiment to binary lives in DESIGN.md; in short:
//!
//! | experiment | binary |
//! |------------|--------|
//! | Table 1    | `table1_report` |
//! | Table 3    | `table3_report` |
//! | Figure 7   | `fig7_access_pattern` |
//! | Figure 8   | `fig8_runtime` |
//! | §6.1 trace experiments | `obliviousness_check` |
//!
//! Each binary prints a self-contained report to stdout; EXPERIMENTS.md
//! records representative outputs next to the paper's published numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use obliv_enclave_sim::{EnclaveReport, EnclaveSimulator, EpcConfig};
use obliv_join::{oblivious_join, oblivious_join_with_tracer};
use obliv_trace::Tracer;
use obliv_workloads::{balanced_unique_keys, WorkloadSpec};

/// Command-line options shared by the report binaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReportOptions {
    /// Run the full paper-scale configuration (slower).  Selected with
    /// `--full` on the command line.
    pub full: bool,
}

impl ReportOptions {
    /// Parse options from `std::env::args`, ignoring unknown arguments.
    pub fn from_args() -> Self {
        let full = std::env::args().any(|a| a == "--full");
        ReportOptions { full }
    }
}

/// Wall-clock measurement of one closure invocation.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A single measured point of the Figure 8 sweep.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Total input size `n = n₁ + n₂`.
    pub n: usize,
    /// Output size of the workload.
    pub output_size: u64,
    /// Wall time of the plain (no-enclave) oblivious join.
    pub prototype: Duration,
    /// Estimated wall time inside an SGX enclave (simulated paging).
    pub sgx: Duration,
    /// Estimated wall time of the level-III transformed enclave build.
    pub sgx_transformed: Duration,
    /// Wall time of the insecure sort-merge join.
    pub insecure_sort_merge: Duration,
}

/// The fixed extra slowdown the paper observed for the level-III
/// transformed build relative to the plain SGX build (≈ 6.30 s / 5.67 s at
/// n = 10⁶ in Figure 8).
pub const TRANSFORM_OVERHEAD: f64 = 6.30 / 5.67;

/// Run one Figure 8 measurement: the balanced workload `m ≈ n₁ = n₂ = n/2`
/// through the prototype, the enclave cost model and the insecure baseline.
///
/// The enclave model prices every array's cells at the 40-byte
/// [`AugRecord`](obliv_join::AugRecord), but the augment and align sorts
/// move narrower records (24 and 16 bytes with the one-word payload), so
/// the simulated SGX columns are an upper bound.
pub fn measure_fig8_point(n: usize, seed: u64) -> Fig8Point {
    let workload = balanced_unique_keys(n / 2, seed);

    // Plain prototype timing (no tracing overhead).
    let (result, prototype) = time(|| oblivious_join(&workload.left, &workload.right));

    // Enclave cost model: replay the same join through the EPC simulator.
    // The simulated run's own wall time is irrelevant; only the fault counts
    // feed the estimate.
    let config = EpcConfig {
        entry_bytes: std::mem::size_of::<obliv_join::AugRecord>() as u64,
        ..EpcConfig::default()
    };
    let report = enclave_report(&workload, config);
    let sgx_seconds = report.estimated_enclave_seconds(prototype.as_secs_f64(), &config);
    let sgx = Duration::from_secs_f64(sgx_seconds);
    let sgx_transformed = Duration::from_secs_f64(sgx_seconds * TRANSFORM_OVERHEAD);

    // Insecure baseline.
    let (_, insecure_sort_merge) =
        time(|| obliv_baselines::sort_merge_join(&workload.left, &workload.right));

    Fig8Point {
        n,
        output_size: result.stats.output_size,
        prototype,
        sgx,
        sgx_transformed,
        insecure_sort_merge,
    }
}

/// Run a workload through the enclave simulator and return its report.
pub fn enclave_report(workload: &WorkloadSpec, config: EpcConfig) -> EnclaveReport {
    let tracer = Tracer::new(EnclaveSimulator::new(config));
    let _ = oblivious_join_with_tracer(&tracer, &workload.left, &workload.right);
    tracer.with_sink(|sim| sim.report())
}

/// Fit the exponent `b` of a power law `y ≈ a·x^b` through two measured
/// points; used by the Table 1 reproduction to show empirical growth rates.
pub fn fitted_exponent(x1: f64, y1: f64, x2: f64, y2: f64) -> f64 {
    ((y2 / y1).ln()) / ((x2 / x1).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitted_exponent_recovers_known_powers() {
        assert!((fitted_exponent(10.0, 100.0, 20.0, 400.0) - 2.0).abs() < 1e-9);
        assert!((fitted_exponent(8.0, 8.0, 64.0, 64.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig8_point_measures_all_variants() {
        let point = measure_fig8_point(256, 1);
        assert_eq!(point.n, 256);
        assert_eq!(point.output_size, 128);
        assert!(point.prototype > Duration::ZERO);
        assert!(
            point.sgx >= point.prototype,
            "enclave estimate includes a slowdown factor"
        );
        assert!(point.sgx_transformed >= point.sgx);
    }

    #[test]
    fn report_options_default_to_quick() {
        let opts = ReportOptions::default();
        assert!(!opts.full);
    }
}
