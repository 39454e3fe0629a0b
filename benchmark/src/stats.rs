//! Sample statistics and the `/proc` readers.  Nothing here knows a workload.

use std::time::Duration;

use crate::metrics::Better;

/// The nearest-rank `p`-quantile (`0 < p ≤ 1`) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort ascending (samples are finite).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The median of `samples` (the mean of the middle pair for an even count);
/// 0 for none, so a layer the workload never calls reads 0.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)` gives
/// them (the default, exclusive method); `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The quartile of `values` on their better side: the first where lower is
/// better, the third where higher is.  The only value of one; 0 for none.
pub fn quiet_quartile(values: &[f64], better: Better) -> f64 {
    match (quartiles(values), better) {
        (Some((q1, _)), Better::Lower) => q1,
        (Some((_, q3)), Better::Higher) => q3,
        (None, _) => values.first().copied().unwrap_or(0.0),
    }
}

/// How many of `n` ascending samples lie strictly beyond the nearest-rank
/// `p`-quantile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile.  Which one a workload reports is fixed in
/// `workloads::Spec` (a metric must mean the same thing in every run);
/// [`Tail::supported`] is the rule it was chosen by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tail {
    P75,
    P90,
    P99,
}

impl Tail {
    pub fn p(self) -> f64 {
        match self {
            Tail::P75 => 0.75,
            Tail::P90 => 0.90,
            Tail::P99 => 0.99,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Tail::P75 => "p75",
            Tail::P90 => "p90",
            Tail::P99 => "p99",
        }
    }

    /// The highest of p99/p90/p75 that keeps at least ten of `n` samples
    /// beyond it, if any does.
    pub fn supported(n: usize) -> Option<Tail> {
        [Tail::P99, Tail::P90, Tail::P75]
            .into_iter()
            .find(|t| samples_beyond(n, t.p()) >= 10)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks.  The
/// command name (field 2) is parenthesised and may itself contain spaces
/// and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// mainstream architecture (it is an ABI constant, not the kernel's `HZ`).
const MS_PER_TICK: f64 = 10.0;

/// User + system CPU time of this process so far (all threads, including
/// ones that have already exited), in ms.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat") as f64 * MS_PER_TICK
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.75), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 30.0, 20.0]), Some((10.0, 30.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn the_quiet_quartile_is_on_the_better_side() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quiet_quartile(&v, Better::Lower), 2.75);
        assert_eq!(quiet_quartile(&v, Better::Higher), 8.25);
        assert_eq!(quiet_quartile(&[7.0], Better::Lower), 7.0);
        assert_eq!(quiet_quartile(&[], Better::Higher), 0.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // p99 needs 1000 samples, p90 100, p75 40.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(Tail::supported(1000), Some(Tail::P99));
        assert_eq!(Tail::supported(999), Some(Tail::P90));
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(Tail::supported(100), Some(Tail::P90));
        assert_eq!(Tail::supported(99), Some(Tail::P75));
        assert_eq!(samples_beyond(40, 0.75), 10);
        assert_eq!(Tail::supported(40), Some(Tail::P75));
        assert_eq!(Tail::supported(39), None);
        assert_eq!(Tail::supported(0), None);
    }

    #[test]
    fn proc_stat_parser_survives_hostile_command_names() {
        let line = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    123 45 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(168));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 2 3"), None);
    }

    #[test]
    fn vm_hwm_parser() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_readers_work_here() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_ms() >= 0.0);
    }
}
