//! The commands around a single run: `suite` (every workload, untraced
//! rounds plus the traced pass, one `results.json`), `check` (determinism
//! self-check) and `compare` (two `results.json` files against the bounds in
//! `BENCHMARK.json`).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::metrics::{self, Better, END_TO_END, PER_LAYER};
use crate::run::one_op;
use crate::stats::{median, quartiles};
use crate::workloads::SPECS;

// ---------------------------------------------------------------------------
// suite
// ---------------------------------------------------------------------------

/// Untraced runs per workload.  Rounds are interleaved (every workload once,
/// then every workload again), which spreads slow drift of a shared box over
/// all workloads; round `r` uses seed `seed + r`.
const ROUNDS: u64 = 3;

/// The last line of a child run's standard output, parsed.
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Run one workload once in a child process (this executable again), so
/// set-up time and peak memory belong to that workload alone.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: &Path,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let line = Json::parse(last)
        .map_err(|e| format!("{workload} run printed no result ({e}): {}", output.status))?;
    let count = |key: &str| {
        line.get(key)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("{workload} result has no `{key}`"))
    };
    let metrics = line
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{workload} result has no metrics"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            value.map(|v| (name.clone(), v)).ok_or(name)
        })
        .collect::<Result<_, _>>()
        .map_err(|name| format!("{workload}: metric {name} has no value"))?;
    Ok(ChildResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Run every workload ([`ROUNDS`] interleaved untraced runs each, then one
/// traced run each, every run `run_seconds` of `BENCHMARK.json` long), print
/// every metric by name with its unit, and write `results.json`.  Returns
/// whether every output was correct.
pub fn suite(seed: u64, out_dir: &Path) -> Result<bool, String> {
    let seconds = metrics::run_seconds();
    #[derive(Default)]
    struct Gathered {
        attempted: u64,
        failed: u64,
        end_to_end: BTreeMap<String, Vec<f64>>,
        per_layer: BTreeMap<String, f64>,
    }
    let mut gathered: BTreeMap<&str, Gathered> = BTreeMap::new();
    for round in 0..ROUNDS {
        for spec in &SPECS {
            eprintln!("round {}/{ROUNDS}: {}", round + 1, spec.name);
            let run = child_run(spec.name, seed + round, seconds, false, out_dir)?;
            let g = gathered.entry(spec.name).or_default();
            g.attempted += run.attempted;
            g.failed += run.failed;
            for (name, value) in run.metrics {
                g.end_to_end.entry(name).or_default().push(value);
            }
        }
    }
    for spec in &SPECS {
        eprintln!("traced: {}", spec.name);
        let run = child_run(spec.name, seed, seconds, true, out_dir)?;
        let g = gathered.entry(spec.name).or_default();
        g.attempted += run.attempted;
        g.failed += run.failed;
        g.per_layer = run.metrics.into_iter().collect();
    }

    let mut workloads = Vec::new();
    let mut correct = true;
    for spec in &SPECS {
        let g = &gathered[spec.name];
        correct &= g.failed == 0;
        let failed_share = g.failed as f64 / g.attempted.max(1) as f64;
        println!(
            "\n{} — {}\n  {} ops attempted, failed_share {failed_share}",
            spec.name, spec.why, g.attempted
        );
        let mut end_to_end = Vec::new();
        for def in END_TO_END {
            let runs = g.end_to_end.get(def.name).cloned().unwrap_or_default();
            let mid = median(&runs);
            let note = if def.name == "op_tail_ms" {
                format!("  ({})", spec.tail.label())
            } else {
                String::new()
            };
            println!("  {:<32} {:>18.6} {}{note}", def.name, mid, def.unit);
            end_to_end.push((
                def.name,
                Json::object([
                    ("unit", Json::from(def.unit)),
                    ("median", Json::from(mid)),
                    (
                        "runs",
                        Json::Array(runs.into_iter().map(Json::from).collect()),
                    ),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for def in PER_LAYER {
            let value = g.per_layer.get(def.name).copied().unwrap_or(0.0);
            if value != 0.0 {
                println!("  {:<32} {:>18.6} {}", def.name, value, def.unit);
            }
            per_layer.push((
                def.name,
                Json::object([("unit", Json::from(def.unit)), ("value", Json::from(value))]),
            ));
        }
        workloads.push((
            spec.name,
            Json::object([
                ("attempted", Json::from(g.attempted)),
                ("failed", Json::from(g.failed)),
                ("failed_share", Json::from(failed_share)),
                ("op_tail", Json::from(spec.tail.label())),
                ("end_to_end", Json::object(end_to_end)),
                ("per_layer", Json::object(per_layer)),
            ]),
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let results = Json::object([
        ("schema", Json::from("obliv-benchmark/results/v1")),
        ("nproc", Json::from(nproc as u64)),
        ("seed", Json::from(seed)),
        ("run_seconds", Json::from(seconds)),
        ("rounds", Json::from(ROUNDS)),
        ("workloads", Json::object(workloads)),
    ]);
    let path = out_dir.join("results.json");
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, results.pretty()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nwrote {} (nproc {nproc})", path.display());
    Ok(correct)
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

/// Determinism self-check: one op per workload, twice with the same seed —
/// the exact counts must repeat — and once with another seed, which must
/// still verify against the oracle.  The first op is also replayed down its
/// ladder, which asserts the direct operator replay's trace digest equals
/// the engine's and the kernel's cost drift is 0.
pub fn check() -> Result<(), String> {
    for spec in &SPECS {
        let first = one_op(spec, 11, true).map_err(|e| format!("{}: {e}", spec.name))?;
        let again = one_op(spec, 11, false).map_err(|e| format!("{}: {e}", spec.name))?;
        if first != again {
            return Err(format!(
                "{}: counts differ between two runs of seed 11: {first:?} vs {again:?}",
                spec.name
            ));
        }
        one_op(spec, 12, false).map_err(|e| format!("{} (seed 12): {e}", spec.name))?;
        let counts: Vec<String> = first.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("{:<18} ok  {}", spec.name, counts.join(" "));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

/// Interquartile range as a share of the median; 0 when it cannot be taken.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), mid) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge the runs of `new` against the runs of `base` for one metric.
///
/// No regression means `new`'s median is no worse than `base`'s by more than
/// `bound` (a share of `base`'s median).  Where either side's run-to-run
/// spread is wider than the bound, the medians settle nothing: the pair is
/// unresolved unless every run of one side beats every run of the other.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (base_mid, new_mid) = (median(base), median(new));
    let worse_by = match better {
        Better::Lower => (new_mid - base_mid) / base_mid.abs(),
        Better::Higher => (base_mid - new_mid) / base_mid.abs(),
    };
    let beats = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let every = |xs: &[f64], ys: &[f64]| xs.iter().all(|&x| ys.iter().all(|&y| beats(x, y)));
    if spread(base).max(spread(new)) > bound {
        if every(new, base) {
            Verdict::Ok
        } else if every(base, new) && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two `results.json` files: one row per (workload, metric), the
/// ratio with its base, and a verdict by the bounds in `BENCHMARK.json`.
/// Files of runs that differ in length, round count or core count settle
/// nothing and are refused.  Returns whether nothing is worse and no
/// `failed_share` rose.
pub fn compare(base_path: &Path, new_path: &Path) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    for key in ["run_seconds", "rounds", "nproc"] {
        let of = |file: &Json| file.get(key).and_then(Json::as_f64);
        match (of(&base), of(&new)) {
            (Some(b), Some(n)) if b == n => {}
            (b, n) => return Err(format!("`{key}` differs: {b:?} in base, {n:?} in new")),
        }
    }
    let bounds = metrics::bounds();

    let workload =
        |file: &'_ Json, name: &str| -> Option<Json> { file.get("workloads")?.get(name).cloned() };
    let runs = |w: &Json, metric: &str| -> Vec<f64> {
        w.get("end_to_end")
            .and_then(|e| e.get(metric))
            .and_then(|m| m.get("runs"))
            .and_then(Json::as_array)
            .map(|r| r.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    let number = |w: &Json, path: &[&str]| -> f64 {
        path.iter()
            .try_fold(w, |at, key| at.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };

    println!(
        "base {}  new {}\n{:<18} {:<30} {:>16} {:>16} {:>8} {:>7} {:>7}  verdict",
        base_path.display(),
        new_path.display(),
        "workload",
        "metric",
        "base",
        "new",
        "new/base",
        "spread",
        "bound"
    );
    let mut fine = true;
    for spec in &SPECS {
        let (Some(b), Some(n)) = (workload(&base, spec.name), workload(&new, spec.name)) else {
            return Err(format!("{} is missing from one of the files", spec.name));
        };
        for def in END_TO_END {
            let bound = *bounds
                .get(def.name)
                .ok_or_else(|| format!("no bound for {}", def.name))?;
            let (base_runs, new_runs) = (runs(&b, def.name), runs(&n, def.name));
            if base_runs.is_empty() || new_runs.is_empty() {
                return Err(format!("{}: no runs of {}", spec.name, def.name));
            }
            let v = verdict(&base_runs, &new_runs, def.better, bound);
            fine &= v != Verdict::Worse;
            println!(
                "{:<18} {:<30} {:>16.6} {:>16.6} {:>8.3} {:>7.3} {:>7.2}  {}",
                spec.name,
                def.name,
                median(&base_runs),
                median(&new_runs),
                median(&new_runs) / median(&base_runs),
                spread(&base_runs).max(spread(&new_runs)),
                bound,
                v.label()
            );
        }
        let (fb, fn_) = (number(&b, &["failed_share"]), number(&n, &["failed_share"]));
        let rose = fn_ > fb;
        fine &= !rose;
        println!(
            "{:<18} {:<30} {:>16} {:>16} {:>8} {:>7} {:>7}  {}",
            spec.name,
            "failed_share",
            fb,
            fn_,
            "-",
            "-",
            "0",
            if rose { "worse" } else { "ok" }
        );
        for def in PER_LAYER {
            let path = ["per_layer", def.name, "value"];
            let (vb, vn) = (number(&b, &path), number(&n, &path));
            if vb != 0.0 || vn != 0.0 {
                println!(
                    "{:<18} {:<30} {:>16.6} {:>16.6} {:>8.3} {:>7} {:>7}  layer",
                    spec.name,
                    def.name,
                    vb,
                    vn,
                    vn / vb,
                    "-",
                    "-"
                );
            }
        }
    }
    Ok(fine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[1.0]), 0.0);
    }

    #[test]
    fn verdicts() {
        let lower = Better::Lower;
        // Tight runs: the medians decide.
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[104.0, 105.0, 103.0], lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0], lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0], lower, 0.1),
            Verdict::Ok
        );
        // Higher is better: a drop is worse.
        assert_eq!(
            verdict(
                &[100.0, 101.0, 99.0],
                &[80.0, 81.0, 79.0],
                Better::Higher,
                0.1
            ),
            Verdict::Worse
        );
        // Spread wider than the bound: unresolved …
        assert_eq!(
            verdict(&[100.0, 140.0, 60.0], &[105.0, 150.0, 70.0], lower, 0.1),
            Verdict::Unresolved
        );
        // … unless every run of one side beats every run of the other.
        assert_eq!(
            verdict(&[100.0, 140.0, 90.0], &[50.0, 80.0, 60.0], lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&[50.0, 80.0, 60.0], &[100.0, 140.0, 90.0], lower, 0.1),
            Verdict::Worse
        );
    }
}
