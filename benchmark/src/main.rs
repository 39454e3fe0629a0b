//! The repo's benchmark: six workloads, end-to-end metrics with tracing off,
//! per-layer probes with tracing on.  See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! obliv-benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! obliv-benchmark suite [--seed N] [--out DIR]
//! obliv-benchmark check
//! obliv-benchmark compare BASE.json NEW.json
//! ```

#![forbid(unsafe_code)]

mod gen;
mod json;
mod layers;
mod metrics;
mod oracle;
mod queries;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::RunConfig;

/// The seed the suite starts from.
const DEFAULT_SEED: u64 = 11;
const DEFAULT_OUT: &str = "benchmark/out";

const USAGE: &str = "usage:
  obliv-benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
  obliv-benchmark suite [--seed N] [--out DIR]
  obliv-benchmark check
  obliv-benchmark compare BASE.json NEW.json";

/// `--flag value` pairs and bare flags, in any order, plus positionals.
struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    const BARE: [&'static str; 1] = ["--inject-wrong-row"];

    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args;
        while let Some(arg) = args.next() {
            if Self::BARE.contains(&arg.as_str()) {
                parsed.flags.push((arg, None));
            } else if arg.starts_with("--") {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                parsed.flags.push((arg, Some(value)));
            } else {
                parsed.positional.push(arg);
            }
        }
        Ok(parsed)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag}: `{v}` is not a number")),
        }
    }

    fn known(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown flag {f}")),
            None => Ok(()),
        }
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.value("--out").unwrap_or(DEFAULT_OUT))
    }
}

/// Returns whether the command's outputs were all correct / nothing is worse.
fn dispatch(args: &Args) -> Result<bool, String> {
    match args.positional.first().map(String::as_str) {
        None => {
            args.known(&[
                "--workload",
                "--seed",
                "--seconds",
                "--trace",
                "--out",
                "--inject-wrong-row",
            ])?;
            let name = args.value("--workload").ok_or(USAGE)?;
            let spec = run::spec(name).ok_or_else(|| format!("no workload called {name}"))?;
            let seconds: f64 = args.number("--seconds", metrics::run_seconds() as f64)?;
            if !(seconds > 0.0 && seconds <= 600.0) {
                return Err(format!("--seconds {seconds} is out of range"));
            }
            let config = RunConfig {
                seed: args.number("--seed", DEFAULT_SEED)?,
                seconds,
                trace: match args.value("--trace").unwrap_or("0") {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                },
                inject_wrong_row: args.has("--inject-wrong-row"),
                out_dir: args.out_dir(),
            };
            let result = run::run(spec, &config)?;
            for (def, value) in &result.metrics {
                println!(
                    "{:<18} {:<32} {:>18.6} {}",
                    spec.name, def.name, value, def.unit
                );
            }
            // The result line of the benchmark contract: last, on its own.
            println!("{}", result.to_json().compact());
            Ok(result.correct())
        }
        Some("suite") if args.positional.len() == 1 => {
            args.known(&["--seed", "--out"])?;
            report::suite(args.number("--seed", DEFAULT_SEED)?, &args.out_dir())
        }
        Some("check") if args.positional.len() == 1 => {
            args.known(&[])?;
            report::check().map(|()| true)
        }
        Some("compare") if args.positional.len() == 3 => {
            args.known(&[])?;
            report::compare(args.positional[1].as_ref(), args.positional[2].as_ref())
        }
        Some(_) => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("obliv-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "server_warm",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.value("--workload"), Some("server_warm"));
        assert_eq!(a.number("--seed", 0u64), Ok(7));
        assert_eq!(a.number("--absent", 3u64), Ok(3));
        assert!(a.positional.is_empty());
        assert!(a
            .known(&["--workload", "--seed", "--seconds", "--trace"])
            .is_ok());
        assert!(a.known(&["--workload"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"])
            .unwrap()
            .number("--seed", 0u64)
            .is_err());
    }
}
