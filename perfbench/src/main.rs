//! The ILAN performance ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figures|serve|native> --seed N --seconds S --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest
//! ```
//!
//! Runs one workload, checks its outputs, and prints, in order: a
//! provenance line, the ledger (every metric under its workload-specific
//! name, with its unit), and as the last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Untraced runs report the
//! end-to-end metrics; traced runs (`--trace 1`) record spans from this
//! package's own files and report the per-layer metrics. The full result,
//! and the spans of a traced run, are written under `perfbench/out/`.
//! `--manifest` prints the `BENCHMARK.json` these definitions imply.

mod figures;
mod host;
mod manifest;
mod native;
mod report;
mod serve;
mod span;
mod stats;
mod timed;

use report::{json_string, Outcome};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: ilan-perfbench --workload <figures|serve|native> --seed N \
                     --seconds S --trace <0|1>\n       ilan-perfbench --manifest";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        if flag == "--manifest" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value `{value}`: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !manifest::WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a tool's `--version`-style output, if the tool runs.
fn tool(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Host and input provenance, stamped on every result.
fn provenance(args: &Args) -> String {
    let (topology, scale, workers, seeds) = match args.workload.as_str() {
        "figures" => (
            "2x4x8:ccd=4 (epyc_9354_2s)",
            "Paper",
            "none (simulated)",
            "0x11A4 (harness)".to_string(),
        ),
        "serve" => (
            "2x4x8:ccd=4 (epyc_9354_2s)",
            "Quick, 2 steps per job",
            "none (simulated)",
            format!(
                "{} streams from --seed",
                serve::RATES.len() * serve::REPLICAS
            ),
        ),
        _ => (
            native::TOPOLOGY,
            "NativeScale::laptop (inputs fixed in ilan-workloads)",
            "2",
            "none (fixed inputs)".to_string(),
        ),
    };
    // The benchmark may run from a plain checkout with no git metadata.
    let rev = if std::path::Path::new(".git").exists() {
        tool("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    let fields = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc().to_string()),
        ("topology", topology.into()),
        ("scale", scale.into()),
        ("pool_workers", workers.into()),
        ("seeds", seeds),
        ("git_rev", rev),
        ("rustc", tool("rustc", &["--version"])),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_string(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let traced = args.trace;
    let cal = &mut host::Calibrator::new();
    Ok(match args.workload.as_str() {
        "figures" => {
            let (w, setup) = figures::Figures::setup(cal);
            if traced {
                w.trace(args.seconds)
            } else {
                w.measure(args.seconds, cal, setup)
            }
        }
        "serve" => {
            let (w, setup) = serve::Serve::setup(args.seed, cal);
            if traced {
                w.trace(args.seconds)
            } else {
                w.measure(args.seconds, cal, setup)
            }
        }
        "native" => {
            let (w, setup) = native::Native::setup(cal)?;
            if traced {
                w.trace(args.seconds)
            } else {
                w.measure(args.seconds, cal, setup)
            }
        }
        other => unreachable!("workload {other} was validated by parse"),
    })
}

/// Writes the full result (and spans) under `perfbench/out/`.
fn write_out(args: &Args, json: &str, spans: Option<String>) -> std::io::Result<()> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(dir.join(format!("{stem}.json")), json)?;
    if let Some(csv) = spans {
        std::fs::write(dir.join(format!("{stem}-spans.csv")), csv)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{}", manifest::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let prov = provenance(&args);
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let json = outcome.to_json(&prov, args.trace);
    if let Err(e) = write_out(&args, &json, outcome.spans_csv()) {
        eprintln!("warning: could not write perfbench/out: {e}");
    }
    println!("provenance {prov}");
    print!("{}", outcome.ledger());
    println!("{}", outcome.result_line(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Option<Args>, String> {
        parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve --seed 3 --seconds 10 --trace 1")
            .unwrap()
            .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 3, 10.0, true)
        );
        assert!(args("--manifest").unwrap().is_none());
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload bogus --seed 1 --seconds 1 --trace 0",
            "--workload native --seed x --seconds 1 --trace 0",
            "--workload native --seed 1 --seconds 0 --trace 0",
            "--workload native --seed 1 --seconds 1 --trace 2",
            "--workload native --seed 1 --seconds 1",
            "--workload native --seed",
            "--frobnicate 1",
        ] {
            assert!(args(bad).is_err(), "accepted `{bad}`");
        }
    }
}
