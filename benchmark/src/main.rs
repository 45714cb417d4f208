//! Command-line front end of the campaign benchmark.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! benchmark summarize A.jsonl B.jsonl [--benchmark PATH]
//! ```
//!
//! A run prints one JSON line per metric, then a summary object as the
//! last line, and exits 0 only when every output check passed. Run it
//! from the repository root; `--out` (default `.bench_out`) receives the
//! span files of traced runs and the scratch stores of journaled ones.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use benchmark::{run, summarize, trace, RunOptions, Workload, DEFAULT_SEED};

/// Extra processes that each set the workload up cold, so `setup_s` is a
/// median of several cold set-ups rather than one sample.
const SETUP_PROBES: usize = 8;

const USAGE: &str =
    "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       \
                     benchmark summarize A.jsonl B.jsonl [--benchmark PATH]";

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, started) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} {v}: not a valid value\n{USAGE}")),
        None if args.iter().any(|a| a == name) => Err(format!("{name} needs a value\n{USAGE}")),
        None => Ok(default),
    }
}

fn dispatch(args: &[String], started: Instant) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("summarize") {
        let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
            return Err(USAGE.to_string());
        };
        let bench = flag(args, "--benchmark").unwrap_or("BENCHMARK.json");
        let (table, ok) = summarize(a, b, bench)?;
        print!("{table}");
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let name = flag(args, "--workload").ok_or_else(|| USAGE.to_string())?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}`; one of: {}", names.join(", "))
    })?;
    let seconds: u64 = parsed(args, "--seconds", 20)?;
    let opts = RunOptions {
        seed: parsed(args, "--seed", DEFAULT_SEED)?,
        budget: Duration::from_secs(seconds),
        sample: None,
        out: PathBuf::from(flag(args, "--out").unwrap_or(".bench_out")),
    };
    if args.iter().any(|a| a == "--setup-probe") {
        benchmark::workload::setup(
            workload,
            opts.seed,
            None,
            &opts.out,
            &mut Default::default(),
        )?;
        println!("{}", started.elapsed().as_secs_f64());
        return Ok(ExitCode::SUCCESS);
    }
    let report = match parsed(args, "--trace", 0u8)? {
        0 => {
            let probes = probe_setups(args)?;
            // The probes ran first; this process's own set-up clock starts
            // once they are done.
            run(workload, &opts, Instant::now(), &probes)?
        }
        1 => trace(workload, &opts)?,
        t => return Err(format!("--trace {t}: expected 0 or 1\n{USAGE}")),
    };
    for problem in &report.problems {
        eprintln!("benchmark: {}: check failed: {problem}", workload.name());
    }
    let mut out = std::io::stdout().lock();
    for line in &report.lines {
        writeln!(out, "{}", line.to_json()).map_err(|e| e.to_string())?;
    }
    writeln!(out, "{}", report.summary_json()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs [`SETUP_PROBES`] cold set-ups, one process at a time, and returns
/// their set-up times in seconds.
fn probe_setups(args: &[String]) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(args)
                .arg("--setup-probe")
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("set-up probe: {e}"))?;
            if !out.status.success() {
                return Err(format!("set-up probe exited with {}", out.status));
            }
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse()
                .map_err(|_| "set-up probe printed no time".to_string())
        })
        .collect()
}
