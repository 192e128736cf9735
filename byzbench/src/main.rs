//! Command-line entry point of the benchmark.
//!
//! ```text
//! byzbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! byzbench report [--seed <n>] [--seconds <s>]
//! byzbench fingerprint [--seed <n>] [--check <file>]
//! ```
//!
//! The first form runs one workload and prints report lines, then the
//! result as one JSON line: end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`. `report` runs every workload in both modes,
//! each run in a process of its own, and prints their report lines. `fingerprint` prints the exact
//! work counts of every workload for a seed, or compares them with a file
//! recorded earlier.

use std::process::ExitCode;
use std::time::Duration;

use byzbench::measure::{self, Outcome};
use byzbench::workloads::{self, NAMES};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    check: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 30,
        trace: false,
        check: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value.to_owned()),
            "--seed" => out.seed = number(value)?,
            "--seconds" => out.seconds = number(value)?,
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                }
            }
            "--check" => out.check = Some(value.to_owned()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(out)
}

fn print_report(workload: &str, outcome: &Outcome) {
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        println!("{workload:<12} {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{workload:<12} {:<32} {:>16} of {} (message, correct node) pairs undelivered",
        "failed", outcome.failed, outcome.attempted
    );
    for p in &outcome.problems {
        eprintln!("{workload}: check failed: {p}");
    }
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let bench = workloads::by_name(name, args.seed).ok_or_else(|| {
        format!(
            "unknown workload {name}; expected one of {}",
            NAMES.join(", ")
        )
    })?;
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        measure::layers(&bench, budget)
    } else {
        measure::end_to_end(&bench, budget)
    };
    print_report(name, &outcome);
    println!("{}", outcome.json());
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload untraced and traced, each run in a child process of
/// its own so each reports its own peak memory, and relays the report
/// lines.
fn report(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut ok = true;
    for (name, trace) in NAMES.iter().flat_map(|n| [(n, "0"), (n, "1")]) {
        let output = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", trace])
            .output()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        ok &= output.status.success() && result.starts_with("{\"correct\": true");
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn fingerprints(args: &Args) -> Result<ExitCode, String> {
    let mut lines = Vec::new();
    let mut ok = true;
    for name in NAMES {
        let bench = workloads::by_name(name, args.seed).expect("listed workload");
        let (fp, problems) = measure::fingerprint(&bench);
        for p in &problems {
            eprintln!("{name}: check failed: {p}");
        }
        ok &= problems.is_empty();
        lines.push(format!("  \"{name}\": {}", fp.json()));
    }
    let json = format!(
        "{{\n  \"seed\": {},\n{}\n}}\n",
        args.seed,
        lines.join(",\n")
    );
    match &args.check {
        None => print!("{json}"),
        Some(path) => {
            let recorded =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            if recorded != json {
                eprintln!("work counts differ from {path}; now:\n{json}");
                ok = false;
            } else {
                eprintln!("work counts match {path}");
            }
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("report" | "fingerprint")) => (c, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let result = parse(rest).and_then(|args| match command {
        "report" => report(&args),
        "fingerprint" => fingerprints(&args),
        _ => run_one(&args),
    });
    result.unwrap_or_else(|e| {
        eprintln!("byzbench: {e}");
        ExitCode::from(2)
    })
}
