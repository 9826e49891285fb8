//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process; `all --seed <n>` runs every workload,
//! each in its own process; `trace --workload <name> --seed <n>` is the
//! traced run. The last line printed is the result object.

use rrp_benchmark::{run, Options, Workload};
use std::process::{Command, ExitCode};

/// The run length `BENCHMARK.json` fixes.
const DEFAULT_SECONDS: u64 = 5;

fn main() -> ExitCode {
    // The figure drivers run serially; the serve workloads' only threads
    // are the services' own batch workers.
    std::env::set_var("RRP_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Cli::One {
            workload,
            options,
            traced,
        }) => one(workload, &options, traced),
        Ok(Cli::All { options }) => all(&options),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]\n       \
                 all --seed <u64> [--seconds <s>]\n       \
                 trace --workload <name> --seed <u64> [--seconds <s>]\n\
                 workloads: {}",
                Workload::ALL.map(Workload::name).join(", ")
            );
            ExitCode::from(2)
        }
    }
}

enum Cli {
    One {
        workload: Workload,
        options: Options,
        traced: bool,
    },
    All {
        options: Options,
    },
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("all" | "trace")) => (c, &args[1..]),
        _ => ("one", args),
    };
    let (mut workload, mut seed, mut seconds, mut traced) =
        (None, None, DEFAULT_SECONDS, command == "trace");
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&seconds) {
                    return Err("--seconds must be between 1 and 3600".into());
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let options = Options::new(seed.ok_or("--seed is required")?, seconds);
    match command {
        "all" => Ok(Cli::All { options }),
        _ => Ok(Cli::One {
            workload: workload.ok_or("--workload is required")?,
            options,
            traced,
        }),
    }
}

fn one(workload: Workload, options: &Options, traced: bool) -> ExitCode {
    match run(workload, options, traced) {
        Ok(outcome) => {
            println!("{}", outcome.row_line(workload, options, traced));
            outcome.report.iter().for_each(|line| println!("{line}"));
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every workload in its own process, one after another; prints each
/// end-to-end metric with its unit. Fails if any run fails or is incorrect.
fn all(options: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", "0"])
            .output();
        let output = match output {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("{}: exited with {}", workload.name(), o.status);
                eprint!("{}", String::from_utf8_lossy(&o.stderr));
                ok = false;
                continue;
            }
            Err(e) => {
                eprintln!("{}: {e}", workload.name());
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().unwrap_or_default();
        lines.iter().for_each(|l| println!("{l}"));
        match summarise(workload, result) {
            Ok(correct) => ok &= correct,
            Err(e) => {
                eprintln!("{}: unreadable result line: {e}", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print one workload's result line as `workload metric value unit` rows.
fn summarise(workload: Workload, line: &str) -> Result<bool, String> {
    let value: serde::Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let field = |name: &str| value.get(name).ok_or_else(|| format!("missing {name}"));
    let attempted = field("attempted")?.as_u64().unwrap_or(0);
    let failed = field("failed")?.as_u64().unwrap_or(u64::MAX);
    let correct = matches!(field("correct")?, serde::Value::Bool(true));
    let name = workload.name();
    for (metric, entry) in field("metrics")?
        .as_map()
        .ok_or("metrics is not an object")?
    {
        let v = entry
            .get("value")
            .and_then(|v| v.as_f64())
            .unwrap_or(f64::NAN);
        let unit = match entry.get("unit") {
            Some(serde::Value::Str(u)) => u.as_str(),
            _ => "?",
        };
        println!("{name:<20} {metric:<16} {v:>14.4} {unit}");
    }
    let error_rate = if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    };
    println!(
        "{name:<20} {:<16} {error_rate:>14.4} ratio ({failed} of {attempted}, correct: {correct})",
        "error_rate"
    );
    Ok(correct)
}
