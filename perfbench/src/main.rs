//! Benchmark entry point.
//!
//! `wp_perfbench --workload table1_full|netlist_corpus|dse_walk80 --seed N
//! --seconds S --trace 0|1` prints progress on stderr and, as the last line
//! of stdout, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end metrics of the named workload with `--trace 0`,
//! the per-layer metrics of a traced run over every workload with
//! `--trace 1`.  `--pin` instead prints the workload's pinned-statistics
//! line for the seed (see `README.md`).

use std::process::ExitCode;

use wp_perfbench::{layers, pins, run, WorkloadName};

struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = WorkloadName::parse(workload).ok_or_else(|| {
        format!("unknown workload '{workload}' (table1_full, netlist_corpus or dse_walk80)")
    })?;
    let seed = value("--seed")?;
    let seed = seed
        .parse()
        .map_err(|_| format!("--seed '{seed}' is not a non-negative integer"))?;
    let pin = args.iter().any(|a| a == "--pin");
    let (seconds, trace) = if pin {
        (0.0, false)
    } else {
        let seconds = value("--seconds")?;
        let seconds: f64 = seconds
            .parse()
            .ok()
            .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
            .ok_or_else(|| format!("--seconds '{seconds}' is not a positive number"))?;
        let trace = match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace '{other}' is not 0 or 1")),
        };
        (seconds, trace)
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        pin,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wp_perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.pin {
        return match pins::line(args.workload, args.seed) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("wp_perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    eprintln!("host: {}", wp_perfbench::clock::machine());
    let report = if args.trace {
        layers::run_traced(args.seed, args.seconds).map(|r| r.report)
    } else {
        run(args.workload, args.seed, args.seconds)
    };
    match report {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wp_perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
