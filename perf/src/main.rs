//! `tics-perf` — runs the repository benchmark.
//!
//! ```text
//! tics-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//! ```
//!
//! With `--workload`, runs that workload in this process, prints each
//! metric with its unit and ends with one JSON line. Without it, runs
//! every workload, each in a child process of this binary so that
//! `peak_rss_mb` is per workload. Exits 1 when an output check fails and
//! 2 on a malformed command line.

use std::process::{Command, ExitCode, Stdio};

use tics_perf::{calibration, run, Options, Report, Workload};

const USAGE: &str = "usage: tics-perf [--workload fleet|dispatch|checkpoint|fault] [--seed N] \
                     [--seconds S] [--trace 0|1 | --traced]";

struct Args {
    workload: Option<Workload>,
    opts: Options,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        opts: Options::new(1),
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (arg.clone(), None),
        };
        if flag == "--traced" && inline.is_none() {
            out.opts.traced = true;
            continue;
        }
        if !matches!(
            flag.as_str(),
            "--workload" | "--seed" | "--seconds" | "--trace"
        ) {
            return Err(format!("unknown argument {arg:?}"));
        }
        let value = inline
            .or_else(|| it.next())
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (fleet, dispatch, checkpoint, fault)")
                })?);
            }
            "--seed" => {
                out.opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs a non-negative integer, got {value:?}"))?;
            }
            "--seconds" => {
                out.opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| {
                        format!("--seconds needs a non-negative number, got {value:?}")
                    })?;
            }
            _ => {
                out.opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
                };
            }
        }
    }
    Ok(out)
}

fn print_report(report: &Report) {
    let name = report.workload.name();
    for m in &report.metrics {
        println!("{name:<10} {:<30} {:>18} {}", m.name, m.value, m.unit);
    }
    println!(
        "{name:<10} {} of {} units failed",
        report.failed, report.attempted
    );
    if let Some(s) = report.calibration_s {
        println!(
            "{name:<10} calibration kernel {:.4} ms, reference {:.4} ms",
            s * 1e3,
            calibration::REFERENCE_S * 1e3
        );
    }
    for p in &report.problems {
        eprintln!("tics-perf: {name}: CHECK FAILED: {p}");
    }
    println!("{}", report.to_json());
}

fn run_one(workload: Workload, opts: &Options) -> ExitCode {
    match run(workload, opts) {
        Ok(report) => {
            print_report(&report);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("tics-perf: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

fn run_all(opts: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("tics-perf: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut status = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        match child {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                if !out.status.success() {
                    eprintln!("tics-perf: {} exited with {}", workload.name(), out.status);
                    status = ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("tics-perf: cannot run {}: {e}", workload.name());
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}

fn main() -> ExitCode {
    // Trials that restore corrupted state may crash the simulated VM; the
    // fault drivers contain the panic and judge it. Report it on one line
    // instead of with a backtrace, which would also cost measured time.
    std::panic::set_hook(Box::new(|info| eprintln!("tics-perf: panic: {info}")));
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tics-perf: {e}; {USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args.opts),
        None => run_all(&args.opts),
    }
}
