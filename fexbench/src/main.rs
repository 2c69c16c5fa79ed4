//! End-to-end and per-layer benchmark of FexIoT.
//!
//! ```text
//! fexbench --workload audit|federate|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! run and prints the per-layer ones. The last stdout line is the result
//! object; progress goes to stderr. See README.md for what each workload
//! measures and why.

mod audit;
mod federate;
mod harness;
mod serve;

use harness::{end_to_end, traced, Report, Size, Workload};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    let size = Size::full();
    if args.trace {
        traced::<W>(args.seed, args.seconds, &size)
    } else {
        end_to_end::<W>(args.seed, args.seconds, &size)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fexbench: {e}\nusage: fexbench --workload audit|federate|serve --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "fexbench: workload {} seed {} seconds {} trace {} width {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fexiot_par::pool().threads()
    );
    let result = match args.workload.as_str() {
        "audit" => run::<audit::Audit>(&args),
        "federate" => run::<federate::Federate>(&args),
        "serve" => run::<serve::Serve>(&args),
        other => Err(format!(
            "unknown workload {other:?} (audit, federate, serve)"
        )),
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fexbench: {e}");
            ExitCode::FAILURE
        }
    }
}
