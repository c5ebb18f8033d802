//! Command line:
//!
//! ```text
//! drift-bench --workload <stencil|nb-chains|er-l3> --seed <n> --seconds <s> --trace <0|1>
//! drift-bench --fingerprints      # the table for fingerprints.txt
//! ```
//!
//! Prints a metadata line, then the result as the last line of standard
//! output; a human-readable table goes to standard error. Exits 1 when an
//! output was wrong or an operation failed.

use drift_bench::workload::{self, Workload};
use drift_bench::{run, Config, Report};
use sptrsv_datasets::Scale;
use std::process::ExitCode;

fn main() -> ExitCode {
    match parse(std::env::args().skip(1).collect()) {
        Ok(None) => {
            for w in Workload::ALL {
                let inputs = w.generate(Scale::Medium);
                let fp = workload::workload_fingerprint(
                    inputs.iter().map(|i| (i.name.as_str(), &i.lower)),
                );
                println!("{} {fp:016x}", w.name());
            }
            ExitCode::SUCCESS
        }
        Ok(Some(cfg)) => {
            let report = run(&cfg);
            for m in &report.metrics {
                let better = if Report::higher_is_better(&m.name) { "higher" } else { "lower" };
                eprintln!("{:<32} {:>16.6} {:<12} {better} is better", m.name, m.value, m.unit);
            }
            for (_, errors) in report.meta.iter().filter(|(k, _)| k == "errors") {
                eprintln!("errors: {errors}");
            }
            println!("{}", report.meta_json());
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("drift-bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(None)` asks for the fingerprint table.
fn parse(args: Vec<String>) -> Result<Option<Config>, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 6.0;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--fingerprints" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds {value} out of range"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale: Scale::Medium,
        trace_dir: Some(".bench_trace".into()),
    }))
}
