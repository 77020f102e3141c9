//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the recorded conditions and, for traced runs, the per-layer
//! table; the last line is the JSON result.

use std::process::ExitCode;

use e2ebench::{measure, Params, Scale, Tamper, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: e2ebench --workload <exar_cold|exar_rerun|race_sweep> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage(
            "--workload, --seed, --seconds and --trace are all required and must be valid",
        );
    };
    let params = Params {
        workload,
        seed,
        seconds,
        trace,
        threads: measure::host_parallelism(),
        scale: Scale::FULL,
        tamper: Tamper::None,
    };
    let outcome = e2ebench::run(&params);
    print!("{}", outcome.report);
    println!(
        "checks: attempted={} failed={} fail_ratio={}",
        outcome.attempted,
        outcome.failed,
        outcome.fail_ratio()
    );
    for m in &outcome.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        measure::result_json(outcome.attempted, outcome.failed, &outcome.metrics)
    );
    ExitCode::SUCCESS
}
