//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest-zipf|durable-ack|query-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload, generated from the seed, against the real
//! server over loopback TCP and checks every answer. `--trace 0`
//! measures the end-to-end metrics; `--trace 1` replays the same input
//! up a ladder of the crates' public entry points and reports the
//! per-layer metrics. Report lines start with `#`; the last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. A failed check makes the exit
//! code 1.

mod e2e;
mod ladder;
mod stats;
mod workload;

use std::time::Duration;

use workload::Spec;

/// A run that has not finished after this long is abandoned.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Spec::named(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// The result of one run, before printing.
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that errored or timed out, plus failed checks.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub report: Vec<String>,
}

fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Every digit Rust prints for an `f64`; non-finite values become
/// `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; abandoning it");
        std::process::exit(3);
    });
    let result = if args.trace {
        ladder::run(&args.workload, args.seed, args.seconds)
    } else {
        e2e::measure(&args.workload, args.seed, args.seconds)
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for line in &outcome.report {
        println!("# {line}");
    }
    for failure in &outcome.failures {
        println!("# FAILED: {failure}");
    }
    println!("{}", result_json(&outcome));
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
