//! End-to-end and per-layer benchmark of the uwb-ams workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <ber_awgn_ideal|twr_cm1_twopole|mc_mismatch_tiled> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its workload from the seed, times the set-up, runs a
//! closed loop (one operation in flight) for `--seconds`, checks every
//! output, and prints one JSON object as its last line. `--trace 1`
//! re-runs the same operations with spans recorded around every call into
//! the crates and prints the per-layer metrics instead; the spans are
//! written to `benchmark/out/`. `--write-reference` regenerates the
//! stored outputs of the default seed.

mod alloc;
mod context;
mod harness;
mod trace;
mod workloads;

use harness::{Report, RunArgs};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: uwb-ams-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     | --workload <name> --write-reference";

/// Parsed command line.
struct Cli {
    run: RunArgs,
    write_reference: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = harness::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut write_reference = false;
    while let Some(flag) = args.next() {
        if flag == "--write-reference" {
            write_reference = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not a whole number"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value:?} is not a duration"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Cli {
        run: RunArgs {
            workload,
            seed,
            seconds,
            trace,
            inputs: None,
        },
        write_reference,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct && finite,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!(
            "refusing to measure a debug build: run with `cargo run --release` \
             (debug timings are not comparable)"
        );
        return ExitCode::from(2);
    }
    if let Err(e) = context::refuse_engine_overrides() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    if cli.write_reference {
        return match workloads::write_reference(&cli.run.workload) {
            Ok(path) => {
                println!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("writing the reference failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let ctx = context::RunContext::collect(&cli.run);
    println!("context {}", ctx.to_json());
    let report = match workloads::run(&cli.run) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("{}: {note}", cli.run.workload);
    }
    if let Some(spans) = &report.spans {
        match context::write_spans(&cli.run, &ctx, spans) {
            Ok(path) => println!("{}: spans written to {}", cli.run.workload, path.display()),
            Err(e) => {
                eprintln!("writing spans failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for m in &report.metrics {
        println!("{}: {} = {} {}", cli.run.workload, m.name, m.value, m.unit);
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke size: the first pool input only, no minimum duration, with
    /// every check the full run makes (stored reference, invariants,
    /// repeat and thread-count bit-identity, traced = untraced).
    fn smoke(workload: &str, trace: bool) -> Report {
        let args = RunArgs {
            workload: workload.to_string(),
            seed: harness::DEFAULT_SEED,
            seconds: 0.0,
            trace,
            inputs: Some(1),
        };
        let report = workloads::run(&args).expect("workload runs");
        assert!(
            report.correct,
            "{workload}: checks failed: {:?}",
            report.notes
        );
        assert_eq!(report.failed, 0);
        assert!(report.attempted > 0);
        report
    }

    fn check_metrics(report: &Report, names: &[&str]) {
        let got: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        assert_eq!(got, names);
        for m in &report.metrics {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
        let line = result_json(report);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }

    fn end_to_end(workload: &str) {
        let report = smoke(workload, false);
        check_metrics(&report, &["setup_s", "points_per_s", "peak_heap_mb"]);
        assert!(report.metrics.iter().all(|m| m.value > 0.0));
    }

    fn traced(workload: &str) {
        let report = smoke(workload, true);
        let names: Vec<&str> = harness::PER_LAYER.iter().map(|&(n, _)| n).collect();
        check_metrics(&report, &names);
        assert!(report.spans.as_deref().is_some_and(|s| !s.is_empty()));
    }

    #[test]
    fn ber_awgn_ideal_smoke() {
        end_to_end("ber_awgn_ideal");
        traced("ber_awgn_ideal");
    }

    #[test]
    fn twr_cm1_twopole_smoke() {
        end_to_end("twr_cm1_twopole");
        traced("twr_cm1_twopole");
    }

    #[test]
    fn mc_mismatch_tiled_smoke() {
        end_to_end("mc_mismatch_tiled");
        traced("mc_mismatch_tiled");
    }

    #[test]
    fn command_line_is_checked() {
        let args = |v: &[&str]| parse(v.iter().map(|s| s.to_string()));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "mc_mismatch_tiled", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "mc_mismatch_tiled", "--seconds", "-1"]).is_err());
        let cli = args(&[
            "--workload",
            "twr_cm1_twopole",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid command line");
        assert_eq!(cli.run.seed, 7);
        assert!(cli.run.trace);
    }
}
