//! End-to-end and per-layer wall-clock benchmark of the ugache-rs
//! library.
//!
//! ```text
//! perfbench --workload <gnn-train|dlr-infer|serve-steady|serve-drift>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets up and runs its workload repeatedly for `--seconds`,
//! checks the simulated outputs, prints a human-readable summary, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. The untraced run (`--trace 0`) reports the end-to-end
//! metrics; the traced run (`--trace 1`) reports the per-layer ones and
//! writes its spans to `perfbench/out/<workload>.trace.json` as Chrome
//! trace events. See `perfbench/README.md`.

mod harness;
mod layers;
mod offline;
mod serve;
mod stats;
mod trace;

use harness::{result_line, Opts, Outcome};
use std::process::ExitCode;

/// The workloads, by command-line name.
const WORKLOADS: [&str; 4] = ["gnn-train", "dlr-infer", "serve-steady", "serve-drift"];

/// Where traced runs write their Chrome trace.
const TRACE_DIR: &str = "perfbench/out";

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("expected one of {}", WORKLOADS.join(", "))));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("expected non-negative seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn run_workload(workload: &str, opts: &Opts) -> Outcome {
    use offline::Family;
    use serve::Kind;
    let mut out = match workload {
        "gnn-train" => offline::run(Family::Gnn, opts),
        "dlr-infer" => offline::run(Family::Dlr, opts),
        "serve-steady" => serve::run(Kind::Steady, opts),
        "serve-drift" => serve::run(Kind::Drift, opts),
        _ => unreachable!("workload names are validated"),
    };
    if opts.trace {
        print_layer_shares(&out.spans);
        if let Err(e) = write_trace(workload, &out.spans) {
            out.checks.failures.push(e);
        }
        out.metrics = layers::complete(out.metrics);
    } else {
        let names: Vec<&str> = out.metrics.0.iter().map(|m| m.0.as_str()).collect();
        let want: Vec<&str> = layers::END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "end-to-end metrics out of catalogue");
    }
    out
}

/// Prints each layer's self time and its share of the traced pass.
fn print_layer_shares(spans: &[trace::Span]) {
    let wall = spans.first().map_or(0, trace::Span::dur_ns) as f64 / 1e9;
    println!("layer self time in the median traced pass ({wall:.3} s):");
    for (layer, secs) in trace::Totals::of(spans).by_layer() {
        println!("  {layer:<14} {secs:>9.4} s {:>6.1} %", 100.0 * secs / wall);
    }
}

/// Writes the median traced pass's spans as a Chrome trace and
/// validates the file the way `repro check-trace` does.
fn write_trace(workload: &str, spans: &[trace::Span]) -> Result<(), String> {
    let doc = trace::chrome_trace(workload, spans);
    let path = format!("{TRACE_DIR}/{workload}.trace.json");
    std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, doc.render_compact()))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let parsed = ugache_bench::json::parse(&text).map_err(|e| format!("{e:?}"))?;
    let errors = ugache_bench::chrome::validate(&parsed);
    if !errors.is_empty() {
        return Err(format!("{path} fails check-trace: {}", errors.join("; ")));
    }
    println!("trace: {} spans written to {path}", spans.len());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {workload}: seed {}, {} s, trace {}",
        opts.seed, opts.seconds, opts.trace as u8
    );
    let Outcome {
        checks, metrics, ..
    } = run_workload(&workload, &opts);
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    for f in &checks.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", result_line(&checks, &metrics));
    if harness::correct(&checks, &metrics) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let cmd = parse_args(&args(
            "--workload dlr-infer --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            (
                "dlr-infer".to_string(),
                Opts {
                    seed: 7,
                    seconds: 10.0,
                    trace: true
                }
            )
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload gnn-train --seed x --seconds 1 --trace 0",
            "--workload gnn-train --seed 1 --seconds -1 --trace 0",
            "--workload gnn-train --seed 1 --seconds 1 --trace 2",
            "--workload gnn-train --seconds 1",
            "--workload gnn-train --seed 1 --seconds",
            "--bogus 1",
            "--check-fig10",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
