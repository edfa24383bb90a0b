//! `repro` — regenerates every table and figure of the UGache paper and
//! drives the tooling around them: artifact diff and regression gates,
//! the wall-clock microbenches, the scenario registry, access-trace
//! record/replay and tail-latency explanation.
//!
//! `repro list` prints the targets and every subcommand's usage line;
//! EXPERIMENTS.md documents what each one does and its exit codes (0
//! success, 1 a gate failed, 2 usage or IO error, 3 unusable input).

use std::path::Path;
use ugache_bench::artifact::{
    check_dir_schema, diff_dirs, trace_header, trace_line, Artifact, TargetData,
};
use ugache_bench::cli::{self, Command, RunSpec};
use ugache_bench::figures::*;
use ugache_bench::runner::{run_units, units_for, Unit, UnitResult};
use ugache_bench::scenario::{registry, WorkloadSpec};
use ugache_bench::{
    catalog, chrome, compare, explain, json, metrics_catalog, microbench, profile, replay,
    timeline, Scenario,
};

/// Why a command failed; each kind has its documented exit code.
enum Fail {
    /// A gate tripped (drift, regression, structural errors): exit 1.
    Gate(String),
    /// Bad usage or an IO failure: exit 2.
    Usage(String),
    /// The input could not be used at all: exit 3.
    Input(String),
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = cli::parse(&args).map_err(Fail::Usage).and_then(|cmd| {
        emb_util::pool::set_threads(cmd.threads());
        execute(cmd)
    });
    let (code, msg) = match result {
        Ok(()) => return,
        Err(Fail::Gate(msg)) => (1, msg),
        Err(Fail::Usage(msg)) => (2, msg),
        Err(Fail::Input(msg)) => (3, msg),
    };
    eprintln!("{msg}");
    std::process::exit(code);
}

fn execute(cmd: Command) -> Result<(), Fail> {
    match cmd {
        Command::List => {
            println!("targets: {} | all", cli::TARGETS.join(" "));
            println!("benches: {}", microbench::BENCH_NAMES.join(" "));
            for (i, line) in cli::usage().enumerate() {
                println!("{} {line}", if i == 0 { "usage:" } else { "      " });
            }
        }
        Command::Diff { a, b } => {
            let diffs = diff_dirs(&a, &b).map_err(|e| Fail::Usage(format!("diff failed: {e}")))?;
            gate(&diffs, "artifact difference(s)")?;
            println!("artifact directories are identical");
        }
        Command::Compare { baseline, new } => compare(&baseline, &new)?,
        Command::CheckTrace { path } => {
            gate(&chrome::validate(&read_json(&path)?), "structural error(s)")?;
            println!("{}: structurally valid chrome trace", path.display());
        }
        Command::Bench {
            names,
            trials,
            warmup,
            out,
        } => {
            let report = microbench::run_benches(&names, trials, warmup).map_err(Fail::Usage)?;
            microbench::render(&report);
            if let Some(path) = out.as_deref() {
                write_report(path, pretty_json(&report), "")?;
            }
        }
        Command::Scenarios { md, check, file } => {
            if md {
                print!("{}", catalog::render_markdown(registry()));
            } else if check {
                let committed = std::fs::read_to_string(&file).map_err(cannot_read(&file))?;
                catalog::check(registry(), &committed).map_err(Fail::Gate)?;
                println!("{} matches the registry", file.display());
            } else {
                for def in registry().defs() {
                    println!(
                        "{:<28} {:<28} [{}]",
                        def.name,
                        def.workload.label(),
                        def.consumers.join(" ")
                    );
                }
                println!(
                    "{} scenarios; `repro record <name> --out TRACE` captures one \
                     (catalog: SCENARIOS.md)",
                    registry().defs().len()
                );
            }
        }
        Command::Metrics { md, check, file } => {
            if md {
                print!("{}", metrics_catalog::render_markdown());
            } else if check {
                let committed = std::fs::read_to_string(&file).map_err(cannot_read(&file))?;
                metrics_catalog::check_file(&committed).map_err(Fail::Gate)?;
                let recorded = metrics_catalog::recorded_names();
                let drift = metrics_catalog::check_coverage(&recorded);
                if !drift.is_empty() {
                    return Err(Fail::Gate(drift.join("\n")));
                }
                println!(
                    "{} matches the catalog; {} recorded names covered",
                    file.display(),
                    recorded.len()
                );
            } else {
                for d in metrics_catalog::CATALOG {
                    println!("{:<36} {:<9} {}", d.name, d.kind.label(), d.description);
                }
                println!(
                    "{} catalogued names (catalog: METRICS.md; `repro metrics --check` \
                     gates drift against a full quick run)",
                    metrics_catalog::CATALOG.len()
                );
            }
        }
        Command::ExplainTail {
            input, out, knobs, ..
        } => explain_tail(&input, out.as_deref(), &knobs)?,
        Command::Record {
            scenario,
            out,
            iters,
            knobs,
            ..
        } => {
            let def = registry().get(&scenario).expect("validated by the CLI");
            let trace = replay::record_trace(def, &knobs, iters);
            let detail = format!(
                " ({} records, {} GPUs, {} keys of {})",
                trace.records.len(),
                trace.num_gpus,
                trace.total_keys(),
                trace.num_keys
            );
            write_report(&out, trace.to_bytes(), &detail)?;
        }
        Command::Replay {
            trace,
            policy,
            platform,
            out,
            ..
        } => {
            let bytes = std::fs::read(&trace).map_err(cannot_read(&trace))?;
            let decoded = emb_workload::Trace::from_bytes(&bytes)
                .map_err(|e| Fail::Input(format!("{}: {e}", trace.display())))?;
            let report = replay::replay_trace(&decoded, policy, platform)
                .map_err(|e| Fail::Usage(format!("replay failed: {e}")))?;
            println!(
                "replayed {}: {}, {} records on {} under {}",
                trace.display(),
                report.scenario,
                report.records,
                report.platform,
                report.policy
            );
            println!(
                "  totals: local {} | remote {} | host {}",
                report.totals.local, report.totals.remote, report.totals.host
            );
            if let Some(path) = out.as_deref() {
                write_report(path, pretty_json(&report), "")?;
            }
        }
        Command::Run(spec) => run(&spec)?,
    }
    Ok(())
}

/// Prints each failure on stdout; any failure trips the gate.
fn gate(failures: &[String], what: &str) -> Result<(), Fail> {
    for f in failures {
        println!("{f}");
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(Fail::Gate(format!("{} {what}", failures.len())))
    }
}

fn cannot_read(path: &Path) -> impl FnOnce(std::io::Error) -> Fail + '_ {
    move |e| Fail::Usage(format!("cannot read {}: {e}", path.display()))
}

/// Reads and parses a JSON file: an unreadable file is an IO error, text
/// that is not JSON is unusable input.
fn read_json(path: &Path) -> Result<json::Value, Fail> {
    let text = std::fs::read_to_string(path).map_err(cannot_read(path))?;
    json::parse(&text)
        .map_err(|e| Fail::Input(format!("{} is not valid JSON: {e}", path.display())))
}

fn pretty_json(report: &impl serde::Serialize) -> String {
    let mut text = json::to_string_pretty(report).expect("reports serialize");
    text.push('\n');
    text
}

/// Writes an output file and announces it (`wrote PATH` plus `detail`).
fn write_report(path: &Path, contents: impl AsRef<[u8]>, detail: &str) -> Result<(), Fail> {
    std::fs::write(path, contents)
        .map_err(|e| Fail::Usage(format!("failed to write {}: {e}", path.display())))?;
    println!("wrote {}{detail}", path.display());
    Ok(())
}

fn compare(baseline: &Path, new: &Path) -> Result<(), Fail> {
    // Two `.json` files = bench reports (soft wall-clock gate); anything
    // else = artifact directories (tolerance table).
    let is_json = |p: &Path| p.extension().is_some_and(|e| e == "json");
    if is_json(baseline) && is_json(new) {
        let (warnings, failures) = microbench::compare_files(baseline, new)
            .map_err(|e| Fail::Input(format!("bench compare inputs unusable: {e}")))?;
        for w in &warnings {
            println!("{w}");
        }
        gate(&failures, "large wall-clock regression(s)")?;
        println!(
            "no large wall-clock regressions against {} (soft gate; see EXPERIMENTS.md)",
            baseline.display()
        );
    } else {
        let failures = compare::compare_dirs(baseline, new)
            .map_err(|e| Fail::Input(format!("compare inputs unusable: {e}")))?;
        gate(&failures, "regression(s) beyond tolerance")?;
        println!(
            "no regressions against {} (tolerances in EXPERIMENTS.md)",
            baseline.display()
        );
    }
    Ok(())
}

fn explain_tail(input: &str, out: Option<&Path>, knobs: &Scenario) -> Result<(), Fail> {
    let report = if let Some(def) = registry().get(input) {
        // Registered scenario: compute the serve target fresh in-process
        // and read the exemplars off the live telemetry snapshot.
        if !matches!(def.workload, WorkloadSpec::ServeZipf) {
            return Err(Fail::Usage(format!(
                "scenario `{input}` is not the serving scenario; explain-tail \
                 reconstructs serve runs (see `repro scenarios`)"
            )));
        }
        let unit = Unit::for_target("serve").expect("serve is a target");
        let result = unit.compute_with_telemetry(knobs);
        explain::report_from_snapshot(&result.telemetry.metrics)
            .map_err(|e| Fail::Input(format!("explain-tail failed for scenario {input}: {e}")))?
    } else {
        let value = read_json(Path::new(input)).map_err(|fail| match fail {
            Fail::Usage(msg) => Fail::Usage(format!(
                "{msg} (pass a serve artifact or a registered scenario name; \
                 see `repro scenarios`)"
            )),
            fail => fail,
        })?;
        explain::report_from_artifact(&value).map_err(|e| Fail::Input(format!("{input}: {e}")))?
    };
    explain::render(&report);
    if let Some(path) = out {
        write_report(path, explain::to_json(&report), "")?;
    }
    Ok(())
}

fn run(spec: &RunSpec) -> Result<(), Fail> {
    if let Some(dir) = spec.out.as_deref() {
        check_dir_schema(dir).map_err(Fail::Usage)?;
    }
    let units = units_for(&spec.targets);
    let results = run_units(&spec.scenario, &units, spec.jobs);
    let result_for = |target: &str| -> &UnitResult {
        let unit = Unit::for_target(target).expect("targets validated by the CLI");
        let idx = units
            .iter()
            .position(|u| *u == unit)
            .expect("unit computed");
        &results[idx]
    };
    for target in &spec.targets {
        let result = result_for(target);
        if spec.profile {
            profile::render_profile(target, &result.telemetry);
        } else if spec.json {
            let dir = spec.out.as_ref().expect("--json implies --out");
            let artifact = Artifact::new(
                target,
                &spec.scenario,
                result.data.clone(),
                Some(result.telemetry.metrics.clone()),
                Some(timeline::from_report(&result.telemetry)),
            );
            let path = artifact
                .write(dir)
                .map_err(|e| Fail::Usage(format!("failed to write artifact for {target}: {e}")))?;
            println!("wrote {}", path.display());
        } else {
            render(target, &spec.scenario, &result.data);
        }
    }
    if let Some(path) = spec.trace.as_deref() {
        let per_target: Vec<(&str, &UnitResult)> = spec
            .targets
            .iter()
            .map(|t| (t.as_str(), result_for(t)))
            .collect();
        let (text, lines) = trace_jsonl(&spec.scenario, &per_target);
        write_report(path, text, &format!(" ({lines} trace lines)"))?;
    }
    if let Some(path) = spec.chrome_trace.as_deref() {
        let per_target: Vec<(&str, &emb_telemetry::Report)> = spec
            .targets
            .iter()
            .map(|t| (t.as_str(), &result_for(t).telemetry))
            .collect();
        let mut rendered = chrome::chrome_trace(&per_target).render_compact();
        rendered.push('\n');
        write_report(path, rendered, "")?;
    }
    Ok(())
}

/// Renders the JSONL telemetry trace: a header line describing the run,
/// then each target's events in requested-target order. Returns the text
/// and the number of event lines.
fn trace_jsonl(scenario: &Scenario, per_target: &[(&str, &UnitResult)]) -> (String, usize) {
    let mut out = String::new();
    out.push_str(&trace_header(scenario).render_compact());
    out.push('\n');
    let mut lines = 0;
    for (target, result) in per_target {
        for event in &result.telemetry.events {
            out.push_str(&trace_line(target, event).render_compact());
            out.push('\n');
            lines += 1;
        }
    }
    (out, lines)
}

fn render(target: &str, s: &Scenario, data: &TargetData) {
    match (target, data) {
        ("table1", TargetData::Table1(v)) => table1::render(v),
        ("table3", TargetData::Table3(v)) => table3::render(s, v),
        ("fig2", TargetData::Fig2(v)) => fig02::render(v),
        ("fig4", TargetData::Fig4(v)) => fig04::render(v),
        ("fig6", TargetData::Fig6(v)) => fig06::render(v),
        ("fig8", TargetData::Fig8(v)) => fig08::render(v),
        ("fig9", TargetData::Fig9(v)) => fig09::render(v),
        ("fig10", TargetData::Fig10(v)) => fig10::render_fig10(v),
        ("fig11", TargetData::Fig10(v)) => fig10::render_fig11(v),
        ("fig12", TargetData::Fig12(v)) => fig12::render(v),
        ("fig13", TargetData::Fig13(v)) => fig13::render(v),
        ("fig14", TargetData::Fig14(v)) => fig14::render(v),
        ("fig16", TargetData::Fig16(v)) => fig16::render(v),
        ("fig17", TargetData::Fig17(v)) => fig17::render(v),
        ("hotness", TargetData::Hotness(v)) => hotness_sources::render(v),
        ("serve", TargetData::Serve(v)) => serve::render(v),
        (t, _) => unreachable!("target `{t}` paired with wrong data variant"),
    }
}
