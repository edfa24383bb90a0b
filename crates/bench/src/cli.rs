//! Argument parsing for the `repro` binary.
//!
//! Kept in the library (rather than the binary) so CLI semantics —
//! alias resolution, order-independent dedup, flag validation — are
//! unit-testable without spawning processes. Each subcommand is one row
//! of a table (its flags, positional arity, usage line and constructor);
//! a single pass splits the arguments against that row.

use crate::scenario::{registry, PlatformId, PolicyId, Scenario};
use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::path::PathBuf;

/// Every target the `repro` CLI accepts, in canonical execution order.
pub const TARGETS: &[&str] = &[
    "table1", "table3", "fig2", "fig4", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "fig16", "fig17", "hotness", "serve",
];

/// A validated `repro` run request.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Targets in requested order, aliases resolved, duplicates removed.
    pub targets: Vec<String>,
    /// Scenario after `--full` / explicit scale overrides.
    pub scenario: Scenario,
    /// Emit JSON artifacts instead of pretty-printed tables.
    pub json: bool,
    /// Artifact output directory (required with `--json`).
    pub out: Option<PathBuf>,
    /// Worker threads for computation (>= 1).
    pub jobs: usize,
    /// Intra-target worker-pool width (`--threads N`, >= 1, default 1).
    pub threads: usize,
    /// Telemetry event-trace output file (JSONL), if requested.
    pub trace: Option<PathBuf>,
    /// Chrome trace-event output file (JSON), if requested.
    pub chrome_trace: Option<PathBuf>,
    /// Render a span profile instead of the figure output (the
    /// `repro profile` subcommand).
    pub profile: bool,
}

/// A parsed `repro` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print the target menu and usage.
    List,
    /// Compare two artifact directories for exact structural equality.
    Diff {
        /// Left directory.
        a: PathBuf,
        /// Right directory.
        b: PathBuf,
    },
    /// Compare two artifact directories' metric/timeline blocks against
    /// the perf-regression tolerance table. When both paths are
    /// `BENCH_*.json` files, the binary applies the soft wall-clock gate
    /// ([`crate::microbench::compare_files`]) instead.
    Compare {
        /// Baseline directory (committed reference).
        baseline: PathBuf,
        /// Fresh directory to gate.
        new: PathBuf,
    },
    /// Structurally validate a Chrome trace-event file.
    CheckTrace {
        /// The trace file to validate.
        path: PathBuf,
    },
    /// Run the wall-clock microbenches (`repro bench`).
    Bench {
        /// Bench names in requested order (empty = all).
        names: Vec<String>,
        /// Timed trials per implementation.
        trials: usize,
        /// Untimed warmup runs per implementation.
        warmup: usize,
        /// Where to write the bench report, if requested.
        out: Option<PathBuf>,
    },
    /// List registered scenarios, render the catalog, or gate it
    /// (`repro scenarios`).
    Scenarios {
        /// Print the generated `SCENARIOS.md` content instead of the
        /// one-line-per-scenario listing.
        md: bool,
        /// Compare the committed catalog against the registry (exit 1
        /// on drift).
        check: bool,
        /// Catalog file `--check` reads (default `SCENARIOS.md`).
        file: PathBuf,
    },
    /// List the metric-name catalog, render it, or gate it against a
    /// full quick run (`repro metrics`).
    Metrics {
        /// Print the generated `METRICS.md` content instead of the
        /// one-line-per-name listing.
        md: bool,
        /// Compare the committed catalog against the table and a fresh
        /// quick run's recorded names (exit 1 on drift).
        check: bool,
        /// Catalog file `--check` reads (default `METRICS.md`).
        file: PathBuf,
    },
    /// Record a scenario's access stream to a UGTR trace file.
    Record {
        /// Registered scenario name (validated at parse time).
        scenario: String,
        /// Trace output path.
        out: PathBuf,
        /// Iteration (for `serve`: request) count override.
        iters: Option<usize>,
        /// Scenario scale knobs after `--full` / explicit overrides.
        knobs: Scenario,
        /// Worker-pool width (`--threads N`, >= 1, default 1).
        threads: usize,
    },
    /// Replay a trace under a policy on a platform.
    Replay {
        /// Trace input path.
        trace: PathBuf,
        /// Policy to replay under (default `ugache`).
        policy: PolicyId,
        /// Platform override (default: matched to the trace's GPU
        /// count).
        platform: Option<PlatformId>,
        /// Replay-report output path, if requested.
        out: Option<PathBuf>,
        /// Worker-pool width (`--threads N`, >= 1, default 1).
        threads: usize,
    },
    /// Reconstruct the tail requests of a serve run (`repro
    /// explain-tail`).
    ExplainTail {
        /// A schema-v5 `serve.json` artifact path, or a registered
        /// serving scenario name to compute fresh in-process (resolved
        /// at run time: registry names win over paths).
        input: String,
        /// Explain-report output path, if requested (the table renders
        /// to stdout either way).
        out: Option<PathBuf>,
        /// Scenario scale knobs for the in-process path (`--full` /
        /// explicit overrides; ignored for artifact inputs).
        knobs: Scenario,
        /// Worker-pool width (`--threads N`, >= 1, default 1).
        threads: usize,
    },
    /// Compute (and render or serialize) targets.
    Run(RunSpec),
}

impl Command {
    /// The worker-pool width the command runs at: its `--threads` value,
    /// or 1 for the subcommands without that flag.
    pub fn threads(&self) -> usize {
        match self {
            Command::Run(spec) => spec.threads,
            Command::Record { threads, .. }
            | Command::Replay { threads, .. }
            | Command::ExplainTail { threads, .. } => *threads,
            _ => 1,
        }
    }
}

/// A flag name (without the leading `--`) and whether it takes a value.
type Flag = (&'static str, bool);

/// The scenario scale knobs `--full`, `--gnn-scale N` and `--dlr-scale N`.
const SCALE: &[Flag] = &[("full", false), ("gnn-scale", true), ("dlr-scale", true)];
/// The intra-target worker-pool width.
const THREADS: &[Flag] = &[("threads", true)];
/// Where the command writes its output.
const OUT: &[Flag] = &[("out", true)];
/// The render, gate and gate-input flags of the two catalog subcommands.
const CATALOG: &[Flag] = &[("md", false), ("check", false), ("file", true)];

/// Any number of positional arguments.
const ANY: RangeInclusive<usize> = 0..=usize::MAX;

/// One row of the subcommand table.
struct Subcommand {
    /// The first argument that selects the row; empty for the default
    /// target run.
    name: &'static str,
    /// Accepted flags, as groups.
    flags: &'static [&'static [Flag]],
    /// Accepted number of positional arguments.
    positionals: RangeInclusive<usize>,
    /// The row's line in `repro list`; it names every accepted flag.
    usage: &'static str,
    /// Builds the command from the split arguments.
    build: fn(Args) -> Result<Command, String>,
}

impl Subcommand {
    /// How the subcommand is invoked, for messages.
    fn who(&self) -> String {
        if self.name.is_empty() {
            "repro".to_string()
        } else {
            format!("repro {}", self.name)
        }
    }
}

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "",
        flags: &[
            SCALE,
            THREADS,
            OUT,
            &[
                ("json", false),
                ("jobs", true),
                ("trace", true),
                ("chrome-trace", true),
            ],
        ],
        positionals: ANY,
        usage: "repro [--full] [--gnn-scale N] [--dlr-scale N] [--jobs N] [--threads N] \
                [--trace OUT.jsonl] [--chrome-trace OUT.json] [--json --out DIR] \
                <target>... (or: all, list)",
        build: |a| run_spec(a, false),
    },
    Subcommand {
        name: "profile",
        flags: &[SCALE, THREADS, &[("jobs", true)]],
        positionals: 1..=usize::MAX,
        usage: "repro profile [--full] [--gnn-scale N] [--dlr-scale N] [--jobs N] [--threads N] \
                <target>...",
        build: |a| run_spec(a, true),
    },
    Subcommand {
        name: "diff",
        flags: &[],
        positionals: 2..=2,
        usage: "repro diff <dir-a> <dir-b>",
        build: |a| {
            Ok(Command::Diff {
                a: a.path_at(0),
                b: a.path_at(1),
            })
        },
    },
    Subcommand {
        name: "compare",
        flags: &[],
        positionals: 2..=2,
        usage: "repro compare <baseline-dir> <new-dir> \
                (or: <baseline-bench.json> <new-bench.json>)",
        build: |a| {
            Ok(Command::Compare {
                baseline: a.path_at(0),
                new: a.path_at(1),
            })
        },
    },
    Subcommand {
        name: "bench",
        flags: &[OUT, &[("trials", true), ("warmup", true)]],
        positionals: ANY,
        usage: "repro bench [--trials N] [--warmup N] [--out FILE] [NAME...]",
        build: |a| {
            use crate::microbench::{BENCH_NAMES, DEFAULT_TRIALS, DEFAULT_WARMUP};
            if let Some(n) = a
                .positionals
                .iter()
                .find(|n| !BENCH_NAMES.contains(&n.as_str()))
            {
                return Err(format!(
                    "unknown bench `{n}`; available: {}",
                    BENCH_NAMES.join(" ")
                ));
            }
            Ok(Command::Bench {
                trials: a.uint("trials")?.unwrap_or(DEFAULT_TRIALS).max(1),
                warmup: a.uint("warmup")?.unwrap_or(DEFAULT_WARMUP),
                out: a.path("out"),
                names: a.positionals,
            })
        },
    },
    Subcommand {
        name: "check-trace",
        flags: &[],
        positionals: 1..=1,
        usage: "repro check-trace <trace.json>",
        build: |a| Ok(Command::CheckTrace { path: a.path_at(0) }),
    },
    Subcommand {
        name: "scenarios",
        flags: &[CATALOG],
        positionals: 0..=0,
        usage: "repro scenarios [--md | --check [--file PATH]]",
        build: |a| {
            let (md, check, file) = a.catalog("scenarios", "SCENARIOS.md")?;
            Ok(Command::Scenarios { md, check, file })
        },
    },
    Subcommand {
        name: "metrics",
        flags: &[CATALOG],
        positionals: 0..=0,
        usage: "repro metrics [--md | --check [--file PATH]]",
        build: |a| {
            let (md, check, file) = a.catalog("metrics", "METRICS.md")?;
            Ok(Command::Metrics { md, check, file })
        },
    },
    Subcommand {
        name: "record",
        flags: &[SCALE, THREADS, OUT, &[("iters", true)]],
        positionals: 1..=1,
        usage: "repro record <scenario> --out TRACE [--iters N] [--full] [--gnn-scale N] \
                [--dlr-scale N] [--threads N]",
        build: |a| {
            let scenario = a.positionals[0].clone();
            if registry().get(&scenario).is_none() {
                return Err(format!(
                    "unknown scenario `{scenario}`; see `repro scenarios`"
                ));
            }
            Ok(Command::Record {
                out: a
                    .path("out")
                    .ok_or("`repro record` requires --out <trace-file>")?,
                iters: a.uint("iters")?.map(|n| n.max(1)),
                knobs: a.scenario()?,
                threads: a.threads()?,
                scenario,
            })
        },
    },
    Subcommand {
        name: "replay",
        flags: &[THREADS, OUT, &[("policy", true), ("platform", true)]],
        positionals: 1..=1,
        usage: "repro replay TRACE [--policy P] [--platform PL] [--out FILE] [--threads N]",
        build: |a| {
            let policy = match a.value("policy") {
                None => PolicyId::UGache,
                Some(v) => PolicyId::parse(v).ok_or_else(|| {
                    format!(
                        "unknown policy `{v}`; available: {}",
                        PolicyId::ALL.map(|p| p.name()).join(" ")
                    )
                })?,
            };
            let platform = match a.value("platform") {
                None => None,
                Some(v) => Some(PlatformId::parse(v).ok_or_else(|| {
                    format!(
                        "unknown platform `{v}`; available: {}",
                        PlatformId::ALL.map(|p| p.name()).join(" ")
                    )
                })?),
            };
            Ok(Command::Replay {
                trace: a.path_at(0),
                policy,
                platform,
                out: a.path("out"),
                threads: a.threads()?,
            })
        },
    },
    Subcommand {
        name: "explain-tail",
        flags: &[SCALE, THREADS, OUT],
        positionals: 1..=1,
        usage: "repro explain-tail <serve.json | scenario> [--out FILE] [--full] \
                [--gnn-scale N] [--dlr-scale N] [--threads N]",
        build: |a| {
            Ok(Command::ExplainTail {
                input: a.positionals[0].clone(),
                out: a.path("out"),
                knobs: a.scenario()?,
                threads: a.threads()?,
            })
        },
    },
];

/// One invocation split against its [`Subcommand`] row.
struct Args {
    /// Flag values by name; a switch maps to the empty string.
    flags: HashMap<&'static str, String>,
    positionals: Vec<String>,
}

impl Args {
    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.value(name).map(PathBuf::from)
    }

    /// Positional `i`; the row's arity guarantees it exists.
    fn path_at(&self, i: usize) -> PathBuf {
        PathBuf::from(&self.positionals[i])
    }

    fn uint(&self, name: &str) -> Result<Option<usize>, String> {
        self.value(name)
            .map(|v| {
                v.parse::<usize>()
                    .map_err(|_| format!("--{name} expects an unsigned integer, got `{v}`"))
            })
            .transpose()
    }

    /// The scenario after `--full` and the scale overrides (which clamp
    /// to at least 1).
    fn scenario(&self) -> Result<Scenario, String> {
        let mut scenario = if self.has("full") {
            Scenario::full()
        } else {
            Scenario::quick()
        };
        if let Some(g) = self.uint("gnn-scale")? {
            scenario.gnn_scale = g.max(1);
        }
        if let Some(d) = self.uint("dlr-scale")? {
            scenario.dlr_scale = d.max(1);
        }
        Ok(scenario)
    }

    fn threads(&self) -> Result<usize, String> {
        match self.uint("threads")? {
            // Unlike --jobs (which clamps), a zero-width worker pool is a
            // contradiction — reject it loudly.
            Some(0) => Err("--threads must be >= 1, got `0`".to_string()),
            n => Ok(n.unwrap_or(1)),
        }
    }

    /// `--md`, `--check` (which exclude each other) and the `--file`
    /// path of a catalog subcommand.
    fn catalog(&self, name: &str, default_file: &str) -> Result<(bool, bool, PathBuf), String> {
        let (md, check) = (self.has("md"), self.has("check"));
        if md && check {
            return Err(format!("`repro {name}` takes --md or --check, not both"));
        }
        let file = self.path("file").unwrap_or_else(|| default_file.into());
        Ok((md, check, file))
    }
}

/// Splits `args` into flag values and positionals against `sub`'s row. A
/// flag's value comes attached (`--out=d`) or as the next argument
/// (`--out d`); unknown and repeated flags, missing and empty values, and
/// a positional count outside the row's arity are errors.
fn split(sub: &Subcommand, args: &[String]) -> Result<Args, String> {
    let mut flags = HashMap::new();
    let mut positionals = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            positionals.push(arg.clone());
            continue;
        };
        let (name, attached) = match flag.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (flag, None),
        };
        let Some(&(name, takes_value)) = sub.flags.iter().copied().flatten().find(|f| f.0 == name)
        else {
            return Err(format!(
                "unknown flag `{arg}` for `{}`; usage: {}",
                sub.who(),
                sub.usage
            ));
        };
        let value = match (takes_value, attached) {
            (false, None) => String::new(),
            (false, Some(_)) => return Err(format!("--{name} takes no value")),
            (true, Some(v)) => v.to_string(),
            (true, None) => rest
                .next()
                .cloned()
                .ok_or_else(|| format!("--{name} expects a value"))?,
        };
        if takes_value && value.is_empty() {
            return Err(format!("--{name} expects a non-empty value"));
        }
        if flags.insert(name, value).is_some() {
            return Err(format!("--{name} is given more than once"));
        }
    }
    if !sub.positionals.contains(&positionals.len()) {
        return Err(format!(
            "`{}` does not take {} positional argument(s); usage: {}",
            sub.who(),
            positionals.len(),
            sub.usage
        ));
    }
    Ok(Args { flags, positionals })
}

/// Builds a target run (`repro ...`) or, with `profile`, `repro profile`.
fn run_spec(a: Args, profile: bool) -> Result<Command, String> {
    let scenario = a.scenario()?;
    let jobs = a.uint("jobs")?.unwrap_or(1).max(1);
    let threads = a.threads()?;
    let json = a.has("json");
    let out = a.path("out");
    let trace = a.path("trace");
    let chrome_trace = a.path("chrome-trace");
    if json && out.is_none() {
        return Err("--json requires --out <dir>".to_string());
    }
    if out.is_some() && !json {
        return Err("--out requires --json".to_string());
    }
    let mut targets = a.positionals;
    if targets.is_empty() || targets.iter().any(|t| t == "list") {
        return Ok(Command::List);
    }
    if targets.iter().any(|t| t == "all") {
        targets = TARGETS.iter().map(|s| s.to_string()).collect();
    }
    for t in &targets {
        if !TARGETS.contains(&t.as_str()) {
            return Err(format!("unknown target `{t}`; see `repro list`"));
        }
    }
    // fig14 and fig15 are one combined module; run it once.
    for t in targets.iter_mut() {
        if t == "fig15" {
            *t = "fig14".to_string();
        }
    }
    // Order-independent dedup, keeping the first occurrence.
    let mut seen = std::collections::HashSet::new();
    targets.retain(|t| seen.insert(t.clone()));

    Ok(Command::Run(RunSpec {
        targets,
        scenario,
        json,
        out,
        jobs,
        threads,
        trace,
        chrome_trace,
        profile,
    }))
}

/// Every subcommand's usage line, in `repro list` order.
pub fn usage() -> impl Iterator<Item = &'static str> {
    SUBCOMMANDS.iter().map(|s| s.usage)
}

/// Parses `repro` arguments (without the program name). `repro list`
/// prints what each subcommand accepts.
///
/// Unknown or repeated flags, empty flag values and unknown targets are
/// hard errors. `fig15` is an alias for `fig14` (one combined module);
/// duplicate targets are removed regardless of position, keeping the
/// first occurrence. Unknown scenario, policy, platform and bench names
/// are parse errors; whether an `explain-tail` input is a registered
/// scenario or an artifact path is resolved at run time.
///
/// # Errors
///
/// Returns a human-readable message when the invocation is invalid; the
/// binary prints it to stderr and exits 2.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let named = args.first().and_then(|first| {
        SUBCOMMANDS
            .iter()
            .find(|s| !s.name.is_empty() && s.name == first.as_str())
    });
    let (sub, rest) = match named {
        Some(sub) => (sub, &args[1..]),
        None => (&SUBCOMMANDS[0], args),
    };
    (sub.build)(split(sub, rest)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lines_name_exactly_the_accepted_flags() {
        for sub in SUBCOMMANDS {
            let who = sub.who();
            assert!(sub.usage.starts_with(&who), "{}", sub.usage);
            let accepted: Vec<&str> = sub.flags.iter().copied().flatten().map(|f| f.0).collect();
            let named: Vec<&str> = sub
                .usage
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|word| word.strip_prefix("--"))
                .collect();
            for (i, flag) in accepted.iter().enumerate() {
                assert!(
                    named.contains(flag),
                    "`{who}` accepts --{flag}, but its usage line omits it"
                );
                assert!(
                    !accepted[..i].contains(flag),
                    "`{who}` lists --{flag} twice"
                );
            }
            for flag in &named {
                assert!(
                    accepted.contains(flag),
                    "`{who}` usage names --{flag}, which it rejects"
                );
            }
        }
    }
}
