//! The offline workloads: Fig. 10's GNN training cells (`gnn-train`)
//! and DLR inference cells (`dlr-infer`).
//!
//! The untraced pass runs every (cell, system) through the app runners
//! (`run_gnn_epoch`, `run_dlr_iterations`) on a clone of the cell's
//! workload, as `fig10` does. The traced pass recomposes the runners from
//! their public steps (the access probe, `build_system`, `next_batch`,
//! `SystemInstance::extract` and the runners' cost arithmetic) with a
//! span around each, and its simulated results must equal the runners'
//! bit for bit.

use crate::harness::{self, same_bits, Checks, Metrics, Opts, Outcome};
use crate::trace::{self, span, Totals};
use cache_policy::Hotness;
use emb_scenario::{PlatformId, Scenario};
use emb_util::stats::geomean;
use emb_workload::dlr::DlrHotness;
use emb_workload::{
    dlr_preset, gnn_preset, DlrDatasetId, DlrWorkload, GnnDatasetId, GnnModel, GnnWorkload,
};
use gpu_platform::Platform;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use ugache::apps::dlr::dlr_cache_capacity;
use ugache::apps::{gnn_cache_capacity, run_dlr_iterations, run_gnn_epoch};
use ugache::apps::{DlrModel, GnnAppConfig, MlpCostModel};
use ugache::baselines::build_system;
use ugache::SystemKind;

/// Systems compared on GNN cells, as in `fig10`.
pub const GNN_SYSTEMS: [SystemKind; 3] =
    [SystemKind::GnnLab, SystemKind::PartU, SystemKind::UGache];
/// Systems compared on DLR cells, as in `fig10`.
pub const DLR_SYSTEMS: [SystemKind; 5] = [
    SystemKind::Hps,
    SystemKind::Sok,
    SystemKind::RepU,
    SystemKind::PartU,
    SystemKind::UGache,
];

/// The `gnn-train` cells: one per server, and every model and dataset
/// once. Fig. 10 has 27; three keep a run inside its time budget.
pub const GNN_CELLS: [(PlatformId, GnnModel, GnnDatasetId); 3] = [
    (
        PlatformId::ServerA,
        GnnModel::GraphSageSupervised,
        GnnDatasetId::Mag,
    ),
    (PlatformId::ServerB, GnnModel::Gcn, GnnDatasetId::Cf),
    (
        PlatformId::ServerC,
        GnnModel::GraphSageUnsupervised,
        GnnDatasetId::Pa,
    ),
];

/// The `dlr-infer` inputs: (server, dataset) pairs, each run with both
/// DLR models like Fig. 10 (so each pair repeats one UGache solve).
pub const DLR_INPUTS: [(PlatformId, DlrDatasetId); 2] = [
    (PlatformId::ServerA, DlrDatasetId::Cr),
    (PlatformId::ServerC, DlrDatasetId::SynB),
];

/// Paper speedups of UGache over each baseline (EXPERIMENTS.md headline
/// table, end to end): replication designs vs partition designs.
const PAPER_GNN: [(SystemKind, f64); 2] = [(SystemKind::GnnLab, 2.21), (SystemKind::PartU, 1.33)];
const PAPER_DLR: [(SystemKind, f64); 4] = [
    (SystemKind::Hps, 1.51),
    (SystemKind::RepU, 1.51),
    (SystemKind::Sok, 2.07),
    (SystemKind::PartU, 2.07),
];

/// Which offline workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// GNN training epochs.
    Gnn,
    /// DLR inference iterations.
    Dlr,
}

enum Wl {
    Gnn(GnnWorkload),
    Dlr(DlrWorkload),
}

#[derive(Debug, Clone, Copy)]
enum Model {
    Gnn(GnnModel),
    Dlr(DlrModel),
}

impl Model {
    fn name(self) -> &'static str {
        match self {
            Model::Gnn(m) => m.name(),
            Model::Dlr(m) => m.name(),
        }
    }
}

/// One generated input: a platform, a workload and its hotness, and the
/// models run on it.
pub struct Input {
    plat: Platform,
    dataset: &'static str,
    wl: Wl,
    hotness: Hotness,
    models: Vec<Model>,
}

/// Simulated result of one app-runner call.
#[derive(Debug, Clone, Copy)]
pub struct Sim {
    /// GNN: epoch seconds. DLR: iteration seconds.
    pub total: f64,
    /// Extraction seconds per iteration.
    pub extract: f64,
    /// Iterations `total` spans (1 for DLR).
    pub iters: usize,
}

impl PartialEq for Sim {
    fn eq(&self, o: &Sim) -> bool {
        same_bits(self.total, o.total)
            && same_bits(self.extract, o.extract)
            && self.iters == o.iters
    }
}

impl Sim {
    /// Simulated seconds of one iteration.
    pub fn step(&self) -> f64 {
        self.total / self.iters as f64
    }
}

/// One (cell, system) result.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// `(server, model, dataset, system)` as `fig10` names them.
    pub key: [String; 4],
    /// `None` when the system failed to launch.
    pub sim: Option<Sim>,
}

/// What the traced pass measures besides time.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts {
    batches: u64,
    batch_keys: u64,
    batch_hashes: HashSet<u64>,
    solves: u64,
    solve_keys: HashSet<(usize, u64, u64)>,
}

fn hash_batch(b: &[Vec<u32>]) -> u64 {
    let mut h = DefaultHasher::new();
    b.hash(&mut h);
    h.finish()
}

fn gnn_cfg(k: &Scenario) -> GnnAppConfig {
    GnnAppConfig {
        batch_size: k.gnn_batch,
        measure_iters: k.iters,
        ..Default::default()
    }
}

/// Generates the inputs from `seed` (the graph, the workload, its
/// hotness): each library call is an operation in a span.
pub fn setup(family: Family, seed: u64) -> Vec<Input> {
    let k = Scenario::quick();
    match family {
        Family::Gnn => GNN_CELLS
            .into_iter()
            .map(|(p, model, ds)| {
                let plat = p.resolve();
                let d = harness::op(|| {
                    span("emb-graph", "graph.generate", || {
                        gnn_preset(ds, k.gnn_scale, seed)
                    })
                });
                let mut w = harness::op(|| {
                    span("emb-workload", "workload.gnn.new", || {
                        GnnWorkload::new(d, model, k.gnn_batch, plat.num_gpus(), seed)
                    })
                });
                let hotness = harness::op(|| {
                    span("emb-workload", "workload.gnn.profile", || {
                        w.profile_hotness(2)
                    })
                });
                Input {
                    plat,
                    dataset: ds.name(),
                    wl: Wl::Gnn(w),
                    hotness,
                    models: vec![Model::Gnn(model)],
                }
            })
            .collect(),
        Family::Dlr => DLR_INPUTS
            .into_iter()
            .map(|(p, ds)| {
                let plat = p.resolve();
                let mut w = harness::op(|| {
                    span("emb-workload", "workload.dlr.new", || {
                        DlrWorkload::new(
                            dlr_preset(ds, k.dlr_scale),
                            k.dlr_batch,
                            plat.num_gpus(),
                            seed,
                        )
                    })
                });
                let hotness = harness::op(|| {
                    span("emb-workload", "workload.dlr.hotness", || {
                        w.hotness(DlrHotness::Analytic)
                    })
                });
                Input {
                    plat,
                    dataset: ds.name(),
                    wl: Wl::Dlr(w),
                    hotness,
                    models: DlrModel::ALL.iter().map(|&m| Model::Dlr(m)).collect(),
                }
            })
            .collect(),
    }
}

fn systems(family: Family) -> &'static [SystemKind] {
    match family {
        Family::Gnn => &GNN_SYSTEMS,
        Family::Dlr => &DLR_SYSTEMS,
    }
}

/// One (cell, system) through the app runner, on a clone of the cell's
/// workload.
fn run_app(input: &Input, model: Model, kind: SystemKind) -> Option<Sim> {
    let k = Scenario::quick();
    match (&input.wl, model) {
        (Wl::Gnn(w), _) => {
            let mut wk = w.clone();
            run_gnn_epoch(kind, &input.plat, &mut wk, &input.hotness, &gnn_cfg(&k))
                .ok()
                .map(|r| Sim {
                    total: r.epoch_secs,
                    extract: r.extract_per_iter_secs,
                    iters: r.iters,
                })
        }
        (Wl::Dlr(w), Model::Dlr(m)) => {
            let mut wk = w.clone();
            run_dlr_iterations(
                kind,
                &input.plat,
                &mut wk,
                &input.hotness,
                m,
                k.dlr_batch,
                k.iters,
            )
            .ok()
            .map(|r| Sim {
                total: r.iteration_secs,
                extract: r.extract_secs,
                iters: 1,
            })
        }
        (Wl::Dlr(_), Model::Gnn(_)) => unreachable!("DLR inputs carry DLR models"),
    }
}

/// Draws one batch in a span.
fn traced_batch(wl: &mut Wl) -> Vec<Vec<u32>> {
    match wl {
        Wl::Gnn(w) => span("emb-workload", "workload.gnn.batch", || w.next_batch()),
        Wl::Dlr(w) => span("emb-workload", "workload.dlr.batch", || w.next_batch()),
    }
}

impl Counts {
    /// Counts a generated batch (benchmark work, outside every library
    /// span).
    fn batch(&mut self, keys: &[Vec<u32>]) {
        self.batches += 1;
        self.batch_keys += keys.iter().map(|b| b.len() as u64).sum::<u64>();
        self.batch_hashes.insert(hash_batch(keys));
    }
}

/// Expected pre-dedup vertex visits per GPU per iteration, as
/// `run_gnn_epoch` computes them.
fn expected_visits(model: GnnModel, batch_size: usize) -> f64 {
    let sampler = model.sampler();
    let mut per_seed = 1.0;
    let mut frontier = 1.0;
    for &f in &sampler.fanouts {
        frontier *= f as f64;
        per_seed += frontier;
    }
    let negs = 1.0 + sampler.negatives_per_seed as f64;
    batch_size as f64 * per_seed * negs
}

/// The app runner recomposed from its public steps, each in a span.
/// Clones are spanned with their release; the benchmark's counting and
/// the runner's cost arithmetic run in the caller's `op` span.
fn run_recomposed(
    input_idx: usize,
    input: &Input,
    model: Model,
    kind: SystemKind,
    counts: &mut Counts,
) -> Option<Sim> {
    let k = Scenario::quick();
    let plat = &input.plat;
    let g = plat.num_gpus();
    let mut wl = span("emb-workload", "workload.clone", || match &input.wl {
        Wl::Gnn(w) => Wl::Gnn(w.clone()),
        Wl::Dlr(w) => Wl::Dlr(w.clone()),
    });
    let (cap, entry_bytes, solve_seed) = match &wl {
        Wl::Gnn(w) => {
            let d = span("emb-workload", "workload.clone", || w.dataset().clone());
            let sized = (gnn_cache_capacity(plat, &d, kind), d.entry_bytes, 0xE9);
            span("emb-workload", "workload.clone", || drop(d));
            sized
        }
        Wl::Dlr(w) => {
            let d = span("emb-workload", "workload.clone", || w.dataset().clone());
            let sized = (dlr_cache_capacity(plat, &d), d.entry_bytes, 0xD7);
            span("emb-workload", "workload.clone", || drop(d));
            sized
        }
    };
    // The access probe: two batches from a clone of the workload.
    let probe: Vec<Vec<Vec<u32>>> = span("emb-workload", "workload.probe", || {
        let mut probe = match &wl {
            Wl::Gnn(w) => Wl::Gnn(w.clone()),
            Wl::Dlr(w) => Wl::Dlr(w.clone()),
        };
        (0..2).map(|_| traced_batch(&mut probe)).collect()
    });
    let mut total = 0usize;
    for b in &probe {
        counts.batch(b);
        total += b.iter().map(Vec::len).sum::<usize>();
    }
    let accesses = total as f64 / (2 * g) as f64;
    let build = || {
        build_system(
            kind,
            plat,
            &input.hotness,
            cap,
            entry_bytes,
            accesses,
            solve_seed,
        )
    };
    let system = if kind == SystemKind::UGache {
        counts.solves += 1;
        counts
            .solve_keys
            .insert((input_idx, cap as u64, accesses.to_bits()));
        span("cache-policy", "policy.solve", build)
    } else {
        span("cache-policy", "policy.baseline_build", build)
    }
    .ok()?;
    let n = k.iters.max(1);
    let mut extract_sum = 0.0f64;
    let mut keys_sum = 0.0f64;
    for _ in 0..n {
        let keys = traced_batch(&mut wl);
        counts.batch(&keys);
        keys_sum += keys.iter().map(|k| k.len()).sum::<usize>() as f64 / g as f64;
        extract_sum +=
            span("extractor", "extract", || system.extract(&keys).makespan).as_secs_f64();
    }
    span("cache-policy", "policy.release", || drop(system));
    let sim = match (&wl, model) {
        (Wl::Gnn(w), Model::Gnn(m)) => {
            let cfg = gnn_cfg(&k);
            let extract_per_iter = extract_sum / n as f64;
            let keys_per_iter = keys_sum / n as f64;
            let visits = expected_visits(m, cfg.batch_size);
            let sample_per_iter = cfg.sampling.sample_secs(visits);
            let d = w.dataset();
            let train_per_iter = cfg.mlp.gnn_train_secs(
                &plat.gpus[0],
                keys_per_iter as usize,
                d.dim,
                m.mlp_layers(),
            );
            let train_set = d.train_set.len();
            let (iters, iter_secs) = match kind {
                SystemKind::GnnLab => {
                    let samplers = if cfg.gnnlab_sampler_gpus > 0 {
                        cfg.gnnlab_sampler_gpus.min(g - 1)
                    } else {
                        g.div_ceil(4).min(g - 1)
                    };
                    let trainers = g - samplers;
                    let iters = train_set.div_ceil(cfg.batch_size * trainers).max(1);
                    let sample_rate = sample_per_iter * trainers as f64 / samplers as f64;
                    let queue = visits * 8.0 / plat.gpus[0].pcie_bw;
                    let compute = extract_per_iter + train_per_iter + queue;
                    (iters, compute.max(sample_rate))
                }
                _ => {
                    let iters = train_set.div_ceil(cfg.batch_size * g).max(1);
                    (iters, sample_per_iter + extract_per_iter + train_per_iter)
                }
            };
            Some(Sim {
                total: iter_secs * iters as f64,
                extract: extract_per_iter,
                iters,
            })
        }
        (Wl::Dlr(_), Model::Dlr(m)) => {
            let mlp_secs = MlpCostModel::default().dlr_infer_secs(&plat.gpus[0], k.dlr_batch, m);
            let extract = extract_sum / n as f64;
            Some(Sim {
                total: extract + mlp_secs,
                extract,
                iters: 1,
            })
        }
        _ => unreachable!("inputs carry models of their own family"),
    };
    span("emb-workload", "workload.clone", || drop(wl));
    sim
}

/// Output of one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOut {
    /// Every (cell, system) result, in run order.
    pub cells: Vec<Cell>,
    graph_edges: u64,
    counts: Counts,
    counters: Vec<(String, f64)>,
    events: u64,
}

/// One work pass over every (cell, system), inside one telemetry scope.
pub fn pass(family: Family, inputs: &mut [Input], traced: bool) -> PassOut {
    let mut counts = Counts::default();
    let (cells, report) = span("emb-telemetry", "telemetry.scope", || {
        emb_telemetry::collect(|| {
            let mut cells = Vec::new();
            for (i, input) in inputs.iter().enumerate() {
                for &model in &input.models {
                    for &kind in systems(family) {
                        trace::set_group(cells.len() as u64);
                        let sim = harness::op(|| {
                            if traced {
                                run_recomposed(i, input, model, kind, &mut counts)
                            } else {
                                run_app(input, model, kind)
                            }
                        });
                        cells.push(Cell {
                            key: [
                                input.plat.name.clone(),
                                model.name().to_string(),
                                input.dataset.to_string(),
                                kind.name().to_string(),
                            ],
                            sim,
                        });
                    }
                }
            }
            cells
        })
    });
    let graph_edges = inputs
        .iter()
        .map(|i| match &i.wl {
            Wl::Gnn(w) => w.dataset().graph.num_edges(),
            Wl::Dlr(_) => 0,
        })
        .sum();
    PassOut {
        cells,
        graph_edges,
        counts,
        counters: report.metrics.counters.clone(),
        events: report.events.len() as u64,
    }
}

fn counter(out: &PassOut, name: &str) -> f64 {
    out.counters
        .iter()
        .find(|c| c.0 == name)
        .map_or(0.0, |c| c.1)
}

/// The committed Fig. 10 artifact, relative to the repository root.
const FIG10_BASELINE: &str = "baselines/quick/fig10.json";

/// Checks every cell against the Fig. 10 artifact at `path` (only
/// meaningful at the repro seed with the quick knobs).
fn check_fig10(checks: &mut Checks, family: Family, cells: &[Cell], path: &str) {
    use ugache_bench::json::Value;
    let doc = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|s| ugache_bench::json::parse(&s).map_err(|e| format!("{e:?}")))
    {
        Ok(d) => d,
        Err(e) => {
            checks.failures.push(format!("cannot read {path}: {e}"));
            return;
        }
    };
    let half = if family == Family::Gnn { "gnn" } else { "dlr" };
    let Some(Value::Arr(rows)) = doc.get("data").and_then(|d| d.get(half)) else {
        checks.failures.push(format!("{path} has no data.{half}"));
        return;
    };
    let text = |v: Option<&Value>| match v {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let num = |v: Option<&Value>| match v {
        Some(Value::Num(s)) => s.parse::<f64>().ok(),
        _ => None,
    };
    for c in cells {
        let row = rows.iter().find(|r| {
            ["server", "model", "dataset", "system"]
                .iter()
                .zip(&c.key)
                .all(|(f, want)| text(r.get(f)) == *want)
        });
        let Some(row) = row else {
            checks
                .failures
                .push(format!("fig10 baseline lacks cell {:?}", c.key));
            continue;
        };
        let (want, got) = match family {
            Family::Gnn => (
                [
                    num(row.get("epoch_secs")),
                    num(row.get("extract_per_iter_secs")),
                ],
                c.sim.map(|s| [s.total, s.extract]),
            ),
            Family::Dlr => (
                [num(row.get("iter_ms")), num(row.get("extract_ms"))],
                c.sim.map(|s| [s.total * 1e3, s.extract * 1e3]),
            ),
        };
        let ok = match got {
            Some(g) => want
                .iter()
                .zip(g)
                .all(|(w, g)| w.is_some_and(|w| same_bits(w, g))),
            None => want.iter().all(Option::is_none),
        };
        checks.require(ok, || {
            format!(
                "cell {:?}: {got:?} differs from fig10 baseline {want:?}",
                c.key
            )
        });
    }
}

/// Geomean over cells of UGache's speedup over `baseline` (step time).
fn speedup_over(cells: &[Cell], baseline: SystemKind) -> Option<f64> {
    let ratios: Vec<f64> = cells
        .iter()
        .filter(|c| c.key[3] == SystemKind::UGache.name())
        .filter_map(|u| {
            let b = cells
                .iter()
                .find(|b| b.key[..3] == u.key[..3] && b.key[3] == baseline.name())?;
            Some(b.sim?.step() / u.sim?.step())
        })
        .collect();
    geomean(&ratios)
}

/// Runs `gnn-train` or `dlr-infer` and returns its checks and metrics.
pub fn run(family: Family, opts: &Opts) -> Outcome {
    let mut checks = Checks::default();
    let reps = harness::repeat(
        opts,
        || setup(family, opts.seed),
        |inputs, traced| pass(family, inputs, traced),
        |_, _, _| {},
    );
    // Output checks: every pass (traced recompositions included) gives
    // the untraced app runners' results bit for bit, no system fails to
    // launch, and at the repro seed every cell matches the baseline.
    harness::require_identical(&mut checks, &reps, |o: &PassOut| o.cells.clone());
    let first = &reps[0].pass.out;
    checks.attempted = first.cells.len() as u64;
    checks.failed = first.cells.iter().filter(|c| c.sim.is_none()).count() as u64;
    if opts.seed == emb_scenario::SEED {
        check_fig10(&mut checks, family, &first.cells, FIG10_BASELINE);
    }
    let (step_ms, extract_ms) = summarize(family, &first.cells);

    let mut m = Metrics::default();
    if !opts.trace {
        harness::common_e2e(&mut m, &reps);
        m.push("sim_latency_ms", step_ms.unwrap_or(f64::NAN), "sim_ms");
        m.push("sim_extract_ms", extract_ms.unwrap_or(f64::NAN), "sim_ms");
        return Outcome {
            checks,
            metrics: m,
            spans: Vec::new(),
        };
    }
    let (plain, traced) = harness::split(&reps);
    let t = harness::median_rep(&traced);
    let pass_totals = Totals::of(t.pass.spans.as_deref().unwrap_or(&[]));
    let setup_totals = Totals::of(t.setup.spans.as_deref().unwrap_or(&[]));
    let out = &t.pass.out;
    crate::layers::report(
        &mut m,
        &crate::layers::Inputs {
            wall: harness::pass_secs(&traced),
            untraced_wall: harness::pass_secs(&plain),
            pass: &pass_totals,
            setup: &setup_totals,
            counter: &|name| counter(out, name),
            events: out.events,
        },
    );
    let c = &out.counts;
    m.push("graph.edges", out.graph_edges as f64, "count");
    let fam = if family == Family::Gnn { "gnn" } else { "dlr" };
    m.push(format!("workload.{fam}.batches"), c.batches as f64, "count");
    m.push(
        format!("workload.{fam}.keys_per_batch"),
        c.batch_keys as f64 / c.batches.max(1) as f64,
        "count",
    );
    m.push(
        "workload.distinct_batch_frac",
        c.batch_hashes.len() as f64 / c.batches.max(1) as f64,
        "ratio",
    );
    m.push("policy.solves", c.solves as f64, "count");
    m.push(
        "policy.distinct_solve_frac",
        c.solve_keys.len() as f64 / c.solves.max(1) as f64,
        "ratio",
    );
    Outcome {
        checks,
        metrics: m,
        spans: t.pass.spans.clone().unwrap_or_default(),
    }
}

/// Prints UGache's geomean step and extraction times and the fidelity
/// lines, and returns the two geomeans in ms.
fn summarize(family: Family, cells: &[Cell]) -> (Option<f64>, Option<f64>) {
    let ugache: Vec<Sim> = cells
        .iter()
        .filter(|c| c.key[3] == SystemKind::UGache.name())
        .filter_map(|c| c.sim)
        .collect();
    let step_ms = geomean(&ugache.iter().map(|s| s.step() * 1e3).collect::<Vec<_>>());
    let extract_ms = geomean(&ugache.iter().map(|s| s.extract * 1e3).collect::<Vec<_>>());
    println!(
        "{} app-runner calls over {} cells; UGache geomean step {:.6} ms, extraction {:.6} ms (simulated)",
        cells.len(),
        cells.len() / systems(family).len(),
        step_ms.unwrap_or(f64::NAN),
        extract_ms.unwrap_or(f64::NAN)
    );
    let paper: &[(SystemKind, f64)] = match family {
        Family::Gnn => &PAPER_GNN,
        Family::Dlr => &PAPER_DLR,
    };
    for &(kind, paper_x) in paper {
        if let Some(x) = speedup_over(cells, kind) {
            println!(
                "fidelity: UGache vs {:<6} simulated {x:.2}x, paper {paper_x:.2}x, ratio {:.2}",
                kind.name(),
                x / paper_x
            );
        }
    }
    (step_ms, extract_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first input with one model only: five app-runner calls (DLR)
    /// or three (GNN), so a pass stays short.
    fn small(family: Family, seed: u64) -> Vec<Input> {
        let mut inputs = setup(family, seed);
        inputs.truncate(1);
        inputs[0].models.truncate(1);
        inputs
    }

    fn first_batch(inputs: &[Input]) -> Vec<Vec<u32>> {
        match &inputs[0].wl {
            Wl::Gnn(w) => w.clone().next_batch(),
            Wl::Dlr(w) => w.clone().next_batch(),
        }
    }

    #[test]
    fn seeds_change_inputs_and_a_seed_repeats_exactly() {
        for family in [Family::Dlr, Family::Gnn] {
            let mut a = small(family, 1);
            let mut b = small(family, 2);
            assert_ne!(first_batch(&a), first_batch(&b), "{family:?}");
            let x = pass(family, &mut a, false);
            let y = pass(family, &mut small(family, 1), false);
            let z = pass(family, &mut b, false);
            assert_eq!(x.cells, y.cells, "{family:?}: one seed, two runs");
            assert_ne!(x.cells, z.cells, "{family:?}: two seeds");
        }
    }

    #[test]
    fn traced_recomposition_equals_the_app_runners() {
        for family in [Family::Dlr, Family::Gnn] {
            let mut inputs = small(family, 3);
            let plain = pass(family, &mut inputs, false);
            let (traced, spans) = trace::record(|| pass(family, &mut inputs, true));
            assert_eq!(plain.cells, traced.cells, "{family:?}");
            assert!(plain.cells.iter().all(|c| c.sim.is_some()));
            let t = Totals::of(&spans);
            assert!(t.calls("extract") > 0 && t.calls("workload.probe") > 0);
            // Probe batches repeat the first measured batches, and every
            // system regenerates the same stream.
            assert!(traced.counts.batch_hashes.len() < traced.counts.batches as usize);
        }
    }

    #[test]
    fn speedup_is_the_geomean_over_cells_of_step_ratios() {
        let cell = |ds: &str, system: SystemKind, total: f64, iters: usize| Cell {
            key: [
                "S".to_string(),
                "M".to_string(),
                ds.to_string(),
                system.name().to_string(),
            ],
            sim: Some(Sim {
                total,
                extract: 1.0,
                iters,
            }),
        };
        let cells = [
            cell("a", SystemKind::UGache, 1.0, 1),
            cell("a", SystemKind::Hps, 2.0, 1),
            cell("b", SystemKind::UGache, 2.0, 2),
            cell("b", SystemKind::Hps, 8.0, 1),
        ];
        // Step ratios 2 and 8: geomean 4.
        let x = speedup_over(&cells, SystemKind::Hps).unwrap();
        assert!((x - 4.0).abs() < 1e-12);
        assert_eq!(speedup_over(&cells, SystemKind::Sok), None);
    }

    #[test]
    fn fig10_check_rejects_a_wrong_cell() {
        let path = format!("{}/../{FIG10_BASELINE}", env!("CARGO_MANIFEST_DIR"));
        let cell = |total: f64| Cell {
            key: [
                "ServerA-4xV100".to_string(),
                "GCN".to_string(),
                "PA".to_string(),
                "UGache".to_string(),
            ],
            sim: Some(Sim {
                total,
                extract: 0.000048682,
                iters: 1,
            }),
        };
        let mut ok = Checks::default();
        check_fig10(&mut ok, Family::Gnn, &[cell(0.0012576784251428573)], &path);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        let mut bad = Checks::default();
        check_fig10(&mut bad, Family::Gnn, &[cell(0.0012576784251428574)], &path);
        assert_eq!(bad.failures.len(), 1);
    }
}
