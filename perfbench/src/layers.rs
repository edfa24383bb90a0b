//! The metric catalogue: every end-to-end and per-layer metric by name
//! and unit, and the span- and counter-derived part of the per-layer
//! report that all workloads share.
//!
//! Every workload reports every metric; a layer a workload never calls
//! reports 0. `BENCHMARK.json` lists the same names (a test holds the
//! two together).

use crate::harness::Metrics;
use crate::trace::Totals;

/// End-to-end metrics, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_ms", "sim_ms"),
    ("sim_extract_ms", "sim_ms"),
];

/// Per-layer metrics of the traced run, in report order.
pub const PER_LAYER: [(&str, &str); 78] = [
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.layer_coverage", "ratio"),
    ("perfbench.self_s", "s"),
    ("graph.generate_s", "s"),
    ("graph.edges", "count"),
    ("workload.gnn.batch_s", "s"),
    ("workload.gnn.batches", "count"),
    ("workload.gnn.keys_per_batch", "count"),
    ("workload.dlr.batch_s", "s"),
    ("workload.dlr.batches", "count"),
    ("workload.dlr.keys_per_batch", "count"),
    ("workload.probe_s", "s"),
    ("workload.clone_s", "s"),
    ("workload.distinct_batch_frac", "ratio"),
    ("workload.gnn.profile_s", "s"),
    ("workload.dlr.hotness_s", "s"),
    ("policy.solve_s", "s"),
    ("policy.solves", "count"),
    ("policy.distinct_solve_frac", "ratio"),
    ("policy.lp_iterations", "count"),
    ("policy.us_per_lp_iteration", "us"),
    ("policy.baseline_build_s", "s"),
    ("policy.model_ratio", "ratio"),
    ("extract.s", "s"),
    ("extract.calls", "count"),
    ("extract.us_per_call", "us"),
    ("memsim.extractions", "count"),
    ("memsim.bytes", "sim_bytes"),
    ("cache.local_frac.low", "ratio"),
    ("cache.remote_frac.low", "ratio"),
    ("cache.host_frac.low", "ratio"),
    ("cache.local_frac.mid", "ratio"),
    ("cache.remote_frac.mid", "ratio"),
    ("cache.host_frac.mid", "ratio"),
    ("cache.local_frac.high", "ratio"),
    ("cache.remote_frac.high", "ratio"),
    ("cache.host_frac.high", "ratio"),
    ("cache.local_frac.steady", "ratio"),
    ("cache.remote_frac.steady", "ratio"),
    ("cache.host_frac.steady", "ratio"),
    ("cache.local_frac.refresh", "ratio"),
    ("cache.remote_frac.refresh", "ratio"),
    ("cache.host_frac.refresh", "ratio"),
    ("cache.local_frac.recovered", "ratio"),
    ("cache.remote_frac.recovered", "ratio"),
    ("cache.host_frac.recovered", "ratio"),
    ("cache.entries_moved", "count"),
    ("ugache.build_s", "s"),
    ("ugache.consider_refresh_s", "s"),
    ("ugache.refresh_sim_s", "sim_s"),
    ("serve.draw_s", "s"),
    ("serve.engine_s", "s"),
    ("serve.capacity_probe_s", "s"),
    ("serve.host_us_per_request.steady", "us"),
    ("serve.host_us_per_request.refresh", "us"),
    ("serve.mean_batch.low", "count"),
    ("serve.queue_ms.low", "sim_ms"),
    ("serve.batch_wait_ms.low", "sim_ms"),
    ("serve.extract_ms.low", "sim_ms"),
    ("serve.mean_batch.mid", "count"),
    ("serve.queue_ms.mid", "sim_ms"),
    ("serve.batch_wait_ms.mid", "sim_ms"),
    ("serve.extract_ms.mid", "sim_ms"),
    ("serve.mean_batch.high", "count"),
    ("serve.queue_ms.high", "sim_ms"),
    ("serve.batch_wait_ms.high", "sim_ms"),
    ("serve.extract_ms.high", "sim_ms"),
    ("serve.p50_ms.mid", "sim_ms"),
    ("serve.max_rps", "1/s"),
    ("serve.p99_ms.low", "sim_ms"),
    ("serve.p99_ms.mid", "sim_ms"),
    ("serve.p99_ms.high", "sim_ms"),
    ("serve.p99_ms.refresh", "sim_ms"),
    ("serve.p99_ms.recovered", "sim_ms"),
    ("telemetry.events", "count"),
    ("telemetry.overhead_s", "s"),
];

/// What the shared part of the per-layer report is computed from.
pub struct Inputs<'a> {
    /// Seconds of a traced pass at the reference speed
    /// ([`crate::harness::pass_secs`]).
    pub wall: f64,
    /// Seconds of an untraced pass, estimated the same way.
    pub untraced_wall: f64,
    /// Self-time totals of the median traced pass.
    pub pass: &'a Totals,
    /// Self-time totals of that pass's set-up.
    pub setup: &'a Totals,
    /// A counter of the pass's telemetry scope (0 if absent).
    pub counter: &'a dyn Fn(&str) -> f64,
    /// Events the pass's telemetry scope recorded.
    pub events: u64,
}

/// Pushes the per-layer metrics every workload derives the same way.
pub fn report(m: &mut Metrics, i: &Inputs) {
    // Self times of a span tree add up to its root's duration, so the
    // traced pass splits exactly into library layers and the benchmark's
    // own time (its spans and the root's self time).
    let layer_secs = |library: bool| -> f64 {
        i.pass
            .by_name
            .iter()
            .filter(|e| (e.1 != "perfbench") == library)
            .map(|e| e.2)
            .sum()
    };
    let (library, glue) = (layer_secs(true), layer_secs(false));
    m.push("trace.wall_s", i.wall, "s");
    m.push("trace.untraced_wall_s", i.untraced_wall, "s");
    m.push("trace.overhead_s", i.wall - i.untraced_wall, "s");
    m.push("trace.layer_coverage", library / (library + glue), "ratio");
    m.push("perfbench.self_s", glue, "s");
    m.push("graph.generate_s", i.setup.secs("graph.generate"), "s");
    m.push(
        "workload.gnn.batch_s",
        i.pass.secs("workload.gnn.batch"),
        "s",
    );
    m.push(
        "workload.dlr.batch_s",
        i.pass.secs("workload.dlr.batch"),
        "s",
    );
    m.push("workload.probe_s", i.pass.secs("workload.probe"), "s");
    m.push("workload.clone_s", i.pass.secs("workload.clone"), "s");
    m.push(
        "workload.gnn.profile_s",
        i.setup.secs("workload.gnn.profile"),
        "s",
    );
    m.push(
        "workload.dlr.hotness_s",
        i.setup.secs("workload.dlr.hotness"),
        "s",
    );
    let solve_s = i.pass.secs("policy.solve");
    let lp = (i.counter)("policy.lp.iterations");
    m.push("policy.solve_s", solve_s, "s");
    m.push("policy.lp_iterations", lp, "count");
    m.push(
        "policy.us_per_lp_iteration",
        if lp > 0.0 { solve_s * 1e6 / lp } else { 0.0 },
        "us",
    );
    m.push(
        "policy.baseline_build_s",
        i.pass.secs("policy.baseline_build"),
        "s",
    );
    let extract_s = i.pass.secs("extract");
    let calls = i.pass.calls("extract");
    m.push("extract.s", extract_s, "s");
    m.push("extract.calls", calls as f64, "count");
    m.push(
        "extract.us_per_call",
        if calls > 0 {
            extract_s * 1e6 / calls as f64
        } else {
            0.0
        },
        "us",
    );
    m.push(
        "memsim.extractions",
        (i.counter)("memsim.extractions"),
        "count",
    );
    let bytes: f64 = ["local", "remote", "host"]
        .iter()
        .map(|t| (i.counter)(&format!("extract.bytes.{t}")))
        .sum();
    m.push("memsim.bytes", bytes, "sim_bytes");
    m.push("ugache.build_s", i.setup.secs("ugache.build"), "s");
    m.push(
        "ugache.consider_refresh_s",
        i.pass.secs("ugache.consider_refresh"),
        "s",
    );
    m.push("serve.draw_s", i.pass.secs("serve.draw"), "s");
    m.push("serve.engine_s", i.pass.secs("serve.engine"), "s");
    m.push(
        "serve.capacity_probe_s",
        i.setup.secs("serve.capacity_probe"),
        "s",
    );
    m.push("telemetry.events", i.events as f64, "count");
}

/// Completes a per-layer report: adds every catalogued metric the
/// workload did not push as 0 and puts them in catalogue order.
///
/// # Panics
///
/// Panics if the report holds a metric the catalogue lacks, one with
/// another unit, or one twice.
pub fn complete(m: Metrics) -> Metrics {
    for (name, _, unit) in &m.0 {
        assert!(
            PER_LAYER.contains(&(name.as_str(), *unit)),
            "per-layer metric `{name}` in {unit} is not catalogued"
        );
        assert_eq!(
            m.0.iter().filter(|x| &x.0 == name).count(),
            1,
            "`{name}` twice"
        );
    }
    let mut out = Metrics::default();
    for (name, unit) in PER_LAYER {
        let v = m.get(name).unwrap_or(0.0);
        out.push(name, v, unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &ugache_bench::json::Value, key: &str) -> Vec<(String, String)> {
        use ugache_bench::json::Value;
        let Some(Value::Arr(items)) = v.get(key) else {
            panic!("BENCHMARK.json lacks `{key}`");
        };
        items
            .iter()
            .map(|i| match (i.get("name"), i.get("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("metric without name/unit"),
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let v = ugache_bench::json::parse(&text).expect("valid JSON");
        let own = |xs: &mut dyn Iterator<Item = (&str, &str)>| {
            xs.map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&v, "end_to_end"), own(&mut END_TO_END.into_iter()));
        assert_eq!(names(&v, "per_layer"), own(&mut PER_LAYER.into_iter()));
    }

    #[test]
    fn complete_fills_and_orders() {
        let mut m = Metrics::default();
        m.push("telemetry.events", 5.0, "count");
        m.push("trace.wall_s", 1.0, "s");
        let c = complete(m);
        assert_eq!(c.0.len(), PER_LAYER.len());
        assert_eq!(c.0[0].0, "trace.wall_s");
        assert_eq!(c.get("telemetry.events"), Some(5.0));
        assert_eq!(c.get("graph.generate_s"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not catalogued")]
    fn complete_rejects_unknown_metrics() {
        let mut m = Metrics::default();
        m.push("nope", 1.0, "s");
        complete(m);
    }
}
