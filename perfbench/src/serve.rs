//! The serving workloads: UGache on Server A behind `emb-serve`, driven
//! by an open-loop Poisson schedule in virtual time.
//!
//! * `serve-steady` serves three fixed absolute rates and then searches
//!   for the highest rate that meets the p99 SLO without a growing
//!   backlog.
//! * `serve-drift` serves a steady phase, rotates the hot set, calls
//!   `consider_refresh`, and keeps serving through the background
//!   migration until it completes, then serves a recovered phase.
//!
//! A pass runs in one telemetry scope. The `sim_max_rps` probes run in
//! nested scopes that are absorbed into it (`emb_telemetry::absorb`
//! leaves the pass scope as if they had run inline), because the search
//! needs each probe's queueing delays at once; the other load points'
//! request events are read from the pass scope after the timed pass.

use crate::harness::{self, Checks, Metrics, Opts, Outcome};
use crate::stats::{backlog_grows, search_max_rate, Percentile};
use crate::trace::{self, span, Span, Totals};
use cache_policy::Hotness;
use emb_cache::{HostTable, RefreshConfig};
use emb_scenario::PlatformId;
use emb_serve::{
    draw_request_keys, estimate_capacity_rps, run_load_point_with_keys, ClientPopulation,
    LoadSample, ServeConfig,
};
use emb_telemetry::{Event, EventValue, Report};
use emb_util::zipf::powerlaw_hotness;
use emb_util::{split_seed, SimTime};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;
use ugache::{UGache, UGacheConfig};

/// Served embedding keys.
pub const NUM_KEYS: usize = 1_000_000;
/// Simulated client population.
const USERS: u64 = 200_000;
/// Zipf exponent of the client draws and of the solved hotness.
const ALPHA: f64 = 1.05;
/// Embedding dimension.
const DIM: usize = 32;
/// Keys per request.
const KEYS_PER_REQUEST: usize = 32;
/// Most requests coalesced into one extraction.
const MAX_BATCH: usize = 16;
/// Micro-batching window.
const BATCH_WINDOW: SimTime = SimTime::from_micros(250);

/// The fixed offered rates (req/s): batch windows expire at the low
/// rate, batches fill at the mid and high rates, and the high rate is
/// near capacity.
pub const RATES: [(&str, f64); 3] = [("low", 50_000.0), ("mid", 400_000.0), ("high", 800_000.0)];
/// Requests per fixed rate (a supported p99 needs 1000).
const REQUESTS_PER_RATE: usize = 20_000;
/// The p99 latency objective of the `sim_max_rps` search.
pub const SLO_P99_MS: f64 = 0.5;
/// Search range and bisections: 50k to 3.2M req/s, to within 7 %.
const SEARCH: (f64, f64, usize) = (50_000.0, 3_200_000.0, 6);
/// Requests per search probe.
const SEARCH_REQUESTS: usize = 4_000;
/// Load-point id of every search probe: the same keys and arrival
/// stream, time-scaled by the rate, so probes differ only in rate.
const SEARCH_POINT: u64 = 100;

/// Drift phases, requests each: steady, rotated traffic before the
/// refresh, refresh chunks, and the recovered phase.
const DRIFT_STEADY: usize = 4_000;
const DRIFT_ROTATED: usize = 8_000;
const DRIFT_CHUNK: usize = 1_000;
const DRIFT_MAX_CHUNKS: usize = 64;
const DRIFT_RECOVERED: usize = 4_000;
/// A refresh short enough in virtual time to be served through within a
/// run: a 5 ms re-solve, then 16K-entry batches every 0.5 ms, at the
/// default 10 % foreground impact.
const DRIFT_REFRESH: RefreshConfig = RefreshConfig {
    solve_secs: 0.005,
    entries_per_batch: 16_384,
    batch_interval_secs: 0.0005,
    foreground_impact: 0.10,
    trigger_ratio: 0.10,
};

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fixed rates plus the max-rate search.
    Steady,
    /// Hot-set rotation and background refresh.
    Drift,
}

/// A built server and its clients.
pub struct Server {
    u: UGache,
    clients: ClientPopulation,
    cfg: ServeConfig,
    capacity_rps: f64,
}

fn serve_config(seed: u64, requests: usize) -> ServeConfig {
    ServeConfig {
        seed: split_seed(seed, 0x5E12E),
        num_users: USERS,
        num_keys: NUM_KEYS as u64,
        user_alpha: ALPHA,
        keys_per_request: KEYS_PER_REQUEST,
        entry_bytes: DIM * 4,
        max_batch: MAX_BATCH,
        batch_window: BATCH_WINDOW,
        requests,
    }
}

/// Builds the server: the hotness and host table, `UGache::build`,
/// the client population, and the capacity probe, each an operation.
pub fn setup(kind: Kind, seed: u64) -> Server {
    let plat = PlatformId::ServerA.resolve();
    let hotness = harness::op(|| {
        span("emb-util", "serve.hotness", || {
            Hotness::new(powerlaw_hotness(NUM_KEYS, ALPHA))
        })
    });
    let accesses = (MAX_BATCH * KEYS_PER_REQUEST) as f64 * 0.7;
    let mut ucfg = UGacheConfig::new(DIM * 4, accesses);
    ucfg.solver.blocks.max_blocks = 32;
    ucfg.solver.blocks.min_splits = plat.num_gpus();
    ucfg.sample_stride = 4;
    if kind == Kind::Drift {
        ucfg.refresh = DRIFT_REFRESH;
    }
    let cap = NUM_KEYS / 8;
    let gpus = plat.num_gpus();
    let mut u = harness::op(|| {
        span("ugache", "ugache.build", || {
            UGache::build(
                plat,
                HostTable::procedural(NUM_KEYS, DIM),
                &hotness,
                vec![cap; gpus],
                ucfg,
            )
        })
    })
    .expect("the serving cache builds");
    let cfg = serve_config(seed, 0);
    let mut clients = harness::op(|| {
        span("emb-serve", "serve.clients", || {
            ClientPopulation::new(
                cfg.seed,
                cfg.num_users,
                cfg.num_keys,
                cfg.user_alpha,
                cfg.keys_per_request,
            )
        })
    });
    let capacity_rps = harness::op(|| {
        span("emb-serve", "serve.capacity_probe", || {
            estimate_capacity_rps(&mut u, &cfg, &mut clients)
        })
    });
    Server {
        u,
        clients,
        cfg,
        capacity_rps,
    }
}

/// Drift phase of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Steady,
    Refresh,
    Recovered,
}

/// One request as its `serve.request` event recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
struct Req {
    latency_ns: u64,
    queue_ns: u64,
    extract_ns: u64,
    /// Whether its batch ran while a refresh was active.
    refresh_active: bool,
}

/// One served load point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    label: &'static str,
    id: u64,
    sample: LoadSample,
    sent: usize,
    /// Its requests in arrival order, from the scope's events (kept only
    /// in the passes whose results are reported; see [`finish`]).
    requests: Vec<Req>,
    /// Extraction seconds of each of its batches (kept like `requests`).
    batch_extract: Vec<f64>,
    /// Hash of `requests` and `batch_extract`, for the determinism check.
    digest: u64,
    /// Requests whose queue + batch wait + extract != latency.
    bad_decomposition: usize,
}

impl Point {
    fn latencies_ms(&self) -> Vec<f64> {
        latencies_ms(self.requests.iter())
    }

    fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.requests.hash(&mut h);
        for x in &self.batch_extract {
            x.to_bits().hash(&mut h);
        }
        h.finish()
    }

    /// What the determinism check compares: everything but the
    /// per-request vectors, which only their digest stands for.
    fn sim(&self) -> (&'static str, u64, LoadSample, usize, u64, usize) {
        (
            self.label,
            self.id,
            self.sample.clone(),
            self.sent,
            self.digest,
            self.bad_decomposition,
        )
    }
}

fn latencies_ms<'a>(reqs: impl Iterator<Item = &'a Req>) -> Vec<f64> {
    reqs.map(|r| r.latency_ns as f64 / 1e6).collect()
}

fn u64_field(fields: &[(String, EventValue)], name: &str) -> Option<u64> {
    fields.iter().find(|f| f.0 == name).and_then(|f| match f.1 {
        EventValue::U64(v) => Some(v),
        _ => None,
    })
}

fn f64_field(fields: &[(String, EventValue)], name: &str) -> Option<f64> {
    fields.iter().find(|f| f.0 == name).and_then(|f| match f.1 {
        EventValue::F64(v) => Some(v),
        _ => None,
    })
}

/// Hands the requests and batches a scope recorded to their load points
/// (a request's id carries its point id, and points that share an id —
/// the search probes — take their `sent` requests in turn; a batch's
/// `ugache.iteration` event precedes its requests' events).
fn attach_events(points: &mut [Point], events: &[Event]) {
    let mut active = false;
    let mut pending_extract = None;
    for e in events {
        match e.name.as_str() {
            "ugache.iteration" => {
                active = u64_field(&e.fields, "refresh_active") == Some(1);
                pending_extract = Some(f64_field(&e.fields, "extract_secs").unwrap_or(f64::NAN));
            }
            "serve.request" => {
                let f = |n| u64_field(&e.fields, n).unwrap_or(u64::MAX);
                let id = f("req") >> 32;
                let Some(p) = points
                    .iter_mut()
                    .find(|p| p.id == id && p.requests.len() < p.sent)
                else {
                    continue;
                };
                // The first request after a batch's iteration event
                // carries the batch's extraction to its point.
                if let Some(x) = pending_extract.take() {
                    p.batch_extract.push(x);
                }
                let (q, w, x, l) = (
                    f("queue_ns"),
                    f("batch_wait_ns"),
                    f("extract_ns"),
                    f("latency_ns"),
                );
                if q.checked_add(w).and_then(|v| v.checked_add(x)) != Some(l) {
                    p.bad_decomposition += 1;
                }
                p.requests.push(Req {
                    latency_ns: l,
                    queue_ns: q,
                    extract_ns: x,
                    refresh_active: active,
                });
            }
            _ => {}
        }
    }
}

/// Draws `requests` requests for load point `point` (rotated half-way
/// round the key space when `rotate`).
fn draw(s: &mut Server, point: u64, requests: usize, rotate: bool) -> Vec<Vec<u32>> {
    let cfg = ServeConfig { requests, ..s.cfg };
    let mut keys = span("emb-serve", "serve.draw", || {
        draw_request_keys(&cfg, &mut s.clients, point)
    });
    if rotate {
        span("perfbench", "rotate", || {
            for req in keys.iter_mut() {
                for k in req.iter_mut() {
                    *k = ((*k as usize + NUM_KEYS / 2) % NUM_KEYS) as u32;
                }
            }
        });
    }
    keys
}

/// Serves `keys` at `rate` as load point `point`, recording into the
/// caller's scope.
fn serve_keys(
    s: &mut Server,
    label: &'static str,
    point: u64,
    rate: f64,
    keys: &[Vec<u32>],
) -> Point {
    trace::set_group(point);
    let cfg = ServeConfig {
        requests: keys.len(),
        ..s.cfg
    };
    let sample = span("emb-serve", "serve.engine", || {
        run_load_point_with_keys(&mut s.u, &cfg, point, rate, keys)
    });
    Point {
        label,
        id: point,
        sample,
        sent: keys.len(),
        requests: Vec::new(),
        batch_extract: Vec::new(),
        digest: 0,
        bad_decomposition: 0,
    }
}

/// One operation: draw and serve a load point.
fn serve_point(
    s: &mut Server,
    label: &'static str,
    point: u64,
    rate: f64,
    requests: usize,
    rotate: bool,
) -> Point {
    harness::op(|| {
        trace::set_group(point);
        let keys = draw(s, point, requests, rotate);
        let p = serve_keys(s, label, point, rate, &keys);
        span("emb-serve", "serve.draw", || drop(keys));
        p
    })
}

/// One `sim_max_rps` probe: serves the search keys at `rate` in a scope
/// of its own (absorbed into the caller's, which leaves the caller's
/// scope as if the probe ran inline) and judges the engine's p99 against
/// the SLO and the requests' queueing delays for backlog growth.
fn search_probe(s: &mut Server, rate: f64, keys: &[Vec<u32>]) -> (Point, bool) {
    harness::op(|| {
        let (p, report) = span("emb-telemetry", "telemetry.scope", || {
            emb_telemetry::collect(|| serve_keys(s, "search", SEARCH_POINT, rate, keys))
        });
        let ok = span("perfbench", "search.judge", || {
            let queues: Vec<u64> = report
                .events
                .iter()
                .filter(|e| e.name == "serve.request")
                .filter_map(|e| u64_field(&e.fields, "queue_ns"))
                .collect();
            p.sample.p99_ms <= SLO_P99_MS
                && p.sent >= crate::stats::min_samples(0.99)
                && !backlog_grows(&queues, BATCH_WINDOW.as_nanos())
        });
        span("emb-telemetry", "telemetry.absorb", || {
            emb_telemetry::absorb(&report);
            drop(report);
        });
        (p, ok)
    })
}

/// Simulated results of one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOut {
    points: Vec<Point>,
    max_rps: Option<f64>,
    /// What `consider_refresh` returned (serve-drift).
    refresh_started: Result<bool, String>,
    refresh_secs: Option<f64>,
    entries_moved: u64,
    predicted_secs: f64,
    capacity_rps: f64,
    /// The pass scope's report; [`finish`] hands its events to the
    /// points and keeps only what the metrics need.
    report: Option<Report>,
    events: u64,
    counters: Vec<(String, f64)>,
    /// Host seconds of one load point outside and inside a scope, set
    /// by [`finish`] after traced passes (not a simulated result).
    overhead_probe: Option<(f64, f64)>,
}

impl PassOut {
    fn phase_of(p: &Point, r: &Req) -> Phase {
        match p.label {
            "steady" | "rotated" => Phase::Steady,
            "recovered" => Phase::Recovered,
            _ if r.refresh_active => Phase::Refresh,
            _ => Phase::Recovered,
        }
    }

    fn phase_requests(&self, phase: Phase) -> Vec<&Req> {
        self.points
            .iter()
            .flat_map(|p| p.requests.iter().map(move |r| (p, r)))
            .filter(|(p, r)| Self::phase_of(p, r) == phase)
            .map(|(_, r)| r)
            .collect()
    }

    fn point(&self, label: &str) -> Option<&Point> {
        self.points.iter().find(|p| p.label == label)
    }
}

/// One work pass in one telemetry scope.
pub fn pass(kind: Kind, s: &mut Server) -> PassOut {
    let mut max_rps = None;
    let mut refresh_started = Ok(false);
    let mut entries_moved = 0u64;
    let (points, report) = span("emb-telemetry", "telemetry.scope", || {
        emb_telemetry::collect(|| {
            let mut points = Vec::new();
            match kind {
                Kind::Steady => {
                    for (i, &(label, rate)) in RATES.iter().enumerate() {
                        points.push(serve_point(
                            s,
                            label,
                            i as u64,
                            rate,
                            REQUESTS_PER_RATE,
                            false,
                        ));
                    }
                    let keys = harness::op(|| draw(s, SEARCH_POINT, SEARCH_REQUESTS, false));
                    let (lo, hi, steps) = SEARCH;
                    max_rps = span("perfbench", "search", || {
                        search_max_rate(lo, hi, steps, |rate| {
                            let (p, ok) = search_probe(s, rate, &keys);
                            points.push(p);
                            ok
                        })
                    });
                    span("emb-serve", "serve.draw", || drop(keys));
                }
                Kind::Drift => {
                    let rate = RATES[1].1;
                    points.push(serve_point(s, "steady", 10, rate, DRIFT_STEADY, false));
                    points.push(serve_point(s, "rotated", 11, rate, DRIFT_ROTATED, true));
                    let before = span("perfbench", "placement.diff", || {
                        s.u.placement().stored.clone()
                    });
                    refresh_started = harness::op(|| {
                        span("ugache", "ugache.consider_refresh", || {
                            s.u.consider_refresh(false)
                        })
                    });
                    let mut chunk = 0;
                    while s.u.refresh_active() && chunk < DRIFT_MAX_CHUNKS {
                        let id = 12 + chunk as u64;
                        points.push(serve_point(s, "refresh", id, rate, DRIFT_CHUNK, true));
                        chunk += 1;
                    }
                    points.push(serve_point(s, "recovered", 99, rate, DRIFT_RECOVERED, true));
                    entries_moved = span("perfbench", "placement.diff", || {
                        let after = &s.u.placement().stored;
                        before
                            .iter()
                            .zip(after)
                            .map(|(b, a)| {
                                b.iter().zip(a).filter(|(b, a)| **a && !**b).count() as u64
                            })
                            .sum()
                    });
                }
            }
            points
        })
    });
    PassOut {
        points,
        max_rps,
        refresh_started,
        refresh_secs: s.u.refresh_history().last().copied(),
        entries_moved,
        predicted_secs: s.u.predicted_extraction_secs(),
        capacity_rps: s.capacity_rps,
        events: report.events.len() as u64,
        counters: report.metrics.counters.clone(),
        report: Some(report),
        overhead_probe: None,
    }
}

/// After the timed pass: hands the scope's request events to the load
/// points, digests them, and drops the report. Unless `keep`, drops the
/// per-request vectors too, so that what earlier repetitions leave
/// behind does not grow the peak RSS of later ones. After a traced
/// pass, also times one mid-rate load point with no telemetry scope
/// active and then inside one, on the server the pass left behind.
pub fn finish(s: &mut Server, out: &mut PassOut, traced: bool, keep: bool) {
    if let Some(report) = out.report.take() {
        attach_events(&mut out.points, &report.events);
    }
    for p in &mut out.points {
        p.digest = p.digest();
        if !keep {
            p.requests = Vec::new();
            p.batch_extract = Vec::new();
        }
    }
    if traced {
        let cfg = ServeConfig {
            requests: REQUESTS_PER_RATE,
            ..s.cfg
        };
        let keys = draw_request_keys(&cfg, &mut s.clients, 200);
        let rate = RATES[1].1;
        let t = Instant::now();
        run_load_point_with_keys(&mut s.u, &cfg, 200, rate, &keys);
        let outside = t.elapsed().as_secs_f64();
        let t = Instant::now();
        emb_telemetry::collect(|| run_load_point_with_keys(&mut s.u, &cfg, 200, rate, &keys));
        out.overhead_probe = Some((outside, t.elapsed().as_secs_f64()));
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Runs `serve-steady` or `serve-drift` and returns its checks and
/// metrics.
pub fn run(kind: Kind, opts: &Opts) -> Outcome {
    let mut checks = Checks::default();
    // The first pass is checked request by request and traced passes
    // report from their requests; the others keep only digests.
    let mut passes = 0;
    let reps = harness::repeat(
        opts,
        || setup(kind, opts.seed),
        |s, _| pass(kind, s),
        |s, out, traced| {
            finish(s, out, traced, passes == 0 || traced);
            passes += 1;
        },
    );
    harness::require_identical(&mut checks, &reps, |o: &PassOut| {
        let refresh = (o.refresh_started.clone(), o.refresh_secs, o.entries_moved);
        let points: Vec<_> = o.points.iter().map(Point::sim).collect();
        (points, o.max_rps, refresh)
    });
    let out = &reps[0].pass.out;

    // Output checks: every request served, every decomposition exact,
    // and the engine's own p99 reproduced from the request events.
    for p in &out.points {
        checks.attempted += p.sent as u64;
        checks.failed += (p.sent as u64).saturating_sub(p.sample.requests);
        checks.require(
            p.sample.requests as usize == p.sent && p.requests.len() == p.sent,
            || {
                format!(
                    "{} point {}: {} served, {} request events, {} sent",
                    p.label,
                    p.id,
                    p.sample.requests,
                    p.requests.len(),
                    p.sent
                )
            },
        );
        checks.require(p.bad_decomposition == 0, || {
            format!(
                "{} point {}: {} requests with queue + batch wait + extract != latency",
                p.label, p.id, p.bad_decomposition
            )
        });
        if let Some(v) = Percentile::of(&p.latencies_ms(), 0.99).value {
            checks.require(harness::same_bits(v, p.sample.p99_ms), || {
                format!(
                    "{} point {}: event p99 {v} != engine p99 {}",
                    p.label, p.id, p.sample.p99_ms
                )
            });
        }
    }
    println!(
        "capacity probe {:.0} req/s; {} requests in {} load points",
        out.capacity_rps,
        checks.attempted,
        out.points.len()
    );

    let (latency, extract) = match kind {
        Kind::Steady => {
            for &(label, rate) in &RATES {
                let p = out.point(label).expect("fixed rate served");
                let lat = p.latencies_ms();
                println!(
                    "{label:>4} {rate:>9.0} req/s: {}  {}  mean batch {:.1}",
                    Percentile::of(&lat, 0.5).describe("ms"),
                    Percentile::of(&lat, 0.99).describe("ms"),
                    p.sample.mean_batch
                );
            }
            match out.max_rps {
                Some(r) => println!(
                    "max rate with p99 <= {SLO_P99_MS} ms and no backlog growth: {r:.0} req/s \
                     ({SEARCH_REQUESTS} requests per probe)"
                ),
                None => checks
                    .failures
                    .push("no searched rate meets the SLO".to_string()),
            }
            let mid = out.point("mid").expect("mid rate served");
            let p99 = Percentile::of(&mid.latencies_ms(), 0.99).value;
            (p99, Some(mid.sample.mean_extract_ms))
        }
        Kind::Drift => {
            checks.require(out.refresh_started == Ok(true), || {
                format!(
                    "consider_refresh started no refresh: {:?}",
                    out.refresh_started
                )
            });
            checks.require(out.refresh_secs.is_some(), || {
                format!("refresh did not complete within {DRIFT_MAX_CHUNKS} chunks")
            });
            for (name, phase) in [
                ("steady", Phase::Steady),
                ("refresh", Phase::Refresh),
                ("recovered", Phase::Recovered),
            ] {
                let lat = latencies_ms(out.phase_requests(phase).into_iter());
                println!(
                    "{name:>9}: {}  {}",
                    Percentile::of(&lat, 0.5).describe("ms"),
                    Percentile::of(&lat, 0.99).describe("ms")
                );
            }
            println!(
                "refresh: {:.6} s simulated, {} entries moved",
                out.refresh_secs.unwrap_or(f64::NAN),
                out.entries_moved
            );
            let refresh = out.phase_requests(Phase::Refresh);
            let p99 = Percentile::of(&latencies_ms(refresh.iter().copied()), 0.99).value;
            let extract: Vec<f64> = refresh.iter().map(|r| r.extract_ns as f64 / 1e6).collect();
            (p99, (!extract.is_empty()).then(|| mean(&extract)))
        }
    };

    let mut m = Metrics::default();
    if !opts.trace {
        harness::common_e2e(&mut m, &reps);
        m.push("sim_latency_ms", latency.unwrap_or(f64::NAN), "sim_ms");
        m.push("sim_extract_ms", extract.unwrap_or(f64::NAN), "sim_ms");
        return Outcome {
            checks,
            metrics: m,
            spans: Vec::new(),
        };
    }
    let spans = layer_metrics(&mut m, kind, &reps);
    Outcome {
        checks,
        metrics: m,
        spans,
    }
}

/// The per-layer metrics of the traced run; returns the spans of the
/// median traced pass.
fn layer_metrics(m: &mut Metrics, kind: Kind, reps: &[harness::Rep<PassOut>]) -> Vec<Span> {
    let (plain, traced) = harness::split(reps);
    let t = harness::median_rep(&traced);
    let out = &t.pass.out;
    let spans = t.pass.spans.as_deref().unwrap_or(&[]);
    let pass_totals = Totals::of(spans);
    let setup_totals = Totals::of(t.setup.spans.as_deref().unwrap_or(&[]));
    let counter = |name: &str| {
        out.counters
            .iter()
            .find(|c| c.0 == name)
            .map_or(0.0, |c| c.1)
    };
    crate::layers::report(
        m,
        &crate::layers::Inputs {
            wall: harness::pass_secs(&traced),
            untraced_wall: harness::pass_secs(&plain),
            pass: &pass_totals,
            setup: &setup_totals,
            counter: &counter,
            events: out.events,
        },
    );
    let (outside, inside) = out.overhead_probe.unwrap_or((0.0, 0.0));
    m.push("telemetry.overhead_s", inside - outside, "s");

    let chosen = |labels: &'static [&'static str]| {
        out.points.iter().filter(move |p| labels.contains(&p.label))
    };
    // Engine host time per request, by phase.
    let engine_us = |labels: &'static [&'static str]| {
        let requests: usize = chosen(labels).map(|p| p.sent).sum();
        let ids: Vec<u64> = chosen(labels).map(|p| p.id).collect();
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name == "serve.engine" && ids.contains(&s.group))
            .map(|s| s.dur_ns())
            .sum();
        ns as f64 / 1e3 / requests.max(1) as f64
    };
    let steady_labels: &'static [&'static str] = match kind {
        Kind::Steady => &["low", "mid", "high"],
        Kind::Drift => &["steady", "rotated"],
    };
    m.push(
        "serve.host_us_per_request.steady",
        engine_us(steady_labels),
        "us",
    );
    m.push(
        "serve.host_us_per_request.refresh",
        engine_us(&["refresh"]),
        "us",
    );

    for &(label, _) in &RATES {
        let p = out.point(label);
        let v = |f: fn(&LoadSample) -> f64| p.map_or(0.0, |p| f(&p.sample));
        m.push(
            format!("serve.mean_batch.{label}"),
            v(|s| s.mean_batch),
            "count",
        );
        m.push(
            format!("serve.queue_ms.{label}"),
            v(|s| s.mean_queue_ms),
            "sim_ms",
        );
        m.push(
            format!("serve.batch_wait_ms.{label}"),
            v(|s| s.mean_batch_wait_ms),
            "sim_ms",
        );
        m.push(
            format!("serve.extract_ms.{label}"),
            v(|s| s.mean_extract_ms),
            "sim_ms",
        );
    }
    // Tier mix per rate and per drift phase: the load points' key
    // fractions, weighted by their requests.
    let phases: [(&str, &'static [&'static str]); 6] = [
        ("low", &["low"]),
        ("mid", &["mid"]),
        ("high", &["high"]),
        ("steady", &["steady", "rotated"]),
        ("refresh", &["refresh"]),
        ("recovered", &["recovered"]),
    ];
    for (phase, labels) in phases {
        let n: f64 = chosen(labels).map(|p| p.sent as f64).sum();
        let frac = |f: fn(&LoadSample) -> f64| {
            let w: f64 = chosen(labels).map(|p| f(&p.sample) * p.sent as f64).sum();
            if n > 0.0 {
                w / n
            } else {
                0.0
            }
        };
        m.push(
            format!("cache.local_frac.{phase}"),
            frac(|s| s.local_frac),
            "ratio",
        );
        m.push(
            format!("cache.remote_frac.{phase}"),
            frac(|s| s.remote_frac),
            "ratio",
        );
        m.push(
            format!("cache.host_frac.{phase}"),
            frac(|s| s.host_frac),
            "ratio",
        );
    }
    m.push("cache.entries_moved", out.entries_moved as f64, "count");
    m.push(
        "ugache.refresh_sim_s",
        out.refresh_secs.unwrap_or(0.0),
        "sim_s",
    );

    // Model agreement: mean simulated batch extraction over the solver's
    // prediction (steady: the mid rate; drift: after the refresh).
    let model_point = if kind == Kind::Steady {
        "mid"
    } else {
        "recovered"
    };
    let ratio = out
        .point(model_point)
        .map_or(0.0, |p| mean(&p.batch_extract) / out.predicted_secs);
    m.push("policy.model_ratio", ratio, "ratio");

    let pct = |reqs: Vec<&Req>, q: f64| {
        Percentile::of(&latencies_ms(reqs.into_iter()), q)
            .value
            .unwrap_or(0.0)
    };
    let point_reqs = |label: &str| {
        out.point(label)
            .map_or(Vec::new(), |p| p.requests.iter().collect())
    };
    m.push("serve.p50_ms.mid", pct(point_reqs("mid"), 0.5), "sim_ms");
    m.push("serve.max_rps", out.max_rps.unwrap_or(0.0), "1/s");
    for &(label, _) in &RATES {
        m.push(
            format!("serve.p99_ms.{label}"),
            pct(point_reqs(label), 0.99),
            "sim_ms",
        );
    }
    let drift = kind == Kind::Drift;
    let phase_p99 = |phase| {
        if drift {
            pct(out.phase_requests(phase), 0.99)
        } else {
            0.0
        }
    };
    m.push("serve.p99_ms.refresh", phase_p99(Phase::Refresh), "sim_ms");
    m.push(
        "serve.p99_ms.recovered",
        phase_p99(Phase::Recovered),
        "sim_ms",
    );
    spans.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_change_requests_and_a_seed_repeats_exactly() {
        let run = |seed| {
            let mut s = setup(Kind::Steady, seed);
            let keys = draw(&mut s, 0, 2_000, false);
            let (p, report) =
                emb_telemetry::collect(|| serve_keys(&mut s, "mid", 0, RATES[1].1, &keys));
            let mut points = [p];
            attach_events(&mut points, &report.events);
            (keys, points[0].clone())
        };
        let (k1, p1) = run(1);
        let (k1b, p1b) = run(1);
        let (k2, p2) = run(2);
        assert_eq!(k1, k1b);
        assert_eq!(p1, p1b);
        assert_ne!(k1, k2);
        assert_ne!(p1.sample, p2.sample);
        assert_eq!(p1.requests.len(), 2_000);
        assert_eq!(p1.bad_decomposition, 0);
    }

    #[test]
    fn attach_splits_shared_ids_in_turn_and_flags_bad_sums() {
        let ev = |name: &str, fields: Vec<(&str, EventValue)>| Event {
            seq: 0,
            name: name.to_string(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        };
        let iteration = |active: u64| {
            ev(
                "ugache.iteration",
                vec![
                    ("extract_secs", EventValue::F64(1e-5)),
                    ("refresh_active", EventValue::U64(active)),
                ],
            )
        };
        let req = |point: u64, i: u64, extract: u64| {
            let u = EventValue::U64;
            ev(
                "serve.request",
                vec![
                    ("req", u(point << 32 | i)),
                    ("queue_ns", u(1)),
                    ("batch_wait_ns", u(2)),
                    ("extract_ns", u(extract)),
                    ("latency_ns", u(10)),
                ],
            )
        };
        let sample = LoadSample {
            offered_rps: 0.0,
            achieved_rps: 0.0,
            requests: 0,
            batches: 0,
            mean_batch: 0.0,
            p50_ms: 0.0,
            p99_ms: 0.0,
            p999_ms: 0.0,
            max_ms: 0.0,
            mean_queue_ms: 0.0,
            mean_batch_wait_ms: 0.0,
            mean_extract_ms: 0.0,
            local_frac: 0.0,
            remote_frac: 0.0,
            host_frac: 0.0,
        };
        let point = |id, sent| Point {
            label: "search",
            id,
            sample: sample.clone(),
            sent,
            requests: Vec::new(),
            batch_extract: Vec::new(),
            digest: 0,
            bad_decomposition: 0,
        };
        let mut points = [point(100, 2), point(100, 1), point(7, 1)];
        let events = [
            iteration(0),
            req(100, 0, 7),
            req(100, 1, 7),
            iteration(1),
            req(100, 0, 6),
            req(7, 0, 7),
        ];
        attach_events(&mut points, &events);
        let lens: Vec<usize> = points.iter().map(|p| p.requests.len()).collect();
        assert_eq!(lens, [2, 1, 1]);
        assert_eq!(points[0].batch_extract.len(), 1);
        assert!(!points[0].requests[1].refresh_active);
        assert!(points[1].requests[0].refresh_active && points[2].requests[0].refresh_active);
        assert_eq!(points[1].bad_decomposition, 1);
        assert_eq!(points[2].bad_decomposition, 0);

        // A digest stands for the requests it was taken from, so passes
        // that dropped theirs are still compared request by request.
        let mut digested = points.clone();
        for p in &mut digested {
            p.digest = p.digest();
        }
        assert_ne!(digested[0].digest, digested[1].digest);
        let kept = digested[0].sim();
        digested[0].requests = Vec::new();
        assert_eq!(digested[0].sim(), kept);
        let mut changed = points[0].clone();
        changed.requests[1].latency_ns += 1;
        assert_ne!(changed.digest(), points[0].digest());
    }
}
