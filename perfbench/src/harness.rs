//! What every workload shares: options, the timing loop, the metric
//! list, the result line, and the set-up and pass repetitions.

use crate::stats::median;
use crate::trace::{self, Span};
use std::cell::RefCell;
use std::time::Instant;

/// Run options from the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the work phase repeats for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Fewest repetitions per run (per kind in the traced run), so that
/// `setup_s` and `wall_s` are medians of at least three.
pub const MIN_REPS: usize = 3;

/// Named metric values in report order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Value of the metric named `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Operation counts and failed checks of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks {
    /// Operations attempted (app-runner calls or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One message per failed output check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records a failed check unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Operation counts and failed checks.
    pub checks: Checks,
    /// End-to-end metrics, or per-layer ones in the traced run.
    pub metrics: Metrics,
    /// Spans of the median traced pass (empty when untraced).
    pub spans: Vec<Span>,
}

/// Whether a run is correct: no failed check or operation, and every
/// metric finite.
pub fn correct(checks: &Checks, metrics: &Metrics) -> bool {
    checks.failures.is_empty() && checks.failed == 0 && metrics.0.iter().all(|m| m.1.is_finite())
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`.
pub fn result_line(checks: &Checks, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            // Non-finite values are not JSON; they mark the run incorrect.
            let v = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct(checks, metrics),
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The calibration loop's host time at the reference speed that
/// `wall_s` and `setup_s` are scaled to: about the loop's time with its
/// table in cache on the 2-vCPU machine the README's figures come from.
/// Beside the library's operations the table has left the cache and the
/// loop takes about twice as long there, so scaled times read about
/// twice that machine's host seconds.
const CALIB_REF_SECS: f64 = 1.0e-3;
/// Words in the calibration loop's table (1 MB).
const CALIB_WORDS: usize = 1 << 17;
/// Steps of the calibration loop.
const CALIB_STEPS: usize = 200_000;

/// Runs the calibration loop and returns its host time: dependent
/// integer arithmetic and random read-modify-writes over a 1 MB table.
/// It is fixed code of the benchmark's own, so it measures how fast the
/// machine runs right now and nothing about the library.
fn calibrate() -> f64 {
    thread_local! {
        static TABLE: RefCell<Vec<u64>> = RefCell::new((0..CALIB_WORDS as u64).collect());
    }
    TABLE.with(|t| {
        let mut t = t.borrow_mut();
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for _ in 0..CALIB_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & (CALIB_WORDS - 1);
            acc = acc.wrapping_add(t[i]).rotate_left(5) ^ x;
            t[i] = acc;
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    })
}

/// One timed [`op`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTime {
    /// Host seconds it took.
    pub secs: f64,
    /// The calibration loop's host seconds next to it: the faster of
    /// the runs just before and just after it.
    pub calib: f64,
    /// Host seconds both calibration runs took.
    pub calib_spent: f64,
}

impl OpTime {
    /// Its time scaled to the reference speed.
    pub fn ref_secs(&self) -> f64 {
        self.secs * CALIB_REF_SECS / self.calib
    }
}

/// One timed execution of a set-up or a work pass.
pub struct Timed<R> {
    /// Host seconds it took.
    pub secs: f64,
    /// Each [`op`] it ran, in order.
    pub ops: Vec<OpTime>,
    /// What it returned.
    pub out: R,
    /// Its spans when it ran traced.
    pub spans: Option<Vec<Span>>,
}

thread_local! {
    static OPS: RefCell<Vec<OpTime>> = const { RefCell::new(Vec::new()) };
}

/// Runs one operation of a set-up or a work pass (a library call that
/// builds an input, an app-runner call, a load point) between two runs
/// of the calibration loop, and records its host time. In a traced pass
/// the operation is a `perfbench` span, so the benchmark's own work
/// between the library calls inside it is billed to the benchmark.
pub fn op<R>(f: impl FnOnce() -> R) -> R {
    let before = trace::span("perfbench", "calibrate", calibrate);
    let start = Instant::now();
    let out = trace::span("perfbench", "op", f);
    let secs = start.elapsed().as_secs_f64();
    let after = trace::span("perfbench", "calibrate", calibrate);
    OPS.with(|o| {
        o.borrow_mut().push(OpTime {
            secs,
            calib: before.min(after),
            calib_spent: before + after,
        })
    });
    out
}

fn run_once<R>(traced: bool, f: impl FnOnce() -> R) -> Timed<R> {
    OPS.with(|o| o.borrow_mut().clear());
    let start = Instant::now();
    let (out, spans) = if traced {
        let (out, spans) = trace::record(|| trace::span("perfbench", "root", f));
        (out, Some(spans))
    } else {
        (f(), None)
    };
    let secs = start.elapsed().as_secs_f64();
    Timed {
        secs,
        ops: OPS.with(|o| std::mem::take(&mut *o.borrow_mut())),
        out,
        spans,
    }
}

/// One repetition: a fresh set-up, then one work pass over it.
pub struct Rep<R> {
    /// The set-up (its input is consumed by the pass).
    pub setup: Timed<()>,
    /// The work pass.
    pub pass: Timed<R>,
}

/// Repeats (set-up, work pass) for about `opts.seconds`, and at least
/// [`MIN_REPS`] times. Every pass gets an input of its own, so a pass
/// may consume or mutate it. The traced run alternates untraced and
/// traced repetitions so both see the same machine state; `pass` gets
/// whether it is traced. `finish` runs after each pass, outside the
/// timed region and the trace, with the pass's input and output and
/// whether the pass was traced.
pub fn repeat<I, R>(
    opts: &Opts,
    mut setup: impl FnMut() -> I,
    mut pass: impl FnMut(&mut I, bool) -> R,
    mut finish: impl FnMut(&mut I, &mut R, bool),
) -> Vec<Rep<R>> {
    let start = Instant::now();
    let per_kind = if opts.trace { 2 } else { 1 };
    let mut reps = Vec::new();
    // Start another repetition only while it is expected to end within
    // `opts.seconds`, so a run lasts about that long.
    let fits = |n: usize| {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed + elapsed / n.max(1) as f64 <= opts.seconds
    };
    while reps.len() < MIN_REPS * per_kind || fits(reps.len()) {
        let traced = opts.trace && reps.len() % 2 == 1;
        let s = run_once(traced, &mut setup);
        let mut input = s.out;
        let setup = Timed {
            secs: s.secs,
            ops: s.ops,
            out: (),
            spans: s.spans,
        };
        let mut pass = run_once(traced, || pass(&mut input, traced));
        finish(&mut input, &mut pass.out, traced);
        drop(input);
        reps.push(Rep { setup, pass });
    }
    if opts.trace && reps.len() % 2 == 1 {
        reps.pop();
    }
    reps
}

/// Splits repetitions into (untraced, traced).
pub fn split<R>(reps: &[Rep<R>]) -> (Vec<&Rep<R>>, Vec<&Rep<R>>) {
    reps.iter().partition(|r| r.pass.spans.is_none())
}

/// Host seconds of a phase (a set-up or a work pass) at the reference
/// speed: each operation's median over the repetitions of its time
/// scaled by the calibration loop run next to it, plus the median of the
/// time the phase spent outside operations and calibration. The machine
/// a run shares changes speed within seconds and between minutes;
/// scaling by the loop run beside each operation takes the change out,
/// and the median drops what scaling misses. Falls back to the median
/// whole phase if the repetitions ran different operation sequences.
fn phase_secs<T>(runs: &[&Timed<T>]) -> f64 {
    let outside = |r: &Timed<T>| r.secs - r.ops.iter().map(|o| o.secs + o.calib_spent).sum::<f64>();
    let n = runs[0].ops.len();
    if runs.iter().any(|r| r.ops.len() != n) {
        let whole: Vec<f64> = runs
            .iter()
            .map(|r| r.ops.iter().map(OpTime::ref_secs).sum::<f64>() + outside(r))
            .collect();
        return median(&whole);
    }
    let per_op: f64 = (0..n)
        .map(|i| median(&runs.iter().map(|r| r.ops[i].ref_secs()).collect::<Vec<_>>()))
        .sum();
    per_op + median(&runs.iter().map(|r| outside(r)).collect::<Vec<_>>())
}

/// Host seconds of a work pass ([`phase_secs`] over the passes).
pub fn pass_secs<R>(reps: &[&Rep<R>]) -> f64 {
    phase_secs(&reps.iter().map(|r| &r.pass).collect::<Vec<_>>())
}

/// Host seconds of a set-up ([`phase_secs`] over the set-ups).
pub fn setup_secs<R>(reps: &[&Rep<R>]) -> f64 {
    phase_secs(&reps.iter().map(|r| &r.setup).collect::<Vec<_>>())
}

/// The repetition whose pass time is the (lower) median, for per-layer
/// breakdowns that must come from one consistent execution.
pub fn median_rep<'a, R>(reps: &[&'a Rep<R>]) -> &'a Rep<R> {
    let mut sorted: Vec<&Rep<R>> = reps.to_vec();
    sorted.sort_by(|a, b| a.pass.secs.partial_cmp(&b.pass.secs).expect("finite"));
    sorted[(sorted.len() - 1) / 2]
}

/// Checks that every pass produced the same simulated results as the
/// first (`sim` extracts them; equality is bitwise for floats).
pub fn require_identical<R, S: PartialEq>(
    checks: &mut Checks,
    reps: &[Rep<R>],
    sim: impl Fn(&R) -> S,
) {
    let first = sim(&reps[0].pass.out);
    for (i, r) in reps.iter().enumerate().skip(1) {
        let kind = if r.pass.spans.is_some() {
            "traced"
        } else {
            "untraced"
        };
        checks.require(sim(&r.pass.out) == first, || {
            format!("{kind} pass {i}: simulated results differ from pass 0")
        });
    }
}

/// The end-to-end metrics every workload shares.
pub fn common_e2e<R>(metrics: &mut Metrics, reps: &[Rep<R>]) {
    let (plain, _) = split(reps);
    metrics.push("wall_s", pass_secs(&plain), "s");
    metrics.push("setup_s", setup_secs(&plain), "s");
    metrics.push("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Exact bit equality of two floats, for simulated results.
pub fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("wall_s", 1.25, "s");
        m.push("n", 3.0, "count");
        let line = result_line(&Checks::default(), &m);
        let v = ugache_bench::json::parse(&line).expect("valid JSON");
        assert!(matches!(
            v.get("correct"),
            Some(ugache_bench::json::Value::Bool(true))
        ));
        let metrics = v.get("metrics").unwrap();
        assert!(metrics.get("wall_s").unwrap().get("unit").is_some());
        let mut bad = Checks::default();
        bad.require(false, || "x".to_string());
        assert!(result_line(&bad, &m).starts_with("{\"correct\": false"));
    }

    #[test]
    fn traced_reps_alternate_and_pair_up() {
        let opts = Opts {
            seed: 1,
            seconds: 0.0,
            trace: true,
        };
        let mut setups = 0;
        let reps = repeat(
            &opts,
            || {
                setups += 1;
                setups
            },
            |input, traced| (*input, traced),
            |_, _, _| {},
        );
        assert_eq!(reps.len(), 2 * MIN_REPS);
        // Every pass got the input its own set-up made.
        assert!(reps.iter().enumerate().all(|(i, r)| r.pass.out.0 == i + 1));
        let (plain, traced) = split(&reps);
        assert!(plain.iter().all(|r| !r.pass.out.1) && traced.iter().all(|r| r.pass.out.1));
        assert!(traced
            .iter()
            .all(|r| r.pass.spans.as_ref().unwrap()[0].name == "root"));
        assert!(traced.iter().all(|r| r.setup.spans.is_some()));
    }

    #[test]
    fn pass_secs_scales_ops_and_takes_their_medians() {
        // `(secs, calib)` per op; calibration runs take no time here.
        let timed = |ops: &[(f64, f64)], outside: f64| Timed {
            secs: ops.iter().map(|o| o.0).sum::<f64>() + outside,
            ops: ops
                .iter()
                .map(|&(secs, calib)| OpTime {
                    secs,
                    calib: calib * CALIB_REF_SECS,
                    calib_spent: 0.0,
                })
                .collect(),
            out: (),
            spans: None,
        };
        let rep = |ops: &[(f64, f64)], outside: f64| Rep {
            setup: timed(ops, outside),
            pass: timed(ops, outside),
        };
        // The first repetition ran on a machine half as fast throughout
        // (ops and calibration both twice as slow): scaled, it agrees.
        // A burst hitting one op of one repetition only, calibration
        // untouched, is dropped by the per-op median.
        let reps = [
            rep(&[(2.0, 2.0), (2.0, 2.0), (2.0, 2.0)], 0.5),
            rep(&[(1.0, 1.0), (9.0, 1.0), (1.0, 1.0)], 0.6),
            rep(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)], 0.7),
        ];
        let refs: Vec<&Rep<()>> = reps.iter().collect();
        assert!((pass_secs(&refs) - 3.6).abs() < 1e-12);
        assert!((setup_secs(&refs) - 3.6).abs() < 1e-12);
        // Different op sequences fall back to the median whole pass.
        let odd = [
            rep(&[(1.0, 1.0)], 0.0),
            rep(&[(1.0, 1.0), (1.0, 1.0)], 0.0),
            rep(&[(3.0, 1.0)], 0.0),
        ];
        let refs: Vec<&Rep<()>> = odd.iter().collect();
        assert_eq!(pass_secs(&refs), 2.0);
    }

    #[test]
    fn calibration_runs_take_time() {
        assert!(calibrate() > 0.0);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
