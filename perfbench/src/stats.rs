//! Small statistics the benchmark reports with: medians, percentiles
//! that refuse to speak without enough samples, and the two pieces of
//! the `sim_max_rps` search (the backlog criterion and the rate
//! bisection).

/// Median of host-time samples (mean of the middle two for even n).
///
/// # Panics
///
/// Panics on an empty input or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Fewest samples that support quantile `q`: `10 / (1 - q)`, so at least
/// ten observations lie beyond the reported value (20 for a median,
/// 1000 for a p99).
pub fn min_samples(q: f64) -> usize {
    assert!((0.0..1.0).contains(&q), "quantile {q} outside [0, 1)");
    // The subtraction absorbs 1 - q's rounding (10 / 0.01 > 1000).
    (10.0 / (1.0 - q) - 1e-6).ceil() as usize
}

/// A percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile, in `[0, 1)`.
    pub q: f64,
    /// Samples it was taken over.
    pub n: usize,
    /// Nearest-rank value, or `None` when `n < min_samples(q)`.
    pub value: Option<f64>,
}

impl Percentile {
    /// Takes quantile `q` of `xs` with the nearest-rank estimator the
    /// serving engine uses, unless `xs` is too small to support it.
    pub fn of(xs: &[f64], q: f64) -> Percentile {
        let value = if xs.len() >= min_samples(q) {
            emb_util::stats::percentile(xs, q * 100.0)
        } else {
            None
        };
        Percentile {
            q,
            n: xs.len(),
            value,
        }
    }

    /// `p99=0.3120 ms (n=10000)`, or `p99=unsupported (n=12 < 1000)`.
    pub fn describe(&self, unit: &str) -> String {
        let label = format!("p{}", (self.q * 100.0 * 10.0).round() / 10.0);
        match self.value {
            Some(v) => format!("{label}={v:.4} {unit} (n={})", self.n),
            None => format!(
                "{label}=unsupported (n={} < {})",
                self.n,
                min_samples(self.q)
            ),
        }
    }
}

/// Whether a run's backlog grew: the mean queueing delay of the second
/// half of the requests (in arrival order) is more than twice that of
/// the first half and larger by more than one batching window. A stable
/// queue keeps both halves alike; an overloaded one grows linearly, so
/// its second half waits about three times as long as its first.
pub fn backlog_grows(queue_ns: &[u64], window_ns: u64) -> bool {
    if queue_ns.len() < 2 {
        return false;
    }
    let half = queue_ns.len() / 2;
    let mean = |xs: &[u64]| xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64;
    let first = mean(&queue_ns[..half]);
    let last = mean(&queue_ns[half..]);
    last > 2.0 * first && last - first > window_ns as f64
}

/// Highest rate in `[lo, hi]` that `ok` accepts, by `steps` geometric
/// bisections. `None` if `ok(lo)` fails; `hi` if `ok(hi)` holds.
///
/// The probes are a pure function of `(lo, hi, steps)` and the answers,
/// so the search is deterministic, and for a monotone `ok` (accepts
/// every rate below some threshold) the result is monotone in that
/// threshold and within a factor `(hi/lo)^(2^-steps)` below it.
pub fn search_max_rate(
    lo: f64,
    hi: f64,
    steps: usize,
    mut ok: impl FnMut(f64) -> bool,
) -> Option<f64> {
    assert!(0.0 < lo && lo < hi, "search range must be 0 < lo < hi");
    if !ok(lo) {
        return None;
    }
    if ok(hi) {
        return Some(hi);
    }
    let (mut good, mut bad) = (lo, hi);
    for _ in 0..steps {
        let mid = (good * bad).sqrt();
        if ok(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Some(good)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn support_rule_matches_ten_tail_samples() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.999), 10_000);
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        let p = Percentile::of(&xs, 0.99);
        assert_eq!(p.value, None);
        assert_eq!(p.n, 999);
        assert!(p.describe("ms").contains("unsupported (n=999 < 1000)"));
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let p = Percentile::of(&xs, 0.99);
        assert_eq!(p.value, Some(989.0));
        assert!(p.describe("ms").contains("n=1000"));
        assert_eq!(Percentile::of(&xs[..19], 0.5).value, None);
        assert_eq!(Percentile::of(&xs[..20], 0.5).value, Some(10.0));
    }

    #[test]
    fn backlog_criterion() {
        // Stable: both halves wait alike.
        let stable: Vec<u64> = (0..1000).map(|i| 100_000 + (i % 7) * 1000).collect();
        assert!(!backlog_grows(&stable, 250_000));
        // Overload: the queue grows linearly.
        let growing: Vec<u64> = (0..1000).map(|i| i * 2_000).collect();
        assert!(backlog_grows(&growing, 250_000));
        // Growth smaller than one window is noise, not backlog.
        let small: Vec<u64> = (0..1000).map(|i| i * 10).collect();
        assert!(!backlog_grows(&small, 250_000));
        assert!(!backlog_grows(&[5], 0));
    }

    #[test]
    fn search_finds_threshold_and_is_monotone() {
        let search = |t: f64| search_max_rate(1e4, 1e7, 10, |r| r <= t);
        let factor = (1e7f64 / 1e4).powf(1.0 / 1024.0);
        let mut prev = 0.0;
        for t in [2e4, 5e4, 1e5, 3e5, 9e5, 4e6] {
            let r = search(t).unwrap();
            assert!(r <= t && r * factor >= t, "t={t} r={r}");
            assert!(
                r >= prev,
                "search result must not drop as the threshold rises"
            );
            prev = r;
        }
        assert_eq!(search(5e3), None);
        assert_eq!(search(2e7), Some(1e7));
        // Deterministic: the same answers give the same probes.
        let mut a = Vec::new();
        let mut b = Vec::new();
        search_max_rate(1e4, 1e7, 6, |r| {
            a.push(r);
            r < 3e5
        });
        search_max_rate(1e4, 1e7, 6, |r| {
            b.push(r);
            r < 3e5
        });
        assert_eq!(a, b);
    }
}
