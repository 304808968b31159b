//! Order statistics for timing samples.

/// The `q`-quantile of ascending `sorted`, by the rule Python's
/// `statistics.quantiles` uses by default (position `q·(n+1)`, linear
/// between neighbours, clamped to the extremes).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let pos = q * (n + 1) as f64;
    if pos <= 1.0 {
        return sorted[0];
    }
    if pos >= n as f64 {
        return sorted[n - 1];
    }
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    s
}

/// The `q`-quantile of unsorted `samples`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    quantile(&sorted(samples), q)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The median, or 0 for no samples: what a layer that did not run reports.
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// Percentiles a tail may be reported at, lowest first, as exact fractions.
const LADDER: [(usize, usize); 6] = [(1, 2), (3, 4), (9, 10), (19, 20), (99, 100), (999, 1000)];

/// The highest percentile of the ladder that still has at least ten of `n`
/// samples beyond it; a tail above that is too few samples to report.
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .filter(|(num, den)| n * (den - num) / den >= 10)
        .map(|&(num, den)| num as f64 / den as f64)
        .fold(0.5, f64::max)
}

/// What is printed for each timing: count, quartiles, and the tail.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub tail_p: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        let tail_p = tail_percentile(s.len());
        Summary {
            n: s.len(),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            tail_p,
            tail: quantile(&s, tail_p),
        }
    }

    /// `scale` converts the samples' unit (seconds) into the printed one.
    pub fn line(&self, name: &str, scale: f64, unit: &str) -> String {
        format!(
            "{name}: n={} q1={:.4} median={:.4} q3={:.4} p{}={:.4} {unit}",
            self.n,
            self.q1 * scale,
            self.median * scale,
            self.q3 * scale,
            self.tail_p * 100.0,
            self.tail * scale,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median_or_zero(&[]), 0.0);
        assert_eq!(median_or_zero(&[2.0, 1.0, 4.0]), 2.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        // Beyond the extremes the rule clamps instead of extrapolating.
        assert_eq!(quantile(&[1.0, 2.0], 0.999), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.001), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), 0.5);
        assert_eq!(tail_percentile(20), 0.5);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(99), 0.75);
        assert_eq!(tail_percentile(100), 0.9);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(480), 0.95);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(12_000), 0.999);
    }

    #[test]
    fn summary_reports_the_tail_it_can_support() {
        let v: Vec<f64> = (1..=200).map(|x| x as f64).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.tail_p), (200, 0.95));
        assert!((s.tail - 190.95).abs() < 1e-9, "{}", s.tail);
        assert!(s.line("t", 1.0, "s").contains("p95="));
    }
}
