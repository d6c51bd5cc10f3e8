//! Sample summaries: median and the tail percentile rule.

/// Median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// A tail percentile together with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50 when the sample is too small for a tail).
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// Percentiles tried, highest first.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];
/// Samples a tail percentile must have beyond it.
const BEYOND: usize = 10;

/// Nearest-rank percentile of sorted samples.
fn rank(sorted: &[f64], pct: f64) -> (usize, f64) {
    let n = sorted.len();
    // The epsilon keeps binary rounding of pct/100 (99.9 / 100 is a hair
    // above 0.999) from pushing an exact rank up by one.
    let idx = ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1;
    (idx, sorted[idx])
}

/// The highest percentile of [`LADDER`] with at least ten samples beyond
/// it. Below forty samples no percentile qualifies and the median is
/// reported alone (`pct == 50`). `None` when empty.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    for pct in LADDER {
        let (idx, value) = rank(&s, pct);
        if n - 1 - idx >= BEYOND {
            return Some(Tail { pct, value, n });
        }
    }
    Some(Tail {
        pct: 50.0,
        value: median(&s).unwrap_or(0.0),
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n so the functions must sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn below_forty_samples_reports_the_median_alone() {
        let t = tail(&ramp(39)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (50.0, 20.0, 39));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn forty_samples_support_p75_with_exactly_ten_beyond() {
        let t = tail(&ramp(40)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (75.0, 30.0, 40));
    }

    #[test]
    fn picks_the_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.pct, t.value), (90.0, 90.0));
        // 1000: p99 leaves 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        // 999: p99 would leave 9 — fall back to p95.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.pct, t.value), (95.0, 950.0));
        // 10 000: p99.9 leaves 10 beyond.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (99.9, 9990.0, 10_000));
    }
}
