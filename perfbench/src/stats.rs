//! The metric math: percentiles, the reportable-tail rule and span self
//! time.

/// Nearest-rank percentile `p` (0–100] of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[nearest_rank(p, s.len()).clamp(1, s.len()) - 1]
}

/// 1-based rank of percentile `p` among `n` samples. The small slack
/// keeps products such as `0.999 * 10000` from rounding up a rank.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// A timing's highest reportable percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The highest percentile with at least ten samples beyond it — a tail
/// estimate resting on fewer is mostly one or two outliers. `None` when
/// there are fewer than twenty samples (not even the median qualifies).
pub fn reportable_tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        (n >= nearest_rank(p, n) + 10).then(|| Tail {
            percentile: p,
            value: percentile(samples, p),
            samples: n,
        })
    })
}

/// Length of the union of `[start, end)` intervals: time covered by at
/// least one of them, overlaps counted once.
pub fn covered(intervals: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// The parts of `parent` that none of `children` cover, as disjoint
/// intervals.
pub fn uncovered(parent: (f64, f64), children: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut kids: Vec<(f64, f64)> = children
        .iter()
        .map(|&(a, b)| (a.max(parent.0), b.min(parent.1)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out = Vec::new();
    let mut at = parent.0;
    for (a, b) in kids {
        if a > at {
            out.push((at, a));
        }
        at = at.max(b);
    }
    if parent.1 > at {
        out.push((at, parent.1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span's self time: its duration minus what its children cover.
    fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
        uncovered(parent, children).iter().map(|(a, b)| b - a).sum()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let s = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(reportable_tail(&s(19)), None);
        let t = reportable_tail(&s(20)).unwrap();
        assert_eq!((t.percentile, t.samples), (50.0, 20));
        // 99 samples leave 9 beyond p90: still only the median.
        assert_eq!(reportable_tail(&s(99)).unwrap().percentile, 50.0);
        let t = reportable_tail(&s(100)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (90.0, 89.0, 100));
        assert_eq!(reportable_tail(&s(999)).unwrap().percentile, 90.0);
        assert_eq!(reportable_tail(&s(1000)).unwrap().percentile, 99.0);
        assert_eq!(reportable_tail(&s(10_000)).unwrap().percentile, 99.9);
    }

    #[test]
    fn overlapping_children_from_two_device_threads_count_once() {
        // A 10 s launch whose two device threads run functional work over
        // [1, 7] and [2, 9]: together they cover [1, 9], so 2 s is self.
        let own = self_time((0.0, 10.0), &[(1.0, 7.0), (2.0, 9.0)]);
        assert!((own - 2.0).abs() < 1e-12, "{own}");
        // Disjoint children add; a child leaking past the parent is clipped.
        let own = self_time((0.0, 10.0), &[(0.0, 2.0), (5.0, 12.0)]);
        assert!((own - 3.0).abs() < 1e-12, "{own}");
        // Nested children do not double-count either.
        assert_eq!(covered(&[(0.0, 4.0), (1.0, 2.0), (3.0, 4.0)]), 4.0);
    }
}
