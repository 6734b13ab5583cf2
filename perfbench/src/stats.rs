//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank rule on sorted samples, so every
//! reported figure is a value that was actually measured.

/// The tail levels a report may use, lowest first.
const TAIL_LEVELS: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `sorted`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest tail level that leaves at least ten samples beyond it,
/// or `None` when even the 90th percentile has fewer than ten beyond
/// it (fewer than 100 samples).
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Summary of one sample set: the count, the quartiles, and the tail
/// at the highest level the sample supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(level, value)` of the supported tail, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (any order). `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            q1: percentile(&sorted, 25.0),
            p50: percentile(&sorted, 50.0),
            q3: percentile(&sorted, 75.0),
            tail: tail_level(sorted.len()).map(|p| (p, percentile(&sorted, p))),
        })
    }

    /// One report line: `name n=.. q1=.. p50=.. q3=.. pXX=..`.
    pub fn line(&self, name: &str, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(" p{p}={v:.3}"),
            None => " (too few samples for a tail)".to_string(),
        };
        format!(
            "{name} [{unit}] n={} q1={:.3} p50={:.3} q3={:.3}{tail}",
            self.n, self.q1, self.p50, self.q3
        )
    }
}

/// The median of `samples` (any order).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).expect("median of no samples").p50
}

/// The median of `samples`, or NaN when there are none.
pub fn p50(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.p50)
}

/// The nearest-rank 99th percentile of `samples`, or NaN when there
/// are none.
pub fn p99(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 99.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(99), None);
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(999), Some(90.0));
        assert_eq!(tail_level(1_000), Some(99.0));
        assert_eq!(tail_level(9_999), Some(99.0));
        assert_eq!(tail_level(10_000), Some(99.9));
        assert_eq!(tail_level(100_000), Some(99.99));
        assert_eq!(tail_level(10_000_000), Some(99.99));
    }

    #[test]
    fn summary_reports_quartiles_and_supported_tail() {
        // 1..=1000 shuffled deterministically.
        let samples: Vec<f64> = (0..1000u64)
            .map(|i| ((i * 617) % 1000 + 1) as f64)
            .collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.q1, 250.0);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.q3, 750.0);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        // Exactly ten samples lie beyond the reported tail.
        let beyond = samples.iter().filter(|&&v| v > 990.0).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn small_samples_have_no_tail() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.p50, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(s.tail, None);
        assert!(Summary::of(&[]).is_none());
    }
}
