//! Percentiles from raw samples, and readings of the program's own
//! log₂-bucket histograms.

use tpd_metrics::{HistogramSnapshot, MetricsSnapshot};

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: f64 = 10.0;

/// The `q`-th percentile (0 < q < 100) of ascending `sorted` samples, by
/// the nearest-rank rule. `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it: such a tail is too thin to repeat.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 100.0, "percentile {q} out of (0, 100)");
    let n = sorted.len();
    if beyond(n as u64, q) < MIN_BEYOND {
        return None;
    }
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// How many of `n` samples lie beyond the `q`-th percentile, rounded so
/// that 10,000 samples have exactly ten beyond p99.9.
fn beyond(n: u64, q: f64) -> f64 {
    (n as f64 * (100.0 - q) / 100.0 * 1e6).round() / 1e6
}

/// Samples per window of [`quiet_window_percentile`]: 25 beyond the 95th
/// percentile.
pub const WINDOW: usize = 500;

/// The first quartile, over consecutive windows of [`WINDOW`] samples in
/// arrival order, of each window's `q`-th percentile: the tail of the
/// quieter windows. On a shared host, episodes in which a neighbour takes
/// the CPU for milliseconds at a time can cover half of a run and multiply
/// the tail of every window they touch; the first quartile holds as long
/// as a quarter of the windows escape them, while a slowdown of the
/// program itself moves every window. `None` when there is not one full
/// window.
pub fn quiet_window_percentile(in_order: &[f64], q: f64) -> Option<f64> {
    let per_window = sorted(
        in_order
            .chunks_exact(WINDOW)
            .filter_map(|w| percentile(&sorted(w.to_vec()), q))
            .collect(),
    );
    let rank = per_window.len().div_ceil(4);
    (rank > 0).then(|| per_window[rank - 1])
}

/// The upper quartile of per-window rates: the rate of the quieter
/// windows, by the same reasoning as [`quiet_window_percentile`]. `None`
/// when there is no window.
pub fn upper_quartile(rates: Vec<f64>) -> Option<f64> {
    let s = sorted(rates);
    let rank = s.len().div_ceil(4);
    (rank > 0).then(|| s[s.len() - rank])
}

/// Sort samples ascending (they must not be NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing happened.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the program's counters and histograms did between two snapshots.
#[derive(Debug, Clone)]
pub struct Delta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Delta {
    pub fn new(before: MetricsSnapshot, after: MetricsSnapshot) -> Delta {
        Delta { before, after }
    }

    /// Increase of a counter (0 when the family is absent).
    pub fn counter(&self, name: &str) -> f64 {
        let get = |m: &MetricsSnapshot| m.counters.get(name).copied().unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }

    /// The values a histogram recorded in the window.
    pub fn hist(&self, name: &str) -> HistogramSnapshot {
        let empty = HistogramSnapshot::default();
        let a = self.after.histograms.get(name).unwrap_or(&empty);
        let b = self.before.histograms.get(name).unwrap_or(&empty);
        hist_sub(a, b)
    }
}

/// `after − before`, bucket by bucket.
pub fn hist_sub(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets: Vec<(u64, u64)> = after
        .buckets
        .iter()
        .filter_map(|&(floor, n)| {
            let old = before
                .buckets
                .iter()
                .find(|&&(f, _)| f == floor)
                .map_or(0, |&(_, m)| m);
            let d = n.saturating_sub(old);
            (d > 0).then_some((floor, d))
        })
        .collect();
    HistogramSnapshot {
        count: buckets.iter().map(|&(_, n)| n).sum(),
        sum: after.sum.saturating_sub(before.sum),
        buckets,
    }
}

/// Width of the histogram bucket whose floor is `floor`: values below 4
/// have unit buckets, and each octave above splits into 4 sub-buckets.
fn bucket_width(floor: u64) -> u64 {
    if floor < 4 {
        1
    } else {
        1 << (63 - floor.leading_zeros() - 2)
    }
}

/// The `q`-th percentile (0 < q < 100) of a program histogram, placed
/// inside its bucket by linear interpolation on rank. The buckets are log₂
/// with four sub-buckets per octave, so the bucket floor is a lower bound
/// and the reading carries up to 25% error either way. `None` under the
/// same ten-beyond rule as [`percentile`].
pub fn hist_percentile(h: &HistogramSnapshot, q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 100.0, "percentile {q} out of (0, 100)");
    if beyond(h.count, q) < MIN_BEYOND {
        return None;
    }
    let rank = (q / 100.0) * h.count as f64;
    let mut seen = 0u64;
    for &(floor, n) in &h.buckets {
        if (seen + n) as f64 >= rank {
            let within = (rank - seen as f64) / n as f64;
            return Some(floor as f64 + within * bucket_width(floor) as f64);
        }
        seen += n;
    }
    h.buckets.last().map(|&(floor, _)| floor as f64)
}
