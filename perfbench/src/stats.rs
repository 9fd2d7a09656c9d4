//! Order statistics with the sample-count rule: a percentile is reported
//! only when at least [`MIN_TAIL`] samples lie beyond it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// 1-based nearest rank of the `p`-percentile among `n` samples (the
/// epsilon keeps `0.99 * 1000` from rounding up to rank 991).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil().max(1.0) as usize).min(n)
}

/// Nearest-rank percentile of ascending `sorted`, `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&p) {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `p`-percentile.
pub fn tail_count(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The `p`-percentile of ascending `sorted`, but only when at least
/// [`MIN_TAIL`] samples lie beyond it.
pub fn percentile_checked(sorted: &[f64], p: f64) -> Option<f64> {
    if tail_count(sorted.len(), p) < MIN_TAIL {
        return None;
    }
    percentile(sorted, p)
}

/// Median (mean of the two middle samples for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// A latency summary: median plus one checked tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile asked for.
    pub tail: f64,
}

/// Summarizes `values` as median and the `p` tail; `Err` names the
/// shortfall when too few samples lie beyond `p`.
pub fn summarize(values: &[f64], p: f64) -> Result<Summary, String> {
    let s = sorted(values);
    let tail = percentile_checked(&s, p).ok_or_else(|| {
        format!(
            "{} samples leave {} beyond p{}; at least {MIN_TAIL} are needed",
            s.len(),
            tail_count(s.len(), p),
            p * 100.0
        )
    })?;
    Ok(Summary {
        n: s.len(),
        p50: median(&s).expect("non-empty: the tail check passed"),
        tail,
    })
}

/// The fewest samples that leave at least [`MIN_TAIL`] beyond the
/// `p`-percentile.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| tail_count(n, p) >= MIN_TAIL)
        .expect("p < 1")
}

/// [`summarize`] of each window of samples; `Err` names the first
/// window with too few samples beyond `p`.
pub fn each_window(windows: &[&[f64]], p: f64) -> Result<Vec<Summary>, String> {
    windows
        .iter()
        .enumerate()
        .map(|(w, v)| summarize(v, p).map_err(|e| format!("window {w}: {e}")))
        .collect()
}

/// Interquartile mean: the mean of the middle half of `values` (all of
/// them when fewer than four).
pub fn middle_mean(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let middle = &s[s.len() / 4..s.len() - s.len() / 4];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// The [`middle_mean`] of `each` window's medians and of its tails; `n`
/// sums the samples. A burst of host noise moves the windows it falls
/// in, not the run's figures; and where the host leaves some windows
/// fast and others slow, the figures move with the share of slow ones,
/// where a median would jump from one kind's value to the other's.
pub fn across_windows(each: &[Summary]) -> Result<Summary, String> {
    let of = |f: fn(&Summary) -> f64| middle_mean(&each.iter().map(f).collect::<Vec<_>>());
    Ok(Summary {
        n: each.iter().map(|s| s.n).sum(),
        p50: of(|s| s.p50).ok_or("no windows")?,
        tail: of(|s| s.tail).ok_or("no windows")?,
    })
}

/// Tracing overhead from samples tagged traced or not: the traced
/// median over the untraced one, minus 1. `None` when either is empty.
pub fn overhead(samples: &[(bool, f64)]) -> Option<f64> {
    let half = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.0 == traced)
            .map(|s| s.1)
            .collect()
    };
    let (on, off) = (median(&half(true))?, median(&half(false))?);
    Some(on / off - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_count(1000, 0.99), 10);
        assert_eq!(tail_count(999, 0.99), 9);
        assert_eq!(tail_count(100, 0.9), 10);
        assert_eq!(tail_count(0, 0.9), 0);
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile_checked(&v, 0.99).is_none());
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile_checked(&v, 0.99), Some(989.0));
        assert!(summarize(&v[..99], 0.9).is_err());
        let s = summarize(&v[..100], 0.9).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (100, 49.5, 89.0));
    }

    #[test]
    fn windows_report_the_middle_mean_of_their_percentiles() {
        assert_eq!(min_samples(0.95), 200);
        assert_eq!(min_samples(0.99), 1000);
        let round = |scale: f64| -> Vec<f64> { (1..=200).map(|i| f64::from(i) * scale).collect() };
        // One slow window moves neither figure.
        let (fast, slow) = (round(1.0), round(3.0));
        let slow = [&slow[..], &fast, &fast, &fast, &fast];
        let s = across_windows(&each_window(&slow, 0.95).unwrap()).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (1000, 100.5, 190.0));
        assert!(each_window(&[&round(1.0), &[1.0; 199]], 0.95)
            .unwrap_err()
            .starts_with("window 1:"));
        assert!(across_windows(&[]).is_err());
    }

    #[test]
    fn overhead_compares_traced_and_untraced_medians() {
        let s = [(true, 1.2), (false, 1.0), (true, 1.2), (false, 1.0)];
        assert!((overhead(&s).unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(overhead(&s[1..2]), None);
    }

    #[test]
    fn middle_mean_drops_the_outer_quarters() {
        assert_eq!(
            middle_mean(&[9.0, 1.0, 2.0, 3.0, 100.0, 0.0, 4.0, 5.0]),
            Some(3.5)
        );
        assert_eq!(middle_mean(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(middle_mean(&[7.0, 1.0]), Some(4.0));
        assert_eq!(middle_mean(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
