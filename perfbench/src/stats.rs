//! Order statistics for the reported timings.

/// Percentiles the tail rule may choose from, ascending.
const TAIL_LADDER: [f64; 52] = {
    let mut ladder = [0.0; 52];
    let mut i = 0;
    while i < 50 {
        ladder[i] = 50.0 + i as f64;
        i += 1;
    }
    ladder[50] = 99.9;
    ladder[51] = 99.99;
    ladder
};

/// Samples a tail percentile must leave beyond it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn nearest_rank(p: f64, n: usize) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending sample (`0.0` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted
        .get(nearest_rank(p, sorted.len()) - 1)
        .copied()
        .unwrap_or(0.0)
}

/// The highest percentile of the ladder that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank in a sample of
/// `n`, or `None` when the sample is too small for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= TAIL_MIN_BEYOND && n > 0)
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s.get(n / 2).copied().unwrap_or(0.0),
        _ => {
            let lo = s.get(n / 2 - 1).copied().unwrap_or(0.0);
            let hi = s.get(n / 2).copied().unwrap_or(0.0);
            (lo + hi) / 2.0
        }
    }
}

/// The tail of a latency sample: `(label, value)` at
/// [`tail_percentile`], or the maximum (labelled `max`) when the sample
/// is too small for the rule.
pub fn tail(values: &[f64]) -> (String, f64) {
    let s = sorted(values);
    match tail_percentile(s.len()) {
        Some(p) => (format!("p{p}"), percentile(&s, p)),
        None => ("max".to_string(), s.last().copied().unwrap_or(0.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_rule_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 400 samples: p97 (rank 388) leaves 12, p98 (rank 392) only 8.
        assert_eq!(tail_percentile(400), Some(97.0));
        // 20 samples: only the median leaves 10 beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        // 100 000 samples reach the finest ladder step.
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn the_tail_is_the_highest_qualifying_percentile() {
        for n in 20..2000 {
            let p = tail_percentile(n).expect("n >= 20 always qualifies");
            assert!(n - nearest_rank(p, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            let higher = TAIL_LADDER.iter().find(|&&q| q > p);
            if let Some(&q) = higher {
                assert!(n - nearest_rank(q, n) < TAIL_MIN_BEYOND, "n={n} q={q}");
            }
        }
        let values: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&values), ("p97".to_string(), 388.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), ("max".to_string(), 3.0));
    }

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }
}
