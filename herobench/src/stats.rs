//! The benchmark's own statistics: medians, quartiles, the tail
//! percentile that still has ten samples beyond it, and the paired
//! parent-vs-change verdict.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Pairs needed before a gain may be claimed.
pub const MIN_PAIRS: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the same rule as
/// Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method).
/// Needs at least two samples; returns NaNs otherwise.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return [f64::NAN; 3];
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median (the spread measure
/// the acceptance rule uses).
pub fn relative_spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2.abs()
}

/// A tail reading: the value at `pct`, with `beyond` samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, e.g. 90.0.
    pub pct: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Nearest rank (1-based) of `pct` among `n` samples; the epsilon keeps
/// products like 0.999·10000 from rounding up a whole rank.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize
}

/// The highest percentile — 99.9, 99, or a multiple of 5 from 95 down
/// to 50 — that leaves at least [`TAIL_BEYOND`] of `n` samples beyond
/// its nearest rank; 50 when none does.
pub fn tail_pct(n: usize) -> f64 {
    [99.9, 99.0]
        .into_iter()
        .chain((10..=19).rev().map(|k| f64::from(k) * 5.0))
        .find(|&p| n >= rank(p, n) + TAIL_BEYOND)
        .unwrap_or(50.0)
}

/// The nearest-rank value at `pct`; `None` when empty.
pub fn tail_at(xs: &[f64], pct: f64) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let r = rank(pct, n);
    Some(Tail {
        pct,
        value: v[r - 1],
        beyond: n - r,
    })
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latency, memory).
    Lower,
    /// Larger is better (throughput, accuracy).
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// True when `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }

    /// How much worse `change` is than `parent`, as a share of `parent`
    /// (negative when better).
    pub fn worsening(self, parent: f64, change: f64) -> f64 {
        let d = match self {
            Better::Lower => change - parent,
            Better::Higher => parent - change,
        };
        d / parent.abs()
    }
}

/// Outcome of comparing one (workload, metric) pair across two result
/// sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of ≥ 10 pairs and the medians differ by
    /// more than the parent's interquartile distance.
    Improved,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// Within the bound, spread within the bound.
    Unchanged,
    /// Either side spreads wider than the bound, so "unchanged" cannot be
    /// told apart from a regression.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pair wins of `change` over `parent`, pairing runs by position (ties
/// count for neither side). Returns `(wins, pairs)`.
pub fn pair_wins(parent: &[f64], change: &[f64], better: Better) -> (usize, usize) {
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.beats(**c, **p))
        .count();
    (wins, pairs)
}

/// The comparison rule. A gain needs at least [`MIN_PAIRS`] pairs, the
/// change winning at least nine tenths of them, and a median gap larger
/// than the parent's own interquartile distance. Otherwise a median
/// worse by more than `bound` is a regression, unless either side's
/// relative spread exceeds `bound` — then the pair is unresolved, except
/// when every change run beats every parent run.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (mp, mc) = (median(parent), median(change));
    let (wins, pairs) = pair_wins(parent, change, better);
    let [q1, _, q3] = quartiles(parent);
    let parent_iqr = q3 - q1;
    if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better.beats(mc, mp)
        && (mc - mp).abs() > parent_iqr
    {
        return Verdict::Improved;
    }
    let noisy = relative_spread(parent) > bound || relative_spread(change) > bound;
    let all_better = !parent.is_empty()
        && change
            .iter()
            .all(|&c| parent.iter().all(|&p| better.beats(c, p)));
    if noisy && !all_better {
        return Verdict::Unresolved;
    }
    if better.worsening(mp, mc) > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert!(quartiles(&[1.0])[0].is_nan());
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_pct_is_highest_rung_with_ten_beyond() {
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(99), 85.0);
        assert_eq!(tail_pct(88), 85.0);
        assert_eq!(tail_pct(40), 75.0);
        assert_eq!(tail_pct(39), 70.0);
        assert_eq!(tail_pct(200), 95.0);
        assert_eq!(tail_pct(1000), 99.0);
        assert_eq!(tail_pct(10_000), 99.9);
        // Too few samples for any rung: the median, short of ten beyond.
        assert_eq!(tail_pct(19), 50.0);
        assert_eq!(tail_pct(0), 50.0);
        for n in 20..2000 {
            let p = tail_pct(n);
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(tail_at(&xs, p).unwrap().beyond >= TAIL_BEYOND, "n={n}");
        }
    }

    #[test]
    fn tail_at_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail_at(&xs, 90.0).unwrap();
        assert_eq!((t.value, t.beyond), (90.0, 10));
        let t = tail_at(&[3.0, 1.0, 2.0], 50.0).unwrap();
        assert_eq!((t.value, t.beyond), (2.0, 1));
        assert!(tail_at(&[], 50.0).is_none());
    }

    fn series(base: f64, step: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn pair_rule_claims_a_clear_gain() {
        let parent = series(100.0, 0.1, 10);
        let change = series(90.0, 0.1, 10);
        assert_eq!(pair_wins(&parent, &change, Better::Lower), (10, 10));
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Improved
        );
    }

    #[test]
    fn pair_rule_needs_ten_pairs_and_nine_wins() {
        let parent = series(100.0, 0.1, 9);
        let change = series(90.0, 0.1, 9);
        // Nine pairs: too few for a gain, but plainly not worse.
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Unchanged
        );
        // Ten pairs, two lost: 8/10 < 9/10.
        let parent = series(100.0, 0.1, 10);
        let mut change = series(90.0, 0.1, 10);
        change[0] = 200.0;
        change[1] = 200.0;
        assert_eq!(pair_wins(&parent, &change, Better::Lower), (8, 10));
        assert_ne!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Improved
        );
    }

    #[test]
    fn pair_rule_ties_count_for_neither() {
        let parent = vec![1.0; 10];
        let change = vec![1.0; 10];
        assert_eq!(pair_wins(&parent, &change, Better::Lower), (0, 10));
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Unchanged
        );
    }

    #[test]
    fn pair_rule_gap_must_exceed_parent_iqr() {
        // Every pair won, but the gap (1) is inside the parent's
        // interquartile distance (~5).
        let parent = series(100.0, 1.0, 10);
        let change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        assert_eq!(pair_wins(&parent, &change, Better::Lower), (10, 10));
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.25),
            Verdict::Unchanged
        );
    }

    #[test]
    fn worse_beyond_bound_and_unresolved_when_noisy() {
        let parent = series(100.0, 0.1, 10);
        let change = series(120.0, 0.1, 10);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.25),
            Verdict::Unchanged
        );
        // Higher-is-better metric that dropped.
        assert_eq!(
            verdict(&change, &parent, Better::Higher, 0.1),
            Verdict::Worse
        );
        // Parent spread (IQR/median ≈ 0.5) wider than the bound.
        let noisy = series(50.0, 10.0, 10);
        let change = series(60.0, 10.0, 10);
        assert_eq!(
            verdict(&noisy, &change, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
