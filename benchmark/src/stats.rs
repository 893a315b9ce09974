//! Order statistics, regression bounds and the compare verdicts.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) exactly, so the spreads this benchmark
//! reports are the ones a reader recomputes from the raw values.

/// First quartile, median and third quartile, Python's exclusive method.
/// One value yields that value three times; no values yield `NaN`s.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The median (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The `p`-th percentile (`0..=100`) of `values` with linear
/// interpolation between the two nearest ranks.
pub fn percentile(values: &[u64], p: f64) -> f64 {
    let mut data = values.to_vec();
    data.sort_unstable();
    percentile_sorted(&data, p)
}

/// [`percentile`] over data the caller already sorted.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0] as f64,
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = rank - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

/// How far a metric may worsen before it counts as a regression: a share
/// of the parent's median, never less than an absolute floor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// Share of the parent's median.
    pub share: f64,
    /// Absolute floor, in the metric's unit.
    pub floor: f64,
}

impl Bound {
    /// The bound for `metric`: `share` from `BENCHMARK.json`, plus the
    /// absolute floors of the two metrics whose medians are small enough
    /// that a share alone is tighter than their noise.
    pub fn for_metric(metric: &str, share: f64) -> Bound {
        let floor = match metric {
            "setup_s" => 0.005,
            "peak_rss_mb" => 4.0,
            _ => 0.0,
        };
        Bound { share, floor }
    }

    /// The allowed worsening, in the metric's unit, around `median`.
    pub fn allowed(&self, median: f64) -> f64 {
        (self.share * median.abs()).max(self.floor)
    }
}

/// Outcome of comparing a change against its parent on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the pairs rule.
    Better,
    /// Within the bound and no gain shown.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the value each run reported, and the
/// run-to-run spread (quartile distance, in the metric's unit).
#[derive(Clone, Debug, PartialEq)]
pub struct Side {
    /// One value per run, in the order the runs were made.
    pub values: Vec<f64>,
    /// Distance between the quartiles of the runs.
    pub spread: f64,
}

/// Compare `change` against `parent` for a metric where `higher` tells
/// which direction is better.
///
/// - Worse: the change's median is worse than the parent's by more than
///   the bound, and the spread does not hide it (or every change run is
///   worse than every parent run).
/// - Unresolved: the spread of either side is wider than the bound, unless
///   every run of the change reads better than every run of the parent.
/// - Better: at least ten pairs, the change wins at least nine tenths of
///   them (ties count for neither), and the medians differ by more than
///   the parent's own spread.
/// - Same: otherwise.
pub fn verdict(parent: &Side, change: &Side, higher: bool, bound: Bound) -> Verdict {
    let mp = median(&parent.values);
    let mc = median(&change.values);
    let better = |a: f64, b: f64| if higher { a > b } else { a < b };
    let worse_by = if higher { mp - mc } else { mc - mp };
    let allowed = bound.allowed(mp);
    let wide = parent.spread.max(change.spread) > allowed;
    let all = |pred: &dyn Fn(f64, f64) -> bool| {
        change
            .values
            .iter()
            .all(|&c| parent.values.iter().all(|&p| pred(c, p)))
    };
    let all_better = all(&|c, p| better(c, p));
    let all_worse = all(&|c, p| better(p, c));

    if worse_by > allowed && (!wide || all_worse) {
        return Verdict::Worse;
    }
    if wide && !all_better {
        return Verdict::Unresolved;
    }
    let pairs = parent.values.len().min(change.values.len());
    let wins = parent
        .values
        .iter()
        .zip(&change.values)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    if pairs >= 10 && wins * 10 >= pairs * 9 && -worse_by > parent.spread {
        return Verdict::Better;
    }
    Verdict::Same
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        let (q1, _, q3) = quartiles(values);
        Side {
            values: values.to_vec(),
            spread: q3 - q1,
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]: it
        // extrapolates past the data when there are few points.
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 3.0, 6.0));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<u64> = (0..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[10, 20], 50.0), 15.0);
        assert_eq!(percentile(&[20, 10, 30, 40], 100.0), 40.0);
        assert_eq!(percentile(&[5], 99.0), 5.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn bounds_apply_their_absolute_floors() {
        let setup = Bound::for_metric("setup_s", 0.25);
        assert_eq!(setup.allowed(0.004), 0.005, "floor wins on a small median");
        assert_eq!(setup.allowed(0.1), 0.025, "share wins on a large median");
        let rss = Bound::for_metric("peak_rss_mb", 0.10);
        assert_eq!(rss.allowed(12.0), 4.0);
        assert!((rss.allowed(300.0) - 30.0).abs() < 1e-9);
        assert_eq!(Bound::for_metric("hops_per_s", 0.1).floor, 0.0);
    }

    #[test]
    fn verdicts_cover_every_outcome() {
        let bound = Bound::for_metric("hops_per_s", 0.10);
        let parent = side(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ]);

        let same = side(&[98.0, 99.0, 97.5, 98.5, 98.2, 98.8, 97.9, 98.1, 98.3, 98.6]);
        assert_eq!(verdict(&parent, &same, true, bound), Verdict::Same);

        let worse = side(&[85.0, 86.0, 84.0, 85.5, 85.2, 84.8, 85.1, 84.9, 85.0, 85.3]);
        assert_eq!(verdict(&parent, &worse, true, bound), Verdict::Worse);
        // Lower-is-better flips the direction.
        assert_eq!(verdict(&worse, &parent, false, bound), Verdict::Worse);

        let better = side(&[
            104.0, 105.0, 103.5, 104.5, 104.2, 104.8, 103.9, 104.1, 104.3, 104.6,
        ]);
        assert_eq!(verdict(&parent, &better, true, bound), Verdict::Better);

        // A win on fewer than ten pairs is no gain claim.
        let short = side(&better.values[..5]);
        assert_eq!(
            verdict(&side(&parent.values[..5]), &short, true, bound),
            Verdict::Same
        );

        // A spread wider than the bound leaves the row unresolved...
        let noisy = side(&[
            60.0, 140.0, 70.0, 130.0, 95.0, 105.0, 80.0, 120.0, 100.0, 90.0,
        ]);
        assert_eq!(verdict(&parent, &noisy, true, bound), Verdict::Unresolved);
        // ...unless every change run reads better than every parent run.
        let noisy_parent = side(&[10.0, 40.0, 12.0, 38.0, 20.0, 30.0, 15.0, 35.0, 25.0, 22.0]);
        let clear_win = side(&[50.0, 55.0, 60.0, 52.0, 58.0, 51.0, 57.0, 53.0, 56.0, 54.0]);
        assert_eq!(
            verdict(&noisy_parent, &clear_win, true, bound),
            Verdict::Better
        );
        // A clear loss is a regression even when the spread is wide.
        assert_eq!(
            verdict(&clear_win, &noisy_parent, true, bound),
            Verdict::Worse
        );
    }

    #[test]
    fn absolute_floor_keeps_small_setup_times_from_flapping() {
        let bound = Bound::for_metric("setup_s", 0.25);
        let parent = side(&[0.004, 0.0042, 0.0041]);
        let change = side(&[0.0075, 0.0078, 0.0076]);
        // 85% worse, but only 3.4 ms against a 5 ms floor.
        assert_eq!(verdict(&parent, &change, false, bound), Verdict::Same);
    }
}
