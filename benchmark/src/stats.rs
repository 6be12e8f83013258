//! Order statistics for the timed repetitions and the order-sensitive
//! digest that pins a workload's modeled results.

/// Median and quartiles of a sample, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so the spreads
/// this benchmark prints are the ones its driver computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

/// Quartiles of `values`.
///
/// # Panics
/// Panics on an empty sample or a NaN.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    let n = v.len();
    // Exclusive method: the i-th cut point sits at 1-based position
    // i*(n+1)/4, interpolated between its neighbours; the neighbour index
    // is clamped but the offset is not, so small samples extrapolate.
    let cut = |i: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Quartiles {
        min: v[0],
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        max: v[n - 1],
        n,
    }
}

/// Median of `values` (see [`quartiles`]).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// Smallest of `values`.
///
/// # Panics
/// Panics on an empty sample.
pub fn minimum(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Each position at the smallest value any of `samples` has there, added
/// up.  Samples that do not all have the same length (a repetition in which
/// an experiment panicked) cannot be matched position by position; the
/// smallest whole-sample sum stands in.
///
/// # Panics
/// Panics if there are no samples.
pub fn floor_sum(samples: &[&[f64]]) -> f64 {
    assert!(!samples.is_empty(), "floor of no samples");
    let len = samples[0].len();
    if samples.iter().any(|s| s.len() != len) {
        let sums: Vec<f64> = samples.iter().map(|s| s.iter().sum()).collect();
        return minimum(&sums);
    }
    (0..len)
        .map(|i| samples.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Order-sensitive 64-bit fold: feeding the same words in another order
/// gives another digest, so a cell that swaps places with its neighbour, or
/// two counters that trade values, cannot cancel out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn push(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Hex form used in `baseline.json` and the reports.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        assert_eq!((q.min, q.max, q.n), (1.0, 5.0, 5));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let q = quartiles(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((q.q1, q.median, q.q3), (12.5, 25.0, 37.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let q = quartiles(&[1.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.5, 2.0, 3.5));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn floor_sum_takes_each_position_at_its_smallest() {
        let (a, b, c) = ([3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 2.0, 4.0]);
        assert_eq!(floor_sum(&[&a, &b, &c]), 2.0 + 1.0 + 4.0);
        assert_eq!(floor_sum(&[&a]), 9.0);
        // Unequal lengths: the smallest whole sum.
        assert_eq!(floor_sum(&[&a, &[1.0, 2.0]]), 3.0);
        assert_eq!(minimum(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn digest_fold_is_order_sensitive() {
        let fold = |words: &[u64]| {
            let mut d = Digest::default();
            for &w in words {
                d.push(w);
            }
            d.hex()
        };
        assert_ne!(fold(&[1, 2, 3]), fold(&[3, 2, 1]));
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
        assert_ne!(fold(&[0]), fold(&[0, 0]));
        assert_eq!(fold(&[1, 2, 3]), fold(&[1, 2, 3]));
    }
}
