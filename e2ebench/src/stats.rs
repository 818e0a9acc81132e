//! Exact order statistics over raw per-operation samples.
//!
//! `rtr_obs::Histogram` buckets by powers of two, so it can only read
//! 2^k − 1 and cannot show a 20% change; every quantile here is taken from
//! the sorted samples themselves (nearest-rank).

/// The `q`-quantile (nearest rank) of an ascending slice; `NaN` when
/// empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` and returns its `q`-quantile (nearest rank).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile_sorted(v, q)
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&mut v.to_vec(), 0.5)
}

/// The highest of the usual tail quantiles that still has at least ten
/// samples beyond it, so a reported tail never rests on a handful of
/// points. `None` below 20 samples.
pub fn tail_q(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| (n as f64) * (1.0 - q) >= 10.0)
}

/// Median plus the tail quantile of [`tail_q`], with the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The tail quantile's level (e.g. 0.99), `NaN` when too few samples.
    pub tail_q: f64,
    pub tail: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tq = tail_q(v.len());
        Summary {
            n: v.len(),
            p50: quantile_sorted(&v, 0.5),
            tail_q: tq.unwrap_or(f64::NAN),
            tail: tq.map_or(f64::NAN, |q| quantile_sorted(&v, q)),
            max: v.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// `p50 …, p99 … (n=…)` for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        if self.tail_q.is_nan() || self.tail_q <= 0.5 {
            return format!(
                "p50 {:.3} {unit}, max {:.3} (n={})",
                self.p50, self.max, self.n
            );
        }
        format!(
            "p50 {:.3} {unit}, p{} {:.3} {unit}, max {:.3} (n={})",
            self.p50,
            self.tail_q * 100.0,
            self.tail,
            self.max,
            self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_q(19), None);
        assert_eq!(tail_q(20), Some(0.5));
        assert_eq!(tail_q(999), Some(0.9));
        assert_eq!(tail_q(1000), Some(0.99));
        assert_eq!(tail_q(10_000), Some(0.999));
    }
}
