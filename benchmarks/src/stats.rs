//! The measurement rules: floor-of-three estimator, spread indicators and
//! the round-robin schedule every timed series follows.
//!
//! The floor rule exists because this host's noise is one-sided and comes
//! in bursts (README § noise study): contention only ever adds time, for
//! seconds at a stretch, so the fastest few of many interleaved samples of
//! identical work estimate the undisturbed cost, while means, medians and
//! tail percentiles estimate the neighbours' load.

/// Samples a series must hold before its floor is reported.
pub const MIN_SAMPLES: usize = 30;

/// Mean of the three smallest samples; `None` below three samples, because
/// a floor of one or two is just the luckiest reading.
pub fn floor3(samples: &[f64]) -> Option<f64> {
    if samples.len() < 3 {
        return None;
    }
    let mut low = [f64::INFINITY; 3];
    for &s in samples {
        if s < low[2] {
            low[2] = s;
            low.sort_by(f64::total_cmp);
        }
    }
    Some(low.iter().sum::<f64>() / 3.0)
}

/// Linear-interpolated quantile of unsorted samples (`q` in 0..=1).
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The spread the acceptance rule uses: distance between the first and
/// third quartile as a share of the median, with quartiles placed as
/// Python's `statistics.quantiles(values, n=4)` places them (exclusive
/// method: position `k·(n+1)/4` in the sorted sample).
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    let mid = median(&sorted)?;
    Some((cut(3) - cut(1)) / mid)
}

/// What role a series plays in the end-to-end metrics.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Role {
    /// Throughput job: `injections` classified per sample.
    Bulk { injections: u64 },
    /// Turnaround job; floors are averaged within `group`, then across groups.
    Latency { group: u8 },
    /// Timed for a per-layer metric only.
    LayerOnly,
}

/// Wall-time samples (seconds) of one piece of byte-identical work.
#[derive(Clone, Debug)]
pub struct Series {
    pub name: String,
    pub role: Role,
    pub samples: Vec<f64>,
}

impl Series {
    pub fn new(name: impl Into<String>, role: Role) -> Series {
        Series { name: name.into(), role, samples: Vec::new() }
    }

    /// The reported value. Panics below three samples: every caller sizes
    /// its loops from [`MIN_SAMPLES`], so fewer is a harness bug.
    pub fn floor(&self) -> f64 {
        floor3(&self.samples).unwrap_or_else(|| panic!("series {} has <3 samples", self.name))
    }
}

/// `(round, kind)` pairs in the order timed work runs: every kind once per
/// round, round after round — never one series after another, so a noise
/// burst taxes every series alike instead of swallowing one whole.
pub fn round_robin(rounds: usize, kinds: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..rounds).flat_map(move |r| (0..kinds).map(move |k| (r, k)))
}

/// splitmix64: the one generator behind every seed-derived input.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_the_mean_of_the_three_fastest() {
        assert_eq!(floor3(&[9.0, 1.0, 5.0, 2.0, 3.0, 7.0]), Some(2.0));
        // Order of arrival is irrelevant.
        assert_eq!(floor3(&[3.0, 2.0, 1.0]), Some(2.0));
    }

    #[test]
    fn floor_counts_ties_as_separate_samples() {
        assert_eq!(floor3(&[4.0, 4.0, 4.0, 4.0, 10.0]), Some(4.0));
        assert_eq!(floor3(&[1.0, 1.0, 4.0, 9.0]), Some(2.0));
    }

    #[test]
    fn floor_rejects_fewer_than_three_samples() {
        assert_eq!(floor3(&[]), None);
        assert_eq!(floor3(&[1.0]), None);
        assert_eq!(floor3(&[1.0, 2.0]), None);
    }

    #[test]
    fn round_robin_visits_every_kind_once_per_round_in_order() {
        let order: Vec<_> = round_robin(3, 2).collect();
        assert_eq!(order, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);
        // No series ever runs twice in a row while others exist.
        assert!(order.windows(2).all(|w| w[0].1 != w[1].1));
        assert_eq!(round_robin(0, 5).count(), 0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = iqr_share(&v).unwrap();
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(iqr_share(&[1.0]), None);
    }

    #[test]
    fn mix_is_deterministic_and_stream_separated() {
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        assert_ne!(mix(7, 3), mix(8, 3));
    }
}
