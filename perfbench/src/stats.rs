//! Small statistics helpers shared by every workload.

/// Median of `values` (mean of the two middle values for an even count);
/// NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile (`pct` in 0..=100) of `values`: the smallest
/// value with at least `pct`% of the sample at or below it. NaN for an
/// empty slice.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Latency of each request measured from when it was *due* to be sent,
/// not from when it was sent: a stalled server also delays every later
/// request the generator holds back, and that wait belongs to the server.
/// `due_s` and `done_s` are offsets from one common start.
pub fn latencies_from_due_ms(due_s: &[f64], done_s: &[f64]) -> Vec<f64> {
    due_s.iter().zip(done_s).map(|(due, done)| (done - due).max(0.0) * 1e3).collect()
}

/// Mean of `values`; NaN for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// SplitMix64: a seeded stream for generated inputs that depends on
/// nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn latency_from_due_time_counts_generator_lag() {
        // Request 1 was due at 0.1 s but a stall held the generator until
        // 0.5 s; its latency still counts from 0.1 s.
        let due = [0.0, 0.1, 0.2];
        let done = [0.002, 0.503, 0.504];
        let lat = latencies_from_due_ms(&due, &done);
        assert!((lat[0] - 2.0).abs() < 1e-9);
        assert!((lat[1] - 403.0).abs() < 1e-9);
        assert!((lat[2] - 304.0).abs() < 1e-9);
        assert_eq!(percentile(&lat, 50.0), lat[2]);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(9);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(9);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let u = SplitMix::new(1).unit();
        assert!((0.0..1.0).contains(&u));
    }
}
