//! Order statistics over per-op samples.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks; `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::max)
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    retrodns_core::metrics::peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// A fixed two-thread hashing kernel, independent of the program: its
/// time tells whether the host ran the benchmark quiet or contended.
/// Median of three runs, in ms.
pub fn host_probe_ms() -> f64 {
    fn fill(seed: u64) -> usize {
        let mut m = std::collections::HashMap::new();
        for i in 0..1_000_000u64 {
            *m.entry((i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 500_000)
                .or_insert(0u64) += i;
        }
        std::hint::black_box(m.len())
    }
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            std::thread::scope(|s| {
                let a = s.spawn(|| fill(1));
                let b = s.spawn(|| fill(2));
                a.join().expect("probe thread") + b.join().expect("probe thread")
            });
            ms(t.elapsed())
        })
        .collect();
    median(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert!(median(&[]).is_nan());
    }
}
