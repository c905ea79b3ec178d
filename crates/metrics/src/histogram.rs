//! Latency histogram with logarithmic buckets.
//!
//! Figure 6 and Figure 9 report the 70th percentile of per-trade latencies: the 70th
//! percentile is chosen by the paper because higher percentiles are dominated by
//! workload spikes and garbage-collection pauses. The histogram uses log-spaced
//! buckets from 1 µs to ~17 s, giving a worst-case relative error of ~5% per bucket,
//! which is far below the effects the figures visualise.

use parking_lot::Mutex;

/// Number of buckets per power of two (resolution of the histogram).
const SUB_BUCKETS: usize = 16;
/// Number of powers of two covered (2^0 .. 2^34 nanoseconds ≈ 17 s).
const POWERS: usize = 35;

/// A concurrent, log-bucketed latency histogram over `u64` nanosecond samples.
#[derive(Debug)]
pub struct LatencyHistogram {
    inner: Mutex<State>,
}

#[derive(Debug, Clone)]
struct State {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            inner: Mutex::new(State {
                buckets: vec![0; SUB_BUCKETS * POWERS],
                count: 0,
                sum_ns: 0,
                max_ns: 0,
            }),
        }
    }

    /// Records one latency sample, in nanoseconds.
    pub fn record(&self, latency_ns: u64) {
        let idx = bucket_index(latency_ns);
        let mut state = self.inner.lock();
        state.buckets[idx] += 1;
        state.count += 1;
        state.sum_ns += latency_ns as u128;
        state.max_ns = state.max_ns.max(latency_ns);
    }

    /// Returns the number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.lock().count
    }

    /// Returns the arithmetic mean in nanoseconds, or `None` if empty.
    fn mean_ns(&self) -> Option<f64> {
        let state = self.inner.lock();
        if state.count == 0 {
            None
        } else {
            Some(state.sum_ns as f64 / state.count as f64)
        }
    }

    /// Returns the largest recorded sample, or `None` if empty.
    fn max_ns(&self) -> Option<u64> {
        let state = self.inner.lock();
        (state.count > 0).then_some(state.max_ns)
    }

    /// Returns the value at the given percentile (0.0–100.0) in nanoseconds.
    ///
    /// The returned value is the representative (upper bound) of the bucket in which
    /// the requested rank falls, clamped to the observed maximum.
    fn percentile_ns(&self, pct: f64) -> Option<u64> {
        let state = self.inner.lock();
        if state.count == 0 {
            return None;
        }
        let pct = pct.clamp(0.0, 100.0);
        let rank = ((pct / 100.0) * state.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &count) in state.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(bucket_upper_bound(idx).min(state.max_ns));
            }
        }
        Some(state.max_ns)
    }

    /// Convenience: the paper's headline metric, the 70th percentile in
    /// milliseconds.
    pub fn p70_ms(&self) -> Option<f64> {
        self.percentile_ns(70.0).map(|ns| ns as f64 / 1e6)
    }

    /// Convenience: the median in milliseconds.
    pub fn p50_ms(&self) -> Option<f64> {
        self.percentile_ns(50.0).map(|ns| ns as f64 / 1e6)
    }

    /// Convenience: the 99th percentile in milliseconds.
    pub fn p99_ms(&self) -> Option<f64> {
        self.percentile_ns(99.0).map(|ns| ns as f64 / 1e6)
    }

    /// Returns a one-shot summary of the recorded samples — the quantities a
    /// machine-readable bench report records per configuration. Intended for
    /// quiescent histograms (after a run), where the fields are consistent.
    pub fn summary(&self) -> LatencySummary {
        let count = self.count();
        LatencySummary {
            count,
            mean_ms: self.mean_ns().map_or(0.0, |ns| ns / 1e6),
            p50_ms: self.p50_ms().unwrap_or(0.0),
            p70_ms: self.p70_ms().unwrap_or(0.0),
            p99_ms: self.p99_ms().unwrap_or(0.0),
            max_ms: self.max_ns().map_or(0.0, |ns| ns as f64 / 1e6),
        }
    }

    /// Clears all recorded samples.
    pub fn reset(&self) {
        let mut state = self.inner.lock();
        state.buckets.iter_mut().for_each(|b| *b = 0);
        state.count = 0;
        state.sum_ns = 0;
        state.max_ns = 0;
    }

    /// Merges another histogram into this one.
    pub fn merge(&self, other: &LatencyHistogram) {
        let other_state = other.inner.lock().clone();
        let mut state = self.inner.lock();
        for (a, b) in state.buckets.iter_mut().zip(&other_state.buckets) {
            *a += *b;
        }
        state.count += other_state.count;
        state.sum_ns += other_state.sum_ns;
        state.max_ns = state.max_ns.max(other_state.max_ns);
    }
}

/// A consistent snapshot of a [`LatencyHistogram`]'s headline statistics, in
/// the units bench reports record (milliseconds). Empty histograms summarise to
/// all-zero fields.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Arithmetic mean, ms.
    pub mean_ms: f64,
    /// Median, ms.
    pub p50_ms: f64,
    /// 70th percentile, ms — the paper's headline latency metric (Figures 6
    /// and 9), computed from the same sample buckets as p50/p99.
    pub p70_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Largest recorded sample, ms.
    pub max_ms: f64,
}

/// Maps a nanosecond value to its bucket index.
fn bucket_index(value_ns: u64) -> usize {
    let value = value_ns.max(1);
    let power = 63 - value.leading_zeros() as usize;
    let power = power.min(POWERS - 1);
    // Position within the power-of-two range, quantised into SUB_BUCKETS slots.
    let base = 1u64 << power;
    let offset = ((value - base) as u128 * SUB_BUCKETS as u128 / base as u128) as usize;
    power * SUB_BUCKETS + offset.min(SUB_BUCKETS - 1)
}

/// Returns the inclusive upper bound of a bucket, used as its representative value.
fn bucket_upper_bound(index: usize) -> u64 {
    let power = index / SUB_BUCKETS;
    let slot = index % SUB_BUCKETS;
    let base = 1u64 << power;
    base + (base as u128 * (slot as u128 + 1) / SUB_BUCKETS as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_none() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), None);
        assert_eq!(h.percentile_ns(70.0), None);
        assert_eq!(h.max_ns(), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let h = LatencyHistogram::new();
        h.record(1_000_000); // 1 ms
        for pct in [0.0, 50.0, 70.0, 99.0, 100.0] {
            let v = h.percentile_ns(pct).unwrap();
            assert!((950_000..=1_050_000).contains(&v), "pct {pct}: {v}");
        }
        assert_eq!(h.max_ns(), Some(1_000_000));
    }

    #[test]
    fn percentiles_are_ordered_and_accurate() {
        let h = LatencyHistogram::new();
        // 1..=1000 µs uniformly.
        for i in 1..=1000u64 {
            h.record(i * 1_000);
        }
        let p50 = h.percentile_ns(50.0).unwrap();
        let p70 = h.percentile_ns(70.0).unwrap();
        let p99 = h.percentile_ns(99.0).unwrap();
        assert!(p50 <= p70 && p70 <= p99);
        // 70th percentile of 1..1000 µs is ~700 µs; allow bucket error.
        assert!((650_000..=780_000).contains(&p70), "p70 = {p70}");
        assert!((450_000..=560_000).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn mean_and_count() {
        let h = LatencyHistogram::new();
        h.record(100);
        h.record(300);
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean_ns(), Some(200.0));
    }

    #[test]
    fn reset_clears_everything() {
        let h = LatencyHistogram::new();
        h.record(5_000);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile_ns(50.0), None);
    }

    #[test]
    fn merge_combines_histograms() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(1_000);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        let low = a.percentile_ns(0.0).unwrap();
        assert!((1_000..=1_070).contains(&low), "p0 = {low}");
        assert_eq!(a.max_ns(), Some(1_000_000));
    }

    #[test]
    fn bucket_error_is_bounded() {
        // The representative value of a bucket is within ~7% above the sample.
        for value in [1u64, 10, 1_000, 123_456, 9_999_999, 1_000_000_000] {
            let idx = bucket_index(value);
            let upper = bucket_upper_bound(idx);
            assert!(upper >= value, "upper {upper} < value {value}");
            assert!(
                (upper - value) as f64 <= value as f64 * 0.07 + 1.0,
                "value {value} upper {upper}"
            );
        }
    }

    #[test]
    fn concurrent_recording_is_safe() {
        use std::sync::Arc;
        let h = Arc::new(LatencyHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(i + 1);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }
}
