//! Order statistics, and the slice-median estimators that keep one host
//! hiccup from moving a reported number.

use defcon_metrics::stats::percentile;

/// Median and quartiles of a set of readings (linear interpolation between
/// ranks; all zero for an empty set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub samples: usize,
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    let at = |pct| percentile(values, pct).unwrap_or(0.0);
    Quartiles {
        q1: at(25.0),
        median: at(50.0),
        q3: at(75.0),
        samples: values.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// Median of integer nanosecond readings.
pub fn median_ns(values: &[u64]) -> f64 {
    median(&values.iter().map(|v| *v as f64).collect::<Vec<_>>())
}

/// Nearest-rank percentile (`pct` in 0..=100) of an ascending slice of exact
/// samples. Exact samples, not log buckets: a bucketed percentile reads the
/// same on every run and jumps by a whole bucket when it moves.
pub fn percentile_sorted(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and tail of a latency sample set, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
}

/// Percentiles over one whole sample set.
pub fn latency_summary(samples_ns: &mut [u64]) -> LatencySummary {
    samples_ns.sort_unstable();
    LatencySummary {
        p50_us: percentile_sorted(samples_ns, 50.0) as f64 / 1e3,
        p99_us: percentile_sorted(samples_ns, 99.0) as f64 / 1e3,
        samples: samples_ns.len(),
    }
}

/// Samples per latency slice: enough that a slice's p99 has samples beyond it.
const LATENCY_SLICE_SAMPLES: usize = 250;

/// Cuts a latency series in arrival order into contiguous slices of equal
/// count and summarises each. A tail percentile over a whole run is set by
/// its one worst episode (a host hiccup during one burst); the median of
/// per-slice tails ([`median_latency`]) is what the tail usually is, and
/// repeats from run to run.
pub fn latency_slices(samples_in_order_ns: &[u64]) -> Vec<LatencySummary> {
    let slices = (samples_in_order_ns.len() / LATENCY_SLICE_SAMPLES).max(1);
    let per_slice = samples_in_order_ns.len().div_ceil(slices).max(1);
    samples_in_order_ns
        .chunks(per_slice)
        .map(|chunk| latency_summary(&mut chunk.to_vec()))
        .collect()
}

/// Median p50 and median p99 over slices, with the total sample count.
pub fn median_latency(slices: &[LatencySummary]) -> LatencySummary {
    let median_of =
        |pick: fn(&LatencySummary) -> f64| median(&slices.iter().map(pick).collect::<Vec<_>>());
    LatencySummary {
        p50_us: median_of(|slice| slice.p50_us),
        p99_us: median_of(|slice| slice.p99_us),
        samples: slices.iter().map(|slice| slice.samples).sum(),
    }
}

/// Throughput over equal-count slices of a measured phase; the reported rate
/// is the median slice's.
#[derive(Debug)]
pub struct SliceClock {
    per_slice: u64,
    in_slice: u64,
    slice_start_ns: u64,
    rates: Vec<f64>,
}

impl SliceClock {
    pub fn new(per_slice: u64, start_ns: u64) -> Self {
        SliceClock {
            per_slice: per_slice.max(1),
            in_slice: 0,
            slice_start_ns: start_ns,
            rates: Vec::new(),
        }
    }

    /// Counts `events` completed by `now_ns`, closing the slice once it holds
    /// its full count.
    pub fn add(&mut self, events: u64, now_ns: u64) {
        self.in_slice += events;
        if self.in_slice >= self.per_slice && now_ns > self.slice_start_ns {
            let seconds = (now_ns - self.slice_start_ns) as f64 / 1e9;
            self.rates.push(self.in_slice as f64 / seconds);
            self.in_slice = 0;
            self.slice_start_ns = now_ns;
        }
    }

    /// Events per second of each closed slice. A phase too short to close
    /// one falls back to the open slice.
    pub fn into_rates(mut self, now_ns: u64) -> Vec<f64> {
        if self.rates.is_empty() {
            let seconds = now_ns.saturating_sub(self.slice_start_ns).max(1) as f64 / 1e9;
            self.rates.push(self.in_slice as f64 / seconds);
        }
        self.rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_like_the_inclusive_method() {
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3, q.samples), (2.0, 3.0, 4.0, 5));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_ns(&[3, 1, 2]), 2.0);
    }

    #[test]
    fn percentiles_are_nearest_rank_and_monotone() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 500);
        assert_eq!(percentile_sorted(&sorted, 99.0), 990);
        assert_eq!(percentile_sorted(&sorted, 100.0), 1000);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        let mut samples = vec![9_000, 1_000, 5_000];
        let summary = latency_summary(&mut samples);
        assert!(summary.p50_us <= summary.p99_us);
        assert_eq!(
            (summary.p50_us, summary.p99_us, summary.samples),
            (5.0, 9.0, 3)
        );
        assert_eq!(latency_summary(&mut []), LatencySummary::default());
    }

    #[test]
    fn sliced_percentiles_shrug_off_one_bad_episode() {
        // Ten slices' worth of samples at 1..=250 us; the fifth suffers a stall.
        let mut series = Vec::new();
        for slice in 0..10u64 {
            for sample in 1..=250u64 {
                let stall = if slice == 4 && sample > 200 {
                    500_000_000
                } else {
                    0
                };
                series.push(sample * 1_000 + stall);
            }
        }
        let slices = latency_slices(&series);
        assert_eq!(slices.len(), 10);
        let sliced = median_latency(&slices);
        assert_eq!(
            (sliced.p50_us, sliced.p99_us, sliced.samples),
            (125.0, 248.0, 2_500)
        );
        assert!(latency_summary(&mut series.clone()).p99_us > 100_000.0);
        // Too few samples for a second slice: one slice, never an empty one.
        let short = latency_slices(&series[..300]);
        assert_eq!((short.len(), short[0].samples), (1, 300));
        assert_eq!(
            median_latency(&latency_slices(&[])),
            LatencySummary::default()
        );
    }

    #[test]
    fn slice_median_ignores_one_slow_slice() {
        // Five slices of 100 events: four take 1 ms, one takes 100 ms.
        let mut clock = SliceClock::new(100, 0);
        let mut now = 0;
        for slice in 0..5 {
            now += if slice == 2 { 100_000_000 } else { 1_000_000 };
            clock.add(60, now - 1);
            clock.add(40, now);
        }
        let rate = quartiles(&clock.into_rates(now));
        assert_eq!(rate.samples, 5);
        // The overall mean would have been ~4.8k events/s.
        assert!((rate.median - 100_000.0).abs() < 1.0, "{rate:?}");
    }

    #[test]
    fn slice_clock_without_a_closed_slice_reports_the_open_one() {
        let mut clock = SliceClock::new(1_000, 0);
        clock.add(10, 1_000_000);
        let rates = clock.into_rates(2_000_000);
        assert_eq!(rates.len(), 1);
        assert!((rates[0] - 5_000.0).abs() < 1e-6);
    }
}
