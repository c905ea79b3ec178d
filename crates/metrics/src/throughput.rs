//! Windowed throughput measurement.
//!
//! §6.2: "we had the Stock Exchange unit replay tick event traces as quickly as
//! possible, while measuring the achieved throughput every 100 ms. Figure 5 shows
//! the *median* throughput." [`ThroughputRecorder`] reproduces that procedure: it
//! counts completed events, closes a sample window every `window` of elapsed time
//! and reports the median of the per-window rates.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Records event completions and derives windowed rates.
#[derive(Debug)]
pub struct ThroughputRecorder {
    window: Duration,
    inner: Mutex<State>,
}

#[derive(Debug)]
struct State {
    window_start: Instant,
    window_count: u64,
    total_count: u64,
    samples: Vec<f64>,
    started: Option<Instant>,
    finished: Option<Instant>,
}

impl ThroughputRecorder {
    /// Creates a recorder using the paper's 100 ms sampling window.
    pub fn new() -> Self {
        ThroughputRecorder::with_window(Duration::from_millis(100))
    }

    /// Creates a recorder with a custom sampling window.
    fn with_window(window: Duration) -> Self {
        let now = Instant::now();
        ThroughputRecorder {
            window,
            inner: Mutex::new(State {
                window_start: now,
                window_count: 0,
                total_count: 0,
                samples: Vec::new(),
                started: None,
                finished: None,
            }),
        }
    }

    /// Records `n` completed events at the current instant.
    pub fn record(&self, n: u64) {
        let now = Instant::now();
        let mut state = self.inner.lock();
        if state.started.is_none() {
            state.started = Some(now);
            state.window_start = now;
        }
        state.finished = Some(now);
        state.total_count += n;
        state.window_count += n;

        // Close as many full windows as have elapsed. The first closed window
        // carries the events counted since the last close; fully idle windows in a
        // long gap are skipped rather than recorded as zero samples, because the
        // paper's measurement runs while the system is saturated and a zero window
        // would only reflect measurement scheduling, not system throughput.
        let mut first_window = true;
        while now.duration_since(state.window_start) >= self.window {
            let rate = state.window_count as f64 / self.window.as_secs_f64();
            if first_window || rate > 0.0 {
                state.samples.push(rate);
            }
            first_window = false;
            state.window_count = 0;
            state.window_start += self.window;
        }
    }

    /// Total number of events recorded.
    pub fn total(&self) -> u64 {
        self.inner.lock().total_count
    }

    /// Median of the per-window rates in events per second (Figure 5's metric).
    ///
    /// Falls back to the overall average rate when fewer than two windows have
    /// closed (short benchmark runs).
    pub fn median_rate(&self) -> Option<f64> {
        let state = self.inner.lock();
        if state.samples.len() >= 2 {
            let mut sorted = state.samples.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
            let mid = sorted.len() / 2;
            let median = if sorted.len().is_multiple_of(2) {
                (sorted[mid - 1] + sorted[mid]) / 2.0
            } else {
                sorted[mid]
            };
            return Some(median);
        }
        drop(state);
        self.overall_rate()
    }

    /// Overall events/second across the whole run.
    fn overall_rate(&self) -> Option<f64> {
        let state = self.inner.lock();
        let (start, end) = (state.started?, state.finished?);
        let elapsed = end.duration_since(start).as_secs_f64();
        if elapsed <= 0.0 {
            // All events arrived within one clock tick; report based on window size
            // to avoid dividing by zero.
            return Some(state.total_count as f64 / self.window.as_secs_f64());
        }
        Some(state.total_count as f64 / elapsed)
    }

    /// Returns a copy of the raw per-window samples.
    pub fn samples(&self) -> Vec<f64> {
        self.inner.lock().samples.clone()
    }

    /// Clears all recorded state.
    pub fn reset(&self) {
        let mut state = self.inner.lock();
        state.window_start = Instant::now();
        state.window_count = 0;
        state.total_count = 0;
        state.samples.clear();
        state.started = None;
        state.finished = None;
    }
}

impl Default for ThroughputRecorder {
    fn default() -> Self {
        ThroughputRecorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_has_no_rate() {
        let r = ThroughputRecorder::new();
        assert_eq!(r.total(), 0);
        assert_eq!(r.overall_rate(), None);
        assert_eq!(r.median_rate(), None);
    }

    #[test]
    fn counts_accumulate() {
        let r = ThroughputRecorder::new();
        r.record(10);
        r.record(1);
        assert_eq!(r.total(), 11);
    }

    #[test]
    fn windows_close_with_a_tiny_window() {
        let r = ThroughputRecorder::with_window(Duration::from_millis(1));
        for _ in 0..5 {
            r.record(100);
            std::thread::sleep(Duration::from_millis(2));
        }
        r.record(100);
        assert!(!r.samples().is_empty(), "at least one window closed");
        // Every closed window saw events, so the median per-window rate is positive.
        assert!(r.median_rate().unwrap() > 0.0);
        assert_eq!(r.total(), 600);
    }

    #[test]
    fn overall_rate_reflects_elapsed_time() {
        let r = ThroughputRecorder::with_window(Duration::from_millis(1));
        r.record(1000);
        std::thread::sleep(Duration::from_millis(10));
        r.record(1000);
        let rate = r.overall_rate().unwrap();
        // 2000 events over >= 10 ms -> at most 200k/s and clearly positive.
        assert!(rate > 0.0 && rate <= 2_000_000.0, "rate {rate}");
    }

    #[test]
    fn reset_clears_state() {
        let r = ThroughputRecorder::new();
        r.record(5);
        r.reset();
        assert_eq!(r.total(), 0);
        assert!(r.samples().is_empty());
    }

    #[test]
    fn median_is_robust_to_an_outlier_window() {
        let r = ThroughputRecorder::with_window(Duration::from_millis(1));
        // Generate several busy windows and one idle gap.
        for _ in 0..5 {
            r.record(500);
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(10));
        r.record(1);
        let median = r.median_rate().unwrap();
        let samples = r.samples();
        assert!(samples.len() >= 3);
        assert!(median >= 0.0);
    }
}
