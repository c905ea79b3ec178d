//! Memory accounting for the Figure 7 experiment.
//!
//! The paper measures "occupied memory" of the JVM heap for each configuration.
//! A Rust reproduction has no garbage-collected heap to sample, so we account for
//! the same object populations explicitly: per-unit state, engine bookkeeping
//! and the baseline's per-process duplication.
//! Accounting the identical populations reproduces the *comparison* the figure
//! makes between configurations, deterministically and without allocator noise.

use std::sync::atomic::{AtomicI64, Ordering};

use parking_lot::RwLock;

/// Categories of accounted memory, mirroring the contributors discussed in §6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryCategory {
    /// Per-unit application state (order books, pair statistics, ...).
    UnitState,
    /// Engine bookkeeping: subscriptions and labels.
    Engine,
    /// Serialisation buffers and per-process duplication in the baseline platform.
    Baseline,
}

const CATEGORIES: [MemoryCategory; 3] = [
    MemoryCategory::UnitState,
    MemoryCategory::Engine,
    MemoryCategory::Baseline,
];

/// Tracks live bytes per category.
///
/// All operations are lock-free on the hot path (atomic adds); the category list is
/// fixed. Negative balances are clamped at zero when read, so release-before-charge
/// races in tests cannot underflow.
#[derive(Debug, Default)]
pub struct MemoryAccountant {
    unit_state: AtomicI64,
    engine: AtomicI64,
    baseline: AtomicI64,
    peak: RwLock<i64>,
}

impl MemoryAccountant {
    /// Creates an accountant with all balances at zero.
    pub fn new() -> Self {
        MemoryAccountant::default()
    }

    fn cell(&self, category: MemoryCategory) -> &AtomicI64 {
        match category {
            MemoryCategory::UnitState => &self.unit_state,
            MemoryCategory::Engine => &self.engine,
            MemoryCategory::Baseline => &self.baseline,
        }
    }

    /// Records an allocation of `bytes` in `category`.
    pub fn charge(&self, category: MemoryCategory, bytes: usize) {
        self.cell(category)
            .fetch_add(bytes as i64, Ordering::Relaxed);
        let total = self.total_bytes() as i64;
        let mut peak = self.peak.write();
        if total > *peak {
            *peak = total;
        }
    }

    /// Records a release of `bytes` in `category`.
    pub fn release(&self, category: MemoryCategory, bytes: usize) {
        self.cell(category)
            .fetch_sub(bytes as i64, Ordering::Relaxed);
    }

    /// Returns the live bytes currently accounted in `category`.
    pub fn bytes(&self, category: MemoryCategory) -> usize {
        self.cell(category).load(Ordering::Relaxed).max(0) as usize
    }

    /// Returns total live bytes across all categories.
    pub fn total_bytes(&self) -> usize {
        CATEGORIES.iter().map(|&c| self.bytes(c)).sum()
    }

    /// Returns total live memory in MiB (Figure 7's unit).
    pub fn total_mib(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Returns the highest total observed since creation or the last reset, in MiB.
    pub fn peak_mib(&self) -> f64 {
        (*self.peak.read()).max(0) as f64 / (1024.0 * 1024.0)
    }

    /// Returns a `(category, bytes)` breakdown for reporting.
    pub fn breakdown(&self) -> Vec<(MemoryCategory, usize)> {
        CATEGORIES.iter().map(|&c| (c, self.bytes(c))).collect()
    }

    /// Resets all balances and the recorded peak.
    pub fn reset(&self) {
        for category in CATEGORIES {
            self.cell(category).store(0, Ordering::Relaxed);
        }
        *self.peak.write() = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_and_releases_balance() {
        let m = MemoryAccountant::new();
        m.charge(MemoryCategory::UnitState, 1024);
        m.charge(MemoryCategory::UnitState, 1024);
        m.release(MemoryCategory::UnitState, 1024);
        assert_eq!(m.bytes(MemoryCategory::UnitState), 1024);
        assert_eq!(m.total_bytes(), 1024);
    }

    #[test]
    fn categories_are_independent() {
        let m = MemoryAccountant::new();
        m.charge(MemoryCategory::UnitState, 10);
        m.charge(MemoryCategory::Baseline, 20);
        assert_eq!(m.bytes(MemoryCategory::UnitState), 10);
        assert_eq!(m.bytes(MemoryCategory::Baseline), 20);
        assert_eq!(m.bytes(MemoryCategory::Engine), 0);
        assert_eq!(m.total_bytes(), 30);
    }

    #[test]
    fn over_release_clamps_to_zero() {
        let m = MemoryAccountant::new();
        m.charge(MemoryCategory::UnitState, 5);
        m.release(MemoryCategory::UnitState, 50);
        assert_eq!(m.bytes(MemoryCategory::UnitState), 0);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let m = MemoryAccountant::new();
        m.charge(MemoryCategory::UnitState, 4 * 1024 * 1024);
        m.release(MemoryCategory::UnitState, 4 * 1024 * 1024);
        assert_eq!(m.total_bytes(), 0);
        assert!((m.peak_mib() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_and_mib_conversion() {
        let m = MemoryAccountant::new();
        m.charge(MemoryCategory::Baseline, 2 * 1024 * 1024);
        let breakdown = m.breakdown();
        assert_eq!(breakdown.len(), 3);
        assert!(breakdown.contains(&(MemoryCategory::Baseline, 2 * 1024 * 1024)));
        assert!((m.total_mib() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_peak_and_balances() {
        let m = MemoryAccountant::new();
        m.charge(MemoryCategory::Engine, 100);
        m.reset();
        assert_eq!(m.total_bytes(), 0);
        assert_eq!(m.peak_mib(), 0.0);
    }

    #[test]
    fn concurrent_charging_is_consistent() {
        use std::sync::Arc;
        let m = Arc::new(MemoryAccountant::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.charge(MemoryCategory::UnitState, 8);
                        m.release(MemoryCategory::UnitState, 8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.bytes(MemoryCategory::UnitState), 0);
    }
}
