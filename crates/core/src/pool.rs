//! The elastic dispatcher worker pool.
//!
//! The pool size is a *band*: [`Engine::start`](crate::Engine::start) spawns
//! `workers_max` threads, but only `workers_min` of them begin active — the
//! rest park on a pool condvar until observed queue depth says they are needed.
//! The design follows the SEDA stage-controller argument (and the run queue's
//! whole-run sibling steals make it safe: an active worker drains any shard):
//! the right worker count is a function of *observed* load, not of build-time
//! configuration.
//!
//! Mechanics:
//!
//! * **Scale-up** is driven by producers. Every enqueue samples the queue depth
//!   (an existing atomic, no extra locking); once `scale_up_observations`
//!   consecutive samples sit at or above `scale_up_depth`, the activation
//!   target rises by one and a parked worker is woken (counted as
//!   `queue_stats().sched_wakes`). The consecutive-sample requirement is the
//!   up-side hysteresis: a single deep burst does not immediately recruit the
//!   whole band.
//! * **Park-down** is driven by the workers themselves. An active worker above
//!   `workers_min` waits for work with a bounded `idle_grace` instead of the
//!   untimed base-worker wait; when the grace expires with the queue still
//!   empty *and* the worker is the highest-indexed active one, it lowers the
//!   target by one and parks on the pool condvar. Workers therefore activate
//!   and park in LIFO index order, and a bursty open/close arrival whose pauses
//!   are shorter than the grace never thrashes the pool — the workers simply
//!   ride out the gap in their timed wait.
//! * **Shutdown** wakes every parked worker ([`WorkerPool::release_all`]);
//!   gated workers observe the stopping queue, fall into the normal drain loop
//!   and exit with the base workers, so `shutdown()` always joins every thread
//!   it ever spawned, whatever the pool's scale at that moment.
//!
//! A fixed pool (`workers_min == workers_max`, what [`EngineBuilder::workers`]
//! (crate::EngineBuilder::workers) configures) takes none of these paths: the
//! pool reports [`WorkerPool::is_elastic`] `false` and the dispatcher uses the
//! classic untimed worker loop.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::run_queue::RunQueue;

/// Consecutive deep-queue observations required before the pool scales up.
const SCALE_UP_OBSERVATIONS: usize = 2;

/// Activation state of an engine's dispatcher worker band.
pub(crate) struct WorkerPool {
    /// Lower edge of the band: workers `0..min` never park down.
    min: usize,
    /// Upper edge of the band: the number of threads `Engine::start` spawns.
    max: usize,
    /// Number of active workers: workers `0..target` are active and the rest
    /// park on `unpark`.
    target: AtomicUsize,
    /// Highest activation target ever reached — the run's observed worker
    /// count, recorded by benches alongside the configured band.
    high_water: AtomicUsize,
    /// Scale-up recruits performed (`queue_stats().sched_wakes`).
    wakes: AtomicU64,
    /// Consecutive deep-queue observations (reset by any shallow one).
    pressure: AtomicUsize,
    /// Queue depth at or above which an enqueue counts as a deep observation.
    scale_up_depth: usize,
    /// How long an above-min worker waits for work before parking down.
    idle_grace: Duration,
    /// Guards `unpark` (the counters themselves are atomics).
    lock: Mutex<()>,
    /// Signalled on scale-up and on shutdown.
    unpark: Condvar,
}

impl WorkerPool {
    pub(crate) fn new(min: usize, max: usize, scale_up_depth: usize, idle_grace: Duration) -> Self {
        let min = min.clamp(1, max.max(1));
        WorkerPool {
            min,
            max,
            target: AtomicUsize::new(min),
            high_water: AtomicUsize::new(min),
            wakes: AtomicU64::new(0),
            pressure: AtomicUsize::new(0),
            scale_up_depth: scale_up_depth.max(1),
            idle_grace,
            lock: Mutex::new(()),
            unpark: Condvar::new(),
        }
    }

    /// `true` when the band has any slack (`min < max`); a fixed pool never
    /// gates, parks or samples.
    pub(crate) fn is_elastic(&self) -> bool {
        self.min < self.max
    }

    pub(crate) fn min(&self) -> usize {
        self.min
    }

    pub(crate) fn max(&self) -> usize {
        self.max
    }

    /// The current activation target (workers `0..target` are active).
    pub(crate) fn active_target(&self) -> usize {
        self.target.load(Ordering::Acquire)
    }

    /// The highest activation target the run has reached.
    pub(crate) fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    pub(crate) fn idle_grace(&self) -> Duration {
        self.idle_grace
    }

    /// Scale-up recruits performed so far (`queue_stats().sched_wakes`).
    pub(crate) fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }

    /// Whether worker `index` is currently activated.
    fn is_active(&self, index: usize) -> bool {
        index < self.target.load(Ordering::Acquire)
    }

    /// Producer-side sampling hook: called with the post-enqueue queue depth.
    /// Counts consecutive deep observations and recruits the next parked
    /// worker in index order once the hysteresis threshold is met.
    pub(crate) fn observe_depth(&self, depth: usize) {
        if !self.is_elastic() || self.target.load(Ordering::Relaxed) >= self.max {
            return;
        }
        if depth < self.scale_up_depth {
            self.pressure.store(0, Ordering::Relaxed);
            return;
        }
        if self.pressure.fetch_add(1, Ordering::Relaxed) + 1 < SCALE_UP_OBSERVATIONS {
            return;
        }
        self.pressure.store(0, Ordering::Relaxed);
        let raised = self
            .target
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |target| {
                (target < self.max).then_some(target + 1)
            });
        if let Ok(previous) = raised {
            self.high_water.fetch_max(previous + 1, Ordering::Relaxed);
            self.wakes.fetch_add(1, Ordering::Relaxed);
            let _guard = self.lock.lock();
            self.unpark.notify_all();
        }
    }

    /// Parks the calling worker until it is activated or the queue starts
    /// stopping (shutdown drains with every worker awake).
    pub(crate) fn wait_active(&self, index: usize, queue: &RunQueue) {
        loop {
            if self.is_active(index) || queue.is_stopping() {
                return;
            }
            let mut guard = self.lock.lock();
            // Re-check under the lock: a scale-up or stop between the check
            // above and the wait below would otherwise be missed.
            if self.is_active(index) || queue.is_stopping() {
                return;
            }
            self.unpark.wait(&mut guard);
        }
    }

    /// The calling worker volunteering to park after an idle grace. Only the
    /// highest-indexed active worker can succeed (LIFO); a concurrent
    /// scale-up makes the CAS fail harmlessly.
    pub(crate) fn try_park_down(&self, index: usize) -> bool {
        index >= self.min
            && self
                .target
                .compare_exchange(index + 1, index, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
    }

    /// Wakes every parked worker (shutdown: they observe the stopping queue,
    /// help drain and exit).
    pub(crate) fn release_all(&self) {
        let _guard = self.lock.lock();
        self.unpark.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_pools_are_not_elastic() {
        let pool = WorkerPool::new(4, 4, 32, Duration::from_millis(2));
        assert!(!pool.is_elastic());
        assert_eq!(pool.active_target(), 4);
        assert_eq!(pool.high_water(), 4);
    }

    #[test]
    fn min_is_clamped_into_the_band() {
        let pool = WorkerPool::new(0, 3, 32, Duration::from_millis(2));
        assert_eq!(pool.min(), 1, "a live band always keeps one worker active");
        let pool = WorkerPool::new(9, 3, 32, Duration::from_millis(2));
        assert_eq!(pool.min(), 3, "min never exceeds max");
    }

    #[test]
    fn scale_up_needs_consecutive_deep_observations() {
        let pool = WorkerPool::new(1, 4, 10, Duration::from_millis(2));
        pool.observe_depth(50);
        assert_eq!(pool.active_target(), 1, "one deep sample is not enough");
        pool.observe_depth(3);
        pool.observe_depth(50);
        assert_eq!(
            pool.active_target(),
            1,
            "a shallow sample resets the pressure"
        );
        pool.observe_depth(50);
        assert_eq!(pool.active_target(), 2, "sustained depth scales up");
        assert_eq!(pool.high_water(), 2);
        assert_eq!(pool.wakes(), 1, "the recruit is counted");
    }

    #[test]
    fn target_never_exceeds_max_and_park_down_is_lifo() {
        let pool = WorkerPool::new(1, 3, 1, Duration::from_millis(2));
        for _ in 0..32 {
            pool.observe_depth(100);
        }
        assert_eq!(pool.active_target(), 3);
        assert_eq!(pool.high_water(), 3);
        assert_eq!(pool.wakes(), 2, "two recruits fill a 1..3 band");
        assert!(
            !pool.try_park_down(1),
            "only the highest active worker parks"
        );
        assert!(pool.try_park_down(2));
        assert!(pool.try_park_down(1));
        assert!(!pool.try_park_down(0), "workers below min never park down");
        assert_eq!(pool.active_target(), 1);
        assert_eq!(pool.high_water(), 3, "the high-water mark is sticky");
    }
}
