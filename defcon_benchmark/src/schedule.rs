//! Seeded input generation: the benchmark's random source and the open-loop
//! arrival schedule.

/// SplitMix64: small, fast, and the same stream for the same seed on every
/// host — the only source of randomness the generator uses.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in the half-open interval (0, 1].
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Poisson arrivals at a fixed rate: exponential gaps, so bursts and lulls
/// occur as they would from independent senders. The schedule depends on the
/// seed and the rate only — never on how fast the system under test answers.
#[derive(Debug, Clone)]
pub struct PoissonSchedule {
    rng: Rng,
    mean_gap_ns: f64,
    next_due_ns: f64,
}

impl PoissonSchedule {
    pub fn new(seed: u64, rate_per_s: f64) -> Self {
        PoissonSchedule {
            rng: Rng::new(seed),
            mean_gap_ns: 1e9 / rate_per_s,
            next_due_ns: 0.0,
        }
    }

    /// Offset from the start of the run, in nanoseconds, at which the next
    /// arrival is due.
    pub fn next_due(&mut self) -> u64 {
        self.next_due_ns += -self.rng.next_unit().ln() * self.mean_gap_ns;
        self.next_due_ns as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let offsets = |seed| {
            let mut schedule = PoissonSchedule::new(seed, 10_000.0);
            (0..1_000).map(|_| schedule.next_due()).collect::<Vec<_>>()
        };
        assert_eq!(offsets(7), offsets(7));
        assert_ne!(offsets(7), offsets(8));
    }

    #[test]
    fn poisson_gaps_are_monotone_with_the_requested_mean() {
        let mut schedule = PoissonSchedule::new(42, 10_000.0);
        let mut previous = 0;
        let mut last = 0;
        for _ in 0..100_000 {
            last = schedule.next_due();
            assert!(last >= previous);
            previous = last;
        }
        let mean_gap_ns = last as f64 / 100_000.0;
        assert!((mean_gap_ns - 100_000.0).abs() < 2_000.0, "{mean_gap_ns}");
    }

    #[test]
    fn rng_draws_stay_in_range() {
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            let unit = rng.next_unit();
            assert!(unit > 0.0 && unit <= 1.0);
            assert!(rng.below(20) < 20);
        }
    }
}
