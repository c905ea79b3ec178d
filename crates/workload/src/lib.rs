//! Synthetic financial workload generation.
//!
//! §6.2 of the paper evaluates DEFCon "with a synthetic workload of stock tick
//! events that was derived from traces of trades made on the London Stock Exchange",
//! with two controlled properties:
//!
//! 1. tick prices are selected so that they trigger the pairs-trading algorithm for
//!    each monitored pair once every 10 ticks, and
//! 2. the symbol pair monitored by each trader is chosen according to a Zipf
//!    distribution (a few well-known correlated pairs attract most traders).
//!
//! This crate generates exactly that workload deterministically from a seed: a
//! universe of [`Symbol`]s, a [`TickGenerator`] producing a random-walk price series
//! with periodic excursions that trigger the pairs trade, a [`ZipfSampler`] for
//! pair popularity, and plain [`Order`]/[`Trade`] records shared with the baseline
//! platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod orders;
pub mod symbols;
pub mod ticks;
pub mod zipf;

pub use orders::{Order, OrderSide, Trade};
pub use symbols::{Symbol, SymbolPair, SymbolUniverse};
pub use ticks::{Tick, TickGenerator, TickGeneratorConfig};
pub use zipf::ZipfSampler;

/// Assigns a monitored symbol pair to each of `traders` traders, Zipf-distributed
/// over the pairs of `universe` (§6.2: "Each Trader monitors a single symbol pair
/// that was chosen according to a Zipf distribution").
pub fn assign_pairs(
    universe: &SymbolUniverse,
    traders: usize,
    exponent: f64,
    seed: u64,
) -> Vec<SymbolPair> {
    let pairs = universe.pairs();
    if pairs.is_empty() {
        return Vec::new();
    }
    let mut sampler = ZipfSampler::new(pairs.len(), exponent, seed);
    (0..traders)
        .map(|_| pairs[sampler.sample()].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_pairs_is_deterministic_and_zipf_skewed() {
        let universe = SymbolUniverse::standard(20);
        let a = assign_pairs(&universe, 1000, 1.0, 42);
        let b = assign_pairs(&universe, 1000, 1.0, 42);
        assert_eq!(a, b, "same seed, same assignment");
        assert_eq!(a.len(), 1000);

        // The most popular pair should attract far more traders than the average.
        let mut counts = std::collections::HashMap::new();
        for pair in &a {
            *counts.entry(pair.clone()).or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        let avg = 1000 / universe.pairs().len().max(1);
        assert!(max > 2 * avg, "Zipf skew expected: max {max}, avg {avg}");
    }

    #[test]
    fn assign_pairs_empty_universe() {
        let universe = SymbolUniverse::standard(1); // one symbol -> no pairs
        assert!(assign_pairs(&universe, 10, 1.0, 1).is_empty());
    }
}
