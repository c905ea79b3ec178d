//! Measurement infrastructure for the DEFCon reproduction.
//!
//! §6.2 of the paper quantifies event processing performance using:
//!
//! * **event throughput** — events processed per second, sampled every 100 ms and
//!   reported as the median of the samples (Figures 5 and 8);
//! * **event latency** — the delay between the originating tick and the derived
//!   trade, reported as the 70th percentile (Figures 6 and 9); and
//! * **memory consumption** — occupied heap memory (Figure 7).
//!
//! This crate provides exactly those three instruments plus the percentile
//! helper the benchmark harness summarises its samples with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod memory;
pub mod stats;
pub mod throughput;

pub use histogram::{LatencyHistogram, LatencySummary};
pub use memory::MemoryAccountant;
pub use throughput::ThroughputRecorder;
