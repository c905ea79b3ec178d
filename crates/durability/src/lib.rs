//! Durability spine for the DEFCon engine: a write-ahead event log.
//!
//! The DEFCon paper's engine processes events entirely in memory; a production
//! deployment of its trading platform cannot lose accepted orders on a crash.
//! This crate makes the in-memory design recoverable without touching the
//! dispatch hot path's sharing semantics.
//!
//! [`wal`] is a segmented, CRC32-framed append-only log of externally
//! published batches. Appends piggyback on the engine's
//! one-transaction-per-chunk `publish_batch` path: one frame per batch, one
//! optional fsync per batch (policy [`FsyncPolicy`]). Under
//! [`FsyncPolicy::EveryBatch`] the writer keeps zeros ahead of its frames, so
//! a per-batch sync flushes data without a file-size change. Recovery scans the segments, reads a zero
//! tail as a clean end, truncates a torn tail at the last valid frame and
//! re-feeds the surviving records through normal dispatch.
//!
//! The on-disk format lives in [`frame`]: a little-endian `len: u32` +
//! `crc32: u32` header per payload, the checksum covering the length as well
//! as the payload, with a magic-prefixed file header (`DEFCWAL2`), so a
//! partially flushed tail is always detectable and an all-zero header is
//! never a frame.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod wal;

pub use wal::{recover, FsyncPolicy, WalConfig, WalScan, WalWriter};

// The record type lives in the events crate (the codec owns its wire format);
// re-exported here so durability users see one coherent API.
pub use defcon_events::codec::WalRecord;
