//! The segmented write-ahead event log.
//!
//! One frame per externally published batch, mirroring the engine's
//! one-transaction-per-chunk `publish_batch` discipline: the payload is a
//! [`WalRecord`] — publisher unit, output
//! label, batch arrival timestamp and the batch's events with their identities.
//! Cascade publications (events a unit emits while processing) are *not*
//! logged: dispatch regenerates them deterministically when the log is
//! replayed, so logging them would double-deliver.
//!
//! The log is a directory of `wal-NNNNNNNN.seg` files. A writer always starts
//! a fresh segment (it never appends to a file that may have a torn tail) and
//! rotates when the current segment exceeds the configured size. Recovery
//! scans segments in order, truncates a torn tail at the last valid frame and
//! returns the surviving records.

use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use defcon_events::codec::{decode_wal_record, encode_wal_record, WalRecord};

use crate::frame;

const SEGMENT_MAGIC: &[u8; 8] = b"DEFCWAL1";

/// When, relative to the batched append path, the log file is flushed to disk.
///
/// This is the durability/throughput dial: `Never` leaves flushing to the OS
/// (fast, loses the page-cache tail on power failure), `EveryBatch` makes each
/// acknowledged publish durable (one `fdatasync` per batch — the cost the
/// batched path amortises over the batch), `IntervalMs` bounds the loss window
/// by time instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync; rely on the OS to write back dirty pages.
    Never,
    /// Fsync once per appended batch, before the publish is acknowledged.
    EveryBatch,
    /// Fsync at most once per interval, piggybacked on appends.
    IntervalMs(u64),
}

/// Configuration for the write-ahead log, handed to `EngineBuilder::wal`.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the log segments (created if absent).
    pub dir: PathBuf,
    /// Flush policy; defaults to [`FsyncPolicy::EveryBatch`].
    pub fsync: FsyncPolicy,
    /// Segment rotation threshold in bytes; defaults to 64 MiB.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// A log in `dir` with `EveryBatch` fsync and 64 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryBatch,
            segment_bytes: 64 * 1024 * 1024,
        }
    }

    /// Sets the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Sets the segment rotation threshold.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(1);
        self
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:08}.seg"))
}

/// Lists existing segment files in `dir`, sorted by index.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(index) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".seg"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        segments.push((index, entry.path()));
    }
    segments.sort_unstable_by_key(|(index, _)| *index);
    Ok(segments)
}

/// The appender side of the log, held by the engine behind a mutex and driven
/// from the publish path.
#[derive(Debug)]
pub struct WalWriter {
    config: WalConfig,
    file: File,
    segment_index: u64,
    segment_len: u64,
    last_sync: Instant,
    records_appended: u64,
}

impl WalWriter {
    /// Opens the log for appending: creates the directory if needed and starts
    /// a fresh segment after any existing ones (never appends to a file whose
    /// tail might be torn).
    pub fn open(config: WalConfig) -> io::Result<Self> {
        fs::create_dir_all(&config.dir)?;
        let next_index = list_segments(&config.dir)?
            .last()
            .map(|(index, _)| index + 1)
            .unwrap_or(0);
        let (file, segment_len) = Self::new_segment(&config.dir, next_index)?;
        Ok(WalWriter {
            config,
            file,
            segment_index: next_index,
            segment_len,
            last_sync: Instant::now(),
            records_appended: 0,
        })
    }

    fn new_segment(dir: &Path, index: u64) -> io::Result<(File, u64)> {
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(segment_path(dir, index))?;
        let len = frame::write_magic(&mut file, SEGMENT_MAGIC)?;
        Ok((file, len))
    }

    /// Appends one publish batch as a single frame, rotating and flushing
    /// according to the configuration. Returns only after the bytes are handed
    /// to the OS (and, under `EveryBatch`, after they are on disk) — the
    /// write-ahead contract the engine relies on before enqueueing.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        if self.segment_len >= self.config.segment_bytes {
            self.rotate()?;
        }
        let payload = encode_wal_record(record);
        self.segment_len += frame::write_frame(&mut self.file, &payload)?;
        self.records_appended += 1;
        match self.config.fsync {
            FsyncPolicy::Never => {}
            FsyncPolicy::EveryBatch => self.sync()?,
            FsyncPolicy::IntervalMs(ms) => {
                if self.last_sync.elapsed() >= Duration::from_millis(ms) {
                    self.sync()?;
                }
            }
        }
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        // Make the finished segment durable before moving on, regardless of
        // policy: a rotation is a natural (and rare) durability point.
        self.file.sync_data()?;
        self.segment_index += 1;
        let (file, len) = Self::new_segment(&self.config.dir, self.segment_index)?;
        self.file = file;
        self.segment_len = len;
        Ok(())
    }

    /// Forces the current segment to disk.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Number of batches appended through this writer.
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }
}

/// What a recovery scan found (and repaired) in a log directory.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Surviving records in append order, event identities preserved.
    pub records: Vec<WalRecord>,
    /// Number of segment files scanned.
    pub segments: u64,
    /// Whether a torn tail was found and truncated away.
    pub torn_tail_truncated: bool,
    /// Bytes removed by the truncation.
    pub truncated_bytes: u64,
}

impl WalScan {
    /// Total events across all surviving records.
    pub fn event_count(&self) -> u64 {
        self.records.iter().map(|r| r.events.len() as u64).sum()
    }
}

/// Scans a log directory, truncates a torn tail in the final segment at the
/// last valid frame, and returns the surviving records in append order.
///
/// Appends are strictly sequential across segments, so only the final segment
/// can legitimately end mid-frame; a CRC-valid frame that fails to decode, or
/// a broken frame in a non-final segment, indicates corruption beyond a torn
/// write and reports `InvalidData` instead of silently dropping records.
pub fn recover(dir: &Path) -> io::Result<WalScan> {
    if !dir.exists() {
        return Ok(WalScan::default());
    }
    let segments = list_segments(dir)?;
    let mut scan = WalScan {
        segments: segments.len() as u64,
        ..WalScan::default()
    };
    let last = segments.len().saturating_sub(1);
    for (position, (_, path)) in segments.iter().enumerate() {
        let file_scan = frame::scan_file(path, SEGMENT_MAGIC)?;
        if file_scan.torn() {
            if position != last {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: broken frame in non-final segment — corruption beyond a torn tail",
                        path.display()
                    ),
                ));
            }
            scan.torn_tail_truncated = true;
            scan.truncated_bytes = file_scan.file_len - file_scan.valid_len;
            OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(file_scan.valid_len)?;
        }
        for payload in &file_scan.payloads {
            let record = decode_wal_record(payload).map_err(|err| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: undecodable wal record: {err}", path.display()),
                )
            })?;
            scan.records.push(record);
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_defc::Label;
    use defcon_events::{Event, EventBuilder, Value};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("defcon-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn event(seq: i64) -> Event {
        EventBuilder::new()
            .part("type", Label::public(), Value::str("tick"))
            .part("seq", Label::public(), Value::Int(seq))
            .build()
            .unwrap()
    }

    fn record(unit: u64, seqs: &[i64]) -> WalRecord {
        WalRecord {
            publisher_unit: unit,
            output_label: Label::public(),
            arrival_ns: 42,
            events: seqs.iter().map(|s| event(*s)).collect(),
        }
    }

    #[test]
    fn append_then_recover_round_trips_batches() {
        let dir = temp_dir("roundtrip");
        let mut writer = WalWriter::open(WalConfig::new(&dir)).unwrap();
        writer.append(&record(1, &[1, 2, 3])).unwrap();
        writer.append(&record(2, &[4])).unwrap();
        assert_eq!(writer.records_appended(), 2);
        drop(writer);

        let scan = recover(&dir).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.event_count(), 4);
        assert!(!scan.torn_tail_truncated);
        assert_eq!(scan.records[0].publisher_unit, 1);
        assert_eq!(scan.records[0].events.len(), 3);
        assert_eq!(scan.records[1].publisher_unit, 2);
    }

    #[test]
    fn rotation_splits_segments_and_recovery_reads_all() {
        let dir = temp_dir("rotate");
        let config = WalConfig::new(&dir)
            .fsync(FsyncPolicy::Never)
            .segment_bytes(64); // force rotation on nearly every batch
        let mut writer = WalWriter::open(config).unwrap();
        for seq in 0..10 {
            writer.append(&record(1, &[seq])).unwrap();
        }
        drop(writer);

        assert!(list_segments(&dir).unwrap().len() > 1, "rotation happened");
        let scan = recover(&dir).unwrap();
        assert_eq!(scan.records.len(), 10);
        for (i, rec) in scan.records.iter().enumerate() {
            let part = rec.events[0].first_part("seq").unwrap();
            assert!(part.data().structurally_equals(&Value::Int(i as i64)));
        }
    }

    #[test]
    fn reopen_starts_a_fresh_segment_and_keeps_history() {
        let dir = temp_dir("reopen");
        let mut writer = WalWriter::open(WalConfig::new(&dir)).unwrap();
        writer.append(&record(1, &[1])).unwrap();
        drop(writer);
        let mut writer = WalWriter::open(WalConfig::new(&dir)).unwrap();
        writer.append(&record(1, &[2])).unwrap();
        drop(writer);

        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        let scan = recover(&dir).unwrap();
        assert_eq!(scan.records.len(), 2);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = temp_dir("torn");
        let mut writer = WalWriter::open(WalConfig::new(&dir).fsync(FsyncPolicy::Never)).unwrap();
        writer.append(&record(1, &[1])).unwrap();
        writer.append(&record(1, &[2])).unwrap();
        drop(writer);

        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let scan = recover(&dir).unwrap();
        assert_eq!(scan.records.len(), 1, "only the intact prefix survives");
        assert!(scan.torn_tail_truncated);
        assert!(scan.truncated_bytes > 0);

        // After truncation the log is clean: a second recovery sees no tear,
        // and a reopened writer can append past it.
        let scan = recover(&dir).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(!scan.torn_tail_truncated);
        let mut writer = WalWriter::open(WalConfig::new(&dir)).unwrap();
        writer.append(&record(1, &[3])).unwrap();
        drop(writer);
        assert_eq!(recover(&dir).unwrap().records.len(), 2);
    }

    #[test]
    fn missing_directory_recovers_empty() {
        let dir = temp_dir("missing");
        let scan = recover(&dir).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.segments, 0);
    }

    #[test]
    fn recovered_events_keep_their_identity() {
        let dir = temp_dir("identity");
        let original = event(7);
        let mut writer = WalWriter::open(WalConfig::new(&dir)).unwrap();
        writer
            .append(&WalRecord {
                publisher_unit: 9,
                output_label: Label::public(),
                arrival_ns: 1,
                events: vec![original.clone()],
            })
            .unwrap();
        drop(writer);

        let scan = recover(&dir).unwrap();
        assert_eq!(scan.records[0].events[0].id(), original.id());
        // Fresh events minted after recovery never collide with recovered ids.
        assert!(event(0).id().as_u64() > original.id().as_u64());
    }
}
