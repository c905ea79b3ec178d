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
//!
//! Under [`FsyncPolicy::EveryBatch`] the writer keeps real zeros ahead of its
//! append cursor, laid down in 1 MiB steps, so the `fdatasync` after
//! an append flushes data pages only instead of also committing a new file
//! size through the filesystem journal; the size changes once per step. The
//! price is that the device writes each log byte twice (zeros, then the
//! frame), and the append that lays down a step waits for that step's
//! 1 MiB of zeros to reach the disk in its own sync. A writer trims its zeros
//! when it rotates or is dropped, so a cleanly closed segment is exactly its
//! frames; after a crash the final segment keeps up to one step of zeros,
//! which a scan reads as a clean end. The other policies write no zeros:
//! `Never` never syncs and `IntervalMs` syncs once per interval, so neither
//! pays a size commit per batch.
//!
//! An I/O error in an append (its write, zero-fill, rotation or sync)
//! poisons the writer, which refuses every later append. After a failed
//! `fdatasync` the OS may already have dropped the pages it left dirty, and
//! a later sync can then succeed over the hole (PostgreSQL's "fsyncgate");
//! an append acknowledged after that would claim a log that is not on disk.

use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bytes::{BufMut, BytesMut};
use defcon_defc::Label;
use defcon_events::codec::{decode_wal_record, encode_wal_batch_into, WalRecord};
use defcon_events::Event;

use crate::frame;

const SEGMENT_MAGIC: &[u8; 8] = b"DEFCWAL2";

/// How far past its last frame an `EveryBatch` writer zero-fills a segment at
/// a time (capped at the rotation threshold plus the frame being written).
const ZERO_STEP: u64 = 1024 * 1024;

/// The block the zeros are written from: static, so zero-filling allocates
/// nothing.
static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];

/// When, relative to the batched append path, the log file is flushed to disk.
///
/// This is the durability/throughput dial: `Never` leaves flushing to the OS
/// (fast, loses the page-cache tail on power failure), `EveryBatch` makes each
/// acknowledged publish durable (one `fdatasync` per batch — the cost the
/// batched path amortises over the batch), `IntervalMs` bounds the loss window
/// by time while appends continue: it syncs inside an append that finds the
/// interval elapsed, so batches appended just before a quiet period stay
/// unsynced until the next append, the OS's write-back, or the writer's clean
/// close (dropping a writer syncs under both syncing policies).
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
    /// End of the last frame in the current segment.
    segment_len: u64,
    /// How far the current segment is written (frames, then zeros); equals
    /// `segment_len` unless the policy is `FsyncPolicy::EveryBatch`.
    zeroed_to: u64,
    last_sync: Instant,
    /// The frame being appended, reused across appends: header, then payload.
    frame: BytesMut,
    /// The I/O error that poisoned the writer, if one did.
    poisoned: Option<String>,
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
        let (file, segment_len) = Self::new_segment(&config, next_index)?;
        Ok(WalWriter {
            config,
            file,
            segment_index: next_index,
            segment_len,
            zeroed_to: segment_len,
            last_sync: Instant::now(),
            frame: BytesMut::new(),
            poisoned: None,
        })
    }

    /// Creates segment `index`. Under the syncing policies the directory is
    /// synced after the create, so a batch whose `fdatasync` acknowledged
    /// it cannot lose its segment's directory entry to a power loss.
    fn new_segment(config: &WalConfig, index: u64) -> io::Result<(File, u64)> {
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(segment_path(&config.dir, index))?;
        let len = frame::write_magic(&mut file, SEGMENT_MAGIC)?;
        if config.fsync != FsyncPolicy::Never {
            File::open(&config.dir)?.sync_all()?;
        }
        Ok((file, len))
    }

    /// Appends one publish batch as a single frame, rotating and flushing
    /// according to the configuration. Returns only after the bytes are handed
    /// to the OS (and, under `EveryBatch`, after they are on disk) — the
    /// write-ahead contract the engine relies on before enqueueing. The
    /// borrowed batch is encoded straight into the writer's reused frame
    /// buffer and written with one positional write. A batch whose payload
    /// exceeds [`frame::MAX_FRAME_BYTES`] fails with `InvalidInput` before
    /// any byte is written. Any other error poisons the writer: this append
    /// and every later one fail, and the failed batch's frame may already be
    /// in the file.
    pub fn append(
        &mut self,
        publisher_unit: u64,
        output_label: &Label,
        arrival_ns: u64,
        events: &[Event],
    ) -> io::Result<()> {
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        frame.put_slice(&[0; frame::FRAME_HEADER_BYTES]);
        encode_wal_batch_into(&mut frame, publisher_unit, output_label, arrival_ns, events);
        let appended = self.append_frame(&mut frame);
        self.frame = frame;
        appended
    }

    /// Seals `frame` (header, then payload) and writes it, poisoning the
    /// writer on any error past the size check.
    fn append_frame(&mut self, frame: &mut [u8]) -> io::Result<()> {
        if let Some(cause) = &self.poisoned {
            return Err(io::Error::other(format!(
                "the log refuses appends after an earlier I/O error: {cause}"
            )));
        }
        frame::seal_frame(frame)?;
        let written = self.write_frame(frame);
        if let Err(err) = &written {
            self.poisoned = Some(err.to_string());
        }
        written
    }

    fn write_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.segment_len >= self.config.segment_bytes {
            self.rotate()?;
        }
        let end = self.segment_len + frame.len() as u64;
        if end > self.zeroed_to && self.config.fsync == FsyncPolicy::EveryBatch {
            self.zero_ahead(end)?;
        }
        self.file.write_all_at(frame, self.segment_len)?;
        self.segment_len = end;
        self.zeroed_to = self.zeroed_to.max(end);
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

    /// Writes zeros from `end` (the end of the frame about to be written) to
    /// the next [`ZERO_STEP`] boundary, but never past the rotation threshold
    /// plus that frame: a segment rotates before it grows further, so zeros
    /// beyond it would only be trimmed again.
    fn zero_ahead(&mut self, end: u64) -> io::Result<()> {
        let frame_len = end - self.segment_len;
        let cap = self.config.segment_bytes.max(self.segment_len) + frame_len;
        let target = end.next_multiple_of(ZERO_STEP).min(cap);
        let mut at = self.zeroed_to.max(end);
        while at < target {
            let len = (target - at).min(ZEROS.len() as u64);
            self.file.write_all_at(&ZEROS[..len as usize], at)?;
            at += len;
        }
        self.zeroed_to = target;
        Ok(())
    }

    /// Cuts the zeros past the last frame, so the segment is exactly its
    /// frames.
    fn trim(&mut self) -> io::Result<()> {
        if self.zeroed_to > self.segment_len {
            self.file.set_len(self.segment_len)?;
            self.zeroed_to = self.segment_len;
        }
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        // Make the finished segment durable before moving on, regardless of
        // policy: a rotation is a natural (and rare) durability point.
        self.trim()?;
        self.file.sync_data()?;
        self.segment_index += 1;
        let (file, len) = Self::new_segment(&self.config, self.segment_index)?;
        self.file = file;
        self.segment_len = len;
        self.zeroed_to = len;
        Ok(())
    }

    /// Forces the current segment to disk. A failure poisons the writer.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Err(err) = self.file.sync_data() {
            self.poisoned = Some(err.to_string());
            return Err(err);
        }
        self.last_sync = Instant::now();
        Ok(())
    }
}

impl Drop for WalWriter {
    /// A clean close: trims the zeros and, under a syncing policy, makes the
    /// segment durable, so `IntervalMs` loses nothing appended before it.
    fn drop(&mut self) {
        // Errors cannot be returned from `drop`; a failed trim leaves zeros
        // that recovery reads as a clean end, a failed sync what a crash would.
        let _ = self.trim();
        if self.config.fsync != FsyncPolicy::Never {
            let _ = self.file.sync_data();
        }
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
/// Zeros after the last intact frame are a clean end in any segment: a writer
/// that crashed (or was leaked) left the zeros it laid ahead of its frames,
/// and they are neither truncated nor reported as a tear.
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

    fn append(writer: &mut WalWriter, unit: u64, seqs: &[i64]) {
        let events: Vec<Event> = seqs.iter().map(|s| event(*s)).collect();
        writer.append(unit, &Label::public(), 42, &events).unwrap();
    }

    #[test]
    fn append_then_recover_round_trips_batches() {
        let dir = temp_dir("roundtrip");
        let mut writer = WalWriter::open(WalConfig::new(&dir)).unwrap();
        append(&mut writer, 1, &[1, 2, 3]);
        append(&mut writer, 2, &[4]);
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
    fn an_oversize_frame_is_refused_without_poisoning_the_writer() {
        let dir = temp_dir("oversize");
        let mut writer = WalWriter::open(WalConfig::new(&dir)).unwrap();
        // Allocated zeroed and never written, so it costs no resident memory.
        let mut oversize = vec![0; frame::FRAME_HEADER_BYTES + frame::MAX_FRAME_BYTES as usize + 1];
        let err = writer.append_frame(&mut oversize).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        drop(oversize);
        append(&mut writer, 1, &[1, 2]);
        drop(writer);
        assert_eq!(recover(&dir).unwrap().event_count(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_splits_segments_and_recovery_reads_all() {
        let dir = temp_dir("rotate");
        let config = WalConfig::new(&dir)
            .fsync(FsyncPolicy::Never)
            .segment_bytes(64); // force rotation on nearly every batch
        let mut writer = WalWriter::open(config).unwrap();
        for seq in 0..10 {
            append(&mut writer, 1, &[seq]);
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
        append(&mut writer, 1, &[1]);
        drop(writer);
        let mut writer = WalWriter::open(WalConfig::new(&dir)).unwrap();
        append(&mut writer, 1, &[2]);
        drop(writer);

        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        let scan = recover(&dir).unwrap();
        assert_eq!(scan.records.len(), 2);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = temp_dir("torn");
        let mut writer = WalWriter::open(WalConfig::new(&dir).fsync(FsyncPolicy::Never)).unwrap();
        append(&mut writer, 1, &[1]);
        append(&mut writer, 1, &[2]);
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
        append(&mut writer, 1, &[3]);
        drop(writer);
        assert_eq!(recover(&dir).unwrap().records.len(), 2);
    }

    fn segment_scan(path: &Path) -> frame::FileScan {
        frame::scan_file(path, SEGMENT_MAGIC).unwrap()
    }

    #[test]
    fn every_batch_writers_zero_ahead_and_trim_on_close() {
        let dir = temp_dir("zero-ahead");
        let mut writer = WalWriter::open(WalConfig::new(&dir)).unwrap();
        append(&mut writer, 1, &[1, 2]);
        append(&mut writer, 1, &[3]);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let open = segment_scan(&path);
        assert_eq!(open.payloads.len(), 2);
        assert_eq!(open.file_len, ZERO_STEP, "one step of zeros");
        assert!(open.clean_end);
        drop(writer);
        let closed = segment_scan(&path);
        assert_eq!(closed.file_len, open.valid_len, "trimmed");
    }

    #[test]
    fn never_and_interval_writers_write_no_zeros() {
        for policy in [FsyncPolicy::Never, FsyncPolicy::IntervalMs(0)] {
            let dir = temp_dir("no-zeros");
            let mut writer = WalWriter::open(WalConfig::new(&dir).fsync(policy)).unwrap();
            for seq in 0..3 {
                append(&mut writer, 1, &[seq]);
                let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
                let scan = segment_scan(&path);
                assert_eq!(scan.payloads.len(), seq as usize + 1, "{policy:?}");
                assert_eq!(scan.file_len, scan.valid_len, "{policy:?}: only frames");
            }
        }
    }

    #[test]
    fn zeros_stop_at_the_rotation_threshold_plus_the_frame() {
        let dir = temp_dir("zero-cap");
        let config = WalConfig::new(&dir).segment_bytes(64);
        let mut writer = WalWriter::open(config).unwrap();
        append(&mut writer, 1, &[1]);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let scan = segment_scan(&path);
        let frame_len = scan.valid_len - SEGMENT_MAGIC.len() as u64;
        assert_eq!(scan.file_len, 64 + frame_len);
        drop(writer);
    }

    #[test]
    fn leaked_writers_leave_zero_tails_that_recover_cleanly() {
        let dir = temp_dir("leaked");
        let mut first = WalWriter::open(WalConfig::new(&dir)).unwrap();
        append(&mut first, 1, &[1]);
        append(&mut first, 1, &[2]);
        std::mem::forget(first);
        let scan = recover(&dir).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(!scan.torn_tail_truncated, "a zero tail is not a tear");

        // Once a later writer has started, the zero tail is in a non-final
        // segment; it is still a clean end.
        let mut second = WalWriter::open(WalConfig::new(&dir)).unwrap();
        append(&mut second, 2, &[3]);
        drop(second);
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 2);
        assert!(
            fs::metadata(&segments[0].1).unwrap().len() > segment_scan(&segments[0].1).valid_len
        );
        let scan = recover(&dir).unwrap();
        assert!(!scan.torn_tail_truncated);
        let units: Vec<u64> = scan.records.iter().map(|r| r.publisher_unit).collect();
        assert_eq!(units, [1, 1, 2]);

        // A non-zero byte in that tail is corruption, not a clean end.
        let mut bytes = fs::read(&segments[0].1).unwrap();
        let last = bytes.len() - 1;
        bytes[last] = 0x5A;
        fs::write(&segments[0].1, &bytes).unwrap();
        let err = recover(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_first_format_segment_is_refused() {
        let dir = temp_dir("old-format");
        fs::create_dir_all(&dir).unwrap();
        let mut file = File::create(segment_path(&dir, 0)).unwrap();
        frame::write_magic(&mut file, b"DEFCWAL1").unwrap();
        drop(file);
        let err = recover(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad magic"), "{err}");
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
            .append(9, &Label::public(), 1, std::slice::from_ref(&original))
            .unwrap();
        drop(writer);

        let scan = recover(&dir).unwrap();
        assert_eq!(scan.records[0].events[0].id(), original.id());
        // Fresh events minted after recovery never collide with recovered ids.
        assert!(event(0).id().as_u64() > original.id().as_u64());
    }
}
