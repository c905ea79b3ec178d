//! Torn-write properties: truncating a log segment at *every* byte offset, or
//! zeroing it from every offset on, must leave recovery panic-free, yielding a
//! clean prefix of the appended batches and never a corrupt event.
//!
//! The "crashes" here leak a writer with `std::mem::forget`, so its `Drop`
//! never trims the zeros it laid ahead of its frames. They model a process
//! crash: the OS page cache survives, so nothing here models a power loss.

use std::fs;
use std::path::{Path, PathBuf};

use defcon_defc::Label;
use defcon_durability::{recover, FsyncPolicy, WalConfig, WalScan, WalWriter};
use defcon_events::{Event, EventBuilder, Value};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("defcon-torn-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn event(seq: i64) -> Event {
    EventBuilder::new()
        .part("type", Label::public(), Value::str("order"))
        .part("seq", Label::public(), Value::Int(seq))
        .part("qty", Label::public(), Value::Float(seq as f64 * 1.5))
        .build()
        .unwrap()
}

/// Appends four batches of three events; returns each batch's event ids.
fn append_batches(writer: &mut WalWriter) -> Vec<Vec<u64>> {
    let mut batch_ids: Vec<Vec<u64>> = Vec::new();
    for batch in 0..4i64 {
        let events: Vec<Event> = (0..3).map(|i| event(batch * 3 + i)).collect();
        batch_ids.push(events.iter().map(|e| e.id().as_u64()).collect());
        writer
            .append(1, &Label::public(), batch as u64, &events)
            .unwrap();
    }
    batch_ids
}

/// The log's one segment file.
fn single_segment(dir: &Path) -> PathBuf {
    let segments: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(segments.len(), 1, "test expects a single segment");
    segments.into_iter().next().unwrap()
}

/// Asserts that `scan` holds a prefix of the appended batches, uncorrupted.
fn assert_clean_prefix(scan: &WalScan, batch_ids: &[Vec<u64>], at: &str) {
    assert!(
        scan.records.len() <= batch_ids.len(),
        "{at}: more records than were written"
    );
    for (i, record) in scan.records.iter().enumerate() {
        assert_eq!(record.publisher_unit, 1, "{at}");
        assert_eq!(record.arrival_ns, i as u64, "{at}");
        let ids: Vec<u64> = record.events.iter().map(|e| e.id().as_u64()).collect();
        assert_eq!(ids, batch_ids[i], "{at}: batch {i} ids");
        for (j, ev) in record.events.iter().enumerate() {
            let seq = (i * 3 + j) as i64;
            assert!(
                ev.first_part("seq")
                    .unwrap()
                    .data()
                    .structurally_equals(&Value::Int(seq)),
                "{at}: corrupt event payload"
            );
        }
    }
}

/// Writes `bytes` as the only segment of a scratch log and recovers it twice:
/// the first scan repairs any tear, so the second must find a clean log with
/// the same records.
fn recover_bytes(
    scratch: &Path,
    segment_name: &std::ffi::OsStr,
    bytes: &[u8],
    at: &str,
) -> WalScan {
    fs::write(scratch.join(segment_name), bytes).unwrap();
    let scan = recover(scratch).unwrap();
    let rescan = recover(scratch).unwrap();
    assert!(!rescan.torn_tail_truncated, "{at}");
    assert_eq!(rescan.records.len(), scan.records.len(), "{at}");
    scan
}

/// Truncates a log's one segment at every byte offset and checks that
/// recovery yields a clean prefix each time. With `leak` the writer is leaked
/// instead of dropped, so the zeros an `EveryBatch` writer lays ahead of its
/// frames stay and the cuts run through frames and then through real zeros.
fn truncation_sweep(config: WalConfig, leak: bool, name: &str) {
    // Build a reference log of several batches in one segment.
    let source = config.dir.clone();
    let _ = fs::remove_dir_all(&source);
    let mut writer = WalWriter::open(config).unwrap();
    let batch_ids = append_batches(&mut writer);
    if leak {
        std::mem::forget(writer);
    } else {
        drop(writer);
    }

    let segment = single_segment(&source);
    let full = fs::read(&segment).unwrap();
    let last_end = *frame_ends(&full).last().unwrap();
    assert_eq!(leak, full.len() > last_end, "zeros stay only when leaked");
    let scratch = temp_dir(&format!("scratch-{name}"));
    fs::create_dir_all(&scratch).unwrap();

    let mut prefix_counts = vec![0usize; full.len() + 1];
    for cut in 0..=full.len() {
        let at = format!("{name}: cut at {cut}");
        let scan = recover_bytes(&scratch, segment.file_name().unwrap(), &full[..cut], &at);
        assert_clean_prefix(&scan, &batch_ids, &at);
        if cut >= last_end {
            assert_eq!(scan.records.len(), batch_ids.len(), "{at}");
            assert!(!scan.torn_tail_truncated, "{at}: zeros are a clean end");
        }
        prefix_counts[cut] = scan.records.len();
    }

    // Sanity on the sweep itself: recovery is monotone in the cut offset and
    // the untouched file yields every batch.
    assert!(prefix_counts.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(prefix_counts[full.len()], batch_ids.len());
    assert_eq!(prefix_counts[0], 0);
}

#[test]
fn recovery_survives_truncation_at_every_byte_offset() {
    let config = WalConfig::new(temp_dir("source-never")).fsync(FsyncPolicy::Never);
    truncation_sweep(config, false, "never");
}

#[test]
fn recovery_survives_truncation_at_every_byte_offset_of_a_leaked_every_batch_log() {
    // The rotation threshold caps the zeros laid ahead (at the threshold plus
    // the frame being written), which keeps the sweep small; the four batches
    // still fit in one segment.
    let config = WalConfig::new(temp_dir("source-leaked"))
        .fsync(FsyncPolicy::EveryBatch)
        .segment_bytes(2048);
    truncation_sweep(config, true, "leaked-every-batch");
}

/// Offsets just past each frame, found by walking the length prefixes up to
/// the first all-zero header.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 8;
    while let Some(header) = bytes.get(at..at + 8) {
        if header.iter().all(|&b| b == 0) {
            break;
        }
        at += 8 + u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        ends.push(at);
    }
    ends
}

#[test]
fn a_leaked_writers_zero_tail_recovers_and_survives_zeroing_from_every_offset() {
    // A small rotation threshold caps the zeros laid ahead (at the threshold
    // plus the frame being written), which keeps the sweep small.
    let source = temp_dir("leaked");
    let config = WalConfig::new(&source)
        .fsync(FsyncPolicy::EveryBatch)
        .segment_bytes(4096);
    let mut writer = WalWriter::open(config).unwrap();
    let batch_ids = append_batches(&mut writer);
    std::mem::forget(writer);

    let segment = single_segment(&source);
    let full = fs::read(&segment).unwrap();
    let ends = frame_ends(&full);
    let last_end = *ends.last().unwrap();
    assert_eq!(ends.len(), batch_ids.len());
    assert!(full.len() > last_end, "the leaked writer left zeros");
    assert!(full[last_end..].iter().all(|&b| b == 0));

    let scan = recover(&source).unwrap();
    assert_clean_prefix(&scan, &batch_ids, "leaked");
    assert_eq!(scan.records.len(), batch_ids.len());
    assert!(!scan.torn_tail_truncated, "a zero tail is a clean end");
    assert_eq!(fs::read(&segment).unwrap(), full, "recovery kept the zeros");

    // Zero everything from `k` on, keeping the length: the shape of a crash
    // that lost the frames past `k`. (Offsets inside the magic header make a
    // different file format, which recovery refuses.)
    let scratch = temp_dir("leaked-scratch");
    fs::create_dir_all(&scratch).unwrap();
    let mut counts = Vec::new();
    for k in 8..=full.len() {
        let at = format!("zeroed from {k}");
        let mut bytes = full.clone();
        bytes[k..].fill(0);
        let scan = recover_bytes(&scratch, segment.file_name().unwrap(), &bytes, &at);
        assert_clean_prefix(&scan, &batch_ids, &at);
        let intact = ends.iter().filter(|end| **end <= k).count();
        assert!(scan.records.len() >= intact, "{at}: lost an intact frame");
        if k == 8 || ends.contains(&k) {
            // Zeros from a frame boundary on are a clean end, not a tear.
            assert_eq!(scan.records.len(), intact, "{at}");
            assert!(!scan.torn_tail_truncated, "{at}");
        }
        if k >= last_end {
            assert_eq!(scan.records.len(), batch_ids.len(), "{at}");
            assert!(!scan.torn_tail_truncated, "{at}");
        }
        counts.push(scan.records.len());
    }
    assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(counts[0], 0);
}
