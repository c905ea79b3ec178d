//! Recorded arrival traces for deterministic replay.
//!
//! A trace captures what a workload *asked* the engine to do — the burst and
//! batch structure handed to `publish_batch`, with each draft's parts exactly
//! as built, before label raising, id assignment or timestamping. Replaying a
//! trace therefore exercises the full publish path byte-for-byte: same batch
//! boundaries, same inter-burst schedule, same part payloads. Two replays of
//! the same trace through the same binary produce identical dispatched and
//! delivered counts, which is what makes A/B benching of hot-path changes
//! noise-free.
//!
//! The file is a single [`frame`]-disciplined stream: a meta
//! frame (lane count) followed by one frame per burst.

use std::fs::File;
use std::io;
use std::path::Path;

use bytes::{BufMut, BytesMut};
use defcon_events::codec::{decode_parts, encode_parts};
use defcon_events::Part;

use crate::frame;

const TRACE_MAGIC: &[u8; 8] = b"DEFCTRC1";

/// One recorded burst: the drafts published as one batch, and the pause the
/// scenario slept *before* publishing it.
#[derive(Debug, Clone, Default)]
pub struct TraceBurst {
    /// Inter-burst schedule: nanoseconds slept before this burst.
    pub pause_ns: u64,
    /// Each draft's parts, in publish order.
    pub drafts: Vec<Vec<Part>>,
}

fn encode_burst(burst: &TraceBurst) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_u64_le(burst.pause_ns);
    buf.put_u32_le(burst.drafts.len() as u32);
    for draft in &burst.drafts {
        let parts = encode_parts(draft);
        buf.put_u32_le(parts.len() as u32);
        buf.put_slice(&parts);
    }
    buf.to_vec()
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn decode_burst(mut payload: &[u8]) -> io::Result<TraceBurst> {
    let take_u32 = |buf: &mut &[u8]| -> io::Result<u32> {
        let Some(head) = buf.get(..4) else {
            return Err(invalid("trace burst: unexpected end of input"));
        };
        let value = u32::from_le_bytes(head.try_into().unwrap());
        *buf = &buf[4..];
        Ok(value)
    };
    let Some(head) = payload.get(..8) else {
        return Err(invalid("trace burst: unexpected end of input"));
    };
    let pause_ns = u64::from_le_bytes(head.try_into().unwrap());
    payload = &payload[8..];
    let draft_count = take_u32(&mut payload)? as usize;
    let mut drafts = Vec::with_capacity(draft_count.min(65_536));
    for _ in 0..draft_count {
        let len = take_u32(&mut payload)? as usize;
        let Some(bytes) = payload.get(..len) else {
            return Err(invalid("trace burst: draft overruns frame"));
        };
        payload = &payload[len..];
        let parts = decode_parts(bytes).map_err(|err| invalid(format!("trace draft: {err}")))?;
        drafts.push(parts);
    }
    if !payload.is_empty() {
        return Err(invalid("trace burst: trailing bytes"));
    }
    Ok(TraceBurst { pause_ns, drafts })
}

/// Streams bursts into a trace file as a scenario runs.
#[derive(Debug)]
pub struct TraceWriter {
    file: File,
    bursts: u64,
}

impl TraceWriter {
    /// Creates (truncating) a trace file and writes the meta frame.
    pub fn create(path: &Path, lane_count: usize) -> io::Result<Self> {
        let mut file = File::create(path)?;
        frame::write_magic(&mut file, TRACE_MAGIC)?;
        let mut meta = BytesMut::with_capacity(4);
        meta.put_u32_le(lane_count as u32);
        frame::write_frame(&mut file, &meta)?;
        Ok(TraceWriter { file, bursts: 0 })
    }

    /// Appends one burst.
    pub fn append(&mut self, burst: &TraceBurst) -> io::Result<()> {
        frame::write_frame(&mut self.file, &encode_burst(burst))?;
        self.bursts += 1;
        Ok(())
    }

    /// Number of bursts written so far.
    pub fn bursts(&self) -> u64 {
        self.bursts
    }

    /// Flushes the trace to disk. Dropping without `finish` leaves durability
    /// to the OS.
    pub fn finish(self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// A fully loaded trace, ready to be replayed.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Lane count recorded by the capturing scenario (sink topology).
    pub lane_count: usize,
    /// The bursts, in recorded order.
    pub bursts: Vec<TraceBurst>,
}

impl Trace {
    /// Loads a trace file. Unlike the write-ahead log, a trace is only useful
    /// complete: a torn tail (recording crashed mid-burst) is an error, not
    /// something to silently truncate.
    pub fn load(path: &Path) -> io::Result<Trace> {
        let scan = frame::scan_file(path, TRACE_MAGIC)?;
        if scan.torn() {
            return Err(invalid(format!(
                "{}: trace has a torn tail — incomplete recording",
                path.display()
            )));
        }
        let Some((meta, bursts)) = scan.payloads.split_first() else {
            return Err(invalid(format!(
                "{}: trace has no meta frame",
                path.display()
            )));
        };
        if meta.len() != 4 {
            return Err(invalid(format!("{}: malformed meta frame", path.display())));
        }
        let lane_count = u32::from_le_bytes(meta.as_slice().try_into().unwrap()) as usize;
        let bursts = bursts
            .iter()
            .map(|payload| decode_burst(payload))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Trace { lane_count, bursts })
    }

    /// Total drafts across all bursts — the events a replay will publish.
    pub fn total_events(&self) -> u64 {
        self.bursts.iter().map(|b| b.drafts.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_defc::Label;
    use defcon_events::Value;
    use std::fs;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("defcon-trace-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("trace.bin")
    }

    fn draft(lane: usize, seq: i64) -> Vec<Part> {
        vec![
            Part::new(format!("lane-{lane}"), Label::public(), Value::str("tick")),
            Part::new("seq", Label::public(), Value::Int(seq)),
        ]
    }

    #[test]
    fn record_then_load_round_trips_bursts() {
        let path = temp_path("roundtrip");
        let mut writer = TraceWriter::create(&path, 3).unwrap();
        writer
            .append(&TraceBurst {
                pause_ns: 1_000,
                drafts: vec![draft(0, 1), draft(1, 2)],
            })
            .unwrap();
        writer
            .append(&TraceBurst {
                pause_ns: 0,
                drafts: vec![draft(2, 3)],
            })
            .unwrap();
        assert_eq!(writer.bursts(), 2);
        writer.finish().unwrap();

        let trace = Trace::load(&path).unwrap();
        assert_eq!(trace.lane_count, 3);
        assert_eq!(trace.bursts.len(), 2);
        assert_eq!(trace.total_events(), 3);
        assert_eq!(trace.bursts[0].pause_ns, 1_000);
        assert_eq!(trace.bursts[0].drafts.len(), 2);
        let part = &trace.bursts[1].drafts[0][1];
        assert!(part.data().structurally_equals(&Value::Int(3)));
    }

    #[test]
    fn torn_trace_is_rejected() {
        let path = temp_path("torn");
        let mut writer = TraceWriter::create(&path, 1).unwrap();
        writer
            .append(&TraceBurst {
                pause_ns: 0,
                drafts: vec![draft(0, 1)],
            })
            .unwrap();
        writer.finish().unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        assert!(Trace::load(&path).is_err());
    }

    #[test]
    fn empty_trace_round_trips() {
        let path = temp_path("empty");
        TraceWriter::create(&path, 2).unwrap().finish().unwrap();
        let trace = Trace::load(&path).unwrap();
        assert_eq!(trace.lane_count, 2);
        assert!(trace.bursts.is_empty());
        assert_eq!(trace.total_events(), 0);
    }
}
