//! The on-disk frame discipline of the write-ahead log.
//!
//! A framed file is an 8-byte magic header followed by frames of
//! `len: u32 LE | crc32: u32 LE | payload`, where the checksum covers the
//! length prefix and the payload. The format is deliberately dumb: any prefix
//! of a file cut at an arbitrary byte offset — the failure mode of a crash
//! mid-write — decodes to a prefix of the frames that were appended, never to
//! a corrupt payload, because a cut frame fails either the length bound or
//! the checksum.
//!
//! Because the checksum covers the length, an all-zero header is never a
//! valid frame (`crc32` of four zero bytes is not zero), so zeros written
//! ahead of the last frame are unambiguous: a scan that finds nothing but
//! zeros after its last intact frame reports a clean end, not a torn tail.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// Upper bound on a single frame payload. A length prefix beyond this is
/// treated as corruption rather than an allocation request.
pub const MAX_FRAME_BYTES: u32 = 256 * 1024 * 1024;

/// Bytes of the `len | crc32` header in front of every payload.
pub(crate) const FRAME_HEADER_BYTES: usize = 8;

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = build_crc_table();

fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3 polynomial), the checksum guarding every frame.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// A frame's checksum: CRC-32 over the little-endian length, then the payload.
fn frame_crc(len: [u8; 4], payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(0xFFFF_FFFF, &len), payload)
}

/// Fills in the header of `frame`, whose first [`FRAME_HEADER_BYTES`] are
/// reserved and whose rest is the payload, so the whole slice can be written
/// as one frame. Fails, writing nothing, on a payload over
/// [`MAX_FRAME_BYTES`].
pub(crate) fn seal_frame(frame: &mut [u8]) -> io::Result<()> {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_BYTES);
    let len = frame_len(payload.len())?.to_le_bytes();
    header[..4].copy_from_slice(&len);
    header[4..].copy_from_slice(&frame_crc(len, payload).to_le_bytes());
    Ok(())
}

/// The length prefix of a `len`-byte payload, or `InvalidInput` past
/// [`MAX_FRAME_BYTES`]: a scan reads such a prefix as corruption, so a frame
/// written with it would be acknowledged and then dropped by recovery, with
/// every frame after it.
fn frame_len(len: usize) -> io::Result<u32> {
    u32::try_from(len)
        .ok()
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("a {len}-byte frame payload exceeds the {MAX_FRAME_BYTES}-byte limit"),
            )
        })
}

/// Writes the 8-byte magic header that starts every framed file.
pub fn write_magic(out: &mut File, magic: &[u8; 8]) -> io::Result<u64> {
    out.write_all(magic)?;
    Ok(magic.len() as u64)
}

/// The outcome of scanning one framed file.
#[derive(Debug)]
pub struct FileScan {
    /// Every payload whose frame was intact, in file order.
    pub payloads: Vec<Vec<u8>>,
    /// Offset just past the last intact frame (or past the magic header if no
    /// frame survived). Truncating the file here removes the torn tail.
    pub valid_len: u64,
    /// Total file length as read.
    pub file_len: u64,
    /// Whether every byte from `valid_len` to `file_len` is zero (or there
    /// is none): zeros a writer laid ahead of its frames end a file cleanly.
    pub clean_end: bool,
}

impl FileScan {
    /// Whether the file ended in a torn (incomplete or checksum-failing) frame
    /// rather than at a frame boundary or in zeros.
    pub fn torn(&self) -> bool {
        !self.clean_end
    }
}

/// Reads a framed file and splits it into intact payloads plus a torn tail.
///
/// Never fails on truncation: a file cut at any byte offset yields the frames
/// before the cut. A tail of zeros after the last intact frame is a clean end.
/// A magic header that *mismatches* (rather than being a cut prefix) is a
/// different file format and reports `InvalidData`.
pub fn scan_file(path: &Path, magic: &[u8; 8]) -> io::Result<FileScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let file_len = bytes.len() as u64;

    if bytes.len() < magic.len() {
        if !magic.starts_with(&bytes) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: not a framed file (bad magic)", path.display()),
            ));
        }
        // Torn inside the header: nothing recoverable, whole file is tail.
        return Ok(FileScan {
            payloads: Vec::new(),
            valid_len: 0,
            file_len,
            clean_end: file_len == 0,
        });
    }
    if bytes[..magic.len()] != magic[..] {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not a framed file (bad magic)", path.display()),
        ));
    }

    let mut payloads = Vec::new();
    let mut offset = magic.len();
    let mut valid_len = offset as u64;
    while offset < bytes.len() {
        let Some(header) = bytes.get(offset..offset + FRAME_HEADER_BYTES) else {
            break; // torn inside a frame header
        };
        let len_bytes: [u8; 4] = header[..4].try_into().expect("a 4-byte slice");
        let len = u32::from_le_bytes(len_bytes);
        let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        if len > MAX_FRAME_BYTES {
            break; // implausible length: treat as torn/corrupt tail
        }
        let start = offset + FRAME_HEADER_BYTES;
        let Some(payload) = bytes.get(start..start + len as usize) else {
            break; // torn inside the payload
        };
        if frame_crc(len_bytes, payload) != crc {
            break; // checksum failure: torn or corrupt tail (or zeros)
        }
        payloads.push(payload.to_vec());
        offset = start + len as usize;
        valid_len = offset as u64;
    }

    Ok(FileScan {
        payloads,
        valid_len,
        file_len,
        clean_end: bytes[offset..].iter().all(|&byte| byte == 0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    const MAGIC: &[u8; 8] = b"DEFCTST1";

    /// Appends one frame (header + payload) to `out`; returns the bytes
    /// written.
    fn write_frame(out: &mut File, payload: &[u8]) -> io::Result<u64> {
        let mut frame = vec![0u8; FRAME_HEADER_BYTES];
        frame.extend_from_slice(payload);
        seal_frame(&mut frame)?;
        out.write_all(&frame)?;
        Ok(frame.len() as u64)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("defcon-frame-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("framed.bin")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn frames_round_trip() {
        let path = temp_path("roundtrip");
        let mut file = File::create(&path).unwrap();
        write_magic(&mut file, MAGIC).unwrap();
        for payload in [b"alpha".as_slice(), b"".as_slice(), b"gamma!".as_slice()] {
            write_frame(&mut file, payload).unwrap();
        }
        drop(file);
        let scan = scan_file(&path, MAGIC).unwrap();
        assert!(!scan.torn());
        assert_eq!(
            scan.payloads,
            vec![b"alpha".to_vec(), vec![], b"gamma!".to_vec()]
        );
        assert_eq!(scan.valid_len, scan.file_len);
    }

    #[test]
    fn truncation_at_every_offset_yields_a_clean_prefix() {
        let path = temp_path("torn");
        let mut file = File::create(&path).unwrap();
        write_magic(&mut file, MAGIC).unwrap();
        let payloads = [
            b"first-frame".as_slice(),
            b"second".as_slice(),
            b"third-x".as_slice(),
        ];
        let mut boundaries = vec![MAGIC.len() as u64];
        for payload in payloads {
            let written = write_frame(&mut file, payload).unwrap();
            boundaries.push(boundaries.last().unwrap() + written);
        }
        drop(file);
        let full = fs::read(&path).unwrap();

        for cut in 0..=full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_file(&path, MAGIC).unwrap();
            // Intact frames are exactly those whose end lies at or before the cut.
            let expect = boundaries[1..]
                .iter()
                .filter(|end| **end <= cut as u64)
                .count();
            assert_eq!(scan.payloads.len(), expect, "cut at {cut}");
            for (i, payload) in scan.payloads.iter().enumerate() {
                assert_eq!(payload.as_slice(), payloads[i], "cut at {cut}");
            }
            let clean = cut == 0 || (cut as u64) == boundaries[expect];
            assert_eq!(scan.torn(), !clean, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_is_detected() {
        let path = temp_path("corrupt");
        let mut file = File::create(&path).unwrap();
        write_magic(&mut file, MAGIC).unwrap();
        write_frame(&mut file, b"payload-bytes").unwrap();
        drop(file);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let scan = scan_file(&path, MAGIC).unwrap();
        assert!(scan.payloads.is_empty());
        assert!(scan.torn());
    }

    #[test]
    fn an_all_zero_header_never_parses_as_a_frame() {
        assert_ne!(frame_crc([0; 4], b""), 0, "an empty frame's checksum");
        let path = temp_path("zeros");
        let mut file = File::create(&path).unwrap();
        write_magic(&mut file, MAGIC).unwrap();
        let end = MAGIC.len() as u64 + write_frame(&mut file, b"").unwrap();
        file.write_all(&[0; 100]).unwrap();
        drop(file);
        let scan = scan_file(&path, MAGIC).unwrap();
        assert_eq!(scan.payloads, vec![Vec::<u8>::new()], "only the real frame");
        assert_eq!(scan.valid_len, end);
        assert!(scan.clean_end && !scan.torn(), "zeros are a clean end");

        // Zeros straight after the magic: no frame, still clean.
        fs::write(&path, [MAGIC.as_slice(), &[0; 8]].concat()).unwrap();
        let scan = scan_file(&path, MAGIC).unwrap();
        assert!(scan.payloads.is_empty());
        assert!(!scan.torn());
    }

    #[test]
    fn a_broken_frame_before_zeros_is_torn() {
        let path = temp_path("broken-then-zeros");
        let mut file = File::create(&path).unwrap();
        write_magic(&mut file, MAGIC).unwrap();
        write_frame(&mut file, b"kept").unwrap();
        write_frame(&mut file, b"cut-short").unwrap();
        file.write_all(&[0; 64]).unwrap();
        drop(file);
        let mut bytes = fs::read(&path).unwrap();
        let last_payload_byte = bytes.len() - 65;
        bytes[last_payload_byte] = 0;
        fs::write(&path, &bytes).unwrap();
        let scan = scan_file(&path, MAGIC).unwrap();
        assert_eq!(scan.payloads, vec![b"kept".to_vec()]);
        assert!(scan.torn());
    }

    #[test]
    fn payloads_over_the_frame_limit_are_refused() {
        let max = MAX_FRAME_BYTES as usize;
        assert_eq!(frame_len(0).unwrap(), 0);
        assert_eq!(frame_len(max).unwrap(), MAX_FRAME_BYTES);
        for len in [max + 1, usize::MAX] {
            let err = frame_len(len).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{len}");
        }
    }

    #[test]
    fn wrong_magic_is_an_error() {
        let path = temp_path("magic");
        fs::write(&path, b"NOTAFMT0rest").unwrap();
        assert!(scan_file(&path, MAGIC).is_err());
    }
}
