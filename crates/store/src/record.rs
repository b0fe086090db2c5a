//! The record and frame formats shared by the WAL and segments.
//!
//! One *record* is one logical store event. Three kinds are written:
//!
//! - `Put` — a finished cell: resume key, id, optional timeline
//!   digest, and the value's canonical JSON bytes.
//! - `Mark` — metadata only: "this already-stored cell also completed
//!   in epoch E (with this id/digest)". Written when a sweep finishes
//!   a cell whose value is already on disk, so a warm sweep journals
//!   a few dozen bytes per cell instead of re-writing every value.
//! - `Epoch` — a sweep boundary. A fresh (non-resumed) sweep bumps
//!   the epoch instead of truncating anything: resume state is "all
//!   records at the current epoch", so old values stay readable as
//!   cache entries while the journal is logically empty.
//!
//! A fourth kind, `Obsolete` (kind byte 3), is still *decoded* but
//! never written: older versions stored recorded GPU traces under it,
//! framed like a `Put` with a raw binary payload. Stores written by
//! those versions stay readable — replay skips these records and
//! flush and compaction drop them, so no result behind one is lost.
//!
//! On disk a record travels in a *frame*:
//!
//! ```text
//! [u32le body_len][u32le crc32(body)][body]
//! ```
//!
//! and the body is:
//!
//! ```text
//! [u8 kind][u64le epoch]
//! [u32le rk_len][rk][u32le id_len][id][u8 has_digest][u64le digest]   (Put/Mark)
//! [value JSON bytes to end]                                           (Put)
//! ```
//!
//! Storing the resume key *string* (not the key JSON) means recovery
//! and resume never parse key objects — the map key is right there.

use serde_json::Value;

use crate::crc::crc32;
use crate::hash::stable_addr;

/// One completed cell, as the harness journals it.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// The job's cache key, if it had one.
    pub key: Option<Value>,
    /// The job's human-readable id.
    pub id: String,
    /// The value the job produced.
    pub value: Value,
    /// The run's timeline digest, when the value carried one — lets a
    /// resumed sweep cross-check a re-run cell against what the
    /// interrupted sweep observed.
    pub digest: Option<u64>,
}

impl JournalRecord {
    /// The string a resume pass matches jobs against: the canonical
    /// serialisation of the cache key, or the id for uncacheable jobs.
    pub fn resume_key(key: Option<&Value>, id: &str) -> String {
        match key {
            Some(k) => format!(
                "key:{}",
                serde_json::to_string(k).expect("serialising a Value cannot fail")
            ),
            None => format!("id:{id}"),
        }
    }
}

/// The record kinds, as serialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A sweep boundary.
    Epoch,
    /// A value write.
    Put,
    /// A completion marker for an already-stored value.
    Mark,
    /// A record kind older versions wrote (kind byte 3); decoded so it
    /// can be skipped, never written.
    Obsolete,
}

impl RecordKind {
    /// Whether this kind carries a payload after the fixed fields.
    fn has_value(self) -> bool {
        matches!(self, RecordKind::Put | RecordKind::Obsolete)
    }
}

/// One decoded store record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// What happened.
    pub kind: RecordKind,
    /// The sweep epoch the record belongs to.
    pub epoch: u64,
    /// The resume key ([`JournalRecord::resume_key`]); empty for
    /// `Epoch` records.
    pub rk: String,
    /// The job id; empty for `Epoch` records and for values stored
    /// through the cache path before their cell journaled.
    pub id: String,
    /// The timeline digest, when known.
    pub digest: Option<u64>,
    /// The value's canonical JSON bytes; empty for `Epoch` and `Mark`.
    pub value: Vec<u8>,
}

impl Record {
    /// An `Epoch` boundary record.
    pub fn epoch(epoch: u64) -> Record {
        Record {
            kind: RecordKind::Epoch,
            epoch,
            rk: String::new(),
            id: String::new(),
            digest: None,
            value: Vec::new(),
        }
    }

    /// The store address of this record's resume key.
    pub fn addr(&self) -> u128 {
        stable_addr(self.rk.as_bytes())
    }

    /// Serialises the body (the CRC-covered part of a frame).
    pub fn encode_body(&self) -> Vec<u8> {
        let kind = match self.kind {
            RecordKind::Epoch => 0u8,
            RecordKind::Put => 1,
            RecordKind::Mark => 2,
            RecordKind::Obsolete => 3,
        };
        let mut body = Vec::with_capacity(32 + self.rk.len() + self.id.len() + self.value.len());
        body.push(kind);
        body.extend_from_slice(&self.epoch.to_le_bytes());
        if self.kind != RecordKind::Epoch {
            body.extend_from_slice(&(self.rk.len() as u32).to_le_bytes());
            body.extend_from_slice(self.rk.as_bytes());
            body.extend_from_slice(&(self.id.len() as u32).to_le_bytes());
            body.extend_from_slice(self.id.as_bytes());
            body.push(self.digest.is_some() as u8);
            body.extend_from_slice(&self.digest.unwrap_or(0).to_le_bytes());
            if self.kind.has_value() {
                body.extend_from_slice(&self.value);
            }
        }
        body
    }

    /// Parses a body serialised by [`Record::encode_body`].
    ///
    /// # Errors
    ///
    /// Returns a reason string for any structural violation; the
    /// caller treats the record (not the file) as corrupt.
    pub fn decode_body(body: &[u8]) -> Result<Record, String> {
        let mut cur = Cursor { body, pos: 0 };
        let kind = match cur.u8()? {
            0 => RecordKind::Epoch,
            1 => RecordKind::Put,
            2 => RecordKind::Mark,
            3 => RecordKind::Obsolete,
            other => return Err(format!("unknown record kind {other}")),
        };
        let epoch = cur.u64()?;
        if kind == RecordKind::Epoch {
            if cur.pos != body.len() {
                return Err("trailing bytes after epoch record".to_string());
            }
            return Ok(Record::epoch(epoch));
        }
        let rk = cur.string()?;
        let id = cur.string()?;
        let has_digest = cur.u8()?;
        let digest_bits = cur.u64()?;
        let digest = match has_digest {
            0 => None,
            1 => Some(digest_bits),
            other => return Err(format!("bad digest flag {other}")),
        };
        let value = if kind.has_value() {
            body[cur.pos..].to_vec()
        } else {
            if cur.pos != body.len() {
                return Err("trailing bytes after mark record".to_string());
            }
            Vec::new()
        };
        Ok(Record {
            kind,
            epoch,
            rk,
            id,
            digest,
            value,
        })
    }
}

struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.body.len())
            .ok_or("record body truncated")?;
        let slice = &self.body[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "non-UTF-8 string field".to_string())
    }
}

/// Bytes every frame spends on its length + CRC header.
pub const FRAME_HEADER: usize = 8;

/// Appends one frame (header + body) to `out`.
pub fn write_frame(out: &mut Vec<u8>, body: &[u8]) {
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
}

/// Why a frame could not be read.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does — a torn tail.
    Truncated,
    /// The body is complete but its CRC disagrees.
    BadCrc,
}

/// Reads the frame starting at `offset`, returning its body slice and
/// the offset of the next frame.
///
/// # Errors
///
/// [`FrameError::Truncated`] when `bytes` ends mid-frame,
/// [`FrameError::BadCrc`] when the checksum disagrees.
pub fn read_frame(bytes: &[u8], offset: usize) -> Result<(&[u8], usize), FrameError> {
    let header = bytes
        .get(offset..offset + FRAME_HEADER)
        .ok_or(FrameError::Truncated)?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    let body_start = offset + FRAME_HEADER;
    let body = bytes
        .get(body_start..body_start + len)
        .ok_or(FrameError::Truncated)?;
    if crc32(body) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok((body, body_start + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(n: u64) -> Record {
        Record {
            kind: RecordKind::Put,
            epoch: 3,
            rk: format!("key:{{\"cell\":{n}}}"),
            id: format!("cell-{n}"),
            digest: Some(n * 1000),
            value: format!("{{\"out\":{n}}}").into_bytes(),
        }
    }

    #[test]
    fn records_round_trip_through_frames() {
        for rec in [
            Record::epoch(7),
            put(1),
            Record {
                kind: RecordKind::Mark,
                value: Vec::new(),
                ..put(2)
            },
            Record {
                digest: None,
                id: String::new(),
                ..put(3)
            },
        ] {
            let mut buf = Vec::new();
            write_frame(&mut buf, &rec.encode_body());
            let (body, next) = read_frame(&buf, 0).unwrap();
            assert_eq!(next, buf.len());
            assert_eq!(Record::decode_body(body).unwrap(), rec);
        }
    }

    #[test]
    fn obsolete_records_decode_with_raw_binary_payloads() {
        // Kind 3 payloads are not JSON and not UTF-8; they must still
        // decode, so a reader can skip them instead of stopping.
        let rec = Record {
            kind: RecordKind::Obsolete,
            epoch: 5,
            rk: "trace:{\"func\":\"scu-func-1\"}".to_string(),
            id: String::new(),
            digest: Some(crate::hash::fnv64(&[0xff, 0x00, 0x80, 0x7f])),
            value: vec![0xff, 0x00, 0x80, 0x7f],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &rec.encode_body());
        let (body, _) = read_frame(&buf, 0).unwrap();
        assert_eq!(Record::decode_body(body).unwrap(), rec);
    }

    #[test]
    fn torn_and_flipped_frames_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &put(1).encode_body());
        for cut in 0..buf.len() {
            assert_eq!(
                read_frame(&buf[..cut], 0).unwrap_err(),
                FrameError::Truncated,
                "cut at {cut}"
            );
        }
        for i in FRAME_HEADER..buf.len() {
            let mut flipped = buf.clone();
            flipped[i] ^= 0x40;
            assert_eq!(read_frame(&flipped, 0), Err(FrameError::BadCrc), "flip {i}");
        }
    }

    #[test]
    fn garbage_bodies_decode_to_errors_not_panics() {
        for len in 0..64 {
            let body: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            // Any error is fine; what matters is that nothing panics
            // and nothing nonsensical decodes as a Put with a value.
            if let Ok(rec) = Record::decode_body(&body) {
                assert_eq!(rec.encode_body(), body, "accepted body must re-encode");
            }
        }
    }

    #[test]
    fn resume_keys_match_the_journal_contract() {
        let key = Value::Object(vec![("cell".into(), Value::U64(4))]);
        assert_eq!(
            JournalRecord::resume_key(Some(&key), "x"),
            format!("key:{}", serde_json::to_string(&key).unwrap())
        );
        assert_eq!(JournalRecord::resume_key(None, "plain"), "id:plain");
    }
}
