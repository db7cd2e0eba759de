//! WAL record framing and snapshot blob format.
//!
//! # Record framing
//!
//! ```text
//! ┌────────────┬────────────┬─────────────────┐
//! │ len  u32LE │ crc32 u32LE│ payload (len B) │
//! └────────────┴────────────┴─────────────────┘
//! ```
//!
//! `crc32` covers the payload only. Writers reserve the header, encode
//! the payload in place behind it and then patch the length and CRC
//! ([`put_frame`]), so framing never copies a payload. A tail that
//! ends in a short header, a short payload (`len` exceeds the remaining
//! bytes) or a CRC mismatch is *torn*: [`split_frames`] stops there and
//! reports the tear, and recovery discards everything from the tear
//! onward — no partial replay.
//!
//! # Snapshot blob
//!
//! `QSNP` magic, a version byte, then one frame whose payload is the
//! event cursor followed by the **full slot vector** — `None`
//! tombstones included — so replayed registrations after recovery
//! allocate exactly the ids they did before the crash.

use crate::registry::ServiceId;
use crate::service::ServiceDescription;

use super::codec::{self, ByteReader};
use super::PersistError;

/// Bytes of a frame header: length + CRC.
pub const FRAME_HEADER: usize = 8;

/// Magic prefix of a snapshot blob.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"QSNP";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Appends one `[len][crc32][payload]` frame to `out`: reserves the
/// header, lets `encode` append the payload right behind it, then
/// patches the payload's length and CRC into the header.
pub fn put_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    encode(out);
    let payload = &out[header + FRAME_HEADER..];
    let len = (payload.len() as u32).to_le_bytes();
    let crc = codec::crc32(payload).to_le_bytes();
    out[header..header + 4].copy_from_slice(&len);
    out[header + 4..header + FRAME_HEADER].copy_from_slice(&crc);
}

/// Why a WAL tail failed to parse as a complete frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than [`FRAME_HEADER`] bytes remained.
    ShortHeader,
    /// The declared length exceeds the remaining bytes.
    ShortPayload,
    /// The payload checksum does not match its header.
    BadCrc,
}

/// A detected torn tail: everything from `offset` on is discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first unusable byte (= length of the valid
    /// prefix).
    pub offset: usize,
    /// What made the tail unusable.
    pub reason: TornReason,
}

/// Splits a WAL byte stream into complete, checksum-valid frame
/// payloads plus an optional torn tail.
///
/// Never fails: corruption anywhere truncates the result at the last
/// frame boundary before it.
pub fn split_frames(bytes: &[u8]) -> (Vec<&[u8]>, Option<TornTail>) {
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        if bytes.len() - pos < FRAME_HEADER {
            return (
                frames,
                Some(TornTail {
                    offset: pos,
                    reason: TornReason::ShortHeader,
                }),
            );
        }
        let mut len_arr = [0u8; 4];
        len_arr.copy_from_slice(&bytes[pos..pos + 4]);
        let len = u32::from_le_bytes(len_arr) as usize;
        let mut crc_arr = [0u8; 4];
        crc_arr.copy_from_slice(&bytes[pos + 4..pos + 8]);
        let crc = u32::from_le_bytes(crc_arr);
        let body_start = pos + FRAME_HEADER;
        if bytes.len() - body_start < len {
            return (
                frames,
                Some(TornTail {
                    offset: pos,
                    reason: TornReason::ShortPayload,
                }),
            );
        }
        let payload = &bytes[body_start..body_start + len];
        if codec::crc32(payload) != crc {
            return (
                frames,
                Some(TornTail {
                    offset: pos,
                    reason: TornReason::BadCrc,
                }),
            );
        }
        frames.push(payload);
        pos = body_start + len;
    }
    (frames, None)
}

const TAG_REGISTER: u8 = 1;
const TAG_DEREGISTER: u8 = 2;

/// Appends the framed WAL record of a registration: event `seq`
/// allocated `id` to `description`.
pub fn put_register(out: &mut Vec<u8>, seq: u64, id: ServiceId, description: &ServiceDescription) {
    put_frame(out, |out| {
        out.push(TAG_REGISTER);
        codec::put_u64(out, seq);
        codec::put_u32(out, id.raw());
        codec::put_description(out, description);
    });
}

/// Appends the framed WAL record of a departure: event `seq` removed
/// `id`.
pub fn put_deregister(out: &mut Vec<u8>, seq: u64, id: ServiceId) {
    put_frame(out, |out| {
        out.push(TAG_DEREGISTER);
        codec::put_u64(out, seq);
        codec::put_u32(out, id.raw());
    });
}

/// One journaled registry mutation, as decoded on replay (the journal
/// writes records with [`put_register`] and [`put_deregister`]).
///
/// `seq` is the registry event cursor *before* the mutation — the
/// record's global sequence number. Replay applies records whose `seq`
/// equals the recovering registry's cursor and skips smaller ones
/// (left behind when a crash hit between snapshot write and WAL
/// truncation); a gap is corruption.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A provider published a service; the full description is
    /// journaled because registry events carry ids only. Boxed so the
    /// enum stays small next to `Deregister`.
    Register {
        /// Global event sequence number.
        seq: u64,
        /// Id the registration allocated (checked on replay).
        id: ServiceId,
        /// The advertised description.
        description: Box<ServiceDescription>,
    },
    /// A provider (or churn) removed a service.
    Deregister {
        /// Global event sequence number.
        seq: u64,
        /// Id that was removed.
        id: ServiceId,
    },
}

impl WalRecord {
    /// The record's global event sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Register { seq, .. } | WalRecord::Deregister { seq, .. } => *seq,
        }
    }

    /// Decodes a frame payload written by [`put_register`] or
    /// [`put_deregister`].
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] on an unknown tag, underrun, or
    /// trailing bytes — a CRC-valid frame must decode exactly.
    pub fn decode(payload: &[u8]) -> Result<Self, PersistError> {
        let mut r = ByteReader::new(payload);
        let record = match r.get_u8()? {
            TAG_REGISTER => {
                let seq = r.get_u64()?;
                let id = ServiceId::from_raw(r.get_u32()?);
                let description = Box::new(codec::get_description(&mut r)?);
                WalRecord::Register {
                    seq,
                    id,
                    description,
                }
            }
            TAG_DEREGISTER => {
                let seq = r.get_u64()?;
                let id = ServiceId::from_raw(r.get_u32()?);
                WalRecord::Deregister { seq, id }
            }
            tag => {
                return Err(PersistError::Corrupt(format!(
                    "unknown WAL record tag {tag}"
                )))
            }
        };
        if !r.is_empty() {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes after WAL record",
                r.remaining()
            )));
        }
        Ok(record)
    }
}

const SLOT_EMPTY: u8 = 0;
const SLOT_LIVE: u8 = 1;

/// Serialises a snapshot blob: magic, version, then one frame whose
/// payload is `cursor` plus the full slot vector (tombstones included).
///
/// The buffer is sized before encoding and the frame is encoded in
/// place into it, so every byte is written once and never copied.
pub fn encode_snapshot(cursor: u64, slots: &[Option<ServiceDescription>]) -> Vec<u8> {
    let slots_len: usize = slots
        .iter()
        .map(|slot| 1 + slot.as_ref().map_or(0, codec::description_len))
        .sum();
    let len = SNAPSHOT_MAGIC.len() + 1 + FRAME_HEADER + 8 + 4 + slots_len;
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.push(SNAPSHOT_VERSION);
    put_frame(&mut out, |out| {
        codec::put_u64(out, cursor);
        codec::put_u32(out, slots.len() as u32);
        for slot in slots {
            match slot {
                None => out.push(SLOT_EMPTY),
                Some(desc) => {
                    out.push(SLOT_LIVE);
                    codec::put_description(out, desc);
                }
            }
        }
    });
    debug_assert_eq!(out.len(), len, "sizing pass disagrees with the encoder");
    out
}

/// A decoded snapshot: the event cursor and the full slot vector.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedSnapshot {
    /// Event cursor the snapshot was taken at.
    pub cursor: u64,
    /// Slot vector, `None` for tombstoned ids.
    pub slots: Vec<Option<ServiceDescription>>,
}

/// Decodes a snapshot blob written by [`encode_snapshot`].
///
/// # Errors
///
/// [`PersistError::Corrupt`] on bad magic/version, a torn or
/// checksum-failing frame, underrun, or trailing bytes. Unlike the WAL
/// a snapshot has no salvageable prefix — it is valid whole or not at
/// all (the file backend's rename keeps the previous one on crash).
pub fn decode_snapshot(bytes: &[u8]) -> Result<DecodedSnapshot, PersistError> {
    if bytes.len() < 5 || bytes[..4] != SNAPSHOT_MAGIC {
        return Err(PersistError::Corrupt("snapshot magic mismatch".into()));
    }
    if bytes[4] != SNAPSHOT_VERSION {
        return Err(PersistError::Corrupt(format!(
            "unsupported snapshot version {}",
            bytes[4]
        )));
    }
    let (frames, torn) = split_frames(&bytes[5..]);
    if torn.is_some() || frames.len() != 1 {
        return Err(PersistError::Corrupt(
            "snapshot body is not exactly one valid frame".into(),
        ));
    }
    let mut r = ByteReader::new(frames[0]);
    let cursor = r.get_u64()?;
    let n_slots = r.get_u32()?;
    let mut slots = Vec::with_capacity(n_slots.min(65_536) as usize);
    for _ in 0..n_slots {
        match r.get_u8()? {
            SLOT_EMPTY => slots.push(None),
            SLOT_LIVE => slots.push(Some(codec::get_description(&mut r)?)),
            tag => {
                return Err(PersistError::Corrupt(format!(
                    "bad snapshot slot tag {tag}"
                )))
            }
        }
    }
    if !r.is_empty() {
        return Err(PersistError::Corrupt(format!(
            "{} trailing bytes after snapshot slots",
            r.remaining()
        )));
    }
    Ok(DecodedSnapshot { cursor, slots })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(name: &str) -> ServiceDescription {
        ServiceDescription::new(name, "d#F").with_provider("p")
    }

    fn encode_frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_frame(&mut out, |out| out.extend_from_slice(payload));
        out
    }

    #[test]
    fn frames_round_trip() {
        let mut wal = Vec::new();
        for payload in [&b"alpha"[..], b"", b"beta"] {
            put_frame(&mut wal, |out| out.extend_from_slice(payload));
        }
        let (frames, torn) = split_frames(&wal);
        assert_eq!(torn, None);
        assert_eq!(frames, vec![&b"alpha"[..], &b""[..], &b"beta"[..]]);
    }

    #[test]
    fn every_truncation_point_is_a_clean_tear() {
        let mut wal = encode_frame(b"first");
        let keep = wal.len();
        wal.extend_from_slice(&encode_frame(b"second record"));
        for cut in keep + 1..wal.len() {
            let (frames, torn) = split_frames(&wal[..cut]);
            assert_eq!(frames.len(), 1, "cut at {cut}");
            let tear = torn.unwrap();
            assert_eq!(tear.offset, keep, "cut at {cut}");
            assert!(
                matches!(
                    tear.reason,
                    TornReason::ShortHeader | TornReason::ShortPayload
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn every_bit_flip_in_last_record_is_detected() {
        let mut wal = encode_frame(b"first");
        let keep = wal.len();
        wal.extend_from_slice(&encode_frame(b"second"));
        for byte in keep..wal.len() {
            let mut bad = wal.clone();
            bad[byte] ^= 0x40;
            let (frames, torn) = split_frames(&bad);
            // A flip in the length field may also present as a short
            // payload; either way the first record survives and the
            // tail is discarded at its boundary.
            assert_eq!(frames.len(), 1, "flip at {byte}");
            assert_eq!(torn.unwrap().offset, keep, "flip at {byte}");
        }
    }

    #[test]
    fn wal_records_round_trip() {
        let id = ServiceId::from_raw(7);
        let mut wal = Vec::new();
        put_register(&mut wal, 41, id, &desc("s7"));
        put_deregister(&mut wal, 42, id);
        let (frames, torn) = split_frames(&wal);
        assert_eq!(torn, None);
        let records: Vec<WalRecord> = frames
            .into_iter()
            .map(|payload| WalRecord::decode(payload).unwrap())
            .collect();
        assert_eq!(
            records,
            vec![
                WalRecord::Register {
                    seq: 41,
                    id,
                    description: Box::new(desc("s7")),
                },
                WalRecord::Deregister { seq: 42, id },
            ]
        );
    }

    #[test]
    fn record_decode_rejects_trailing_bytes_and_bad_tags() {
        let mut wal = Vec::new();
        put_deregister(&mut wal, 1, ServiceId::from_raw(0));
        let mut payload = wal[FRAME_HEADER..].to_vec();
        payload.push(0xFF);
        assert!(matches!(
            WalRecord::decode(&payload),
            Err(PersistError::Corrupt(_))
        ));
        assert!(matches!(
            WalRecord::decode(&[9, 0, 0]),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn snapshot_round_trips_with_tombstones() {
        let slots = vec![Some(desc("a")), None, Some(desc("c"))];
        let blob = encode_snapshot(17, &slots);
        let back = decode_snapshot(&blob).unwrap();
        assert_eq!(back.cursor, 17);
        assert_eq!(back.slots, slots);
    }

    #[test]
    fn snapshot_rejects_corruption_whole() {
        let blob = encode_snapshot(3, &[Some(desc("a"))]);
        assert!(decode_snapshot(&[]).is_err());
        assert!(decode_snapshot(b"QSNPx").is_err());
        let mut wrong_version = blob.clone();
        wrong_version[4] = 9;
        assert!(decode_snapshot(&wrong_version).is_err());
        let mut flipped = blob.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(decode_snapshot(&flipped).is_err());
        assert!(decode_snapshot(&blob[..blob.len() - 1]).is_err());
    }
}
