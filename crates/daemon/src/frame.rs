//! The `qasomd` frame layer: length-prefixed binary frames.
//!
//! Every protocol message is one frame on the wire:
//!
//! ```text
//! ┌─────────────┬───────────┬──────────────────────┐
//! │ length: u32 │ type: u8  │ payload: length-1 B  │
//! │ big-endian  │           │ (see [`crate::wire`]) │
//! └─────────────┴───────────┴──────────────────────┘
//! ```
//!
//! `length` counts the type byte plus the payload, never itself. The
//! same codec backs both transports: TCP sockets and the in-process
//! loopback used by the hermetic tests — loopback "connections" carry
//! real encoded bytes through [`Frame::encode`] / [`Frame::take`].

use std::fmt;
use std::io::{Read, Write};

/// Version byte clients present in `HELLO`.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on `length`; larger frames are a protocol error (bounds
/// the memory one connection can pin before admission control even
/// sees it).
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Frame discriminators (the type byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client → daemon: handshake (protocol version + client name).
    Hello = 0x01,
    /// Daemon → client: handshake accepted (registry epoch, batch cap).
    HelloAck = 0x02,
    /// Client → daemon: one composition session request.
    Compose = 0x03,
    /// Daemon → client: session completed; execution summary follows.
    Completed = 0x04,
    /// Daemon → client: session shed by admission control.
    Busy = 0x05,
    /// Daemon → client: session rejected by static analysis.
    Rejected = 0x06,
    /// Daemon → client: session failed (compose/execute error).
    Error = 0x07,
    /// Client → daemon: orderly goodbye.
    Bye = 0x08,
}

impl FrameType {
    /// The wire byte.
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// Parses the wire byte.
    pub fn from_byte(byte: u8) -> Option<FrameType> {
        match byte {
            0x01 => Some(FrameType::Hello),
            0x02 => Some(FrameType::HelloAck),
            0x03 => Some(FrameType::Compose),
            0x04 => Some(FrameType::Completed),
            0x05 => Some(FrameType::Busy),
            0x06 => Some(FrameType::Rejected),
            0x07 => Some(FrameType::Error),
            0x08 => Some(FrameType::Bye),
            _ => None,
        }
    }
}

/// One protocol frame: a type byte and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame discriminator.
    pub frame_type: FrameType,
    /// The encoded payload (see [`crate::wire`]).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with an empty payload.
    pub fn bare(frame_type: FrameType) -> Self {
        Frame {
            frame_type,
            payload: Vec::new(),
        }
    }

    /// The frame's length prefix: the type byte plus the payload.
    ///
    /// # Errors
    ///
    /// Fails when that exceeds [`MAX_FRAME_LEN`].
    pub fn wire_len(&self) -> Result<u32, ProtocolError> {
        let len = self.payload.len() as u64 + 1;
        if len > u64::from(MAX_FRAME_LEN) {
            return Err(ProtocolError::TooLarge { len });
        }
        Ok(len as u32)
    }

    /// Encodes the frame into `out` (length prefix + type + payload).
    ///
    /// # Errors
    ///
    /// Fails when the payload exceeds [`MAX_FRAME_LEN`].
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<(), ProtocolError> {
        out.extend_from_slice(&self.wire_len()?.to_be_bytes());
        out.push(self.frame_type.byte());
        out.extend_from_slice(&self.payload);
        Ok(())
    }

    /// Takes the first complete frame off the front of `buf`, leaving
    /// any trailing bytes in place. Returns `Ok(None)` when `buf` holds
    /// only a partial frame.
    ///
    /// # Errors
    ///
    /// Fails on an oversized length prefix or an unknown type byte.
    pub fn take(buf: &mut Vec<u8>) -> Result<Option<Frame>, ProtocolError> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(ProtocolError::TooLarge {
                len: u64::from(len),
            });
        }
        let total = 4 + len as usize;
        if buf.len() < total {
            return Ok(None);
        }
        let frame_type = FrameType::from_byte(buf[4]).ok_or(ProtocolError::UnknownType(buf[4]))?;
        let payload = buf[5..total].to_vec();
        buf.drain(..total);
        Ok(Some(Frame {
            frame_type,
            payload,
        }))
    }

    /// Writes the frame to a blocking byte sink (the TCP transport).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and oversized payloads.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), ProtocolError> {
        let mut bytes = Vec::with_capacity(5 + self.payload.len());
        self.encode(&mut bytes)?;
        w.write_all(&bytes).map_err(ProtocolError::from)
    }

    /// Reads exactly one frame from a blocking byte source (the TCP
    /// transport). Returns `Ok(None)` on a clean end-of-stream at a
    /// frame boundary.
    ///
    /// # Errors
    ///
    /// Fails on mid-frame end-of-stream, I/O errors, oversized lengths
    /// and unknown type bytes.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Frame>, ProtocolError> {
        let mut prefix = [0u8; 4];
        let mut filled = 0;
        while filled < prefix.len() {
            let n = r.read(&mut prefix[filled..]).map_err(ProtocolError::from)?;
            if n == 0 {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(ProtocolError::Truncated)
                };
            }
            filled += n;
        }
        let len = u32::from_be_bytes(prefix);
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(ProtocolError::TooLarge {
                len: u64::from(len),
            });
        }
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body)
            .map_err(|_| ProtocolError::Truncated)?;
        let frame_type =
            FrameType::from_byte(body[0]).ok_or(ProtocolError::UnknownType(body[0]))?;
        Ok(Some(Frame {
            frame_type,
            payload: body[1..].to_vec(),
        }))
    }
}

/// Errors of the frame and payload codecs and the session protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// Transport I/O failed (message carries the rendered `io::Error`).
    Io(String),
    /// A frame's length prefix exceeds [`MAX_FRAME_LEN`] (or is zero).
    TooLarge {
        /// The offending length.
        len: u64,
    },
    /// The stream ended in the middle of a frame.
    Truncated,
    /// The type byte is not a known [`FrameType`].
    UnknownType(u8),
    /// A payload ended before the field being decoded.
    Short,
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// The payload decoded to a structurally invalid value.
    Malformed(&'static str),
    /// The client presented an unsupported protocol version.
    BadVersion(u8),
    /// A frame arrived in a state that does not accept it (e.g.
    /// `COMPOSE` before `HELLO`).
    OutOfTurn(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
            ProtocolError::TooLarge { len } => {
                write!(f, "frame length {len} outside 1..={MAX_FRAME_LEN}")
            }
            ProtocolError::Truncated => write!(f, "stream ended mid-frame"),
            ProtocolError::UnknownType(b) => write!(f, "unknown frame type byte {b:#04x}"),
            ProtocolError::Short => write!(f, "payload ended before the field being decoded"),
            ProtocolError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtocolError::Malformed(what) => write!(f, "malformed payload: {what}"),
            ProtocolError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (want {PROTOCOL_VERSION})"
                )
            }
            ProtocolError::OutOfTurn(what) => write!(f, "frame out of turn: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let mut buf = Vec::new();
        let a = Frame {
            frame_type: FrameType::Compose,
            payload: vec![1, 2, 3],
        };
        let b = Frame::bare(FrameType::Bye);
        a.encode(&mut buf).unwrap();
        b.encode(&mut buf).unwrap();
        assert_eq!(Frame::take(&mut buf).unwrap(), Some(a));
        assert_eq!(Frame::take(&mut buf).unwrap(), Some(b));
        assert_eq!(Frame::take(&mut buf).unwrap(), None);
        assert!(buf.is_empty());
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut buf = Vec::new();
        Frame {
            frame_type: FrameType::Hello,
            payload: vec![9; 10],
        }
        .encode(&mut buf)
        .unwrap();
        let mut partial = buf[..7].to_vec();
        assert_eq!(Frame::take(&mut partial).unwrap(), None);
        partial.extend_from_slice(&buf[7..]);
        assert!(Frame::take(&mut partial).unwrap().is_some());
    }

    #[test]
    fn unknown_type_and_oversize_are_errors() {
        let mut buf = vec![0, 0, 0, 1, 0xEE];
        assert_eq!(Frame::take(&mut buf), Err(ProtocolError::UnknownType(0xEE)));
        let mut huge = (MAX_FRAME_LEN + 1).to_be_bytes().to_vec();
        huge.push(1);
        assert!(matches!(
            Frame::take(&mut huge),
            Err(ProtocolError::TooLarge { .. })
        ));
    }

    #[test]
    fn blocking_io_roundtrip() {
        let mut bytes = Vec::new();
        let frame = Frame {
            frame_type: FrameType::Completed,
            payload: vec![7; 32],
        };
        frame.write_to(&mut bytes).unwrap();
        let mut reader = &bytes[..];
        assert_eq!(Frame::read_from(&mut reader).unwrap(), Some(frame));
        assert_eq!(Frame::read_from(&mut reader).unwrap(), None);
    }

    #[test]
    fn mid_frame_eof_is_truncated() {
        let mut bytes = Vec::new();
        Frame {
            frame_type: FrameType::Error,
            payload: vec![0; 16],
        }
        .write_to(&mut bytes)
        .unwrap();
        let mut reader = &bytes[..bytes.len() - 3];
        assert_eq!(Frame::read_from(&mut reader), Err(ProtocolError::Truncated));
    }
}
