//! Length-prefixed framing over byte buffers.
//!
//! Every simulated exchange is serialized through this codec: a 4-byte
//! big-endian length followed by the payload. The codec is incremental —
//! `decode` consumes at most one complete frame and leaves partial input in
//! the buffer — mirroring how a real stream protocol is framed on top of
//! TCP.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Maximum frame payload we accept (1 MiB). Real BAT pages are tens of
/// kilobytes; anything bigger is a protocol error, not a bigger buffer.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Errors from the framing layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Declared length exceeds [`MAX_FRAME_LEN`].
    Oversized(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME_LEN}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Stateless encoder/decoder for length-prefixed frames.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameCodec;

impl FrameCodec {
    /// Appends one frame containing `payload` to `dst`.
    ///
    /// # Panics
    /// Panics if `payload` exceeds [`MAX_FRAME_LEN`]; producing an oversized
    /// frame is a local bug, not a peer error.
    pub fn encode(&self, payload: &[u8], dst: &mut BytesMut) {
        assert!(
            payload.len() <= MAX_FRAME_LEN,
            "frame payload too large: {}",
            payload.len()
        );
        dst.reserve(4 + payload.len());
        dst.put_u32(payload.len() as u32);
        dst.put_slice(payload);
    }

    /// Reads the frame at the front of `src` without consuming anything.
    ///
    /// Returns `Ok(Some(payload))` borrowing the payload when a complete
    /// frame is buffered, `Ok(None)` when more bytes are needed, or `Err`
    /// when the peer declared an oversized frame. This is the one framing
    /// reader; [`FrameCodec::decode`] is built on it.
    pub fn read_frame<'a>(&self, src: &'a [u8]) -> Result<Option<&'a [u8]>, FrameError> {
        let Some(&[a, b, c, d]) = src.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_be_bytes([a, b, c, d]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(len));
        }
        Ok(src.get(4..4 + len))
    }

    /// Tries to extract one complete frame from `src`.
    ///
    /// Returns `Ok(Some(payload))` and consumes the frame when one is fully
    /// buffered, `Ok(None)` when more bytes are needed (nothing consumed),
    /// or `Err` when the peer declared an oversized frame.
    pub fn decode(&self, src: &mut BytesMut) -> Result<Option<Bytes>, FrameError> {
        let Some(len) = self.read_frame(src)?.map(<[u8]>::len) else {
            return Ok(None);
        };
        src.advance(4);
        Ok(Some(src.split_to(len).freeze()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_frame() {
        let codec = FrameCodec;
        let mut buf = BytesMut::new();
        codec.encode(b"hello world", &mut buf);
        let out = codec.decode(&mut buf).unwrap().unwrap();
        assert_eq!(&out[..], b"hello world");
        assert!(buf.is_empty());
    }

    #[test]
    fn decode_empty_buffer_needs_more() {
        let mut buf = BytesMut::new();
        assert_eq!(FrameCodec.decode(&mut buf).unwrap(), None);
    }

    #[test]
    fn partial_header_needs_more() {
        let mut buf = BytesMut::from(&[0u8, 0, 0][..]);
        assert_eq!(FrameCodec.decode(&mut buf).unwrap(), None);
        assert_eq!(buf.len(), 3, "nothing consumed");
    }

    #[test]
    fn partial_payload_needs_more_and_consumes_nothing() {
        let codec = FrameCodec;
        let mut full = BytesMut::new();
        codec.encode(b"abcdef", &mut full);
        let mut partial = BytesMut::from(&full[..7]); // header + 3 bytes
        assert_eq!(codec.decode(&mut partial).unwrap(), None);
        assert_eq!(partial.len(), 7);
    }

    #[test]
    fn multiple_frames_decode_in_order() {
        let codec = FrameCodec;
        let mut buf = BytesMut::new();
        codec.encode(b"one", &mut buf);
        codec.encode(b"two", &mut buf);
        codec.encode(b"", &mut buf);
        assert_eq!(&codec.decode(&mut buf).unwrap().unwrap()[..], b"one");
        assert_eq!(&codec.decode(&mut buf).unwrap().unwrap()[..], b"two");
        assert_eq!(&codec.decode(&mut buf).unwrap().unwrap()[..], b"");
        assert_eq!(codec.decode(&mut buf).unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32((MAX_FRAME_LEN + 1) as u32);
        buf.put_slice(b"x");
        assert_eq!(
            FrameCodec.decode(&mut buf),
            Err(FrameError::Oversized(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn incremental_byte_by_byte_feed() {
        let codec = FrameCodec;
        let mut encoded = BytesMut::new();
        codec.encode(b"drip-fed payload", &mut encoded);
        let mut buf = BytesMut::new();
        let mut out = None;
        for b in encoded.iter().copied().collect::<Vec<_>>() {
            buf.put_u8(b);
            if let Some(frame) = codec.decode(&mut buf).unwrap() {
                out = Some(frame);
            }
        }
        assert_eq!(&out.unwrap()[..], b"drip-fed payload");
    }
}
