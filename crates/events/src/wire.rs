//! Versioned binary wire codec for TCP bridges.
//!
//! # Frame layout
//!
//! Every frame is a 4-byte big-endian body length followed by the body:
//!
//! ```text
//! [u32 BE body_len] [u8 version = 0x01] [u32 BE topic] [payload bytes]
//!                   `-------------------- body --------------------'
//! ```
//!
//! so `body_len = 5 + payload_len`. Version `0x01` is the first binary
//! format; the version byte leaves room to evolve the body without
//! breaking framing.
//!
//! A body that does not open with a known version byte is corrupt: framing
//! can no longer be trusted, so the link that carried it closes.
//!
//! # Batched, zero-copy decode
//!
//! [`FrameDecoder`] accumulates raw socket reads and [`FrameDecoder::drain`]s
//! every complete frame at once: the complete-frame prefix of the buffer is
//! moved (not copied) into one shared [`Bytes`] allocation and each
//! frame's payload is handed out as a [`Bytes::slice`] view into it — a
//! burst of *n* frames costs zero payload copies.

use bytes::Bytes;

use crate::event::Topic;

/// Current binary wire format version (first body byte of a binary frame).
pub const WIRE_VERSION: u8 = 0x01;

/// Upper bound on one frame's body; larger length prefixes are treated as
/// corrupt (or hostile) and terminate the link.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Fixed per-frame overhead of the binary format beyond the payload:
/// 4-byte length prefix + version byte + 4-byte topic.
pub const FRAME_OVERHEAD: usize = 4 + 1 + 4;

/// One decoded frame: the topic plus a payload that is a zero-copy view
/// into the drained batch buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// The event type tag carried by the frame.
    pub topic: Topic,
    /// The frame payload.
    pub payload: Bytes,
}

/// Why a frame (and therefore the stream — framing is lost) is unusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The advertised body length.
        len: usize,
    },
    /// The body does not open with a known version byte, or is too short
    /// to hold the frame header.
    Corrupt,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len } => {
                write!(f, "frame body of {len} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            FrameError::Corrupt => write!(f, "frame body is not a recognized wire format"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one binary frame to `buf` without copying through any
/// intermediate encoding.
///
/// # Errors
///
/// Returns [`FrameError::Oversized`] (appending nothing) if the payload
/// would exceed [`MAX_FRAME`]; the caller drops the event and counts it
/// instead of panicking.
pub fn append_frame(buf: &mut Vec<u8>, topic: Topic, payload: &[u8]) -> Result<(), FrameError> {
    let body_len = 5 + payload.len();
    if body_len > MAX_FRAME {
        return Err(FrameError::Oversized { len: body_len });
    }
    buf.reserve(4 + body_len);
    #[allow(clippy::cast_possible_truncation)] // MAX_FRAME < u32::MAX
    buf.extend_from_slice(&(body_len as u32).to_be_bytes());
    buf.push(WIRE_VERSION);
    buf.extend_from_slice(&topic.0.to_be_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

/// Frames produced by one [`FrameDecoder::drain`] pass, plus the terminal
/// error (if any) hit after them. Once `fatal` is set the stream's framing
/// is unrecoverable and the link must close — but every frame decoded
/// before the error is still delivered.
#[derive(Debug)]
pub struct Drained {
    /// Complete frames decoded this pass, in wire order.
    pub frames: Vec<WireFrame>,
    /// Terminal decode error, if the batch ended in one.
    pub fatal: Option<FrameError>,
}

/// Incremental frame decoder: feed it raw socket bytes, drain complete
/// frames in batches. See the module docs for the zero-copy contract.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    #[must_use]
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw bytes read from the socket.
    pub fn extend(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet drained (complete or partial).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Decodes every complete frame currently buffered, in one pass. The
    /// complete-frame prefix is moved into a single shared allocation and
    /// payloads are returned as zero-copy slices of it; any partial
    /// trailing frame stays buffered for the next read.
    pub fn drain(&mut self) -> Drained {
        // First pass: find the complete-frame prefix (and the first fatal
        // length error, which truncates the stream there).
        let mut spans: Vec<(usize, usize)> = Vec::new(); // (body_start, body_len)
        let mut pos = 0usize;
        let mut fatal = None;
        while self.buf.len() - pos >= 4 {
            let len = u32::from_be_bytes(
                self.buf[pos..pos + 4].try_into().expect("4-byte length prefix"),
            ) as usize;
            if len > MAX_FRAME {
                fatal = Some(FrameError::Oversized { len });
                break;
            }
            if self.buf.len() - pos - 4 < len {
                break; // partial frame: wait for more bytes
            }
            spans.push((pos + 4, len));
            pos += 4 + len;
        }
        if spans.is_empty() {
            return Drained { frames: Vec::new(), fatal };
        }

        // Move (don't copy) the complete prefix into one shared buffer.
        let batch: Bytes = if pos == self.buf.len() {
            std::mem::take(&mut self.buf).into()
        } else {
            let rest = self.buf.split_off(pos);
            std::mem::replace(&mut self.buf, rest).into()
        };

        // Second pass: decode each body as a view of the batch.
        let mut frames = Vec::with_capacity(spans.len());
        for (start, len) in spans {
            match decode_body(&batch, start, len) {
                Ok(frame) => frames.push(frame),
                Err(e) => {
                    fatal = Some(e);
                    break;
                }
            }
        }
        Drained { frames, fatal }
    }
}

/// Decodes one frame body at `batch[start..start + len]`.
fn decode_body(batch: &Bytes, start: usize, len: usize) -> Result<WireFrame, FrameError> {
    let body = &batch.as_slice()[start..start + len];
    if len < 5 || body[0] != WIRE_VERSION {
        return Err(FrameError::Corrupt);
    }
    let topic = u32::from_be_bytes(body[1..5].try_into().expect("4-byte topic"));
    // The zero-copy hand-off: a view of the batch, not a copy.
    let payload = batch.slice(start + 5..start + len);
    Ok(WireFrame { topic: Topic(topic), payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(bytes: &[u8]) -> Drained {
        let mut dec = FrameDecoder::new();
        dec.extend(bytes);
        dec.drain()
    }

    #[test]
    fn binary_round_trip() {
        let mut buf = Vec::new();
        append_frame(&mut buf, Topic(7), b"hello").unwrap();
        append_frame(&mut buf, Topic(0x4000_0001), &[]).unwrap();
        let out = drain_all(&buf);
        assert!(out.fatal.is_none());
        assert_eq!(out.frames.len(), 2);
        assert_eq!(out.frames[0].topic, Topic(7));
        assert_eq!(out.frames[0].payload.as_ref(), b"hello");
        assert_eq!(out.frames[1].topic, Topic(0x4000_0001));
        assert!(out.frames[1].payload.is_empty());
    }

    #[test]
    fn golden_binary_frame() {
        // 9-byte body: version 0x01, topic 7 BE, payload [0xAA, 0xBB].
        let mut buf = Vec::new();
        append_frame(&mut buf, Topic(7), &[0xAA, 0xBB]).unwrap();
        assert_eq!(buf, vec![0, 0, 0, 7, 0x01, 0, 0, 0, 7, 0xAA, 0xBB]);
    }

    #[test]
    fn binary_payloads_are_views_of_one_batch_allocation() {
        let mut buf = Vec::new();
        append_frame(&mut buf, Topic(1), b"aaaa").unwrap();
        append_frame(&mut buf, Topic(2), b"bbbb").unwrap();
        let out = drain_all(&buf);
        let p0 = out.frames[0].payload.as_slice().as_ptr() as usize;
        let p1 = out.frames[1].payload.as_slice().as_ptr() as usize;
        // Second payload sits exactly one frame after the first inside the
        // same backing allocation: offset = rest of frame 0 (4 for "aaaa")
        // + frame 1's prefix and header (4 + 5).
        assert_eq!(p1 - p0, 4 + FRAME_OVERHEAD);
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut full = Vec::new();
        append_frame(&mut full, Topic(9), b"split me").unwrap();
        let mut dec = FrameDecoder::new();
        for chunk in full.chunks(3) {
            let before = dec.drain();
            assert!(before.fatal.is_none());
            assert!(before.frames.is_empty() || chunk.is_empty());
            dec.extend(chunk);
        }
        let out = dec.drain();
        assert!(out.fatal.is_none());
        assert_eq!(out.frames.len(), 1);
        assert_eq!(out.frames[0].payload.as_ref(), b"split me");
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn trailing_partial_survives_a_drain() {
        let mut buf = Vec::new();
        append_frame(&mut buf, Topic(1), b"whole").unwrap();
        let mut second = Vec::new();
        append_frame(&mut second, Topic(2), b"later").unwrap();
        buf.extend_from_slice(&second[..4]); // only the next length prefix
        let mut dec = FrameDecoder::new();
        dec.extend(&buf);
        let first = dec.drain();
        assert_eq!(first.frames.len(), 1);
        assert_eq!(dec.pending(), 4);
        dec.extend(&second[4..]);
        let rest = dec.drain();
        assert_eq!(rest.frames.len(), 1);
        assert_eq!(rest.frames[0].payload.as_ref(), b"later");
    }

    #[test]
    fn oversized_length_prefix_is_fatal() {
        let mut buf = Vec::new();
        append_frame(&mut buf, Topic(1), b"ok").unwrap();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let out = drain_all(&buf);
        assert_eq!(out.frames.len(), 1, "frames before the bad prefix still decode");
        assert!(matches!(out.fatal, Some(FrameError::Oversized { .. })));
    }

    #[test]
    fn unknown_version_byte_is_fatal() {
        // A future version, the retired JSON body (opened with `{`), and a
        // body too short for its own header.
        for body in [&[0x02, 0, 0, 0, 7, 0xFF][..], br#"{"topic":42,"payload":[]}"#, &[0x01, 0, 0]]
        {
            let mut buf = Vec::new();
            #[allow(clippy::cast_possible_truncation)]
            buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
            buf.extend_from_slice(body);
            let out = drain_all(&buf);
            assert!(out.frames.is_empty());
            assert_eq!(out.fatal, Some(FrameError::Corrupt));
        }
    }

    #[test]
    fn oversized_payload_is_refused_at_encode_time() {
        let huge = vec![0u8; MAX_FRAME - 4]; // body would be MAX_FRAME + 1
        let mut buf = Vec::new();
        let err = append_frame(&mut buf, Topic(1), &huge).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }));
        assert!(buf.is_empty(), "nothing appended on refusal");
    }
}
