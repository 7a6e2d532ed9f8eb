//! Length-prefixed framing over a byte stream.
//!
//! One frame = a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. The prefix makes message boundaries explicit (no
//! sentinel scanning inside JSON strings) and lets the server reject an
//! oversized or empty claim *before* buffering a byte of payload.

use std::io::{self, Read, Write};

/// Largest accepted frame payload, in bytes. Scenario specs and response
/// documents are a few KiB; anything over a mebibyte is a protocol error
/// (or an attempt to make the server buffer unbounded input).
pub const MAX_FRAME: u32 = 1 << 20;

/// Why a frame could not be read (or written).
#[derive(Debug)]
pub enum FrameError {
    /// Clean end-of-stream at a frame boundary: the peer is done.
    Closed,
    /// The header claimed a zero-length payload.
    Empty,
    /// The header claimed more than [`MAX_FRAME`] bytes.
    TooLarge(u32),
    /// The payload was not UTF-8.
    Utf8,
    /// The stream failed mid-frame (torn header, torn payload, or a
    /// transport error).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Empty => f.write_str("zero-length frame"),
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Utf8 => f.write_str("frame payload is not UTF-8"),
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental frame decoder: buffers header and payload bytes across
/// reads, so a connection rotated off a worker mid-frame (a client
/// dribbling bytes slower than the poll interval) resumes exactly where
/// it left off instead of discarding the partial frame. The server
/// carries one of these with every rotated connection.
#[derive(Debug, Default)]
pub struct FrameReader {
    header: [u8; 4],
    header_got: usize,
    payload: Vec<u8>,
    payload_got: usize,
    in_payload: bool,
}

impl FrameReader {
    /// A decoder at a frame boundary.
    #[must_use]
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// True when bytes of an unfinished frame are buffered.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.header_got > 0 || self.in_payload
    }

    /// Drives the decoder with whatever `r` can produce right now.
    /// Returns `Ok(Some(payload))` on a complete frame (the decoder
    /// resets to the next boundary), `Ok(None)` when the read would
    /// block or timed out — buffered state is preserved for the next
    /// poll.
    ///
    /// # Errors
    ///
    /// [`FrameError::Closed`] on a clean end-of-stream *at* a frame
    /// boundary; a mid-frame disconnect is [`FrameError::Io`]; malformed
    /// claims are [`FrameError::Empty`] / [`FrameError::TooLarge`],
    /// detected without buffering the payload; a complete non-UTF-8
    /// payload is [`FrameError::Utf8`].
    pub fn poll(&mut self, r: &mut impl Read) -> Result<Option<String>, FrameError> {
        loop {
            let buf = if self.in_payload {
                &mut self.payload[self.payload_got..]
            } else {
                &mut self.header[self.header_got..]
            };
            match r.read(buf) {
                Ok(0) => {
                    return Err(if self.mid_frame() {
                        FrameError::Io(io::ErrorKind::UnexpectedEof.into())
                    } else {
                        FrameError::Closed
                    });
                }
                Ok(n) if self.in_payload => {
                    self.payload_got += n;
                    if self.payload_got == self.payload.len() {
                        let bytes = std::mem::take(&mut self.payload);
                        *self = FrameReader::new();
                        return String::from_utf8(bytes)
                            .map(Some)
                            .map_err(|_| FrameError::Utf8);
                    }
                }
                Ok(n) => {
                    self.header_got += n;
                    if self.header_got == self.header.len() {
                        let len = u32::from_be_bytes(self.header);
                        if len == 0 {
                            return Err(FrameError::Empty);
                        }
                        if len > MAX_FRAME {
                            return Err(FrameError::TooLarge(len));
                        }
                        self.payload = vec![0u8; len as usize];
                        self.payload_got = 0;
                        self.in_payload = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

/// Reads one frame's payload, blocking until it is complete.
///
/// # Errors
///
/// [`FrameError::Closed`] on a clean end-of-stream *before* any header
/// byte; every torn read (mid-header or mid-payload disconnect) is
/// [`FrameError::Io`], and so is a read timeout (`WouldBlock` /
/// `TimedOut` — use [`FrameReader`] directly to resume across
/// timeouts); malformed claims are [`FrameError::Empty`] /
/// [`FrameError::TooLarge`], detected without buffering the payload.
pub fn read_frame(r: &mut impl Read) -> Result<String, FrameError> {
    match FrameReader::new().poll(r) {
        Ok(Some(payload)) => Ok(payload),
        Ok(None) => Err(FrameError::Io(io::ErrorKind::WouldBlock.into())),
        Err(e) => Err(e),
    }
}

/// Writes one frame (header + payload) in a single write and flushes.
///
/// A header written on its own reaches the reader as a segment of four
/// bytes: the reader wakes for it and sleeps again until the payload
/// follows, and with Nagle's algorithm on, the payload waits for the
/// header's acknowledgement. One write sends the frame as one unit.
///
/// # Errors
///
/// `InvalidInput` for payloads the peer would reject (empty or over
/// [`MAX_FRAME`]); otherwise the transport's error.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n > 0 && n <= MAX_FRAME)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes is outside 1..={MAX_FRAME}",
                    payload.len()
                ),
            )
        })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"x\":1}").expect("writes");
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).expect("reads"), "{\"x\":1}");
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    /// Records the length of every `write` call.
    #[derive(Default)]
    struct Writes(Vec<usize>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut writes = Writes::default();
        write_frame(&mut writes, "{\"x\":1}").expect("writes");
        assert_eq!(writes.0, [4 + 7], "header and payload in one write");
    }

    #[test]
    fn rejects_bad_claims_before_buffering() {
        let mut zero = &[0u8, 0, 0, 0][..];
        assert!(matches!(read_frame(&mut zero), Err(FrameError::Empty)));
        let huge = (MAX_FRAME + 1).to_be_bytes();
        let mut huge = &huge[..];
        assert!(matches!(
            read_frame(&mut huge),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn torn_header_and_torn_payload_are_io_errors() {
        let mut torn_header = &[0u8, 0][..];
        assert!(matches!(
            read_frame(&mut torn_header),
            Err(FrameError::Io(_))
        ));
        let mut torn_payload = Vec::from(10u32.to_be_bytes());
        torn_payload.extend_from_slice(b"abc");
        let mut torn_payload = &torn_payload[..];
        assert!(matches!(
            read_frame(&mut torn_payload),
            Err(FrameError::Io(_))
        ));
    }

    /// Yields its script one chunk per read, interleaving `WouldBlock`
    /// errors — a dribbling client as the kernel presents it.
    struct Dribble {
        chunks: Vec<Option<Vec<u8>>>,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.chunks.pop() {
                Some(Some(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                None => Ok(0),
            }
        }
    }

    #[test]
    fn frame_reader_resumes_across_would_block() {
        let mut framed = Vec::new();
        write_frame(&mut framed, "{\"x\":1}").expect("writes");
        // One byte per read, a WouldBlock between every pair.
        let mut chunks: Vec<Option<Vec<u8>>> = Vec::new();
        for b in &framed {
            chunks.push(Some(vec![*b]));
            chunks.push(None);
        }
        chunks.reverse();
        let mut dribble = Dribble { chunks };
        let mut reader = FrameReader::new();
        let mut polls = 0usize;
        let payload = loop {
            polls += 1;
            assert!(polls < 100, "reader must converge");
            match reader.poll(&mut dribble).expect("no frame error") {
                Some(p) => break p,
                None => assert!(
                    polls == 1 || reader.mid_frame(),
                    "blocked polls past the first must hold partial state"
                ),
            }
        };
        assert_eq!(payload, "{\"x\":1}");
        assert!(!reader.mid_frame(), "reader resets at the boundary");
    }

    #[test]
    fn frame_reader_types_a_mid_frame_disconnect() {
        // Two header bytes then clean EOF: torn, not Closed.
        let mut torn = Dribble {
            chunks: vec![Some(vec![0u8, 0])],
        };
        torn.chunks.reverse();
        let mut reader = FrameReader::new();
        assert!(matches!(reader.poll(&mut torn), Err(FrameError::Io(_))));
    }

    #[test]
    fn non_utf8_payload_is_typed() {
        let mut buf = Vec::from(2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut cursor = &buf[..];
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Utf8)));
    }
}
