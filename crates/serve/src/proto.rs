//! Length-prefixed framing of [`ControlFrame`]s over a byte stream.
//!
//! TCP gives the service a byte pipe, not datagrams, so every control
//! frame travels as a big-endian `u32` length prefix followed by exactly
//! that many [`wire::encode_control`] bytes; [`wire::encode_control_into`]
//! writes both. The prefix is bounded by [`MAX_FRAME_BYTES`]; a larger
//! announcement is rejected *before* any allocation, so a corrupt or
//! hostile peer cannot make the server buffer unbounded garbage.

use crate::error::{Result, ServeError};
use appclass_metrics::wire::{self, MAX_CONTROL_SIZE};
use appclass_metrics::ControlFrame;
use std::io::{ErrorKind, Read, Write};

/// Hard cap on one framed message: the largest legal control frame.
pub const MAX_FRAME_BYTES: usize = MAX_CONTROL_SIZE;

/// How many read timeouts mid-frame are tolerated before the peer is
/// declared gone. Timeouts *between* frames are normal; a peer that
/// stalls in the middle of a frame is broken. The wall-clock budget is
/// therefore this count times the read timeout — the server's shards
/// apply the same product to
/// [`ServerConfig::read_timeout`](crate::ServerConfig::read_timeout), and
/// the chaos suite's mid-frame stalls are calibrated against it.
pub const MID_FRAME_TIMEOUT_BUDGET: u32 = 100;

/// Writes one control frame (length prefix + encoded bytes) in a single
/// `write_all` and flushes. For the cold paths (refusals, tests): it
/// encodes into a fresh buffer sized to the frame, where a hot path
/// keeps its own and calls [`wire::encode_control_into`].
pub fn write_frame<W: Write>(w: &mut W, frame: &ControlFrame) -> Result<()> {
    let mut bytes = Vec::new();
    wire::encode_control_into(frame, &mut bytes);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// Reads one control frame, blocking until it arrives.
pub fn read_frame<R: Read>(r: &mut R) -> Result<ControlFrame> {
    match read_frame_or_idle(r)? {
        Some(frame) => Ok(frame),
        // Only possible on sockets with a read timeout configured.
        None => Err(ServeError::Io(std::io::Error::from(ErrorKind::TimedOut))),
    }
}

/// Reads one control frame from a stream that may have a read timeout
/// configured. Returns `Ok(None)` when the timeout fired before *any*
/// byte of the next frame arrived. Once a frame has started, short
/// timeouts are retried (up to a budget) so a frame split across packets
/// is never torn.
pub fn read_frame_or_idle<R: Read>(r: &mut R) -> Result<Option<ControlFrame>> {
    let mut prefix = [0u8; 4];
    if !read_exact_or_idle(r, &mut prefix)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ServeError::FrameTooLarge { size: len, max: MAX_FRAME_BYTES });
    }
    let mut body = vec![0u8; len];
    fill(r, &mut body, 0)?;
    Ok(Some(wire::decode_control(&body)?))
}

/// Like `read_exact`, but returns `Ok(false)` if a read timeout fires
/// before the first byte.
fn read_exact_or_idle<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool> {
    let mut got = 0usize;
    let mut timeouts = 0u32;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(ServeError::ConnectionClosed),
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) && got == 0 => return Ok(false),
            Err(e) if is_timeout(&e) => {
                // Mid-prefix stalls draw on the same budget as mid-body
                // ones: every timeout after the first byte counts.
                timeouts += 1;
                if timeouts > MID_FRAME_TIMEOUT_BUDGET {
                    return Err(ServeError::Io(e));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// Completes `buf` from offset `got`, retrying timeouts up to the
/// mid-frame budget.
fn fill<R: Read>(r: &mut R, buf: &mut [u8], mut got: usize) -> Result<()> {
    let mut timeouts = 0u32;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(ServeError::ConnectionClosed),
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) => {
                timeouts += 1;
                if timeouts > MID_FRAME_TIMEOUT_BUDGET {
                    return Err(ServeError::Io(e));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use appclass_metrics::ByeReason;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip_over_a_byte_stream() {
        let frames = [
            ControlFrame::Hello { session: 3, model_id: 99 },
            ControlFrame::Classify { ctx: None },
            ControlFrame::Bye { reason: ByeReason::Normal },
        ];
        let mut pipe = Vec::new();
        for f in &frames {
            write_frame(&mut pipe, f).unwrap();
        }
        let mut r = Cursor::new(pipe);
        for f in &frames {
            assert_eq!(&read_frame(&mut r).unwrap(), f);
        }
        assert!(matches!(read_frame(&mut r), Err(ServeError::ConnectionClosed)));
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocation() {
        let mut bytes = (u32::MAX).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let mut r = Cursor::new(bytes);
        assert!(matches!(read_frame(&mut r), Err(ServeError::FrameTooLarge { .. })));
    }

    #[test]
    fn corrupt_body_is_a_typed_wire_error() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &ControlFrame::Classify { ctx: None }).unwrap();
        let last = pipe.len() - 1;
        pipe[last] ^= 0xFF; // break the checksum
        let mut r = Cursor::new(pipe);
        assert!(matches!(read_frame(&mut r), Err(ServeError::Wire(_))));
    }

    #[test]
    fn truncated_stream_is_connection_closed() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &ControlFrame::Hello { session: 1, model_id: 1 }).unwrap();
        pipe.truncate(pipe.len() - 3);
        let mut r = Cursor::new(pipe);
        assert!(matches!(read_frame(&mut r), Err(ServeError::ConnectionClosed)));
    }

    /// A reader that delivers its bytes one at a time, injecting
    /// `WouldBlock` "timeouts" — the shape of a peer trickling a frame
    /// through a stalled link, without needing a real socket or a real
    /// clock. `timeouts_per_byte` stalls uniformly before every byte
    /// after the first; `stall_at` injects one long burst of timeouts
    /// before the byte at that position.
    struct StutterReader {
        data: Vec<u8>,
        pos: usize,
        /// Timeouts still to fire before the next byte is delivered.
        pending_timeouts: u32,
        /// Timeouts to fire before *each* subsequent byte.
        timeouts_per_byte: u32,
        /// One-shot stall: `(byte index, timeout count)`.
        stall_at: Option<(usize, u32)>,
    }

    impl StutterReader {
        fn new(data: Vec<u8>, timeouts_per_byte: u32) -> Self {
            // The first byte is delivered eagerly (the idle path would
            // otherwise return `None`); stalls start mid-frame.
            StutterReader { data, pos: 0, pending_timeouts: 0, timeouts_per_byte, stall_at: None }
        }

        fn with_stall(mut self, at: usize, timeouts: u32) -> Self {
            self.stall_at = Some((at, timeouts));
            self
        }
    }

    impl Read for StutterReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            if let Some((at, left)) = self.stall_at {
                if at == self.pos && left > 0 {
                    self.stall_at = Some((at, left - 1));
                    return Err(std::io::Error::from(ErrorKind::WouldBlock));
                }
            }
            if self.pending_timeouts > 0 {
                self.pending_timeouts -= 1;
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            self.pending_timeouts = self.timeouts_per_byte;
            Ok(1)
        }
    }

    #[test]
    fn frame_split_across_stalled_reads_survives_under_the_budget() {
        // Every byte after the first is preceded by a timeout; the frame
        // is ~30 bytes, so the total stays far below the per-fill budget
        // and the frame must reassemble exactly.
        let mut pipe = Vec::new();
        let frame = ControlFrame::Hello { session: 9, model_id: 0xABCD };
        write_frame(&mut pipe, &frame).unwrap();
        let mut r = StutterReader::new(pipe, 1);
        let got = read_frame_or_idle(&mut r).unwrap();
        assert_eq!(got, Some(frame));
    }

    #[test]
    fn stall_exactly_at_the_budget_still_succeeds() {
        // A single mid-body stall of exactly `MID_FRAME_TIMEOUT_BUDGET`
        // timeouts is within contract: the frame must still reassemble.
        let mut pipe = Vec::new();
        let frame = ControlFrame::Hello { session: 5, model_id: 77 };
        write_frame(&mut pipe, &frame).unwrap();
        let mut r = StutterReader::new(pipe, 0).with_stall(10, MID_FRAME_TIMEOUT_BUDGET);
        let got = read_frame_or_idle(&mut r).unwrap();
        assert_eq!(got, Some(frame));
    }

    #[test]
    fn stall_one_past_the_budget_is_a_typed_error_not_a_panic() {
        // One more timeout than the budget mid-body and the reader gives
        // the peer up with a typed Io error — never a panic, never a
        // torn frame handed to the decoder.
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &ControlFrame::Hello { session: 5, model_id: 77 }).unwrap();
        let mut r = StutterReader::new(pipe, 0).with_stall(10, MID_FRAME_TIMEOUT_BUDGET + 1);
        let err = read_frame_or_idle(&mut r).expect_err("one past the budget must fail");
        match err {
            ServeError::Io(e) => assert!(is_timeout(&e), "unexpected kind: {e}"),
            other => panic!("expected a typed Io timeout, got {other}"),
        }
    }

    #[test]
    fn stall_in_the_length_prefix_is_budgeted_too() {
        // The stall lands inside the 4-byte prefix (after byte 0, so the
        // idle path is already past): same typed failure.
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &ControlFrame::Classify { ctx: None }).unwrap();
        let mut r = StutterReader::new(pipe, 0).with_stall(2, MID_FRAME_TIMEOUT_BUDGET + 1);
        let err = read_frame_or_idle(&mut r).expect_err("prefix stall past budget");
        assert!(matches!(err, ServeError::Io(_)), "typed Io expected, got {err}");
    }
}
