//! Fixed-size message padding.
//!
//! §4.3 of the paper: "The size of all encrypted messages is constant, by
//! using fixed-size user and item identifiers, and padding when necessary."
//! Constant-size framing is what defeats size-based traffic correlation; the
//! `security_analysis` harness includes an ablation that gives each message
//! of a measured trace its own length and shows the attack succeeding again.
//!
//! Format: 4-byte big-endian payload length, payload, zero fill.

/// Error returned when a payload cannot be padded or unpadded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PadError {
    /// The payload (plus the length header) exceeds the frame size.
    TooLong {
        /// Payload length that was attempted.
        len: usize,
        /// Maximum payload length for the frame.
        max: usize,
    },
    /// The framed data is malformed (wrong size or inconsistent header).
    Malformed,
}

impl std::fmt::Display for PadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PadError::TooLong { len, max } => {
                write!(f, "payload of {len} bytes exceeds frame capacity {max}")
            }
            PadError::Malformed => write!(f, "malformed padded frame"),
        }
    }
}

impl std::error::Error for PadError {}

/// Pads `payload` to exactly `frame_len` bytes.
///
/// # Errors
///
/// Returns [`PadError::TooLong`] if `payload.len() + 4 > frame_len`.
///
/// # Examples
///
/// ```
/// let framed = pprox_crypto::pad::pad(b"abc", 16)?;
/// assert_eq!(framed.len(), 16);
/// assert_eq!(pprox_crypto::pad::unpad(&framed, 16)?, b"abc");
/// # Ok::<(), pprox_crypto::pad::PadError>(())
/// ```
pub fn pad(payload: &[u8], frame_len: usize) -> Result<Vec<u8>, PadError> {
    let max = max_payload_len(frame_len);
    if payload.len() > max {
        return Err(PadError::TooLong {
            len: payload.len(),
            max,
        });
    }
    let mut out = Vec::with_capacity(frame_len);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out.resize(frame_len, 0);
    Ok(out)
}

/// Recovers the payload from a frame produced by [`pad`].
///
/// # Errors
///
/// Returns [`PadError::Malformed`] if `framed.len() != frame_len` or the
/// embedded length is inconsistent.
pub fn unpad(framed: &[u8], frame_len: usize) -> Result<Vec<u8>, PadError> {
    if framed.len() != frame_len || frame_len < 4 {
        return Err(PadError::Malformed);
    }
    let len = u32::from_be_bytes([framed[0], framed[1], framed[2], framed[3]]) as usize;
    if len > frame_len - 4 {
        return Err(PadError::Malformed);
    }
    Ok(framed[4..4 + len].to_vec())
}

/// Maximum payload length for a given frame size (0 when the frame cannot
/// even hold the header).
pub fn max_payload_len(frame_len: usize) -> usize {
    frame_len.saturating_sub(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_sizes() {
        for len in [0usize, 1, 10, 100] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let framed = pad(&payload, 256).unwrap();
            assert_eq!(framed.len(), 256);
            assert_eq!(unpad(&framed, 256).unwrap(), payload);
        }
    }

    #[test]
    fn frames_are_constant_size() {
        let a = pad(b"x", 64).unwrap();
        let b = pad(&[7u8; 50], 64).unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn exact_fit() {
        let payload = vec![9u8; 60];
        let framed = pad(&payload, 64).unwrap();
        assert_eq!(unpad(&framed, 64).unwrap(), payload);
    }

    #[test]
    fn too_long_rejected() {
        assert_eq!(
            pad(&[0u8; 61], 64),
            Err(PadError::TooLong { len: 61, max: 60 })
        );
    }

    #[test]
    fn malformed_rejected() {
        assert_eq!(unpad(&[0u8; 63], 64), Err(PadError::Malformed));
        // Length header claiming more than available.
        let mut framed = pad(b"ok", 64).unwrap();
        framed[0..4].copy_from_slice(&1000u32.to_be_bytes());
        assert_eq!(unpad(&framed, 64), Err(PadError::Malformed));
    }

    #[test]
    fn header_length_boundary() {
        // len == capacity is the largest accepted header; one more is
        // malformed even though the frame size itself is right.
        let mut framed = pad(&[1u8; 60], 64).unwrap();
        assert_eq!(unpad(&framed, 64).unwrap().len(), 60);
        framed[0..4].copy_from_slice(&61u32.to_be_bytes());
        assert_eq!(unpad(&framed, 64), Err(PadError::Malformed));
    }

    #[test]
    fn adversarial_frame_sizes() {
        // Truncated, extended, and empty frames must all be rejected
        // rather than sliced out of range.
        assert_eq!(unpad(&[], 64), Err(PadError::Malformed));
        assert_eq!(unpad(&[0u8; 65], 64), Err(PadError::Malformed));
        let framed = pad(b"ok", 64).unwrap();
        assert_eq!(unpad(&framed[..32], 64), Err(PadError::Malformed));
    }

    #[test]
    fn header_is_big_endian() {
        let framed = pad(&[9u8; 5], 64).unwrap();
        assert_eq!(&framed[0..4], &[0, 0, 0, 5]);
    }

    #[test]
    fn tiny_frames() {
        assert_eq!(max_payload_len(3), 0);
        assert_eq!(unpad(&[0; 3], 3), Err(PadError::Malformed));
        assert_eq!(pad(b"", 4).unwrap().len(), 4);
    }

    #[test]
    fn error_display() {
        let e = PadError::TooLong { len: 5, max: 4 };
        assert_eq!(e.to_string(), "payload of 5 bytes exceeds frame capacity 4");
    }
}
