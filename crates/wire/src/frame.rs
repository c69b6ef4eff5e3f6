//! The versioned, length-prefixed, constant-size binary frame codec.
//!
//! Everything that crosses a PProx socket is one *frame*:
//!
//! ```text
//! ┌────────┬─────────┬───────┬──────────┬────────────┬──────────┬──────────────────┐
//! │ magic  │ version │ class │ body_len │ correlation│ checksum │ body             │
//! │ 2 B    │ 1 B     │ 1 B   │ 4 B BE   │ 8 B BE     │ 4 B BE   │ body_len B       │
//! └────────┴─────────┴───────┴──────────┴────────────┴──────────┴──────────────────┘
//! ```
//!
//! `body_len` is redundant with `class` — every frame of a class carries
//! exactly that class's body capacity, padded with the same
//! length-prefixed zero-fill scheme the envelopes use
//! ([`pprox_crypto::pad`]). The redundancy is deliberate: the length
//! prefix lets a stream reader frame bytes without trusting the class
//! byte, and the class capacity check rejects any frame whose length
//! would make it distinguishable on the wire (§4.3's padded-message
//! requirement — an observer sees only three fixed sizes, never content-
//! dependent ones).
//!
//! The correlation id matches responses to requests **per hop**: it is
//! chosen by each hop's client and echoed by that hop's server, and a new
//! one is drawn for the next hop. It never travels UA→IA→LRS end to end,
//! so it cannot be used to re-link a request across the shuffle boundary.

use pprox_crypto::pad;

/// First two bytes of every frame.
pub const WIRE_MAGIC: [u8; 2] = *b"pW";

/// Codec version; bumped on any layout change. Version 2 replaced the
/// truncated SHA-256 checksum of version 1 with `checksum`'s
/// multiply-fold; the header layout and the three wire lengths did not
/// change, so a v1 peer is refused by the version byte, not by a
/// checksum mismatch.
pub const WIRE_VERSION: u8 = 2;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 20;

/// Constant-size padding classes. Every frame of a class has the exact
/// same on-wire length regardless of payload content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PadClass {
    /// Small control frames: wire-level status / error codes.
    Control,
    /// Request-direction frames: client→UA and UA→IA envelope frames
    /// (1024 bytes each) and IA→LRS request blocks.
    Request,
    /// Response-direction frames: the 2048-byte encrypted-list frames,
    /// LRS response blocks, and post acknowledgements — all padded to
    /// one size so gets and posts are indistinguishable on the way back.
    Response,
}

impl PadClass {
    /// All classes, in tag order.
    pub const ALL: [PadClass; 3] = [PadClass::Control, PadClass::Request, PadClass::Response];

    /// Body capacity in bytes (the padded body length on the wire).
    pub const fn capacity(self) -> usize {
        match self {
            PadClass::Control => 128,
            PadClass::Request => 1152,
            PadClass::Response => 2176,
        }
    }

    /// Largest payload that fits the class (capacity minus the 4-byte
    /// inner length prefix).
    pub const fn max_payload(self) -> usize {
        self.capacity() - 4
    }

    /// Total on-wire frame length for this class.
    pub const fn wire_len(self) -> usize {
        HEADER_LEN + self.capacity()
    }

    const fn tag(self) -> u8 {
        match self {
            PadClass::Control => 0,
            PadClass::Request => 1,
            PadClass::Response => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<PadClass> {
        match tag {
            0 => Some(PadClass::Control),
            1 => Some(PadClass::Request),
            2 => Some(PadClass::Response),
            _ => None,
        }
    }
}

/// Decode failures, each naming the structural check that rejected the
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The first two bytes are not [`WIRE_MAGIC`].
    BadMagic,
    /// The version byte does not match [`WIRE_VERSION`].
    Version {
        /// The version the peer sent.
        got: u8,
    },
    /// Unknown padding-class tag.
    UnknownClass(u8),
    /// The length prefix disagrees with the class capacity — the frame
    /// would be distinguishable on the wire.
    LengthMismatch {
        /// Declared body length.
        declared: usize,
        /// The class's required capacity.
        required: usize,
    },
    /// Fewer bytes than one whole frame.
    Truncated {
        /// Bytes required for the full frame (0 when even the header is
        /// incomplete).
        need: usize,
        /// Bytes available.
        got: usize,
    },
    /// More bytes than one whole frame where exactly one was expected.
    TrailingBytes {
        /// Extra bytes past the frame end.
        extra: usize,
    },
    /// Header checksum does not match the body.
    ChecksumMismatch,
    /// The padded body failed to unpad (corrupt fill or inner length).
    Padding,
    /// The payload exceeds the class capacity (encode side).
    PayloadTooLong {
        /// Payload length offered.
        len: usize,
        /// Class maximum.
        max: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::Version { got } => {
                write!(f, "wire version mismatch: got {got}, want {WIRE_VERSION}")
            }
            FrameError::UnknownClass(t) => write!(f, "unknown padding class tag {t}"),
            FrameError::LengthMismatch { declared, required } => {
                write!(
                    f,
                    "length {declared} differs from class capacity {required}"
                )
            }
            FrameError::Truncated { need, got } => {
                write!(f, "truncated frame: need {need} bytes, got {got}")
            }
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame end")
            }
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            FrameError::Padding => write!(f, "frame body padding invalid"),
            FrameError::PayloadTooLong { len, max } => {
                write!(f, "payload of {len} bytes exceeds class maximum {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded frame: class, per-hop correlation id, and the unpadded
/// payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Padding class (decides the constant on-wire length).
    pub class: PadClass,
    /// Per-hop correlation id, echoed by the server in its response.
    pub corr: u64,
    /// Application payload (unpadded).
    pub payload: Vec<u8>,
}

/// Odd 64-bit multipliers for [`checksum`] (the leading fractional bits
/// of the golden ratio and of √2, low bit forced).
const FOLD_K0: u64 = 0x9e37_79b9_7f4a_7c15;
const FOLD_K1: u64 = 0x6a09_e667_f3bc_c909;

/// `(a · b)` as 128 bits, high half XORed into the low half.
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = a as u128 * b as u128;
    (p as u64) ^ (p >> 64) as u64
}

/// 32-bit checksum over `version ‖ class ‖ corr ‖ body`: the body is
/// absorbed eight bytes at a time into a 64-bit state by multiply-fold,
/// read in place, and the state folded to a big-endian u32. Integrity
/// only (the payloads are already encrypted and authenticated end to end
/// where it matters); this catches stream desynchronization and garbage,
/// not adversaries — a corrupted frame slips through with probability
/// about 2⁻³², as it did under the truncated SHA-256 of wire version 1,
/// which cost 8 µs per frame and a copy of the body against 0.5 µs here.
fn checksum(class: PadClass, corr: u64, body: &[u8]) -> u32 {
    let head = (WIRE_VERSION as u64) << 8 | class.tag() as u64;
    let mut h = fold_mul(head ^ FOLD_K0, corr ^ FOLD_K1);
    let (words, rest) = body.as_chunks::<8>();
    for w in words {
        h = fold_mul(h ^ u64::from_le_bytes(*w), FOLD_K0);
    }
    // Every class capacity is a multiple of 8, so `rest` is empty for
    // real frames; it keeps the function total on any slice.
    let mut tail = [0u8; 8];
    tail[..rest.len()].copy_from_slice(rest);
    h = fold_mul(h ^ u64::from_le_bytes(tail), FOLD_K1 ^ body.len() as u64);
    (h ^ (h >> 32)) as u32
}

impl Frame {
    /// Builds a frame after checking the payload fits the class.
    ///
    /// # Errors
    ///
    /// [`FrameError::PayloadTooLong`] when it does not.
    pub fn new(class: PadClass, corr: u64, payload: Vec<u8>) -> Result<Frame, FrameError> {
        if payload.len() > class.max_payload() {
            return Err(FrameError::PayloadTooLong {
                len: payload.len(),
                max: class.max_payload(),
            });
        }
        Ok(Frame {
            class,
            corr,
            payload,
        })
    }

    /// Serializes to the constant on-wire form: always exactly
    /// [`PadClass::wire_len`] bytes for this frame's class.
    ///
    /// # Errors
    ///
    /// [`FrameError::PayloadTooLong`] when the payload exceeds the class
    /// capacity (impossible for frames built via [`Frame::new`]).
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        let body = pad::pad(&self.payload, self.class.capacity()).map_err(|_| {
            FrameError::PayloadTooLong {
                len: self.payload.len(),
                max: self.class.max_payload(),
            }
        })?;
        let mut out = Vec::with_capacity(HEADER_LEN + body.len());
        out.extend_from_slice(&WIRE_MAGIC);
        out.push(WIRE_VERSION);
        out.push(self.class.tag());
        out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.corr.to_be_bytes());
        out.extend_from_slice(&checksum(self.class, self.corr, &body).to_be_bytes());
        out.extend_from_slice(&body);
        Ok(out)
    }

    /// Parses exactly one frame from `bytes`.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`] variant; see [`parse_header`] for the header
    /// checks. [`FrameError::TrailingBytes`] when `bytes` extends past
    /// the frame end.
    pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        if bytes.len() < HEADER_LEN {
            return Err(FrameError::Truncated {
                need: 0,
                got: bytes.len(),
            });
        }
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&bytes[..HEADER_LEN]);
        let (class, body_len, corr) = parse_header(&header)?;
        let total = HEADER_LEN + body_len;
        if bytes.len() < total {
            return Err(FrameError::Truncated {
                need: total,
                got: bytes.len(),
            });
        }
        if bytes.len() > total {
            return Err(FrameError::TrailingBytes {
                extra: bytes.len() - total,
            });
        }
        let body = &bytes[HEADER_LEN..total];
        let want = u32::from_be_bytes([header[16], header[17], header[18], header[19]]);
        if checksum(class, corr, body) != want {
            return Err(FrameError::ChecksumMismatch);
        }
        let payload = pad::unpad(body, class.capacity()).map_err(|_| FrameError::Padding)?;
        Ok(Frame {
            class,
            corr,
            payload,
        })
    }
}

/// Validates a frame header and returns `(class, body_len, corr)`.
///
/// Used by stream readers to learn how many body bytes to expect before
/// the body has arrived. The checksum is *not* verified here (the body
/// is not yet available); [`Frame::decode`] does that.
///
/// # Errors
///
/// [`FrameError::BadMagic`], [`FrameError::Version`],
/// [`FrameError::UnknownClass`], or [`FrameError::LengthMismatch`].
pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(PadClass, usize, u64), FrameError> {
    if header[..2] != WIRE_MAGIC {
        return Err(FrameError::BadMagic);
    }
    if header[2] != WIRE_VERSION {
        return Err(FrameError::Version { got: header[2] });
    }
    let class = PadClass::from_tag(header[3]).ok_or(FrameError::UnknownClass(header[3]))?;
    let declared = u32::from_be_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if declared != class.capacity() {
        return Err(FrameError::LengthMismatch {
            declared,
            required: class.capacity(),
        });
    }
    let corr = u64::from_be_bytes([
        header[8], header[9], header[10], header[11], header[12], header[13], header[14],
        header[15],
    ]);
    Ok((class, declared, corr))
}

/// Decodes the complete frames at the front of `bytes` — a stream
/// reader's buffer — in place, handing each to `each`, and returns how
/// many bytes they took; a trailing partial frame is left for the next
/// read.
///
/// # Errors
///
/// The first [`FrameError`] met. The stream is then desynchronized (or
/// hostile): the caller cuts the connection rather than hunt for a
/// resync point.
pub fn decode_stream(bytes: &[u8], mut each: impl FnMut(Frame)) -> Result<usize, FrameError> {
    let mut pos = 0;
    while let Some(header) = bytes[pos..].first_chunk::<HEADER_LEN>() {
        let (_, body_len, _) = parse_header(header)?;
        let end = pos + HEADER_LEN + body_len;
        if end > bytes.len() {
            break;
        }
        each(Frame::decode(&bytes[pos..end])?);
        pos = end;
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_classes() {
        for class in PadClass::ALL {
            let frame = Frame::new(class, 0xdead_beef_0bad_cafe, b"hello".to_vec()).unwrap();
            let bytes = frame.encode().unwrap();
            assert_eq!(bytes.len(), class.wire_len());
            assert_eq!(Frame::decode(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn constant_length_within_class() {
        let a = Frame::new(PadClass::Request, 1, vec![]).unwrap();
        let b = Frame::new(
            PadClass::Request,
            2,
            vec![0xab; PadClass::Request.max_payload()],
        )
        .unwrap();
        assert_eq!(a.encode().unwrap().len(), b.encode().unwrap().len());
    }

    #[test]
    fn envelope_frames_fit_their_classes() {
        use pprox_core::message::{REQUEST_FRAME_LEN, RESPONSE_FRAME_LEN};
        assert!(REQUEST_FRAME_LEN <= PadClass::Request.max_payload());
        assert!(RESPONSE_FRAME_LEN <= PadClass::Response.max_payload());
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = Frame::new(PadClass::Control, 7, b"x".to_vec())
            .unwrap()
            .encode()
            .unwrap();
        bytes[2] = WIRE_VERSION + 1;
        assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::Version {
                got: WIRE_VERSION + 1
            })
        );
    }

    #[test]
    fn truncation_and_extension_rejected() {
        let bytes = Frame::new(PadClass::Control, 7, b"x".to_vec())
            .unwrap()
            .encode()
            .unwrap();
        assert!(matches!(
            Frame::decode(&bytes[..bytes.len() - 1]),
            Err(FrameError::Truncated { .. })
        ));
        assert!(matches!(
            Frame::decode(&bytes[..HEADER_LEN - 3]),
            Err(FrameError::Truncated { .. })
        ));
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            Frame::decode(&extended),
            Err(FrameError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn corrupt_body_rejected_by_checksum() {
        let mut bytes = Frame::new(PadClass::Control, 9, b"payload".to_vec())
            .unwrap()
            .encode()
            .unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::ChecksumMismatch));
    }

    #[test]
    fn checksum_is_pinned_for_wire_version_2() {
        // Golden values (cross-checked against an independent
        // implementation): changing the checksum changes the wire format
        // and needs a new WIRE_VERSION, not a new expectation here.
        assert_eq!(checksum(PadClass::Control, 0, &[0u8; 128]), 0x0fd7_fb08);
        assert_eq!(checksum(PadClass::Request, 7, b"pprox"), 0x7d76_1a4f);
        let bytes = Frame::new(PadClass::Control, 9, b"payload".to_vec())
            .unwrap()
            .encode()
            .unwrap();
        assert_eq!(bytes[16..20], [0xdc, 0x3f, 0x7a, 0xe9]);
    }

    #[test]
    fn checksum_covers_class_and_correlation_id() {
        let body = [0x5au8; 128];
        let base = checksum(PadClass::Control, 1, &body);
        assert_ne!(base, checksum(PadClass::Request, 1, &body));
        assert_ne!(base, checksum(PadClass::Control, 2, &body));
        assert_ne!(base, checksum(PadClass::Control, 1, &body[..127]));
    }

    #[test]
    fn garbage_prefix_rejected() {
        let mut bytes = vec![0x00, 0x01];
        bytes.extend(
            Frame::new(PadClass::Control, 9, vec![])
                .unwrap()
                .encode()
                .unwrap(),
        );
        bytes.truncate(PadClass::Control.wire_len());
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadMagic));
    }

    #[test]
    fn oversized_payload_rejected_at_build() {
        let too_big = vec![0u8; PadClass::Control.max_payload() + 1];
        assert!(matches!(
            Frame::new(PadClass::Control, 0, too_big),
            Err(FrameError::PayloadTooLong { .. })
        ));
    }

    #[test]
    fn header_length_prefix_must_match_class() {
        let mut bytes = Frame::new(PadClass::Control, 3, vec![])
            .unwrap()
            .encode()
            .unwrap();
        bytes[7] = bytes[7].wrapping_add(1); // tamper with body_len
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn decode_stream_takes_whole_frames_and_leaves_the_partial_one() {
        let a = Frame::new(PadClass::Control, 1, b"a".to_vec()).unwrap();
        let b = Frame::new(PadClass::Request, 2, b"b".to_vec()).unwrap();
        let mut bytes = a.encode().unwrap();
        bytes.extend(b.encode().unwrap());
        let whole = bytes.len();
        bytes.extend_from_slice(&a.encode().unwrap()[..HEADER_LEN + 5]);
        let mut seen = Vec::new();
        assert_eq!(decode_stream(&bytes, |f| seen.push(f)), Ok(whole));
        assert_eq!(seen, [a, b]);
        // Garbage after a good frame: the good one is delivered first.
        let mut bytes = seen[0].encode().unwrap();
        bytes.extend_from_slice(&[0xff; HEADER_LEN]);
        let mut seen = 0;
        assert_eq!(
            decode_stream(&bytes, |_| seen += 1),
            Err(FrameError::BadMagic)
        );
        assert_eq!(seen, 1);
    }
}
