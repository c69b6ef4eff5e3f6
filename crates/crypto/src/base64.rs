//! Standard base64 (RFC 4648) encoding and decoding.
//!
//! The paper's implementation stores encrypted content in base64 inside JSON
//! payloads (§5); this module provides that encoding without an external
//! dependency.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes `data` as standard base64 with padding.
///
/// # Examples
///
/// ```
/// assert_eq!(pprox_crypto::base64::encode(b"hi"), "aGk=");
/// ```
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let n = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(n >> 18) as usize & 0x3f] as char);
        out.push(ALPHABET[(n >> 12) as usize & 0x3f] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(n >> 6) as usize & 0x3f] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[n as usize & 0x3f] as char
        } else {
            '='
        });
    }
    out
}

/// Error returned by [`decode`] on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeBase64Error {
    /// Byte offset of the offending character, if applicable.
    pub position: Option<usize>,
}

impl std::fmt::Display for DecodeBase64Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.position {
            Some(p) => write!(f, "invalid base64 at byte {p}"),
            None => write!(f, "invalid base64 length"),
        }
    }
}

impl std::error::Error for DecodeBase64Error {}

/// Marks a byte outside the alphabet in [`DECODE`].
const INVALID: u8 = 0xff;

/// Sextet of every input byte, [`INVALID`] for the rest (`=` included:
/// padding is positional and handled by [`decode_padded`]).
const DECODE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Decodes standard base64 (padding required).
///
/// # Errors
///
/// Returns [`DecodeBase64Error`] if the input length is not a multiple of 4
/// or contains characters outside the standard alphabet.
pub fn decode(s: &str) -> Result<Vec<u8>, DecodeBase64Error> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(DecodeBase64Error { position: None });
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (offset, group) in bytes.chunks_exact(4).enumerate() {
        let offset = offset * 4;
        let v = [group[0], group[1], group[2], group[3]].map(|c| DECODE[c as usize]);
        // Sextets are below 64; only INVALID sets the top bits.
        if (v[0] | v[1] | v[2] | v[3]) < 64 {
            let n = (v[0] as u32) << 18 | (v[1] as u32) << 12 | (v[2] as u32) << 6 | v[3] as u32;
            out.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
        } else {
            let is_last = offset + 4 == bytes.len();
            decode_padded(group, v, is_last, &mut out).map_err(|i| DecodeBase64Error {
                position: Some(offset + i),
            })?;
        }
    }
    Ok(out)
}

/// A group holding `=` or a byte outside the alphabet: well-formed only as
/// the last group, ending in one or two `=`. `Err` is the index within
/// the group of the first offending byte.
fn decode_padded(group: &[u8], v: [u8; 4], is_last: bool, out: &mut Vec<u8>) -> Result<(), usize> {
    let mut n = 0u32;
    let mut pad = 0;
    for i in 0..4 {
        if group[i] == b'=' {
            if !is_last || i < 2 {
                return Err(i);
            }
            pad += 1;
            n <<= 6;
        } else {
            // Data after padding, or not data at all.
            if pad > 0 || v[i] == INVALID {
                return Err(i);
            }
            n = (n << 6) | v[i] as u32;
        }
    }
    // Whatever sent the group here and was not an error was a `=`.
    out.push((n >> 16) as u8);
    if pad < 2 {
        out.push((n >> 8) as u8);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4648 §10 test vectors.
    #[test]
    fn rfc4648_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", ""),
            (b"f", "Zg=="),
            (b"fo", "Zm8="),
            (b"foo", "Zm9v"),
            (b"foob", "Zm9vYg=="),
            (b"fooba", "Zm9vYmE="),
            (b"foobar", "Zm9vYmFy"),
        ];
        for (plain, enc) in cases {
            assert_eq!(encode(plain), *enc);
            assert_eq!(decode(enc).unwrap(), plain.to_vec());
        }
    }

    #[test]
    fn roundtrip_binary() {
        let data: Vec<u8> = (0..=255u8).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn rejects_bad_length() {
        assert!(decode("abc").is_err());
    }

    #[test]
    fn rejects_bad_chars() {
        let err = decode("ab!=").unwrap_err();
        assert_eq!(err.position, Some(2));
    }

    #[test]
    fn rejects_interior_padding() {
        assert!(decode("Zg==Zg==").is_err());
        assert!(decode("Z=g=").is_err());
    }

    #[test]
    fn error_position_is_the_first_offending_byte() {
        for (input, position) in [
            ("Zg==Zg==", 2),
            ("Z=g=", 1),
            ("Zg=a", 3),
            ("====", 0),
            ("Zm9vYm!y", 6),
            ("Zm9v!mFy", 4),
            ("ab\u{e9}", 2),
            ("Zm9vYg==Zm9v", 6),
        ] {
            assert_eq!(
                decode(input).unwrap_err().position,
                Some(position),
                "{input}"
            );
        }
    }

    #[test]
    fn error_display() {
        assert_eq!(
            decode("a").unwrap_err().to_string(),
            "invalid base64 length"
        );
    }
}
