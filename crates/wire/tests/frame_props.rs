//! Property-based tests for the wire frame codec.
//!
//! The adversarial surface of §2.3 is the network, so the codec must be
//! total on arbitrary bytes (reject, never panic) and its success path
//! must uphold the padded-message invariant: every frame of a padding
//! class has exactly the same on-wire length, whatever the payload.

use pprox_wire::frame::{parse_header, Frame, FrameError, PadClass, HEADER_LEN, WIRE_VERSION};
use proptest::prelude::*;

/// Picks a padding class from an arbitrary index.
fn class_of(i: usize) -> PadClass {
    PadClass::ALL[i % PadClass::ALL.len()]
}

/// Arbitrary payload bytes, later truncated to the chosen class's
/// capacity (the shim has no flat-map, so sizing happens in the test).
fn payload_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..2300usize)
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(i in 0usize..3, mut payload in payload_bytes(), corr in any::<u64>()) {
        let class = class_of(i);
        payload.truncate(class.max_payload());
        let frame = Frame::new(class, corr, payload.clone()).unwrap();
        let bytes = frame.encode().unwrap();
        let decoded = Frame::decode(&bytes).unwrap();
        prop_assert_eq!(decoded.class, class);
        prop_assert_eq!(decoded.corr, corr);
        prop_assert_eq!(decoded.payload, payload);
    }

    #[test]
    fn wire_length_is_constant_per_class(i in 0usize..3, mut payload in payload_bytes(), corr in any::<u64>()) {
        let class = class_of(i);
        payload.truncate(class.max_payload());
        let bytes = Frame::new(class, corr, payload).unwrap().encode().unwrap();
        // Identical on-wire length for every payload of the class: the
        // padded-message requirement of §4.
        prop_assert_eq!(bytes.len(), class.wire_len());
        prop_assert_eq!(bytes.len(), HEADER_LEN + class.capacity());
    }

    #[test]
    fn oversized_payload_is_rejected(i in 0usize..3, extra in 1usize..64) {
        let class = class_of(i);
        let payload = vec![0u8; class.max_payload() + extra];
        let err = Frame::new(class, 9, payload).unwrap_err();
        prop_assert!(matches!(err, FrameError::PayloadTooLong { .. }), "got {:?}", err);
    }

    #[test]
    fn truncation_is_rejected(i in 0usize..3, mut payload in payload_bytes(), cut in 0usize..4096) {
        let class = class_of(i);
        payload.truncate(class.max_payload());
        let bytes = Frame::new(class, 9, payload).unwrap().encode().unwrap();
        let keep = cut % bytes.len(); // strictly shorter than the frame
        let err = Frame::decode(&bytes[..keep]).unwrap_err();
        prop_assert!(
            matches!(err, FrameError::Truncated { .. } | FrameError::BadMagic),
            "unexpected error for truncation to {}: {:?}", keep, err
        );
    }

    #[test]
    fn extension_is_rejected(i in 0usize..3, mut payload in payload_bytes(), extra in 1usize..64) {
        let class = class_of(i);
        payload.truncate(class.max_payload());
        let mut bytes = Frame::new(class, 9, payload).unwrap().encode().unwrap();
        bytes.extend(std::iter::repeat_n(0xab, extra));
        let err = Frame::decode(&bytes).unwrap_err();
        prop_assert!(matches!(err, FrameError::TrailingBytes { .. }), "got {:?}", err);
    }

    #[test]
    fn garbage_prefix_is_rejected(
        garbage in proptest::collection::vec(any::<u8>(), 1..8),
        i in 0usize..3,
        mut payload in payload_bytes(),
    ) {
        let class = class_of(i);
        payload.truncate(class.max_payload());
        let frame = Frame::new(class, 9, payload).unwrap().encode().unwrap();
        let mut bytes = garbage.clone();
        bytes.extend_from_slice(&frame);
        // A desynchronized stream must fail loudly, never resync silently.
        prop_assert!(Frame::decode(&bytes).is_err());
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Frame::decode(&bytes); // total on adversarial input
        if bytes.len() >= HEADER_LEN {
            let mut header = [0u8; HEADER_LEN];
            header.copy_from_slice(&bytes[..HEADER_LEN]);
            let _ = parse_header(&header);
        }
    }

    #[test]
    fn version_mismatch_is_a_typed_error(i in 0usize..3, mut payload in payload_bytes(), v in any::<u8>()) {
        prop_assume!(v != WIRE_VERSION);
        let class = class_of(i);
        payload.truncate(class.max_payload());
        let mut bytes = Frame::new(class, 9, payload).unwrap().encode().unwrap();
        bytes[2] = v;
        let err = Frame::decode(&bytes).unwrap_err();
        prop_assert!(matches!(err, FrameError::Version { got } if got == v), "got {:?}", err);
    }

    #[test]
    fn payload_corruption_fails_the_checksum(
        i in 0usize..3,
        mut payload in payload_bytes(),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let class = class_of(i);
        payload.truncate(class.max_payload());
        let mut bytes = Frame::new(class, 9, payload).unwrap().encode().unwrap();
        let body_at = HEADER_LEN + flip_at % class.capacity();
        bytes[body_at] ^= 1 << flip_bit;
        let err = Frame::decode(&bytes).unwrap_err();
        // A flipped body bit lands on the checksum; flipping inside the
        // padding region may surface as a padding error instead — both
        // are rejections.
        prop_assert!(
            matches!(err, FrameError::ChecksumMismatch | FrameError::Padding),
            "got {:?}", err
        );
    }

    #[test]
    fn corr_corruption_fails_the_checksum(
        i in 0usize..3,
        mut payload in payload_bytes(),
        corr in any::<u64>(),
        flip_bit in 0usize..64,
    ) {
        let class = class_of(i);
        payload.truncate(class.max_payload());
        let mut bytes = Frame::new(class, corr, payload).unwrap().encode().unwrap();
        // The correlation id sits in header bytes 8..16 and is covered by
        // the checksum: an answer cannot be re-attributed by a bit error.
        bytes[8 + flip_bit / 8] ^= 1 << (flip_bit % 8);
        prop_assert_eq!(Frame::decode(&bytes), Err(FrameError::ChecksumMismatch));
    }
}

/// A wire-version-1 peer (truncated-SHA-256 checksum) is refused by the
/// version byte on both entry points, before any checksum is computed.
#[test]
fn version_1_header_is_rejected_with_version() {
    assert_eq!(WIRE_VERSION, 2);
    for class in PadClass::ALL {
        let mut bytes = Frame::new(class, 9, b"v1 peer".to_vec())
            .unwrap()
            .encode()
            .unwrap();
        bytes[2] = 1;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::Version { got: 1 }));
        let header: [u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().unwrap();
        assert_eq!(parse_header(&header), Err(FrameError::Version { got: 1 }));
    }
}

/// Cross-class check outside proptest: the three classes must have
/// pairwise distinct wire lengths (an observer CAN distinguish classes —
/// that is by design; §4 requires uniformity within a class).
#[test]
fn classes_have_distinct_wire_lengths() {
    let lens: Vec<usize> = PadClass::ALL.iter().map(|c| c.wire_len()).collect();
    for i in 0..lens.len() {
        for j in i + 1..lens.len() {
            assert_ne!(lens[i], lens[j]);
        }
    }
}
