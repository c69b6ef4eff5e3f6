//! Differential test battery for the crypto hot-path overhaul.
//!
//! Every optimized path introduced by the Montgomery/keystream work is
//! checked byte-for-byte against a slower reference that was retained for
//! exactly this purpose:
//!
//! * `BigUint::mod_pow` (Montgomery CIOS + fixed-window) vs.
//!   `BigUint::mod_pow_naive` (binary square-and-multiply) across random
//!   odd moduli of 512, 576, 683, 1024 and 2048 bits. 683 and 2048 bits
//!   (11 and 32 limbs: a prime and the modulus of a three-prime RSA-2048
//!   key) are the widths `Montgomery::mod_pow` dispatches to the
//!   fixed-width array kernels; 512, 576 and 1024 bits stay on the slice
//!   CIOS. The kernels are private, so squaring-vs-multiply and
//!   array-ladder-vs-slice-ladder are unit tests in `bigint.rs`; here
//!   both families meet the
//!   schoolbook reference through the public entry points, with short and
//!   with full-width (CRT-sized) exponents;
//! * `RsaPrivateKey::raw_decrypt` (CRT ladders and Garner's
//!   recombination) vs. `raw_decrypt_naive` (`c^d mod n` by schoolbook
//!   square-and-multiply on the whole modulus, no CRT) on 2048-bit keys —
//!   three 11-limb primes, so on a CPU with AVX-512 IFMA this is the
//!   radix-2⁵² vector ladders against the reference, and on any other CPU
//!   the fixed-width scalar kernels against it — on 1024-, 1152- and
//!   1536-bit keys, three primes on the slice kernels, and on 768-bit
//!   keys, the two primes every size below 1024 bits gets;
//! * `Montgomery::mod_mul` vs. `BigUint::mod_mul` (multiply-then-divide);
//! * `SymmetricKey::det_encrypt` (cached key schedule + cached keystream
//!   prefix) vs. `det_encrypt_fresh` (rebuilds the AES key schedule and
//!   streams from a zero counter) over lengths 0, 1, BLOCK_LEN−1,
//!   BLOCK_LEN, multi-block, and random lengths straddling the cached
//!   prefix boundary;
//! * the CTR keystream as this CPU dispatches it (`SymmetricKey::decrypt`
//!   of `iv ‖ data`: AES instructions, eight blocks in flight, on x86-64
//!   with `aes`) vs. `SymmetricKey::ctr_apply_portable` (scalar rounds, a
//!   block at a time) at every length through four wide chunks and a
//!   ragged tail, under random keys and IVs and under IVs placed so a
//!   carry out of the low 32, 64 and all 128 counter bits lands in a wide
//!   chunk, in the one-block remainder and in the partial last block.
//!   The portable side runs on every CPU; on one without `aes` both sides
//!   are the portable rounds and `ctr_dispatch_matches_portable_across_carries`
//!   says so;
//! * `BigUint::gcd` (Stein) and `BigUint::mod_inverse` vs. small-integer
//!   (`u64`/`i128`) reference implementations.
//!
//! Case count scales with `PROPTEST_CASES` (the acceptance bar runs the
//! suite at 256 cases).

use pprox_crypto::aes::BLOCK_LEN;
use pprox_crypto::bigint::{BigUint, Montgomery};
use pprox_crypto::ctr::{SymmetricKey, DET_PREFIX_BLOCKS, IV_LEN};
use pprox_crypto::rng::SecureRng;
use pprox_crypto::rsa::RsaKeyPair;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Random odd modulus with the top bit forced, so it has exactly `bits`
/// bits and the Montgomery path (odd modulus) is always taken.
fn odd_modulus(bits: usize) -> impl Strategy<Value = BigUint> {
    let len = bits.div_ceil(8);
    let excess = 8 * len - bits;
    proptest::collection::vec(any::<u8>(), len..len + 1).prop_map(move |mut bytes| {
        bytes[0] = (bytes[0] & (0xff >> excess)) | (0x80 >> excess);
        let last = bytes.len() - 1;
        bytes[last] |= 1;
        BigUint::from_bytes_be(&bytes)
    })
}

/// Random value of up to `max_bytes` bytes (includes zero and values
/// larger than the moduli above, exercising internal reduction).
fn value(max_bytes: usize) -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..max_bytes + 1)
        .prop_map(|bytes| BigUint::from_bytes_be(&bytes))
}

/// Reference gcd on machine words (Euclid).
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Reference modular inverse via the extended Euclidean algorithm on
/// signed 128-bit integers. Returns `None` when `gcd(a, m) != 1`.
fn mod_inverse_i128(a: u64, m: u64) -> Option<u64> {
    if m == 0 {
        return None;
    }
    let (mut t0, mut t1) = (0i128, 1i128);
    let (mut r0, mut r1) = (m as i128, (a % m.max(1)) as i128);
    while r1 != 0 {
        let q = r0 / r1;
        (t0, t1) = (t1, t0 - q * t1);
        (r0, r1) = (r1, r0 - q * r1);
    }
    if r0 != 1 {
        return None;
    }
    Some(t0.rem_euclid(m as i128) as u64)
}

fn big(v: u64) -> BigUint {
    BigUint::from_u64(v)
}

macro_rules! mod_pow_differential {
    ($name:ident, $bits:expr) => {
        proptest! {
            #[test]
            fn $name(
                m in odd_modulus($bits),
                base in value($bits / 8 + 8),
                exp in value(20),
            ) {
                prop_assert_eq!(
                    base.mod_pow(&exp, &m),
                    base.mod_pow_naive(&exp, &m)
                );
            }
        }
    };
}

mod_pow_differential!(mod_pow_matches_naive_512, 512);
mod_pow_differential!(mod_pow_matches_naive_576, 576);
mod_pow_differential!(mod_pow_matches_naive_683, 683);
mod_pow_differential!(mod_pow_matches_naive_1024, 1024);
mod_pow_differential!(mod_pow_matches_naive_2048, 2048);

/// A value of exactly `bytes` bytes with the top bit set (a full-width
/// exponent, as a CRT exponent is).
fn full_width(bytes: usize) -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), bytes..bytes + 1).prop_map(|mut b| {
        b[0] |= 0x80;
        BigUint::from_bytes_be(&b)
    })
}

proptest! {
    // The schoolbook ladder pays a division per exponent bit: few cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn full_width_exponent_matches_naive_at_every_kernel_width(
        m9 in odd_modulus(576),
        m11 in odd_modulus(683),
        m32 in odd_modulus(2048),
        base in value(264),
        exp in full_width(128),
    ) {
        for m in [m9, m11, m32] {
            let ctx = Montgomery::new(&m).expect("modulus is odd");
            let want = base.mod_pow_naive(&exp, &m);
            prop_assert_eq!(base.mod_pow(&exp, &m), want.clone());
            prop_assert_eq!(ctx.mod_pow(&base, &exp), want);
        }
    }

    #[test]
    fn edge_bases_match_naive_at_every_kernel_width(
        m9 in odd_modulus(576),
        m11 in odd_modulus(683),
        m32 in odd_modulus(2048),
        exp in value(12),
    ) {
        for m in [m9, m11, m32] {
            let ctx = Montgomery::new(&m).expect("modulus is odd");
            let edge = [big(0), big(1), m.sub(&big(1)), m.clone(), m.add(&big(1))];
            for base in edge {
                prop_assert_eq!(
                    ctx.mod_pow(&base, &exp),
                    base.mod_pow_naive(&exp, &m),
                    "base {:?}",
                    base
                );
            }
        }
    }
}

/// One seeded key pair per modulus size, generated on first use.
fn rsa_key(bits: usize) -> &'static RsaKeyPair {
    static KEYS: [OnceLock<RsaKeyPair>; 5] = [const { OnceLock::new() }; 5];
    let slot = [768, 1024, 1152, 1536, 2048]
        .iter()
        .position(|&b| b == bits)
        .expect("a size this battery covers");
    KEYS[slot].get_or_init(|| RsaKeyPair::generate(bits, &mut SecureRng::from_seed(bits as u64)))
}

/// A raw ciphertext below any `bits`-bit modulus: `bits / 8` random
/// bytes with the top bit cleared (the modulus has it set).
fn below_modulus(bits: usize) -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), bits / 8..bits / 8 + 1).prop_map(|mut bytes| {
        bytes[0] &= 0x7f;
        BigUint::from_bytes_be(&bytes)
    })
}

/// `raw_decrypt == raw_decrypt_naive` on random residues, on the edge
/// residues 0 and 1, and on a real OAEP ciphertext, which must also
/// decrypt.
fn crt_decrypt_matches_naive(bits: usize, c: &BigUint, seed: u64) -> Result<(), TestCaseError> {
    let kp = rsa_key(bits);
    let ct = kp
        .public
        .encrypt(b"differential", &mut SecureRng::from_seed(seed))
        .expect("fits any OAEP key");
    prop_assert_eq!(kp.private.decrypt(&ct).ok(), Some(b"differential".to_vec()));
    for c in [c.clone(), big(0), big(1), BigUint::from_bytes_be(&ct)] {
        prop_assert_eq!(
            kp.private.raw_decrypt(&c),
            kp.private.raw_decrypt_naive(&c),
            "c {:?}",
            c
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn crt_decrypt_matches_naive_2048(c in below_modulus(2048), seed in any::<u64>()) {
        crt_decrypt_matches_naive(2048, &c, seed)?;
    }

    #[test]
    fn crt_decrypt_matches_naive_off_the_vector_widths(
        c768 in below_modulus(768),
        c1024 in below_modulus(1024),
        c1152 in below_modulus(1152),
        c1536 in below_modulus(1536),
        seed in any::<u64>(),
    ) {
        crt_decrypt_matches_naive(768, &c768, seed)?;
        crt_decrypt_matches_naive(1024, &c1024, seed)?;
        crt_decrypt_matches_naive(1152, &c1152, seed)?;
        crt_decrypt_matches_naive(1536, &c1536, seed)?;
    }
}

/// Longest input the keystream comparison covers: four of the hardware
/// path's eight-block chunks, one whole block on its one-at-a-time
/// remainder, and a partial block.
const CTR_MAX_LEN: usize = 4 * 128 + 17;

/// Whether `SymmetricKey`'s keystream runs on the AES instructions here
/// (the library's dispatch is this detection and nothing else).
fn ctr_on_aes_instructions() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("aes");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The dispatched keystream (`decrypt` of `iv ‖ data`) equals the
/// portable one at every length `0..=CTR_MAX_LEN`.
fn ctr_dispatch_matches_portable(
    k: &SymmetricKey,
    iv: [u8; IV_LEN],
    fill: u8,
) -> Result<(), TestCaseError> {
    let mut want = vec![fill; CTR_MAX_LEN];
    k.ctr_apply_portable(iv, &mut want);
    let mut wire = iv.to_vec();
    wire.resize(IV_LEN + CTR_MAX_LEN, fill);
    for len in 0..=CTR_MAX_LEN {
        let got = k.decrypt(&wire[..IV_LEN + len]).expect("holds an IV");
        prop_assert_eq!(&got, &want[..len], "iv {:02x?} len {}", iv, len);
        // The portable path's own handling of a ragged length.
        let mut short = vec![fill; len];
        k.ctr_apply_portable(iv, &mut short);
        prop_assert_eq!(&short, &want[..len], "portable, iv {:02x?} len {}", iv, len);
    }
    Ok(())
}

#[test]
fn ctr_dispatch_matches_portable_across_carries() {
    eprintln!(
        "ctr dispatch on this CPU: {}",
        if ctr_on_aes_instructions() {
            "AES instructions, held to the portable rounds"
        } else {
            "portable rounds (no `aes` reported): both sides of the comparison are the same code"
        }
    );
    let k = SymmetricKey::from_bytes([0x24; 32]);
    // Low `ones` bits set under a nonzero top, then stepped back so the
    // carry out of them (for 128: the wrap to zero) lands on block 1 and
    // 4 (first wide chunk), 11 (second), 32 (the whole block after the
    // wide chunks) and 33 (the partial last block).
    for ones in [32u32, 64, 128] {
        let base = (0xa5a5_5a5a_c3c3_3c3c_u128 << 64) | (u128::MAX >> (128 - ones));
        for back in [0u128, 3, 10, 31, 32] {
            let iv = base.wrapping_sub(back).to_be_bytes();
            ctr_dispatch_matches_portable(&k, iv, 0x3c).unwrap();
        }
    }
}

proptest! {
    #[test]
    fn mont_mod_mul_matches_schoolbook(
        m in odd_modulus(512),
        a in value(80),
        b in value(80),
    ) {
        let ctx = Montgomery::new(&m).expect("modulus is odd");
        prop_assert_eq!(ctx.mod_mul(&a, &b), a.mod_mul(&b, &m));
    }

    #[test]
    fn mod_pow_exponent_edge_cases(m in odd_modulus(512), base in value(72)) {
        // Exponents whose bit length stresses the window logic: empty,
        // single bit, exactly one window, one bit past a window boundary.
        for exp in [big(0), big(1), big(15), big(16), big(17), big(65537)] {
            prop_assert_eq!(
                base.mod_pow(&exp, &m),
                base.mod_pow_naive(&exp, &m),
                "exp {:?}",
                exp
            );
        }
    }

    #[test]
    fn det_enc_cached_matches_fresh_random_lengths(
        key in any::<[u8; 32]>(),
        data in proptest::collection::vec(any::<u8>(), 0..(DET_PREFIX_BLOCKS + 4) * BLOCK_LEN),
    ) {
        let k = SymmetricKey::from_bytes(key);
        prop_assert_eq!(k.det_encrypt(&data), k.det_encrypt_fresh(&data));
    }

    #[test]
    fn det_enc_cached_matches_fresh_edge_lengths(
        key in any::<[u8; 32]>(),
        fill in any::<u8>(),
    ) {
        let k = SymmetricKey::from_bytes(key);
        let prefix = DET_PREFIX_BLOCKS * BLOCK_LEN;
        for len in [
            0,
            1,
            BLOCK_LEN - 1,
            BLOCK_LEN,
            BLOCK_LEN + 1,
            3 * BLOCK_LEN,
            prefix - 1,
            prefix,
            prefix + 1,
            prefix + 3 * BLOCK_LEN,
        ] {
            let data = vec![fill; len];
            prop_assert_eq!(
                k.det_encrypt(&data),
                k.det_encrypt_fresh(&data),
                "len {}",
                len
            );
        }
    }

    #[test]
    fn ctr_dispatch_matches_portable_random_keys_and_ivs(
        key in any::<[u8; 32]>(),
        iv in any::<[u8; IV_LEN]>(),
        fill in any::<u8>(),
    ) {
        ctr_dispatch_matches_portable(&SymmetricKey::from_bytes(key), iv, fill)?;
    }

    #[test]
    fn det_enc_roundtrips_through_cached_path(
        key in any::<[u8; 32]>(),
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let k = SymmetricKey::from_bytes(key);
        prop_assert_eq!(k.det_decrypt(&k.det_encrypt(&data)), data);
    }

    #[test]
    fn gcd_matches_u64_reference(a in any::<u64>(), b in any::<u64>()) {
        let expect = gcd_u64(a, b);
        prop_assert_eq!(big(a).gcd(&big(b)), big(expect));
        // Symmetry comes free with Euclid; Stein swaps explicitly.
        prop_assert_eq!(big(b).gcd(&big(a)), big(expect));
    }

    #[test]
    fn gcd_scales_with_common_factor(
        a in any::<u32>(),
        b in any::<u32>(),
        g in 1u32..=0xffff,
    ) {
        // gcd(ga, gb) == g * gcd(a, b); products are multi-limb-capable
        // but the reference stays in u64 range.
        let expect = (g as u64) * gcd_u64(a as u64, b as u64);
        let ga = big(a as u64).mul(&big(g as u64));
        let gb = big(b as u64).mul(&big(g as u64));
        prop_assert_eq!(ga.gcd(&gb), big(expect));
    }

    #[test]
    fn mod_inverse_matches_i128_reference(a in any::<u64>(), m in 2u64..u64::MAX) {
        let got = big(a).mod_inverse(&big(m));
        match mod_inverse_i128(a, m) {
            Some(inv) => prop_assert_eq!(got, Some(big(inv))),
            None => prop_assert_eq!(got, None),
        }
    }

    #[test]
    fn mod_inverse_multi_limb_roundtrip(a in value(48), m in odd_modulus(512)) {
        prop_assume!(!a.is_zero());
        if let Some(inv) = a.mod_inverse(&m) {
            prop_assert_eq!(a.mod_mul(&inv, &m), big(1));
        } else {
            // No inverse only when a shares a factor with m.
            prop_assert_ne!(a.gcd(&m), big(1));
        }
    }
}

/// Deterministic spot-check that the dispatcher actually routes odd moduli
/// through Montgomery (an even modulus must still work via the naive
/// fallback and agree with it trivially).
#[test]
fn even_modulus_falls_back_to_naive() {
    let m = big(2500);
    assert!(Montgomery::new(&m).is_none());
    assert_eq!(
        big(7).mod_pow(&big(13), &m),
        big(7).mod_pow_naive(&big(13), &m)
    );
}
