//! AES-256 block encryption (FIPS 197): the one key size and the one
//! direction PProx uses.
//!
//! PProx pseudonymization uses AES-256 in CTR mode with a constant
//! initialization vector (deterministic encryption), and randomized CTR for
//! response payloads (§4.1, §5 of the paper). CTR only ever *encrypts*
//! counter blocks, so there is no inverse cipher here. This module expands
//! the key schedule and provides the block transform twice over the same
//! round keys; [`crate::ctr`] builds the stream modes on top and picks
//! between the two:
//!
//! * **Portable rounds** ([`Aes::encrypt_block`]): a straightforward
//!   byte-wise S-box design, one block at a time. It is *not*
//!   constant-time — the S-box loads are indexed by secret state. It is
//!   what runs on a CPU without AES instructions and the reference every
//!   test compares against.
//! * **Hardware rounds** (`Aes::ctr_xor_aesni`, x86-64 CPUs that report
//!   `aes`): `aesenc`/`aesenclast` on eight counter blocks at a time. No
//!   table is read, so the cache side channel of the portable rounds is
//!   absent, and a block costs ≈ 4 ns instead of ≈ 280.
//!
//! The key schedule is portable on both paths (≈ 1 µs per fresh key; it
//! indexes the S-box by key bytes).
//!
//! # `unsafe`
//!
//! None here: inside a `#[target_feature]` function the value intrinsics
//! are safe, and blocks enter and leave through `_mm_set_epi64x` and the
//! extract intrinsics, so there are no pointer loads. The `unsafe` is the
//! one call into the kernel from [`crate::ctr`], under runtime detection.

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

/// Rounds of AES-256.
const ROUNDS: usize = 14;

/// 32-bit words in an AES-256 key.
const KEY_WORDS: usize = 8;

/// Forward S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Doubling in GF(2^8) (`xtime` in FIPS-197): shift left, conditionally
/// reduce by the AES polynomial x^8+x^4+x^3+x+1. MixColumns and the key
/// schedule's round constants are expressed entirely in terms of this.
#[inline]
fn xtime(a: u8) -> u8 {
    (a << 1) ^ (((a >> 7) & 1) * 0x1b)
}

/// An AES-256 key schedule ready to encrypt 16-byte blocks.
///
/// # Examples
///
/// ```
/// use pprox_crypto::aes::Aes;
///
/// let aes = Aes::new_256(&[0u8; 32]);
/// let mut block = [0u8; 16];
/// aes.encrypt_block(&mut block);
/// assert_ne!(block, [0u8; 16]);
/// ```
#[derive(Clone)]
pub struct Aes {
    round_keys: [[u8; BLOCK_LEN]; ROUNDS + 1],
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes").field("rounds", &ROUNDS).finish()
    }
}

impl Aes {
    /// Expands a 256-bit key.
    pub fn new_256(key: &[u8; 32]) -> Self {
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            word.copy_from_slice(bytes);
        }
        let mut rcon: u8 = 1;
        for i in KEY_WORDS..w.len() {
            let mut temp = w[i - 1];
            if i % KEY_WORDS == 0 {
                temp.rotate_left(1);
                temp = temp.map(|b| SBOX[b as usize]);
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            } else if i % KEY_WORDS == 4 {
                temp = temp.map(|b| SBOX[b as usize]);
            }
            for (j, t) in temp.into_iter().enumerate() {
                w[i][j] = w[i - KEY_WORDS][j] ^ t;
            }
        }
        let mut round_keys = [[0u8; BLOCK_LEN]; ROUNDS + 1];
        for (rk, words) in round_keys.iter_mut().zip(w.chunks_exact(4)) {
            rk.copy_from_slice(words.as_flattened());
        }
        Aes { round_keys }
    }

    /// Encrypts one 16-byte block in place on the portable rounds.
    #[inline]
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        add_round_key(block, &self.round_keys[0]);
        for rk in &self.round_keys[1..ROUNDS] {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, rk);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[ROUNDS]);
    }
}

/// The hardware rounds: the CTR keystream on `aesenc`/`aesenclast`.
#[cfg(target_arch = "x86_64")]
mod aesni {
    use super::{Aes, BLOCK_LEN, ROUNDS};
    use std::arch::x86_64::*;

    /// Counter blocks the hardware path keeps in flight: `aesenc` takes
    /// several cycles to retire but a new one can issue every cycle, so
    /// independent blocks fill the pipeline a single block leaves empty.
    const LANES: usize = 8;

    impl Aes {
        /// XORs into `data` the CTR keystream whose first block is the
        /// encryption of `counter` (a big-endian 128-bit integer, one up
        /// per block, wrapping): the bytes
        /// [`encrypt_block`](Self::encrypt_block) gives on successive
        /// counters, from the same round keys, on the AES instructions.
        #[target_feature(enable = "aes")]
        pub(crate) fn ctr_xor_aesni(&self, mut counter: u128, data: &mut [u8]) {
            let mut rk = [_mm_setzero_si128(); ROUNDS + 1];
            for (v, bytes) in rk.iter_mut().zip(&self.round_keys) {
                *v = to_vector(bytes);
            }
            let mut wide = data.chunks_exact_mut(LANES * BLOCK_LEN);
            for chunk in &mut wide {
                let ks = keystream::<LANES>(&rk, counter);
                for (block, ks) in chunk.chunks_exact_mut(BLOCK_LEN).zip(ks) {
                    xor_block(block, ks);
                }
                counter = counter.wrapping_add(LANES as u128);
            }
            // Up to LANES − 1 whole blocks and a partial one, one at a time.
            for block in wide.into_remainder().chunks_mut(BLOCK_LEN) {
                let [ks] = keystream::<1>(&rk, counter);
                xor_block(block, ks);
                counter = counter.wrapping_add(1);
            }
        }
    }

    /// The encryptions of `counter`, `counter + 1`, … `counter + N − 1`,
    /// every block one round ahead of the next in the pipeline.
    #[target_feature(enable = "aes")]
    #[inline]
    fn keystream<const N: usize>(rk: &[__m128i; ROUNDS + 1], counter: u128) -> [__m128i; N] {
        let mut state = [rk[0]; N];
        for (i, s) in state.iter_mut().enumerate() {
            let block = counter.wrapping_add(i as u128).to_be_bytes();
            *s = _mm_xor_si128(*s, to_vector(&block));
        }
        for k in &rk[1..ROUNDS] {
            for s in &mut state {
                *s = _mm_aesenc_si128(*s, *k);
            }
        }
        for s in &mut state {
            *s = _mm_aesenclast_si128(*s, rk[ROUNDS]);
        }
        state
    }

    /// A block as a vector: byte 0 in the lowest lane, as the AES
    /// instructions read their state.
    #[target_feature(enable = "aes")]
    #[inline]
    fn to_vector(block: &[u8; BLOCK_LEN]) -> __m128i {
        let wide = u128::from_le_bytes(*block);
        _mm_set_epi64x((wide >> 64) as i64, wide as i64)
    }

    /// XORs the first `block.len()` (at most 16) bytes of `ks` into `block`.
    #[target_feature(enable = "aes")]
    #[inline]
    fn xor_block(block: &mut [u8], ks: __m128i) {
        let lo = _mm_cvtsi128_si64(ks) as u64;
        let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(ks, ks)) as u64;
        let ks = (u128::from(hi) << 64 | u128::from(lo)).to_le_bytes();
        for (b, k) in block.iter_mut().zip(ks) {
            *b ^= k;
        }
    }
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

// State layout: state[r + 4c] is row r, column c (column-major, as in FIPS 197
// where input bytes fill columns first).
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
        }
    }
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        // 2a ^ 3b ^ c ^ d  ==  a ^ (a^b^c^d) ^ xtime(a^b): four xtimes a
        // column, no general GF(2^8) multiply.
        let t = col[0] ^ col[1] ^ col[2] ^ col[3];
        state[4 * c] = col[0] ^ t ^ xtime(col[0] ^ col[1]);
        state[4 * c + 1] = col[1] ^ t ^ xtime(col[1] ^ col[2]);
        state[4 * c + 2] = col[2] ^ t ^ xtime(col[2] ^ col[3]);
        state[4 * c + 3] = col[3] ^ t ^ xtime(col[3] ^ col[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // FIPS-197 Appendix C.3: plaintext 00112233445566778899aabbccddeeff
    // under the 256-bit key 000102…1f.
    #[test]
    fn fips197_aes256() {
        let key: [u8; 32] =
            from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .try_into()
                .unwrap();
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        Aes::new_256(&key).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("8ea2b7ca516745bfeafc49904b496089"));
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes::new_256(&[1u8; 32]);
        let b = Aes::new_256(&[2u8; 32]);
        let mut x = [0u8; 16];
        let mut y = [0u8; 16];
        a.encrypt_block(&mut x);
        b.encrypt_block(&mut y);
        assert_ne!(x, y);
    }

    #[test]
    fn debug_hides_key() {
        let aes = Aes::new_256(&[7u8; 32]);
        let s = format!("{aes:?}");
        assert!(
            !s.contains('7'),
            "debug output must not leak key bytes: {s}"
        );
        assert!(s.contains("rounds"));
    }

    #[test]
    fn xtime_known_values() {
        // FIPS-197 §4.2.1: {57}·{02}, ·{04}, ·{08}, ·{10}.
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47);
        assert_eq!(xtime(0x47), 0x8e);
        assert_eq!(xtime(0x8e), 0x07);
    }
}
