//! AES-CTR stream encryption: deterministic (constant IV) and randomized
//! (random IV) variants.
//!
//! The paper (§4.1, §5) distinguishes two symmetric usages:
//!
//! * **Deterministic encryption** (`det_enc`) for pseudonymizing user and
//!   item identifiers: AES-256-CTR with a *constant* initialization vector,
//!   so equal plaintexts map to equal ciphertexts and the LRS can recognize
//!   the same pseudonymous profile across requests.
//! * **Randomized encryption** for the recommendation lists returned to the
//!   client: AES-256-CTR with a fresh random IV prepended to the ciphertext.
//!
//! Deterministic encryption trades semantic security for referential
//! integrity — exactly the trade-off the paper makes and discusses.
//!
//! # Cached cipher state
//!
//! Keys are long-lived (`kUA` / `kIA` last for the life of a provisioned
//! enclave) while the data they process is tiny (32-byte ids, 64-byte item
//! blocks), so per-call setup used to dominate: every encryption expanded
//! the AES-256 key schedule from scratch. [`SymmetricKey`] now carries
//! shared cipher state built once per key: the expanded key schedule
//! (eager) and the first [`DET_PREFIX_BLOCKS`] blocks of the deterministic
//! keystream (lazy — the constant all-zero IV makes that prefix a pure
//! function of the key). After first use, pseudonymizing an id is a single
//! XOR against the cached prefix. Clones share the state through an `Arc`,
//! so enclave workers provisioned from the same secrets reuse one
//! schedule. [`SymmetricKey::det_encrypt_fresh`] keeps the uncached path
//! alive as the ablation knob and differential-test reference.
//!
//! # Two keystream paths, one stream
//!
//! Everything above bottoms out in one function, `xor_keystream_with`.
//! On an x86-64 CPU that reports `aes` it runs the rounds on the AES
//! instructions, eight counter blocks in flight (`Aes::ctr_xor_aesni`);
//! on any other CPU it runs the portable rounds a block at a time. The
//! choice is `is_x86_feature_detected!` and nothing else — no flag, no
//! feature, no argument — and both give identical bytes (the counter is
//! the whole 128-bit block, big-endian, carries and wrap included), so
//! nothing that is stored or sent depends on where it was encrypted.
//! [`SymmetricKey::ctr_apply_portable`] is the portable path by name, for
//! the tests and the throughput report that hold the two against each
//! other.

use crate::aes::{Aes, BLOCK_LEN};
use crate::rng::SecureRng;
use std::sync::{Arc, OnceLock};

/// Length in bytes of symmetric keys used throughout PProx.
pub const KEY_LEN: usize = 32;

/// Length in bytes of the CTR initialization vector / nonce.
pub const IV_LEN: usize = 16;

/// Number of deterministic-keystream blocks cached per key (256 bytes —
/// covers every fixed-size id and item block the proxy layers encrypt;
/// longer inputs continue the counter past the prefix).
pub const DET_PREFIX_BLOCKS: usize = 16;

/// Per-key cipher state shared by all clones of a [`SymmetricKey`].
struct CipherState {
    /// Expanded AES-256 key schedule, built once at key construction.
    aes: Aes,
    /// First [`DET_PREFIX_BLOCKS`] blocks of the zero-IV CTR keystream,
    /// generated on first deterministic use. Lazy on purpose: transient
    /// response keys (`k_u`) only ever use randomized CTR and should not
    /// pay for a prefix they never read.
    det_prefix: OnceLock<Box<[u8]>>,
}

/// A 256-bit symmetric key for CTR-mode encryption.
///
/// Equal key bytes compare equal regardless of how much cipher state has
/// been cached; the key material is deliberately excluded from `Debug`
/// output.
pub struct SymmetricKey {
    bytes: [u8; KEY_LEN],
    state: Arc<CipherState>,
}

impl Clone for SymmetricKey {
    fn clone(&self) -> Self {
        SymmetricKey {
            bytes: self.bytes,
            state: Arc::clone(&self.state),
        }
    }
}

impl PartialEq for SymmetricKey {
    fn eq(&self, other: &Self) -> bool {
        // Constant-time: key equality must not leak a matching-prefix
        // length through comparison latency.
        crate::ct::ct_eq(&self.bytes, &other.bytes)
    }
}

impl Eq for SymmetricKey {}

impl std::fmt::Debug for SymmetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SymmetricKey(…{:02x}{:02x})",
            self.bytes[30], self.bytes[31]
        )
    }
}

impl SymmetricKey {
    /// Wraps raw key bytes, expanding the AES key schedule once.
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        SymmetricKey {
            bytes,
            state: Arc::new(CipherState {
                aes: Aes::new_256(&bytes),
                det_prefix: OnceLock::new(),
            }),
        }
    }

    /// Generates a fresh random key.
    pub fn generate(rng: &mut SecureRng) -> Self {
        let mut bytes = [0u8; KEY_LEN];
        rng.fill(&mut bytes);
        Self::from_bytes(bytes)
    }

    /// Raw key bytes (needed to provision enclaves).
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.bytes
    }

    /// Forces the deterministic-keystream prefix into the cache.
    ///
    /// Enclave layers call this at provisioning time so the first request
    /// they serve does not pay the prefix generation.
    pub fn warm(&self) {
        let _ = self.det_prefix();
    }

    /// The cached zero-IV keystream prefix, generated on first use.
    fn det_prefix(&self) -> &[u8] {
        self.state.det_prefix.get_or_init(|| {
            let mut buf = vec![0u8; DET_PREFIX_BLOCKS * BLOCK_LEN];
            xor_keystream_with(&self.state.aes, [0u8; IV_LEN], &mut buf);
            buf.into_boxed_slice()
        })
    }

    /// Applies the deterministic (constant all-zero IV) keystream to
    /// `data` in place — encrypt and decrypt are the same operation.
    ///
    /// The first [`DET_PREFIX_BLOCKS`] blocks come from the cached prefix
    /// (one XOR, no AES work); longer inputs continue the counter stream
    /// where the prefix ends.
    pub fn det_apply(&self, data: &mut [u8]) {
        let prefix = self.det_prefix();
        let n = data.len().min(prefix.len());
        for (b, k) in data[..n].iter_mut().zip(prefix.iter()) {
            *b ^= k;
        }
        if data.len() > prefix.len() {
            let counter = (DET_PREFIX_BLOCKS as u128).to_be_bytes();
            let tail_start = prefix.len();
            xor_keystream_with(&self.state.aes, counter, &mut data[tail_start..]);
        }
    }

    /// Deterministic encryption with a constant (all-zero) IV.
    ///
    /// Two calls with the same key and plaintext yield the same ciphertext —
    /// this is what makes pseudonyms stable for the LRS.
    ///
    /// # Examples
    ///
    /// ```
    /// use pprox_crypto::ctr::SymmetricKey;
    ///
    /// let k = SymmetricKey::from_bytes([9u8; 32]);
    /// let a = k.det_encrypt(b"user-42");
    /// let b = k.det_encrypt(b"user-42");
    /// assert_eq!(a, b);
    /// assert_eq!(k.det_decrypt(&a), b"user-42");
    /// ```
    pub fn det_encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        self.det_apply(&mut out);
        out
    }

    /// [`det_encrypt`](Self::det_encrypt) without any cached state: the
    /// key schedule is re-expanded and the keystream regenerated from the
    /// zero IV on every call.
    ///
    /// This is the pre-caching code path, kept as the ablation knob and as
    /// the reference the differential tests compare the cached path
    /// against byte-for-byte.
    pub fn det_encrypt_fresh(&self, plaintext: &[u8]) -> Vec<u8> {
        let aes = Aes::new_256(&self.bytes);
        let mut out = plaintext.to_vec();
        xor_keystream_with(&aes, [0u8; IV_LEN], &mut out);
        out
    }

    /// Inverse of [`det_encrypt`](Self::det_encrypt).
    pub fn det_decrypt(&self, ciphertext: &[u8]) -> Vec<u8> {
        // CTR is an involution under the same IV.
        self.det_encrypt(ciphertext)
    }

    /// Randomized encryption: fresh random IV, prepended to the ciphertext.
    ///
    /// Two encryptions of the same plaintext yield different ciphertexts.
    pub fn encrypt(&self, plaintext: &[u8], rng: &mut SecureRng) -> Vec<u8> {
        let mut iv = [0u8; IV_LEN];
        rng.fill(&mut iv);
        let mut out = Vec::with_capacity(IV_LEN + plaintext.len());
        out.extend_from_slice(&iv);
        out.extend_from_slice(plaintext);
        xor_keystream_with(&self.state.aes, iv, &mut out[IV_LEN..]);
        out
    }

    /// Inverse of [`encrypt`](Self::encrypt).
    ///
    /// Returns `None` if the ciphertext is shorter than one IV.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Option<Vec<u8>> {
        if ciphertext.len() < IV_LEN {
            return None;
        }
        let mut iv = [0u8; IV_LEN];
        iv.copy_from_slice(&ciphertext[..IV_LEN]);
        let mut out = ciphertext[IV_LEN..].to_vec();
        xor_keystream_with(&self.state.aes, iv, &mut out);
        Some(out)
    }

    /// Applies the CTR keystream starting at `iv` to `data` in place on
    /// the portable scalar rounds, whatever the CPU.
    ///
    /// This is the reference the hardware path is held to byte for byte:
    /// `decrypt(iv ‖ data)` is the same stream through whichever path this
    /// CPU takes. Nothing on the request path calls it.
    pub fn ctr_apply_portable(&self, iv: [u8; IV_LEN], data: &mut [u8]) {
        xor_keystream_portable(&self.state.aes, iv, data);
    }
}

/// Applies the CTR keystream starting at `counter` to `data` in place:
/// the single dispatch point between the two keystream paths.
fn xor_keystream_with(aes: &Aes, counter: [u8; IV_LEN], data: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("aes") {
        // SAFETY: `ctr_xor_aesni` is compiled for exactly the CPU feature
        // detected on the line above and has no other precondition.
        #[allow(unsafe_code)]
        return unsafe { aes.ctr_xor_aesni(u128::from_be_bytes(counter), data) };
    }
    xor_keystream_portable(aes, counter, data)
}

/// The keystream on the portable rounds, one block at a time.
fn xor_keystream_portable(aes: &Aes, mut counter: [u8; IV_LEN], data: &mut [u8]) {
    let mut offset = 0;
    while offset < data.len() {
        let mut ks = counter;
        aes.encrypt_block(&mut ks);
        let n = BLOCK_LEN.min(data.len() - offset);
        for i in 0..n {
            data[offset + i] ^= ks[i];
        }
        offset += n;
        increment_counter(&mut counter);
    }
}

/// Big-endian increment of the 16-byte counter block.
fn increment_counter(counter: &mut [u8; IV_LEN]) {
    for b in counter.iter_mut().rev() {
        let (v, overflow) = b.overflowing_add(1);
        *b = v;
        if !overflow {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> SymmetricKey {
        SymmetricKey::from_bytes([0x42u8; KEY_LEN])
    }

    #[test]
    fn det_encrypt_is_deterministic() {
        let k = key();
        assert_eq!(k.det_encrypt(b"item-17"), k.det_encrypt(b"item-17"));
        assert_ne!(k.det_encrypt(b"item-17"), k.det_encrypt(b"item-18"));
    }

    #[test]
    fn det_roundtrip_various_lengths() {
        let k = key();
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            assert_eq!(k.det_decrypt(&k.det_encrypt(&pt)), pt, "len {len}");
        }
    }

    #[test]
    fn randomized_encrypt_differs_each_time() {
        let k = key();
        let mut rng = SecureRng::from_seed(1);
        let a = k.encrypt(b"recommendations", &mut rng);
        let b = k.encrypt(b"recommendations", &mut rng);
        assert_ne!(a, b, "random IVs must differ");
        assert_eq!(k.decrypt(&a).unwrap(), b"recommendations");
        assert_eq!(k.decrypt(&b).unwrap(), b"recommendations");
    }

    #[test]
    fn decrypt_too_short_is_none() {
        assert!(key().decrypt(&[1, 2, 3]).is_none());
    }

    #[test]
    fn wrong_key_garbles() {
        let mut rng = SecureRng::from_seed(2);
        let a = SymmetricKey::from_bytes([1u8; KEY_LEN]);
        let b = SymmetricKey::from_bytes([2u8; KEY_LEN]);
        let ct = a.encrypt(b"secret", &mut rng);
        assert_ne!(b.decrypt(&ct).unwrap(), b"secret");
    }

    #[test]
    fn counter_increment_carries() {
        let mut c = [0xffu8; IV_LEN];
        increment_counter(&mut c);
        assert_eq!(c, [0u8; IV_LEN]);
        let mut c2 = [0u8; IV_LEN];
        c2[15] = 0xff;
        increment_counter(&mut c2);
        assert_eq!(c2[14], 1);
        assert_eq!(c2[15], 0);
    }

    #[test]
    fn debug_redacts_key() {
        let k = SymmetricKey::from_bytes([0xaa; KEY_LEN]);
        let s = format!("{k:?}");
        assert!(s.starts_with("SymmetricKey(…"));
        assert_eq!(s.matches("aa").count(), 2, "only last two bytes shown");
    }

    #[test]
    fn nist_sp800_38a_f55_ctr_aes256() {
        // NIST SP 800-38A, F.5.5 (CTR-AES256.Encrypt), through both
        // keystream paths: `decrypt` of iv || ct-blocks takes whichever
        // path this CPU dispatches to, `ctr_apply_portable` is the scalar
        // rounds by name.
        fn hx(s: &str) -> Vec<u8> {
            (0..s.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
                .collect()
        }
        let key = hx("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
        let k = SymmetricKey::from_bytes(key.try_into().unwrap());
        let iv = hx("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
        let plaintext = hx(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710"
        ));
        let expected_ct = hx(concat!(
            "601ec313775789a5b7a7f504bbf3d228",
            "f443e3ca4d62b59aca84e990cacaf5c5",
            "2b0930daa23de94ce87017ba2d84988d",
            "dfc9c58db67aada613c2dd08457941a6"
        ));
        let mut wire = iv.clone();
        wire.extend_from_slice(&expected_ct);
        assert_eq!(k.decrypt(&wire).unwrap(), plaintext);

        let mut portable = expected_ct;
        k.ctr_apply_portable(iv.try_into().unwrap(), &mut portable);
        assert_eq!(portable, plaintext);
    }

    #[test]
    fn cached_matches_fresh_across_prefix_boundary() {
        let k = key();
        // Lengths straddling both the block size and the cached-prefix
        // length (DET_PREFIX_BLOCKS * 16 = 256).
        for len in [0usize, 1, 15, 16, 17, 255, 256, 257, 300, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 13 + 7) as u8).collect();
            assert_eq!(k.det_encrypt(&pt), k.det_encrypt_fresh(&pt), "len {len}");
        }
    }

    #[test]
    fn warm_is_idempotent_and_changes_nothing() {
        let k = key();
        let before = k.det_encrypt(b"probe");
        k.warm();
        k.warm();
        assert_eq!(k.det_encrypt(b"probe"), before);
    }

    #[test]
    fn clones_share_cached_state() {
        let k = key();
        let c = k.clone();
        k.warm();
        // The clone sees the same Arc'd state; equality is on key bytes.
        assert_eq!(k, c);
        assert_eq!(c.det_encrypt(b"x"), k.det_encrypt_fresh(b"x"));
    }

    #[test]
    fn det_apply_is_in_place_involution() {
        let k = key();
        let mut buf = b"patient-zero".to_vec();
        let orig = buf.clone();
        k.det_apply(&mut buf);
        assert_ne!(buf, orig);
        assert_eq!(buf, k.det_encrypt(&orig));
        k.det_apply(&mut buf);
        assert_eq!(buf, orig);
    }

    #[test]
    fn keystream_crosses_block_boundary_correctly() {
        // Encrypting in one shot must equal manual two-block keystream.
        let k = key();
        let pt = [0u8; 32];
        let ct = k.det_encrypt(&pt);
        // Block 2 keystream must differ from block 1 (counter advanced).
        assert_ne!(&ct[..16], &ct[16..]);
    }
}
