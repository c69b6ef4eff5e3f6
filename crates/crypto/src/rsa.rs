//! RSA public-key encryption with OAEP padding (SHA-256 / MGF1).
//!
//! The PProx user-side library encrypts the user identifier under the UA
//! layer's public key, and the item identifier (or the temporary response
//! key `k_u`) under the IA layer's public key (§4.1, §4.2). Randomized
//! asymmetric encryption is essential there: two encryptions of the same
//! identifier must be unlinkable, which is why the same ciphertext cannot
//! double as a pseudonym.
//!
//! Decryption uses the Chinese Remainder Theorem for a ~4× speedup, as any
//! production RSA implementation does, and every key caches the
//! [`Montgomery`] contexts its exponentiations need (`n` on the public
//! side; `p` and `q` for CRT) so the per-modulus precomputation is paid at
//! key generation, not per request — the enclave hot path (§6 of the
//! paper) is pure multiply/accumulate work. The two CRT exponentiations
//! are independent, which is what lets RSA-2048 keys run them as one
//! interleaved loop on AVX-512 IFMA where the CPU has it, and the ladders
//! of four ciphertexts opened together
//! ([`RsaPrivateKey::decrypt_group`]) as one eight-lane loop; one
//! private function, under every decrypt, holds that dispatch. The
//! public operation (`e = 65537`, 17 multiplications) stays scalar
//! everywhere.

use crate::bigint::{BigUint, Montgomery};
use crate::prime::generate_prime;
use crate::rng::SecureRng;
use crate::sha256;
use crate::CryptoError;

/// Default modulus size for PProx layer keys.
pub const DEFAULT_MODULUS_BITS: usize = 2048;

/// Ciphertexts one pass of the group kernel opens: on a CPU with AVX-512
/// IFMA, [`RsaPrivateKey::decrypt_group`] runs 2048-bit decrypts this many
/// at a time in the lanes of one ladder, and what is left over as pairs.
/// A caller that sizes its groups sizes them in these.
pub const LANE_GROUP: usize = 4;

/// Public RSA exponent (F4).
const E: u64 = 65_537;

/// An RSA public key `(n, e)`.
#[derive(Clone)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    modulus_len: usize,
    /// Cached Montgomery context for `n` (derived from `n`, not compared).
    mont: Montgomery,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e && self.modulus_len == other.modulus_len
    }
}

impl Eq for RsaPublicKey {}

impl std::fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsaPublicKey")
            .field("bits", &self.n.bit_len())
            .field(
                "fingerprint",
                &crate::base64::encode(&self.fingerprint()[..6]),
            )
            .finish()
    }
}

/// An RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
    /// Cached Montgomery context for `p`.
    mont_p: Montgomery,
    /// Cached Montgomery context for `q`.
    mont_q: Montgomery,
    /// Cached radix-2⁵² contexts for `p` and `q`, present when both are
    /// the 16 limbs the vector ladders are laid out for.
    #[cfg(target_arch = "x86_64")]
    ladders52: Option<crate::mont52::CrtLadders>,
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print private material.
        f.debug_struct("RsaPrivateKey")
            .field("bits", &self.public.n.bit_len())
            .finish()
    }
}

/// A freshly generated key pair.
#[derive(Clone, Debug)]
pub struct RsaKeyPair {
    /// Shareable encryption key.
    pub public: RsaPublicKey,
    /// Secret decryption key (provisioned to an enclave layer).
    pub private: RsaPrivateKey,
}

impl RsaKeyPair {
    /// Generates a key pair with a modulus of `bits` bits.
    ///
    /// 2048 bits ([`DEFAULT_MODULUS_BITS`]) matches the paper's deployment;
    /// tests use smaller sizes for speed.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 576` (the OAEP-SHA256 minimum) or `bits` is odd.
    pub fn generate(bits: usize, rng: &mut SecureRng) -> Self {
        assert!(bits >= 576, "modulus too small for OAEP-SHA256");
        assert!(bits.is_multiple_of(2), "modulus bits must be even");
        let e = BigUint::from_u64(E);
        loop {
            let p = generate_prime(bits / 2, rng);
            let q = generate_prime(bits / 2, rng);
            if p == q {
                continue;
            }
            let p1 = p.sub(&BigUint::one());
            let q1 = q.sub(&BigUint::one());
            let phi = p1.mul(&q1);
            let Some(d) = e.mod_inverse(&phi) else {
                continue; // gcd(e, phi) != 1; pick new primes
            };
            let dp = d.rem(&p1);
            let dq = d.rem(&q1);
            let Some(qinv) = q.mod_inverse(&p) else {
                continue;
            };
            return RsaKeyPair::from_crt_parts(e, p, q, dp, dq, qinv);
        }
    }

    /// The one place a key pair is assembled, whoever chose the numbers:
    /// every context the exponentiations use is derived here from `p` and
    /// `q`, so a cached context cannot disagree with the primes it was
    /// cached for.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `q` is even.
    pub(crate) fn from_crt_parts(
        e: BigUint,
        p: BigUint,
        q: BigUint,
        dp: BigUint,
        dq: BigUint,
        qinv: BigUint,
    ) -> Self {
        let n = p.mul(&q);
        let public = RsaPublicKey {
            mont: Montgomery::new(&n).expect("RSA modulus is odd"),
            modulus_len: n.bit_len().div_ceil(8),
            n,
            e,
        };
        let mont_p = Montgomery::new(&p).expect("prime p is odd");
        let mont_q = Montgomery::new(&q).expect("prime q is odd");
        let private = RsaPrivateKey {
            public: public.clone(),
            #[cfg(target_arch = "x86_64")]
            ladders52: crate::mont52::CrtLadders::new(&mont_p, &mont_q),
            p,
            q,
            dp,
            dq,
            qinv,
            mont_p,
            mont_q,
        };
        RsaKeyPair { public, private }
    }
}

impl RsaPublicKey {
    /// Ciphertext (= modulus) length in bytes.
    pub fn ciphertext_len(&self) -> usize {
        self.modulus_len
    }

    /// Largest plaintext accepted by [`encrypt`](Self::encrypt).
    pub fn max_plaintext_len(&self) -> usize {
        self.modulus_len - 2 * sha256::DIGEST_LEN - 2
    }

    /// SHA-256 fingerprint of the public key (used as a key id in
    /// attestation transcripts).
    pub fn fingerprint(&self) -> [u8; sha256::DIGEST_LEN] {
        let mut h = sha256::Sha256::new();
        h.update(&self.n.to_bytes_be());
        h.update(&self.e.to_bytes_be());
        h.finalize()
    }

    /// Encrypts `plaintext` with OAEP padding. The result is always exactly
    /// [`ciphertext_len`](Self::ciphertext_len) bytes and is randomized: two
    /// encryptions of the same plaintext differ.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLong`] if the plaintext exceeds
    /// [`max_plaintext_len`](Self::max_plaintext_len).
    pub fn encrypt(&self, plaintext: &[u8], rng: &mut SecureRng) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len;
        let h_len = sha256::DIGEST_LEN;
        if plaintext.len() > self.max_plaintext_len() {
            return Err(CryptoError::MessageTooLong {
                len: plaintext.len(),
                max: self.max_plaintext_len(),
            });
        }
        // EME-OAEP encoding (RFC 8017 §7.1.1) with an empty label.
        let l_hash = sha256::digest(b"");
        let mut db = Vec::with_capacity(k - h_len - 1);
        db.extend_from_slice(&l_hash);
        db.resize(k - h_len - 1 - plaintext.len() - 1, 0);
        db.push(0x01);
        db.extend_from_slice(plaintext);
        let mut seed = vec![0u8; h_len];
        rng.fill(&mut seed);
        let db_mask = mgf1(&seed, db.len());
        for (b, m) in db.iter_mut().zip(db_mask.iter()) {
            *b ^= m;
        }
        let seed_mask = mgf1(&db, h_len);
        for (b, m) in seed.iter_mut().zip(seed_mask.iter()) {
            *b ^= m;
        }
        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.extend_from_slice(&seed);
        em.extend_from_slice(&db);
        let m = BigUint::from_bytes_be(&em);
        let c = self.mont.mod_pow(&m, &self.e);
        Ok(c.to_bytes_be_padded(k))
    }
}

impl RsaPrivateKey {
    /// The matching public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Decrypts an OAEP ciphertext produced by [`RsaPublicKey::encrypt`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::DecryptionFailed`] when the ciphertext has the
    /// wrong length, is out of range, or the OAEP structure does not verify
    /// (wrong key or corrupted data).
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let c = self.ciphertext_value(ciphertext)?;
        self.oaep_decode(&self.raw_decrypt(&c))
    }

    /// [`decrypt`](Self::decrypt) of every ciphertext of a group, in
    /// order, with the private-key operations of the valid ones run
    /// together: on 2048-bit keys on a CPU with AVX-512 IFMA, four at a
    /// time in the lanes of one vector ladder. Each result is
    /// bit-identical to `decrypt` of that ciphertext alone, errors
    /// included.
    pub fn decrypt_group<C: AsRef<[u8]>>(
        &self,
        ciphertexts: &[C],
    ) -> Vec<Result<Vec<u8>, CryptoError>> {
        let values: Vec<_> = ciphertexts
            .iter()
            .map(|c| self.ciphertext_value(c.as_ref()))
            .collect();
        let valid: Vec<&BigUint> = values.iter().flatten().collect();
        let mut opened = self.crt_ladders(&valid).into_iter();
        values
            .iter()
            .map(|value| {
                value.as_ref().map_err(Clone::clone)?;
                let (m1, m2) = opened.next().ok_or(CryptoError::DecryptionFailed)?;
                self.oaep_decode(&self.crt_combine(m1, m2))
            })
            .collect()
    }

    /// A ciphertext as the integer it encodes, refused unless it is
    /// exactly modulus-sized and below the modulus.
    fn ciphertext_value(&self, ciphertext: &[u8]) -> Result<BigUint, CryptoError> {
        if ciphertext.len() != self.public.modulus_len {
            return Err(CryptoError::DecryptionFailed);
        }
        let c = BigUint::from_bytes_be(ciphertext);
        if c >= self.public.n {
            return Err(CryptoError::DecryptionFailed);
        }
        Ok(c)
    }

    /// EME-OAEP decoding of a raw decryption `m`.
    fn oaep_decode(&self, m: &BigUint) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len;
        let h_len = sha256::DIGEST_LEN;
        let em = m.to_bytes_be_padded(k);
        if em[0] != 0 {
            return Err(CryptoError::DecryptionFailed);
        }
        let mut seed = em[1..1 + h_len].to_vec();
        let mut db = em[1 + h_len..].to_vec();
        let seed_mask = mgf1(&db, h_len);
        for (b, m) in seed.iter_mut().zip(seed_mask.iter()) {
            *b ^= m;
        }
        let db_mask = mgf1(&seed, db.len());
        for (b, m) in db.iter_mut().zip(db_mask.iter()) {
            *b ^= m;
        }
        let l_hash = sha256::digest(b"");
        // Constant-time: a prefix-dependent early exit here is the classic
        // OAEP (Manger-style) decryption oracle.
        if !crate::ct::ct_eq(&db[..h_len], &l_hash) {
            return Err(CryptoError::DecryptionFailed);
        }
        // Skip zero padding until the 0x01 separator.
        let mut idx = h_len;
        while idx < db.len() && db[idx] == 0 {
            idx += 1;
        }
        if idx >= db.len() || db[idx] != 0x01 {
            return Err(CryptoError::DecryptionFailed);
        }
        Ok(db[idx + 1..].to_vec())
    }

    /// Raw RSA-CRT exponentiation `c^d mod n` (no OAEP decoding) through
    /// the cached contexts for `p` and `q`.
    ///
    /// This is the modular-arithmetic core of [`decrypt`](Self::decrypt),
    /// exposed so the throughput harness and the differential tests can
    /// measure and cross-check it in isolation. Callers must ensure
    /// `c < n`.
    pub fn raw_decrypt(&self, c: &BigUint) -> BigUint {
        // One pair per base, so `pop` is always `Some`.
        let (m1, m2) = self.crt_ladders(&[c]).pop().unwrap_or_default();
        self.crt_combine(m1, m2)
    }

    /// `(c^dp mod p, c^dq mod q)` for every `c`, in order: the single
    /// dispatch point of the private-key operation. With 16-limb primes
    /// on a CPU that reports AVX-512 IFMA the ladders run on the radix-2⁵²
    /// vector kernels — four bases at a time in the lanes of one ladder
    /// while four are left, the rest as a lockstep pair; every other key
    /// size and CPU takes two scalar [`Montgomery::mod_pow`] calls per
    /// base. All return identical values.
    pub(crate) fn crt_ladders(&self, cs: &[&BigUint]) -> Vec<(BigUint, BigUint)> {
        #[cfg(target_arch = "x86_64")]
        if let Some(ladders) = &self.ladders52 {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma") {
                // SAFETY: `pow_all` is compiled for exactly the two CPU
                // features detected on the line above and has no other
                // precondition.
                #[allow(unsafe_code)]
                return unsafe { ladders.pow_all(cs, &self.dp, &self.dq) };
            }
        }
        cs.iter()
            .map(|c| {
                (
                    self.mont_p.mod_pow(c, &self.dp),
                    self.mont_q.mod_pow(c, &self.dq),
                )
            })
            .collect()
    }

    /// [`raw_decrypt`](Self::raw_decrypt) with the retained schoolbook
    /// square-and-multiply exponentiation ([`BigUint::mod_pow_naive`]) —
    /// the pre-Montgomery baseline the throughput harness reports speedups
    /// against. Returns bit-identical results.
    pub fn raw_decrypt_naive(&self, c: &BigUint) -> BigUint {
        let m1 = c.rem(&self.p).mod_pow_naive(&self.dp, &self.p);
        let m2 = c.rem(&self.q).mod_pow_naive(&self.dq, &self.q);
        self.crt_combine(m1, m2)
    }

    /// Garner's recombination: `m = m2 + q · ((m1 − m2) · qinv mod p)`.
    fn crt_combine(&self, m1: BigUint, m2: BigUint) -> BigUint {
        let diff = if m1 >= m2 {
            m1.sub(&m2)
        } else {
            // (m1 - m2) mod p
            self.p.sub(&m2.sub(&m1).rem(&self.p))
        };
        let h = self.mont_p.mod_mul(&diff, &self.qinv);
        m2.add(&self.q.mul(&h))
    }
}

/// MGF1 mask generation (RFC 8017 §B.2.1) over SHA-256.
fn mgf1(seed: &[u8], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + sha256::DIGEST_LEN);
    let mut counter = 0u32;
    while out.len() < len {
        let mut h = sha256::Sha256::new();
        h.update(seed);
        h.update(&counter.to_be_bytes());
        out.extend_from_slice(&h.finalize());
        counter += 1;
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_keys() -> RsaKeyPair {
        // 768-bit keys keep the test fast; production code uses 2048.
        let mut rng = SecureRng::from_seed(0xdead_beef);
        RsaKeyPair::generate(768, &mut rng)
    }

    #[test]
    fn roundtrip() {
        let kp = test_keys();
        let mut rng = SecureRng::from_seed(1);
        let ct = kp.public.encrypt(b"user-4711", &mut rng).unwrap();
        assert_eq!(ct.len(), kp.public.ciphertext_len());
        assert_eq!(kp.private.decrypt(&ct).unwrap(), b"user-4711");
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let kp = test_keys();
        let mut rng = SecureRng::from_seed(2);
        let ct = kp.public.encrypt(b"", &mut rng).unwrap();
        assert_eq!(kp.private.decrypt(&ct).unwrap(), b"");
    }

    #[test]
    fn max_length_plaintext_roundtrip() {
        let kp = test_keys();
        let mut rng = SecureRng::from_seed(3);
        let pt = vec![0xabu8; kp.public.max_plaintext_len()];
        let ct = kp.public.encrypt(&pt, &mut rng).unwrap();
        assert_eq!(kp.private.decrypt(&ct).unwrap(), pt);
    }

    #[test]
    fn over_length_plaintext_rejected() {
        let kp = test_keys();
        let mut rng = SecureRng::from_seed(4);
        let pt = vec![0u8; kp.public.max_plaintext_len() + 1];
        assert!(matches!(
            kp.public.encrypt(&pt, &mut rng),
            Err(CryptoError::MessageTooLong { .. })
        ));
    }

    #[test]
    fn encryption_is_randomized() {
        // This is the property §3 of the paper leans on: a ciphertext of a
        // user id cannot serve as a stable pseudonym.
        let kp = test_keys();
        let mut rng = SecureRng::from_seed(5);
        let a = kp.public.encrypt(b"u", &mut rng).unwrap();
        let b = kp.public.encrypt(b"u", &mut rng).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn corrupted_ciphertext_fails() {
        let kp = test_keys();
        let mut rng = SecureRng::from_seed(6);
        let mut ct = kp.public.encrypt(b"x", &mut rng).unwrap();
        ct[10] ^= 0xff;
        assert!(kp.private.decrypt(&ct).is_err());
    }

    #[test]
    fn wrong_key_fails() {
        let kp1 = test_keys();
        let mut rng = SecureRng::from_seed(7);
        let kp2 = RsaKeyPair::generate(768, &mut rng);
        let ct = kp1.public.encrypt(b"x", &mut rng).unwrap();
        assert!(kp2.private.decrypt(&ct).is_err());
    }

    #[test]
    fn wrong_length_ciphertext_fails() {
        let kp = test_keys();
        assert!(kp.private.decrypt(&[0u8; 10]).is_err());
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let kp1 = test_keys();
        let kp2 = test_keys(); // same seed → same key
        assert_eq!(kp1.public.fingerprint(), kp2.public.fingerprint());
        let mut rng = SecureRng::from_seed(99);
        let kp3 = RsaKeyPair::generate(768, &mut rng);
        assert_ne!(kp1.public.fingerprint(), kp3.public.fingerprint());
    }

    #[test]
    fn debug_output_hides_secrets() {
        let kp = test_keys();
        let s = format!("{:?}", kp.private);
        assert_eq!(s, "RsaPrivateKey { bits: 768 }");
    }

    #[test]
    fn mgf1_lengths() {
        assert_eq!(mgf1(b"seed", 0).len(), 0);
        assert_eq!(mgf1(b"seed", 31).len(), 31);
        assert_eq!(mgf1(b"seed", 32).len(), 32);
        assert_eq!(mgf1(b"seed", 100).len(), 100);
        // Deterministic
        assert_eq!(mgf1(b"seed", 64), mgf1(b"seed", 64));
        assert_ne!(mgf1(b"seed", 64), mgf1(b"tree", 64));
    }

    // ---- Known-answer tests -------------------------------------------
    //
    // Everything in this crate is from-scratch and deterministic, so a
    // seeded key plus a seeded OAEP encryption pins down the entire
    // encrypt path; the recorded hex values below were produced by this
    // implementation and act as regression anchors: any change to prime
    // generation, OAEP encoding, Montgomery arithmetic, or CRT
    // recombination that alters a single bit trips them.

    /// Seed for the KAT key pair (768-bit for test speed).
    const KAT_KEY_SEED: u64 = 0x4b41_5431;
    /// Seed for the KAT encryption randomness.
    const KAT_ENC_SEED: u64 = 0x4b41_5432;
    const KAT_PLAINTEXT: &[u8] = b"pprox-kat-message";
    const KAT_N_HEX: &str = "b0f06fcaa45e1dd062962b6923f8377e3f105c5cb587fbf3ec34de557c0a971c2e4472ca7446688be2d1672b49b945ae1d5f7ff0fcc3cc6b48ed5ad3da43a44ec4c1726292e16e66077aecb338eafd266eaf52129f8431d2ee91830bf3a261fb";
    const KAT_CT_HEX: &str = "4f9f9fd0729cf1fe30e8fe5f80f5ee0e4b9e7dfa3b024a80a79313ec1236ca22669777a0b0c182b76dd0c92051fd4727d73dd61ca5481e316326e2bdf427f0769b53f2b258693be0c5a51f0db9c3d254cd3eb08c9055a28042ed79332226894c";
    const KAT_EM_HEX: &str = "6d2d6e80413c49ae89d23b7be781d914f82d43452bbce37315d452f18bf880b6bf86d0353656c0d4e4df9d8053318d2c491afb03af981dc6377d9136f08525e32f44f21ff4c430a951991ac1b9b41f65a14537ba0834d5ebaed6f9f1f50b7b";

    fn kat_keys() -> RsaKeyPair {
        let mut rng = SecureRng::from_seed(KAT_KEY_SEED);
        RsaKeyPair::generate(768, &mut rng)
    }

    #[test]
    fn kat_encrypt_fixed_vector() {
        let kp = kat_keys();
        assert_eq!(kp.public.n.to_hex(), KAT_N_HEX, "key generation drifted");
        let mut rng = SecureRng::from_seed(KAT_ENC_SEED);
        let ct = kp.public.encrypt(KAT_PLAINTEXT, &mut rng).unwrap();
        assert_eq!(BigUint::from_bytes_be(&ct).to_hex(), KAT_CT_HEX);
    }

    #[test]
    fn kat_crt_decrypt_fixed_vector() {
        let kp = kat_keys();
        let c = BigUint::from_hex(KAT_CT_HEX).unwrap();
        let em = BigUint::from_hex(KAT_EM_HEX).unwrap();
        // Montgomery CRT, naive-baseline CRT, and the recorded encoded
        // message must all agree.
        assert_eq!(kp.private.raw_decrypt(&c), em);
        assert_eq!(kp.private.raw_decrypt_naive(&c), em);
        // And the full OAEP decode recovers the plaintext.
        let ct = c.to_bytes_be_padded(kp.public.ciphertext_len());
        assert_eq!(kp.private.decrypt(&ct).unwrap(), KAT_PLAINTEXT);
    }

    /// The 768-bit vectors above stay on the slice kernels (6-limb
    /// primes). These pin the widths the fixed-width kernels serve —
    /// 16-limb primes, 32-limb modulus — to values recorded from the
    /// slice-only implementation: same seed, same key, same bytes.
    const KAT_2048_KEY_SEED: u64 = 0x4b41_5433;
    const KAT_2048_FINGERPRINT_HEX: &str =
        "83523628ef9913ac5da3e0f5f5d7ee5583322a3123f825c300139d6286403491";
    const KAT_2048_CT_HEX: &str = "99f0999cf130502f60144f1bdf33c9685792095de3f4d89bcc0e7d94bc49daa04d62bcb5ce35ba7d4e56f575d7a6bb147c490ef2ff745327a0b676b7df21ea83e12f80e1bdcbc8b7729b325e68157c15925f167aa4348f63fbeaec6ff0d9b6480bbfb30a54f662254b257e0e076485c77dd742eade2790d089934fe944753be9d8d349cf6134c2a08b8345242fb07275b5a9c090144507c31546865f97177beb674176c486d76ea47abcdd360f80d714be95798b9c3591cad4e11ca8212396dfabf6842b3723ab5e8d6bd537513545aa7c6bd95513b25cfa518d17a5d17ddb5fa2dffddc21c43b250e467de0bb1758ba2aa65eb7faeebeae4324eeaa77592d5a";
    const KAT_2048_EM_HEX: &str = "5931702b75b3eb8c367686826ee1b8733da0fe5f2c2d839a38cc3c761ea9d787a1c0008335bdf2d60d05cbff6c36715bf11f27b2af7dfdb8949617a98030a5e265e1157150a37953eecbfb85d5061e12b3a72573382b7d019907fab6d43ffc2202142c23e3767f67c1666455d55f6870d8be5bcd4f6a0784ec05d8671891b11b22101455c958293c481697aec2d37ddf00543f208f2af1a135b171f4f51cba4716fefe91ce56c7208d46b3383194a9338551857e158b5f03b5b12111e01c45b243b6333d11bf7dd22af802dafa7f8a713c1fae1bd1dffdbbf392d240fd39bf09c4ad910732ec624a1407f85fe42ab21c636e752463e0e0e701864e06873ab7";

    #[test]
    fn kat_2048_key_encrypt_and_crt_decrypt_fixed_vectors() {
        let mut rng = SecureRng::from_seed(KAT_2048_KEY_SEED);
        let kp = RsaKeyPair::generate(2048, &mut rng);
        let fingerprint: String = kp
            .public
            .fingerprint()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            fingerprint, KAT_2048_FINGERPRINT_HEX,
            "key generation drifted"
        );
        // The encryption draws from the same stream the key came from.
        let ct = kp.public.encrypt(KAT_PLAINTEXT, &mut rng).unwrap();
        let c = BigUint::from_bytes_be(&ct);
        assert_eq!(c.to_hex(), KAT_2048_CT_HEX);
        let em = BigUint::from_hex(KAT_2048_EM_HEX).unwrap();
        assert_eq!(kp.private.raw_decrypt(&c), em);
        assert_eq!(kp.private.raw_decrypt_naive(&c), em);
        assert_eq!(kp.private.decrypt(&ct).unwrap(), KAT_PLAINTEXT);
    }

    #[test]
    fn kat_textbook_rsa_small_numbers() {
        // Classic hand-checkable textbook vector: p=61, q=53, n=3233,
        // e=17, d=2753; 65^17 mod 3233 = 2790.
        let p = BigUint::from_u64(61);
        let q = BigUint::from_u64(53);
        let d = BigUint::from_u64(2753);
        let RsaKeyPair { public, private } = RsaKeyPair::from_crt_parts(
            BigUint::from_u64(17),
            p.clone(),
            q.clone(),
            d.rem(&BigUint::from_u64(60)),
            d.rem(&BigUint::from_u64(52)),
            q.mod_inverse(&p).unwrap(),
        );
        assert_eq!(public.n, BigUint::from_u64(3233));
        assert_eq!(public.modulus_len, 2);
        let m = BigUint::from_u64(65);
        let c = public.mont.mod_pow(&m, &public.e);
        assert_eq!(c, BigUint::from_u64(2790));
        assert_eq!(private.raw_decrypt(&c), m);
        assert_eq!(private.raw_decrypt_naive(&c), m);
    }

    // ---- Adversarial ciphertexts --------------------------------------

    #[test]
    fn ciphertext_equal_to_modulus_rejected() {
        let kp = test_keys();
        let k = kp.public.ciphertext_len();
        // c = n: correct length, numerically out of range.
        let ct = kp.public.n.to_bytes_be_padded(k);
        assert!(matches!(
            kp.private.decrypt(&ct),
            Err(CryptoError::DecryptionFailed)
        ));
    }

    #[test]
    fn ciphertext_above_modulus_rejected() {
        let kp = test_keys();
        let k = kp.public.ciphertext_len();
        // All-0xff is ≥ n for any k-byte modulus.
        assert!(matches!(
            kp.private.decrypt(&vec![0xff; k]),
            Err(CryptoError::DecryptionFailed)
        ));
    }

    #[test]
    fn in_range_garbage_fails_oaep() {
        let kp = test_keys();
        let k = kp.public.ciphertext_len();
        // c = n - 1 decrypts to some value, but the OAEP structure cannot
        // verify (wrong l_hash with overwhelming probability).
        let ct = kp.public.n.sub(&BigUint::one()).to_bytes_be_padded(k);
        assert!(kp.private.decrypt(&ct).is_err());
    }

    #[test]
    fn crafted_nonzero_leading_byte_rejected() {
        let kp = test_keys();
        let k = kp.public.ciphertext_len();
        // Encrypt a raw m whose encoding has em[0] != 0 — e.g. m = n - 2,
        // whose top byte is nonzero for this key.
        let m = kp.public.n.sub(&BigUint::from_u64(2));
        assert_ne!(m.to_bytes_be_padded(k)[0], 0);
        let c = kp.public.mont.mod_pow(&m, &kp.public.e);
        assert!(matches!(
            kp.private.decrypt(&c.to_bytes_be_padded(k)),
            Err(CryptoError::DecryptionFailed)
        ));
    }

    #[test]
    fn crafted_wrong_lhash_rejected() {
        let kp = test_keys();
        let k = kp.public.ciphertext_len();
        // m = 12345: em[0] passes the zero check, but the unmasked db
        // cannot carry the label hash.
        let m = BigUint::from_u64(12_345);
        let c = kp.public.mont.mod_pow(&m, &kp.public.e);
        assert!(matches!(
            kp.private.decrypt(&c.to_bytes_be_padded(k)),
            Err(CryptoError::DecryptionFailed)
        ));
    }

    #[test]
    fn crafted_missing_separator_rejected() {
        let kp = test_keys();
        let k = kp.public.ciphertext_len();
        let h_len = sha256::DIGEST_LEN;
        // Build a syntactically plausible EM with a correct l_hash but no
        // 0x01 separator anywhere in the data block, then mask it exactly
        // as OAEP encoding would.
        let l_hash = sha256::digest(b"");
        let mut db = Vec::with_capacity(k - h_len - 1);
        db.extend_from_slice(&l_hash);
        db.resize(k - h_len - 1, 0); // all-zero padding, separator absent
        let mut seed = vec![0x5au8; h_len];
        let db_mask = mgf1(&seed, db.len());
        for (b, m) in db.iter_mut().zip(db_mask.iter()) {
            *b ^= m;
        }
        let seed_mask = mgf1(&db, h_len);
        for (b, m) in seed.iter_mut().zip(seed_mask.iter()) {
            *b ^= m;
        }
        let mut em = vec![0u8];
        em.extend_from_slice(&seed);
        em.extend_from_slice(&db);
        let m = BigUint::from_bytes_be(&em);
        let c = kp.public.mont.mod_pow(&m, &kp.public.e);
        assert!(matches!(
            kp.private.decrypt(&c.to_bytes_be_padded(k)),
            Err(CryptoError::DecryptionFailed)
        ));
    }

    #[test]
    fn raw_decrypt_paths_agree_on_random_ciphertexts() {
        let kp = test_keys();
        let mut rng = SecureRng::from_seed(0xc0ffee);
        for i in 0..8 {
            let ct = kp
                .public
                .encrypt(format!("m{i}").as_bytes(), &mut rng)
                .unwrap();
            let c = BigUint::from_bytes_be(&ct);
            assert_eq!(kp.private.raw_decrypt(&c), kp.private.raw_decrypt_naive(&c));
        }
    }

    #[test]
    fn public_key_equality_ignores_cached_context() {
        let kp = test_keys();
        let rebuilt = RsaPublicKey {
            n: kp.public.n.clone(),
            e: kp.public.e.clone(),
            modulus_len: kp.public.modulus_len,
            mont: Montgomery::new(&kp.public.n).unwrap(),
        };
        assert_eq!(kp.public, rebuilt);
    }
}
