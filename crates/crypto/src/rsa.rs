//! RSA public-key encryption with OAEP padding (SHA-256 / MGF1).
//!
//! The PProx user-side library encrypts the user identifier under the UA
//! layer's public key, and the item identifier (or the temporary response
//! key `k_u`) under the IA layer's public key (§4.1, §4.2). Randomized
//! asymmetric encryption is essential there: two encryptions of the same
//! identifier must be unlinkable, which is why the same ciphertext cannot
//! double as a pseudonym.
//!
//! Decryption uses the Chinese Remainder Theorem over the modulus's prime
//! factors, as any production RSA implementation does, and keys from 1024
//! bits up have three of them (multi-prime RSA, RFC 8017 §3; 683 + 683 +
//! 682 bits at 2048): against two primes, each exponentiation is a third
//! shorter on operands a third narrower, so three cost about half what
//! two did (`3 · (2/3)³ ≈ 0.9` two-prime ladders against 2), while
//! clients see the same `(n, e)`, the same ciphertext length and the
//! same OAEP bytes. Every key caches the
//! [`Montgomery`] contexts its exponentiations need (`n` on the public
//! side; each prime for CRT) so the per-modulus precomputation is paid at
//! key generation, not per request — the enclave hot path (§6 of the
//! paper) is pure multiply/accumulate work. The CRT exponentiations are
//! independent, which is what lets RSA-2048 keys run their three as one
//! interleaved loop on AVX-512 IFMA where the CPU has it; one private
//! function, under every decrypt, holds that dispatch. The public
//! operation (`e = 65537`, 17 multiplications) stays scalar everywhere.

use crate::bigint::{BigUint, Montgomery};
use crate::prime::generate_prime;
use crate::rng::SecureRng;
use crate::sha256;
use crate::CryptoError;

/// Default modulus size for PProx layer keys.
pub const DEFAULT_MODULUS_BITS: usize = 2048;

/// Smallest modulus generated with three primes; smaller ones get two.
/// OpenSSL allows three primes from 1024 up to 4095 bits, and the
/// largest factor ECM has found (83 digits, ≈ 274 bits) is far below the
/// 341-bit primes of a 1024-bit three-prime key.
const THREE_PRIMES_FROM_BITS: usize = 1024;

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

/// An RSA private key: the private exponent and, per prime factor, what
/// its CRT ladder and its step of the recombination need.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    /// The private exponent, which only the non-CRT oracle reads.
    d: BigUint,
    /// The prime factors, in the order the recombination folds them in.
    primes: Vec<CrtPrime>,
    /// Cached radix-2⁵² contexts for the primes, present when they are
    /// the three 11-limb primes the vector ladders are laid out for.
    #[cfg(target_arch = "x86_64")]
    ladders52: Option<crate::mont52::CrtLadders>,
}

/// One prime factor `rᵢ` of a private key's modulus (RFC 8017 §3.2).
#[derive(Clone)]
struct CrtPrime {
    /// Cached Montgomery context for `rᵢ` (which holds `rᵢ`).
    mont: Montgomery,
    /// `dᵢ = d mod (rᵢ − 1)`.
    exp: BigUint,
    /// `r₀ ⋯ rᵢ₋₁`, the primes before this one (1 for the first).
    below: BigUint,
    /// Garner's coefficient `tᵢ = (r₀ ⋯ rᵢ₋₁)⁻¹ mod rᵢ` (1 for the first).
    coeff: BigUint,
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
    /// Generates a key pair with a modulus of exactly `bits` bits: three
    /// primes from 1024 bits up (sizes differing by at most one bit), two
    /// below.
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
        let count = if bits >= THREE_PRIMES_FROM_BITS { 3 } else { 2 };
        let e = BigUint::from_u64(E);
        loop {
            let primes: Vec<BigUint> = (0..count)
                .map(|i| generate_prime(bits / count + usize::from(i < bits % count), rng))
                .collect();
            let n = primes.iter().fold(BigUint::one(), |n, r| n.mul(r));
            // Three primes with their top two bits set can multiply to
            // one bit short; two cannot.
            if n.bit_len() != bits || (1..count).any(|i| primes[..i].contains(&primes[i])) {
                continue;
            }
            let phi = primes
                .iter()
                .fold(BigUint::one(), |phi, r| phi.mul(&r.sub(&BigUint::one())));
            let Some(d) = e.mod_inverse(&phi) else {
                continue; // gcd(e, phi) != 1; pick new primes
            };
            return RsaKeyPair::from_crt_parts(e, d, primes);
        }
    }

    /// The one place a key pair is assembled, whoever chose the numbers:
    /// `n` is the product of `primes`, and every exponent, coefficient and
    /// context the private-key operation uses is derived here from `d` and
    /// the primes (RFC 8017 §3.2: `dᵢ = d mod (rᵢ − 1)`, and Garner's
    /// `tᵢ`), so nothing cached can disagree with the primes it was cached
    /// for.
    ///
    /// # Panics
    ///
    /// Panics if a prime is even or the primes are not pairwise coprime.
    pub(crate) fn from_crt_parts(e: BigUint, d: BigUint, primes: Vec<BigUint>) -> Self {
        let n = primes.iter().fold(BigUint::one(), |n, r| n.mul(r));
        let public = RsaPublicKey {
            mont: Montgomery::new(&n).expect("RSA modulus is odd"),
            modulus_len: n.bit_len().div_ceil(8),
            n,
            e,
        };
        let mut below = BigUint::one();
        let primes: Vec<CrtPrime> = primes
            .iter()
            .map(|r| {
                let prime = CrtPrime {
                    mont: Montgomery::new(r).expect("a prime factor is odd"),
                    exp: d.rem(&r.sub(&BigUint::one())),
                    coeff: below
                        .mod_inverse(r)
                        .expect("the prime factors are pairwise coprime"),
                    below: below.clone(),
                };
                below = below.mul(r);
                prime
            })
            .collect();
        let private = RsaPrivateKey {
            public: public.clone(),
            d,
            #[cfg(target_arch = "x86_64")]
            ladders52: crate::mont52::CrtLadders::new(
                &primes.iter().map(|r| &r.mont).collect::<Vec<_>>(),
            ),
            primes,
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
    /// order, each opened on its own: one decrypt's three ladders in
    /// lockstep are already the cheapest way to open a ciphertext here, so
    /// a group shares nothing but the call. Each result is bit-identical
    /// to `decrypt` of that ciphertext alone, errors included.
    pub fn decrypt_group<C: AsRef<[u8]>>(
        &self,
        ciphertexts: &[C],
    ) -> Vec<Result<Vec<u8>, CryptoError>> {
        ciphertexts
            .iter()
            .map(|c| self.decrypt(c.as_ref()))
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
    ///
    /// Constant-time up to the verdict (RFC 8017 §7.1.2, note): both masks
    /// are removed and the first byte, the label hash and the separator
    /// are all checked whatever each holds, and one exit reports any
    /// failure: an exit on the first byte alone is Manger's oracle
    /// (CRYPTO 2001).
    fn oaep_decode(&self, m: &BigUint) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len;
        let h_len = sha256::DIGEST_LEN;
        let em = m.to_bytes_be_padded(k);
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
        // Zero padding, then the 0x01 separator: a branch-free scan for the
        // first nonzero byte after the label hash, which must be 0x01.
        // `first` is all-ones at that byte alone, `found` from it on.
        let (mut found, mut at, mut bad_separator) = (0usize, 0usize, 0usize);
        for (i, &b) in db.iter().enumerate().skip(h_len) {
            let nonzero = ((b as usize).wrapping_neg() >> (usize::BITS - 1)).wrapping_neg();
            let first = nonzero & !found;
            at |= i & first;
            bad_separator |= first & (b ^ 0x01) as usize;
            found |= nonzero;
        }
        let bad = em[0] as usize
            | usize::from(!crate::ct::ct_eq(&db[..h_len], &l_hash))
            | bad_separator
            | !found;
        if bad != 0 {
            return Err(CryptoError::DecryptionFailed);
        }
        Ok(db[at + 1..].to_vec())
    }

    /// Raw RSA-CRT exponentiation `c^d mod n` (no OAEP decoding) through
    /// the cached contexts for the primes.
    ///
    /// This is the modular-arithmetic core of [`decrypt`](Self::decrypt),
    /// exposed so the throughput harness and the differential tests can
    /// measure and cross-check it in isolation. Callers must ensure
    /// `c < n`.
    pub fn raw_decrypt(&self, c: &BigUint) -> BigUint {
        self.crt_combine(&self.crt_ladders(c))
    }

    /// `c^dᵢ mod rᵢ` for every prime, in order: the single dispatch point
    /// of the private-key operation. With three 11-limb primes on a CPU
    /// that reports AVX-512 IFMA the three ladders run in lockstep on the
    /// radix-2⁵² vector kernel; every other key size and CPU takes
    /// [`scalar_ladders`](Self::scalar_ladders). Both return identical
    /// values.
    pub(crate) fn crt_ladders(&self, c: &BigUint) -> Vec<BigUint> {
        #[cfg(target_arch = "x86_64")]
        if let (Some(ladders), [r0, r1, r2]) = (&self.ladders52, &self.primes[..]) {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma") {
                // SAFETY: `pow_triple` is compiled for exactly the two CPU
                // features detected on the line above and has no other
                // precondition.
                #[allow(unsafe_code)]
                return unsafe { ladders.pow_triple(c, [&r0.exp, &r1.exp, &r2.exp]) }.into();
            }
        }
        self.scalar_ladders(c)
    }

    /// [`crt_ladders`](Self::crt_ladders) on the scalar kernels: one
    /// [`Montgomery::mod_pow`] per prime.
    fn scalar_ladders(&self, c: &BigUint) -> Vec<BigUint> {
        self.primes
            .iter()
            .map(|r| r.mont.mod_pow(c, &r.exp))
            .collect()
    }

    /// `c^d mod n` by the retained schoolbook square-and-multiply
    /// exponentiation ([`BigUint::mod_pow_naive`]) on the whole modulus:
    /// no CRT, no Montgomery form and no per-prime state, so it shares
    /// nothing with [`raw_decrypt`](Self::raw_decrypt) but the key's `d`
    /// and `n`. The oracle the tests hold `raw_decrypt` to, and the
    /// baseline the throughput harness reports speedups against.
    pub fn raw_decrypt_naive(&self, c: &BigUint) -> BigUint {
        c.mod_pow_naive(&self.d, &self.public.n)
    }

    /// Garner's recombination of the residues `mᵢ = c^dᵢ mod rᵢ` (RFC 8017
    /// §5.1.2, step 2.b.ii, from the second prime on; its first step,
    /// with `qInv`, is the same fold with the first two primes' roles
    /// exchanged): `m` starts as `m₀`, and prime `i` adds
    /// `(r₀⋯rᵢ₋₁) · ((mᵢ − m) · tᵢ mod rᵢ)`, after which `m` is the value
    /// mod `r₀⋯rᵢ`.
    fn crt_combine(&self, residues: &[BigUint]) -> BigUint {
        let mut m = residues[0].clone();
        for (prime, mi) in self.primes.iter().zip(residues).skip(1) {
            let r = prime.mont.modulus();
            let m_mod = m.rem(r);
            let diff = if *mi >= m_mod {
                mi.sub(&m_mod)
            } else {
                r.sub(&m_mod.sub(mi))
            };
            let h = prime.mont.mod_mul(&diff, &prime.coeff);
            m = m.add(&prime.below.mul(&h));
        }
        m
    }

    /// The key with its CRT exponents replaced, so the kernel tests can
    /// drive any exponents through the one dispatch.
    #[cfg(test)]
    pub(crate) fn with_exponents(mut self, exps: &[BigUint]) -> Self {
        for (prime, exp) in self.primes.iter_mut().zip(exps) {
            prime.exp = exp.clone();
        }
        self
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

    /// The 768-bit vectors above stay on the slice kernels (two 6-limb
    /// primes). These pin a three-prime 2048-bit key — 11-limb primes
    /// (683, 683 and 682 bits), a 32-limb modulus, the widths the
    /// fixed-width kernels and the vector ladders serve — with the EM
    /// recorded from the non-CRT oracle (`raw_decrypt_naive`, `c^d mod n`
    /// on the whole modulus): same seed, same key, same bytes.
    const KAT_2048_KEY_SEED: u64 = 0x4b41_5433;
    const KAT_2048_FINGERPRINT_HEX: &str =
        "60c8aaaa98fef5611077108d0970c0b91591b162c6b7f509deb87c733af5e653";
    const KAT_2048_CT_HEX: &str = "3fff4eca32ba97c5c615f15b32c1c4460d1ff9083df8b60da5293c4a8e16b256f17f443c46c6b91286233ae791a9c682d4594aa75e203e51a49bc66ac202848f2a35d7b30bbdb6cd0c527bb73cc1f082aa931ab0c3256922d7aeb5d82d2461efa0021358dc57cd56f27715c52b75252454c48e9c8b2bcabcea55c2cd28761a3427ff3e2c8b5412f7c206b2ec138b6f6c006aabcc2626ef4fd5726e1f57f282d8f55d9155ba3052e3d50cd7f68f2788b65ba71cfae5629bb8c600714add6effcb8d0ccfadfac4da1cb2eec8fb8d37c52ae1de145bc9fe9e7779c83a4e12b1d68663e197c1a9b47b625f6c058ab18f6a28e39b337702b95bcfce412752ec5f0f1f";
    const KAT_2048_EM_HEX: &str = "6f00a769956499facbe2b59878fc143745c9b05661a4189348331cab2e348002f13557b711839f37811d6628e3caf64382cd9d0af2be66aa0e3daae973fb38c6e7ca7e971c86cfc785affcdf3cee27643712295e980e200d85eceeb22147f3608dfaa242a948ab7043cb886f6624ebb199b9e6875162467cdfbb445445f8262a137bc3606b2100d9bb4e2b13e9df2b9e3f241ca05656a582a4cb400d90ee5c3622a6525e78607c195654c6f278d447aed52ef7521f03fad17d38c5a7b5d583d6020e95a4b1582284c410f9607bb50568e94641442e9a4fcc004a56a5c5278fdde740ee4804601aab42840107683c5c6441ea166ec560eb2b0d68c5a47a2bbd";

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
        assert_eq!(kp.private.primes.len(), 3);
        assert_eq!(kp.private.raw_decrypt_naive(&c), em);
        assert_eq!(kp.private.raw_decrypt(&c), em);
        // The scalar ladders too, which a CPU without IFMA decrypts on.
        let scalar = kp.private.scalar_ladders(&c);
        assert_eq!(kp.private.crt_combine(&scalar), em);
        assert_eq!(kp.private.decrypt(&ct).unwrap(), KAT_PLAINTEXT);
    }

    #[test]
    fn kat_textbook_rsa_small_numbers() {
        // Classic hand-checkable textbook vector: p=61, q=53, n=3233,
        // e=17, d=2753; 65^17 mod 3233 = 2790, with CRT exponents 2753 mod
        // 60, 52 = 53, 49 and 61⁻¹ mod 53 = 20. And three primes: 11, 13,
        // 17, n=2431, φ=10·12·16=1920, e=7, d=823 (7·823 = 3·1920 + 1);
        // 1300^7 mod 2431 = 117. The CRT exponents are 823 mod 10, 12, 16
        // = 3, 7, 7; Garner's coefficients 11⁻¹ mod 13 = 6 and
        // (11·13)⁻¹ mod 17 = 7⁻¹ mod 17 = 5. 1300 = 100·13 is above
        // 11·13, so the third prime's step is not a no-op, and its middle
        // residue is 0.
        fn check(primes: &[u64], e: u64, d: u64, m: u64, c: u64, exps_and_coeffs: &[(u64, u64)]) {
            let RsaKeyPair { public, private } = RsaKeyPair::from_crt_parts(
                BigUint::from_u64(e),
                BigUint::from_u64(d),
                primes.iter().map(|&r| BigUint::from_u64(r)).collect(),
            );
            let derived: Vec<(u64, u64)> = private
                .primes
                .iter()
                .map(|r| (r.exp.limbs()[0], r.coeff.limbs()[0]))
                .collect();
            assert_eq!(derived, exps_and_coeffs);
            assert_eq!(public.n, BigUint::from_u64(primes.iter().product()));
            assert_eq!(public.modulus_len, 2);
            let (m, c) = (BigUint::from_u64(m), BigUint::from_u64(c));
            assert_eq!(public.mont.mod_pow(&m, &public.e), c);
            assert_eq!(private.raw_decrypt(&c), m);
            assert_eq!(private.raw_decrypt_naive(&c), m);
        }
        check(&[61, 53], 17, 2753, 65, 2790, &[(53, 1), (49, 20)]);
        check(&[11, 13, 17], 7, 823, 1300, 117, &[(3, 1), (7, 6), (7, 5)]);
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

    /// EME-OAEP's masking of `db` under `seed` behind the first byte
    /// `first` (RFC 8017 §7.1.1, steps 2.f–2.i), encrypted raw: what
    /// `encrypt` sends, with every part of the encoding chosen.
    fn raw_ciphertext(kp: &RsaKeyPair, first: u8, mut seed: Vec<u8>, mut db: Vec<u8>) -> Vec<u8> {
        let db_mask = mgf1(&seed, db.len());
        for (b, m) in db.iter_mut().zip(db_mask.iter()) {
            *b ^= m;
        }
        let seed_mask = mgf1(&db, seed.len());
        for (b, m) in seed.iter_mut().zip(seed_mask.iter()) {
            *b ^= m;
        }
        let em = [vec![first], seed, db].concat();
        let c = kp
            .public
            .mont
            .mod_pow(&BigUint::from_bytes_be(&em), &kp.public.e);
        c.to_bytes_be_padded(kp.public.ciphertext_len())
    }

    #[test]
    fn crafted_missing_separator_rejected() {
        let kp = test_keys();
        let k = kp.public.ciphertext_len();
        let h_len = sha256::DIGEST_LEN;
        // A syntactically plausible EM with a correct l_hash but no 0x01
        // separator anywhere in the data block.
        let mut db = sha256::digest(b"").to_vec();
        db.resize(k - h_len - 1, 0); // all-zero padding, separator absent
        let ct = raw_ciphertext(&kp, 0, vec![0x5a; h_len], db);
        assert!(matches!(
            kp.private.decrypt(&ct),
            Err(CryptoError::DecryptionFailed)
        ));
    }

    #[test]
    fn nonzero_first_byte_over_a_valid_encoding_rejected() {
        let kp = test_keys();
        let k = kp.public.ciphertext_len();
        let h_len = sha256::DIGEST_LEN;
        // A valid encoding of "x" in every part but, the second time, the
        // first byte: the label hash and the separator still check out.
        let mut db = sha256::digest(b"").to_vec();
        db.resize(k - h_len - 3, 0);
        db.extend_from_slice(&[0x01, b'x']);
        let open = |first| {
            let ct = raw_ciphertext(&kp, first, vec![0x5a; h_len], db.clone());
            kp.private.decrypt(&ct)
        };
        assert_eq!(open(0), Ok(b"x".to_vec()));
        assert_eq!(open(1), Err(CryptoError::DecryptionFailed));
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
