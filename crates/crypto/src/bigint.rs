//! Arbitrary-precision unsigned integer arithmetic.
//!
//! This module provides the big-integer substrate required by the RSA
//! implementation in [`crate::rsa`]. The paper's proxy service uses RSA for
//! the randomized public-key encryption of user identifiers, item
//! identifiers, and temporary response keys (§4.1); since the reproduction
//! is restricted to a small set of offline crates, the arithmetic is
//! implemented from scratch here.
//!
//! The representation is a little-endian vector of `u64` limbs with no
//! trailing zero limbs (so zero is the empty vector). Most operations are
//! value-semantics and allocate; the exponentiation hot path goes through
//! [`Montgomery`], which replaces the quotient-estimation division of
//! [`BigUint::divrem`] with word-by-word Montgomery reduction (CIOS) and a
//! fixed 4-bit window, precomputed once per modulus. At the two limb
//! counts RSA-2048 produces the ladder runs on `[u64; K]` kernels with a
//! dedicated squaring; every other width stays on the slice CIOS, which is
//! also the oracle the array kernels are tested against. (One caller goes
//! around [`Montgomery::mod_pow`]: the RSA-CRT private-key operation on
//! three 11-limb primes, which `crate::rsa` sends to the AVX-512 IFMA
//! ladders of `mont52.rs` when the CPU has them.) The schoolbook
//! square-and-multiply path is retained as [`BigUint::mod_pow_naive`] so
//! differential tests can check the fast path bit-for-bit.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// # Examples
///
/// ```
/// use pprox_crypto::bigint::BigUint;
///
/// let a = BigUint::from_u64(12_345);
/// let b = BigUint::from_u64(67_890);
/// assert_eq!(a.mul(&b), BigUint::from_u64(12_345 * 67_890));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; invariant: no trailing zeros.
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a big integer from a single machine word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` if the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit order) as a bool.
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Interprets big-endian bytes as an integer. Leading zero bytes are
    /// accepted and ignored.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut acc: u64 = 0;
        let mut nbits = 0;
        for &b in bytes.iter().rev() {
            acc |= (b as u64) << nbits;
            nbits += 8;
            if nbits == 64 {
                limbs.push(acc);
                acc = 0;
                nbits = 0;
            }
        }
        if nbits > 0 {
            limbs.push(acc);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Serializes to minimal big-endian bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        // strip leading zeros
        let first = out.iter().position(|&b| b != 0).unwrap_or(out.len() - 1);
        out.drain(..first);
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padding with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Lower-case hexadecimal representation without a `0x` prefix.
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = String::new();
        for (i, &limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Parses a hexadecimal string (no prefix).
    ///
    /// Returns `None` on any non-hex character.
    pub fn from_hex(s: &str) -> Option<Self> {
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<u8> = s.bytes().collect();
        let mut idx = chars.len();
        while idx > 0 {
            let lo = idx.saturating_sub(2);
            let chunk = std::str::from_utf8(&chars[lo..idx]).ok()?;
            bytes.push(u8::from_str_radix(chunk, 16).ok()?);
            idx = lo;
        }
        bytes.reverse();
        Some(Self::from_bytes_be(&bytes))
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// The little-endian limbs (no trailing zeros), for the kernels in
    /// sibling modules that re-slice a value into another radix.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Builds a value from little-endian limbs, trailing zeros allowed.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Sum of `self` and `other`.
    pub fn add(&self, other: &Self) -> Self {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in longer.iter().enumerate() {
            let b = shorter.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        BigUint { limbs: out }
    }

    /// Difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (unsigned arithmetic cannot go negative).
    pub fn sub(&self, other: &Self) -> Self {
        assert!(self >= other, "BigUint::sub would underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Product of `self` and `other` (schoolbook multiplication).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u128 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> Self {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = n % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Quotient and remainder of `self / divisor`.
    ///
    /// Uses Knuth's Algorithm D on 64-bit limbs with 128-bit intermediates.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn divrem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (Self::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = Vec::with_capacity(self.limbs.len());
            let mut rem: u128 = 0;
            for &l in self.limbs.iter().rev() {
                let cur = (rem << 64) | l as u128;
                q.push((cur / d as u128) as u64);
                rem = cur % d as u128;
            }
            q.reverse();
            let mut qq = BigUint { limbs: q };
            qq.normalize();
            return (qq, BigUint::from_u64(rem as u64));
        }

        // Normalize so the top limb of the divisor has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0); // u has m+n+1 limbs
        let vn = &v.limbs;
        let mut q = vec![0u64; m + 1];
        let v_top = vn[n - 1] as u128;
        let v_next = vn[n - 2] as u128;

        for j in (0..=m).rev() {
            // Estimate q̂ = (u[j+n]·B + u[j+n-1]) / v[n-1].
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = num / v_top;
            let mut rhat = num % v_top;
            // Correct q̂ down at most twice.
            while qhat >= 1 << 64 || qhat * v_next > ((rhat << 64) | un[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v_top;
                if rhat >= 1 << 64 {
                    break;
                }
            }
            // Multiply-subtract: u[j..j+n+1] -= q̂ · v.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[j + i] as i128 - (p as u64) as i128 - borrow;
                un[j + i] = t as u64;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = un[j + n] as i128 - carry as i128 - borrow;
            un[j + n] = t as u64;
            if t < 0 {
                // q̂ was one too large; add back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        un.truncate(n);
        let mut remainder = BigUint { limbs: un };
        remainder.normalize();
        (quotient, remainder.shr(shift))
    }

    /// Remainder of `self / modulus`.
    pub fn rem(&self, modulus: &Self) -> Self {
        self.divrem(modulus).1
    }

    /// Modular multiplication `self * other mod modulus`.
    pub fn mod_mul(&self, other: &Self, modulus: &Self) -> Self {
        self.mul(other).rem(modulus)
    }

    /// Modular exponentiation `self^exp mod modulus`.
    ///
    /// Odd moduli (the only kind RSA ever produces: `n`, `p`, `q` are all
    /// odd) take the Montgomery/fixed-window fast path; even moduli fall
    /// back to [`mod_pow_naive`](Self::mod_pow_naive). Both paths return
    /// identical values — see `crates/crypto/tests/differential.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn mod_pow(&self, exp: &Self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "modulus must be nonzero");
        if modulus.is_one() {
            return Self::zero();
        }
        match Montgomery::new(modulus) {
            Some(ctx) => ctx.mod_pow(self, exp),
            None => self.mod_pow_naive(exp, modulus),
        }
    }

    /// Modular exponentiation by left-to-right binary square-and-multiply
    /// with a full [`divrem`](Self::divrem) reduction per step.
    ///
    /// This is the pre-Montgomery implementation, retained on purpose: it
    /// is the reference the differential test battery checks
    /// [`mod_pow`](Self::mod_pow) against, the fallback for even moduli,
    /// and the baseline the throughput harness reports speedups over.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn mod_pow_naive(&self, exp: &Self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "modulus must be nonzero");
        if modulus.is_one() {
            return Self::zero();
        }
        let mut result = Self::one();
        let base = self.rem(modulus);
        let bits = exp.bit_len();
        for i in (0..bits).rev() {
            result = result.mod_mul(&result, modulus);
            if exp.bit(i) {
                result = result.mod_mul(&base, modulus);
            }
        }
        result
    }

    /// Number of trailing zero bits (0 for the value zero).
    pub fn trailing_zeros(&self) -> usize {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i * 64 + l.trailing_zeros() as usize;
            }
        }
        0
    }

    /// In-place right shift by `n` bits.
    fn shr_assign(&mut self, n: usize) {
        if n == 0 || self.is_zero() {
            return;
        }
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            self.limbs.clear();
            return;
        }
        if limb_shift > 0 {
            self.limbs.drain(..limb_shift);
        }
        let bit_shift = n % 64;
        if bit_shift > 0 {
            let len = self.limbs.len();
            for i in 0..len {
                let hi = if i + 1 < len { self.limbs[i + 1] } else { 0 };
                self.limbs[i] = (self.limbs[i] >> bit_shift) | (hi << (64 - bit_shift));
            }
        }
        self.normalize();
    }

    /// In-place subtraction `self -= other`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `other > self`.
    fn sub_assign(&mut self, other: &Self) {
        debug_assert!(*self >= *other, "BigUint::sub_assign would underflow");
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            self.limbs[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        self.normalize();
    }

    /// Greatest common divisor (Stein's binary algorithm).
    ///
    /// Division-free: the loop body is an in-place subtract and an in-place
    /// shift on two scratch values, so — unlike the former Euclid-by-divrem
    /// version, which allocated a quotient and remainder per iteration — it
    /// performs no per-iteration allocations. Key generation calls this for
    /// every prime candidate, so the loop cost matters.
    pub fn gcd(&self, other: &Self) -> Self {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        let mut a = self.clone();
        let mut b = other.clone();
        let common = a.trailing_zeros().min(b.trailing_zeros());
        a.shr_assign(a.trailing_zeros());
        b.shr_assign(b.trailing_zeros());
        // Invariant: a and b are odd, so a - b (after ordering) is even.
        loop {
            match a.cmp(&b) {
                Ordering::Equal => break,
                Ordering::Less => std::mem::swap(&mut a, &mut b),
                Ordering::Greater => {}
            }
            a.sub_assign(&b);
            a.shr_assign(a.trailing_zeros());
        }
        a.shl(common)
    }

    /// Modular inverse `self^-1 mod modulus`, or `None` when
    /// `gcd(self, modulus) != 1`.
    ///
    /// Implemented with the extended Euclidean algorithm tracking only the
    /// coefficient of `self`, using (value, negative?) pairs to stay in
    /// unsigned arithmetic. The coefficient update consumes its operands so
    /// same-sign subtractions reuse the larger magnitude's buffer instead
    /// of allocating a fresh difference each step.
    pub fn mod_inverse(&self, modulus: &Self) -> Option<Self> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus);
        // Coefficients t such that t * self ≡ r (mod modulus), as (|t|, neg).
        let mut t0 = (Self::zero(), false);
        let mut t1 = (Self::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.divrem(&r1);
            // t2 = t0 - q * t1  (signed arithmetic on (|t|, neg) pairs)
            let qt1 = (q.mul(&t1.0), t1.1);
            let t2 = signed_sub(t0, qt1);
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        let (mag, neg) = t0;
        let m = mag.rem(modulus);
        Some(if neg && !m.is_zero() {
            modulus.sub(&m)
        } else {
            m
        })
    }
}

/// Signed subtraction on (magnitude, is_negative) pairs: `a - b`.
///
/// Takes ownership so the same-sign branches can subtract in place into
/// whichever magnitude is larger.
fn signed_sub(a: (BigUint, bool), b: (BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // Same sign: |result| = |larger - smaller|; the sign follows `a`
        // when `a` dominates and flips otherwise ((-a) - (-b) = b - a).
        (false, false) | (true, true) => {
            let flip = a.1;
            if a.0 >= b.0 {
                let mut m = a.0;
                m.sub_assign(&b.0);
                (m, flip)
            } else {
                let mut m = b.0;
                m.sub_assign(&a.0);
                (m, !flip)
            }
        }
        // a - (-b) = a + b
        (false, true) => (a.0.add(&b.0), false),
        // (-a) - b = -(a + b)
        (true, false) => (a.0.add(&b.0), true),
    }
}

/// Number of exponent bits consumed per fixed-window step in
/// [`Montgomery::mod_pow`].
pub(crate) const WINDOW_BITS: usize = 4;

/// Montgomery-form modular arithmetic over a fixed odd modulus.
///
/// For a `k`-limb odd modulus `n`, precomputes `n0inv = -n⁻¹ mod 2⁶⁴` and
/// `rr = R² mod n` (with `R = 2^(64k)`), after which every modular
/// multiplication is one interleaved multiply-and-reduce pass (the CIOS
/// method) — pure multiply/accumulate word work with no quotient
/// estimation. [`Montgomery::mod_pow`] layers fixed 4-bit-window
/// exponentiation on top: 4 squarings plus at most one table multiply per
/// window, against a 16-entry table of small powers.
///
/// RSA keys cache one context per modulus (`n` for public ops; `p` and `q`
/// for CRT decryption), so the precomputation division is paid once per
/// key instead of once per multiplication.
///
/// What runs where. Two scalar kernel families sit under
/// [`Montgomery::mod_pow`], chosen once per exponentiation from the limb
/// count: slices for any width, and `[u64; K]` arrays (`mont_mul_fixed`,
/// `mont_sqr_fixed`) for `K = 11` and `K = 32`. The width has to be a
/// compile-time constant for the array kernels to pay: the same squaring
/// written over slices, with or without bounds checks, measured no faster
/// than the slice CIOS. They are the portable path — every public-key
/// operation, key generation, every key size but one — and the oracle. A
/// third family, radix-2⁵² vectors on AVX-512 IFMA (`mont52.rs`), is not
/// under `mod_pow` at all: it runs three ladders at once, so its only
/// caller is [`RsaPrivateKey::raw_decrypt`](crate::rsa::RsaPrivateKey::raw_decrypt)
/// with the three 11-limb primes of an RSA-2048 key, on a CPU that reports
/// the instructions. It borrows this context's `n0inv` and the shared
/// final subtraction, and returns the same values.
///
/// Not constant-time: the table index is exponent-dependent, a zero window
/// skips its multiply (on the scalar ladders; the vector ladders multiply
/// every window), the final subtraction is conditional and limb loops
/// are data-length-dependent, consistent with the rest of this crate (the
/// reproduction's threat model is protocol-level linkability, not local
/// micro-architectural side channels — see `crates/crypto/src/aes.rs`).
/// The array kernels branch on nothing the slice kernel does not.
#[derive(Clone, Debug)]
pub struct Montgomery {
    /// The odd modulus (exactly `k` limbs, top limb nonzero).
    n: BigUint,
    /// `-n⁻¹ mod 2⁶⁴`.
    n0inv: u64,
    /// `R² mod n`, padded to `k` limbs.
    rr: Vec<u64>,
    /// Limb count of the modulus.
    k: usize,
}

impl Montgomery {
    /// Builds a context for `modulus`, or `None` when the modulus is even
    /// or zero (Montgomery reduction requires `gcd(n, 2⁶⁴) = 1`).
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_zero() || modulus.is_even() {
            return None;
        }
        let k = modulus.limbs.len();
        // Newton iteration for n[0]⁻¹ mod 2⁶⁴: each step doubles the number
        // of correct low bits; 6 steps cover 64 bits from a 5-bit seed.
        let n0 = modulus.limbs[0];
        let mut inv = n0; // correct mod 2⁵ for odd n0
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let mut rr = BigUint::one().shl(2 * 64 * k).rem(modulus).limbs;
        rr.resize(k, 0);
        Some(Montgomery {
            n: modulus.clone(),
            n0inv: inv.wrapping_neg(),
            rr,
            k,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// `-n⁻¹ mod 2⁶⁴`; its low bits are the same constant in any smaller
    /// power-of-two radix.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn n0inv(&self) -> u64 {
        self.n0inv
    }

    /// CIOS Montgomery multiplication: returns `a · b · R⁻¹ mod n` for
    /// `k`-limb operands `< n`.
    pub(crate) fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut t = Vec::with_capacity(self.k + 2);
        self.mont_mul_into(a, b, &mut t);
        t
    }

    /// Fused CIOS into a caller-owned scratch buffer (any prior
    /// contents), so the `mod_pow` ladder runs allocation-free: ~1.3k
    /// `mont_mul`s per exponentiation ping-pong between two reused
    /// buffers. On return `t` holds exactly the `k` result limbs.
    ///
    /// Each outer step folds the multiplication (`t += aᵢ·b`) and the
    /// reduction (`t = (t + m·n) / 2⁶⁴`) into one pass over `t`, carrying
    /// the two chains separately — `aᵢ·bⱼ + m·nⱼ + tⱼ + carries` would
    /// overflow `u128` if summed naively. One load and one (shifted)
    /// store per limb instead of two of each; at CRT operand sizes the
    /// loop is store-bound, so this is worth ~25%.
    fn mont_mul_into(&self, a: &[u64], b: &[u64], t: &mut Vec<u64>) {
        let k = self.k;
        let n = &self.n.limbs[..k];
        let b = &b[..k];
        debug_assert_eq!(a.len(), k);
        t.clear();
        t.resize(k + 1, 0);
        for &ai in a.iter() {
            let ai = ai as u128;
            // m makes the low limb of (t + ai·b + m·n) vanish.
            let low = t[0].wrapping_add((ai as u64).wrapping_mul(b[0]));
            let m = low.wrapping_mul(self.n0inv) as u128;
            // j = 0 hoisted: its store is the discarded zero limb.
            let cur = t[0] as u128 + ai * b[0] as u128;
            let mut c1 = cur >> 64;
            let cur2 = (cur as u64) as u128 + m * n[0] as u128;
            debug_assert_eq!(cur2 as u64, 0);
            let mut c2 = cur2 >> 64;
            for j in 1..k {
                let cur = t[j] as u128 + ai * b[j] as u128 + c1;
                c1 = cur >> 64;
                let cur2 = (cur as u64) as u128 + m * n[j] as u128 + c2;
                c2 = cur2 >> 64;
                t[j - 1] = cur2 as u64;
            }
            // Top limb: t[k] ∈ {0,1} (t < 2n invariant), both carries
            // < 2⁶⁴, so the new top limb stays in {0,1}.
            let cur = t[k] as u128 + c1 + c2;
            t[k - 1] = cur as u64;
            t[k] = (cur >> 64) as u64;
        }
        let top = t[k];
        t.truncate(k);
        reduce_once(t, top, n);
    }

    /// Converts `value` (must be `< n`) into Montgomery form.
    pub(crate) fn to_mont(&self, value: &BigUint) -> Vec<u64> {
        debug_assert!(*value < self.n);
        let mut limbs = value.limbs.clone();
        limbs.resize(self.k, 0);
        self.mont_mul(&limbs, &self.rr)
    }

    /// Converts out of Montgomery form (multiply by 1, i.e. by `R⁻¹`).
    fn mont_reduce(&self, value: &[u64]) -> BigUint {
        let mut one = vec![0u64; self.k];
        one[0] = 1;
        let mut out = BigUint {
            limbs: self.mont_mul(value, &one),
        };
        out.normalize();
        out
    }

    /// Modular multiplication `a · b mod n` through the Montgomery domain.
    pub fn mod_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.to_mont(&a.rem(&self.n));
        let bm = self.to_mont(&b.rem(&self.n));
        self.mont_reduce(&self.mont_mul(&am, &bm))
    }

    /// Modular exponentiation `base^exp mod n` with a fixed
    /// `WINDOW_BITS`-bit window.
    ///
    /// The single dispatch point between the two kernel families: the
    /// limb counts RSA-2048 produces (11 for the CRT primes, 32 for the
    /// public modulus) run on the fixed-width array kernels, every other
    /// width on the slice CIOS. Both return identical values.
    pub fn mod_pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if self.n.is_one() {
            return BigUint::zero();
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        match self.k {
            11 => self.mod_pow_fixed::<11, 22>(base, exp),
            32 => self.mod_pow_fixed::<32, 64>(base, exp),
            _ => self.mod_pow_slice(base, exp),
        }
    }

    /// The exponentiation ladder on the slice CIOS: any width, heap
    /// table, two reused scratch buffers. Callers have excluded `n = 1`
    /// and `exp = 0`.
    pub(crate) fn mod_pow_slice(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let bm = self.to_mont(&base.rem(&self.n));
        // table[i] = baseⁱ in Montgomery form; table[0] = R mod n (= 1).
        let mut table: Vec<Vec<u64>> = Vec::with_capacity(1 << WINDOW_BITS);
        table.push(self.to_mont(&BigUint::one()));
        table.push(bm);
        for i in 2..(1 << WINDOW_BITS) {
            table.push(self.mont_mul(&table[i - 1], &table[1]));
        }
        let windows = exp.bit_len().div_ceil(WINDOW_BITS);
        let mut acc = table[window_of(exp, windows - 1)].clone();
        let mut scratch = Vec::with_capacity(self.k + 2);
        for w in (0..windows - 1).rev() {
            for _ in 0..WINDOW_BITS {
                self.mont_mul_into(&acc, &acc, &mut scratch);
                std::mem::swap(&mut acc, &mut scratch);
            }
            let idx = window_of(exp, w);
            if idx != 0 {
                self.mont_mul_into(&acc, &table[idx], &mut scratch);
                std::mem::swap(&mut acc, &mut scratch);
            }
        }
        self.mont_reduce(&acc)
    }

    /// The same ladder on the fixed-width kernels for a `K`-limb modulus
    /// (`K2 = 2K`, the width of an unreduced square): window table and
    /// accumulator live on the stack, squarings go through
    /// [`mont_sqr_fixed`]. Callers have excluded `n = 1` and `exp = 0`.
    pub(crate) fn mod_pow_fixed<const K: usize, const K2: usize>(
        &self,
        base: &BigUint,
        exp: &BigUint,
    ) -> BigUint {
        let n: &[u64; K] = self.n.limbs[..]
            .try_into()
            .expect("dispatched on the modulus limb count");
        let rr: &[u64; K] = self.rr[..].try_into().expect("rr is padded to k limbs");
        let n0inv = self.n0inv;
        let widen = |v: &BigUint| {
            let mut limbs = [0u64; K];
            limbs[..v.limbs.len()].copy_from_slice(&v.limbs);
            limbs
        };
        let one = widen(&BigUint::one());
        // table[i] = baseⁱ in Montgomery form; table[0] = R mod n (= 1).
        let mut table = [[0u64; K]; 1 << WINDOW_BITS];
        table[0] = mont_mul_fixed(&one, rr, n, n0inv);
        table[1] = mont_mul_fixed(&widen(&base.rem(&self.n)), rr, n, n0inv);
        for i in 2..(1 << WINDOW_BITS) {
            table[i] = mont_mul_fixed(&table[i - 1], &table[1], n, n0inv);
        }
        let windows = exp.bit_len().div_ceil(WINDOW_BITS);
        let mut acc = table[window_of(exp, windows - 1)];
        for w in (0..windows - 1).rev() {
            for _ in 0..WINDOW_BITS {
                acc = mont_sqr_fixed::<K, K2>(&acc, n, n0inv);
            }
            let idx = window_of(exp, w);
            if idx != 0 {
                acc = mont_mul_fixed(&acc, &table[idx], n, n0inv);
            }
        }
        let mut out = BigUint {
            limbs: mont_mul_fixed(&acc, &one, n, n0inv).to_vec(),
        };
        out.normalize();
        out
    }
}

/// The fused CIOS of [`Montgomery::mont_mul_into`] on `K`-limb arrays:
/// `a · b · R⁻¹ mod n` for operands `< n`. With the width a compile-time
/// constant every index is provably in range and the loops have constant
/// trip counts, which is where the gain over the slice kernel comes from —
/// the arithmetic is the same.
fn mont_mul_fixed<const K: usize>(
    a: &[u64; K],
    b: &[u64; K],
    n: &[u64; K],
    n0inv: u64,
) -> [u64; K] {
    let mut t = [0u64; K];
    let mut top = 0u64;
    for &ai in a {
        let ai = ai as u128;
        // m makes the low limb of (t + ai·b + m·n) vanish.
        let cur = t[0] as u128 + ai * b[0] as u128;
        let m = (cur as u64).wrapping_mul(n0inv) as u128;
        let mut c1 = cur >> 64;
        let mut c2 = ((cur as u64) as u128 + m * n[0] as u128) >> 64;
        for j in 1..K {
            let cur = t[j] as u128 + ai * b[j] as u128 + c1;
            c1 = cur >> 64;
            let cur2 = (cur as u64) as u128 + m * n[j] as u128 + c2;
            c2 = cur2 >> 64;
            t[j - 1] = cur2 as u64;
        }
        // top ∈ {0,1} (t < 2n invariant) and both carries < 2⁶⁴.
        let cur = top as u128 + c1 + c2;
        t[K - 1] = cur as u64;
        top = (cur >> 64) as u64;
    }
    reduce_once(&mut t, top, n);
    t
}

/// Dedicated Montgomery squaring on `K`-limb arrays: `a² · R⁻¹ mod n` for
/// `a < n`, with `K2 = 2K`.
///
/// Each cross product `aᵢ·aⱼ` (`i < j`) is computed once and the sum
/// doubled, the diagonal `aᵢ²` added, and the `2K`-limb square then
/// reduced by `K` rounds of `t += m·n·2^(64i)`: `K(K−1)/2 + K + K²` limb
/// multiplies against CIOS's `2K²` (187 against 242 at `K = 11`). Four in
/// five multiplications of a windowed exponentiation are squarings.
fn mont_sqr_fixed<const K: usize, const K2: usize>(
    a: &[u64; K],
    n: &[u64; K],
    n0inv: u64,
) -> [u64; K] {
    const { assert!(K2 == 2 * K) };
    let mut t = [0u64; K2];
    // Cross products below the diagonal, each once.
    for i in 0..K {
        let ai = a[i] as u128;
        let mut c = 0u128;
        for j in i + 1..K {
            let cur = t[i + j] as u128 + ai * a[j] as u128 + c;
            t[i + j] = cur as u64;
            c = cur >> 64;
        }
        t[i + K] = c as u64;
    }
    // t = 2t + Σ aᵢ²·2^(128i): shift one bit left while adding the
    // diagonal, two limbs per step.
    let mut shifted_out = 0u64;
    let mut c = 0u128;
    for i in 0..K {
        let sq = a[i] as u128 * a[i] as u128;
        let lo = (t[2 * i] << 1) | shifted_out;
        let hi = (t[2 * i + 1] << 1) | (t[2 * i] >> 63);
        shifted_out = t[2 * i + 1] >> 63;
        let cur = lo as u128 + (sq as u64) as u128 + c;
        t[2 * i] = cur as u64;
        let cur = hi as u128 + (sq >> 64) + (cur >> 64);
        t[2 * i + 1] = cur as u64;
        c = cur >> 64;
    }
    debug_assert_eq!((shifted_out, c), (0, 0), "a² fits 2K limbs");
    // Montgomery reduction of the 2K-limb square; `top` carries the bit
    // that overflows limb i+K into the next round.
    let mut top = 0u64;
    for i in 0..K {
        let m = t[i].wrapping_mul(n0inv) as u128;
        let mut c = 0u128;
        for j in 0..K {
            let cur = t[i + j] as u128 + m * n[j] as u128 + c;
            t[i + j] = cur as u64;
            c = cur >> 64;
        }
        let cur = t[i + K] as u128 + c + top as u128;
        t[i + K] = cur as u64;
        top = (cur >> 64) as u64;
    }
    let mut out = [0u64; K];
    out.copy_from_slice(&t[K..]);
    reduce_once(&mut out, top, n);
    out
}

/// The final conditional subtraction every Montgomery kernel ends with:
/// `top·2^(64k) + t < 2n` on entry (so one subtraction suffices), `t < n`
/// on return; `t` and `n` have the same length.
pub(crate) fn reduce_once(t: &mut [u64], top: u64, n: &[u64]) {
    if top != 0 || !limbs_lt(t, n) {
        let mut borrow = 0u64;
        for (tj, &nj) in t.iter_mut().zip(n) {
            let (d1, b1) = tj.overflowing_sub(nj);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *tj = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(top, borrow);
    }
}

/// Extracts the `w`-th [`WINDOW_BITS`]-bit window of `exp` (window 0 is the
/// least significant).
pub(crate) fn window_of(exp: &BigUint, w: usize) -> usize {
    let mut idx = 0;
    for bit in (0..WINDOW_BITS).rev() {
        idx = (idx << 1) | exp.bit(w * WINDOW_BITS + bit) as usize;
    }
    idx
}

/// `a < b` for equal-length limb slices.
fn limbs_lt(a: &[u64], b: &[u64]) -> bool {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Less => return true,
            Ordering::Greater => return false,
            Ordering::Equal => continue,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SecureRng;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::one();
        let s = a.add(&b);
        assert_eq!(s.to_hex(), "10000000000000000");
        assert_eq!(s.bit_len(), 65);
    }

    #[test]
    fn sub_with_borrow() {
        let a = BigUint::from_hex("10000000000000000").unwrap();
        let b = BigUint::one();
        assert_eq!(a.sub(&b), BigUint::from_u64(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = big(1).sub(&big(2));
    }

    #[test]
    fn mul_small_and_cross_limb() {
        assert_eq!(big(7).mul(&big(6)), big(42));
        let a = BigUint::from_u64(u64::MAX);
        let sq = a.mul(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(sq.to_hex(), "fffffffffffffffe0000000000000001");
    }

    #[test]
    fn mul_by_zero() {
        assert!(big(123).mul(&BigUint::zero()).is_zero());
        assert!(BigUint::zero().mul(&big(123)).is_zero());
    }

    #[test]
    fn shifts_roundtrip() {
        let a = BigUint::from_hex("deadbeefcafebabe1234").unwrap();
        assert_eq!(a.shl(67).shr(67), a);
        assert_eq!(a.shl(0), a);
        assert_eq!(a.shr(200), BigUint::zero());
    }

    #[test]
    fn divrem_single_limb() {
        let (q, r) = big(100).divrem(&big(7));
        assert_eq!(q, big(14));
        assert_eq!(r, big(2));
    }

    #[test]
    fn divrem_multi_limb_identity() {
        let a = BigUint::from_hex("1fffffffffffffffffffffffffffffffffffffabcdef").unwrap();
        let b = BigUint::from_hex("fedcba98765432100f").unwrap();
        let (q, r) = a.divrem(&b);
        assert!(r < b);
        assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn divrem_dividend_smaller() {
        let (q, r) = big(5).divrem(&big(100));
        assert!(q.is_zero());
        assert_eq!(r, big(5));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divrem_by_zero_panics() {
        let _ = big(5).divrem(&BigUint::zero());
    }

    #[test]
    fn mod_pow_small_cases() {
        // 3^4 mod 5 = 81 mod 5 = 1
        assert_eq!(big(3).mod_pow(&big(4), &big(5)), big(1));
        // Fermat: 2^(p-1) mod p = 1 for prime p
        let p = big(1_000_000_007);
        assert_eq!(big(2).mod_pow(&p.sub(&big(1)), &p), big(1));
        // modulus one yields zero
        assert_eq!(big(10).mod_pow(&big(10), &big(1)), BigUint::zero());
    }

    #[test]
    fn mod_pow_large() {
        // Cross-checked value: 0xabcdef ^ 0x1234 mod (2^89-1, a Mersenne prime)
        let m = BigUint::one().shl(89).sub(&BigUint::one());
        let r = BigUint::from_hex("abcdef")
            .unwrap()
            .mod_pow(&BigUint::from_hex("1234").unwrap(), &m);
        // Verify with Fermat-consistency: r^1 stays, and gcd sanity.
        assert!(r < m);
        // Euler: x^(m-1) ≡ 1 (m prime, x coprime)
        let one = BigUint::from_hex("abcdef")
            .unwrap()
            .mod_pow(&m.sub(&BigUint::one()), &m);
        assert!(one.is_one());
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(big(48).gcd(&big(36)), big(12));
        assert_eq!(big(17).gcd(&big(31)), big(1));
        assert_eq!(big(0).gcd(&big(9)), big(9));
        assert_eq!(big(9).gcd(&big(0)), big(9));
        assert_eq!(big(0).gcd(&big(0)), BigUint::zero());
        // Common powers of two are preserved.
        assert_eq!(big(96).gcd(&big(72)), big(24));
        let a = BigUint::from_hex("deadbeef00000000").unwrap();
        assert_eq!(a.gcd(&a), a);
    }

    #[test]
    fn trailing_zeros_cases() {
        assert_eq!(BigUint::zero().trailing_zeros(), 0);
        assert_eq!(big(1).trailing_zeros(), 0);
        assert_eq!(big(8).trailing_zeros(), 3);
        assert_eq!(BigUint::one().shl(200).trailing_zeros(), 200);
    }

    #[test]
    fn montgomery_rejects_even_or_zero_modulus() {
        assert!(Montgomery::new(&BigUint::zero()).is_none());
        assert!(Montgomery::new(&big(10)).is_none());
        assert!(Montgomery::new(&big(9)).is_some());
    }

    #[test]
    fn montgomery_mod_mul_matches_naive() {
        let m = BigUint::from_hex("f123456789abcdef0123456789abcdef1").unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        let a = BigUint::from_hex("deadbeefcafebabe1234567890").unwrap();
        let b = BigUint::from_hex("aa55aa55aa55aa55aa55aa55aa55").unwrap();
        assert_eq!(ctx.mod_mul(&a, &b), a.mod_mul(&b, &m));
        // Operands larger than the modulus are reduced first.
        let big_a = a.shl(300);
        assert_eq!(ctx.mod_mul(&big_a, &b), big_a.mod_mul(&b, &m));
    }

    #[test]
    fn montgomery_mul_buffer_reuse_is_clean() {
        // mont_mul_into must give identical results when its scratch
        // buffer is reused across calls with unrelated prior contents.
        let m = BigUint::from_hex("f123456789abcdef0123456789abcdef1").unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        let mut x = BigUint::from_hex("123456789abcdef").unwrap();
        let mut scratch = vec![0xffff_ffff_ffff_ffffu64; 7];
        for _ in 0..50 {
            x = x.mod_mul(&x, &m).add(&BigUint::one()).rem(&m);
            let xm = ctx.to_mont(&x);
            ctx.mont_mul_into(&xm, &xm, &mut scratch);
            assert_eq!(scratch, ctx.mont_mul(&xm, &xm));
        }
    }

    #[test]
    fn montgomery_mod_pow_matches_naive_small() {
        for (base, exp, m) in [
            (3u64, 4, 5),
            (2, 64, 3),
            (0, 5, 7),
            (5, 0, 7),
            (7, 1, 9),
            (1_000_003, 65_537, 1_000_033),
        ] {
            let ctx = Montgomery::new(&big(m)).unwrap();
            assert_eq!(
                ctx.mod_pow(&big(base), &big(exp)),
                big(base).mod_pow_naive(&big(exp), &big(m)),
                "{base}^{exp} mod {m}"
            );
        }
    }

    #[test]
    fn montgomery_mod_pow_matches_naive_multi_limb() {
        // 2^89-1, a Mersenne prime: odd, crosses two limbs.
        let m = BigUint::one().shl(89).sub(&BigUint::one());
        let ctx = Montgomery::new(&m).unwrap();
        let base = BigUint::from_hex("abcdef0123456789abcdef").unwrap();
        let exp = BigUint::from_hex("fedcba9876543210").unwrap();
        assert_eq!(ctx.mod_pow(&base, &exp), base.mod_pow_naive(&exp, &m));
    }

    /// `k` random limbs from a seeded stream.
    fn random_limbs(rng: &mut SecureRng, k: usize) -> Vec<u64> {
        (0..k).map(|_| rng.next_u64()).collect()
    }

    /// Moduli of exactly `K` limbs that stress the kernels: all-ones
    /// limbs (every partial product carries), the smallest `K`-limb odd
    /// value, and random ones with a full, a 63-bit and a 16-bit top limb.
    fn fixed_width_moduli<const K: usize>() -> Vec<BigUint> {
        let mut rng = SecureRng::from_seed(0x9e37_79b9_7f4a_7c15 ^ K as u64);
        let mut out = vec![
            BigUint {
                limbs: vec![u64::MAX; K],
            },
            BigUint::one().shl(64 * (K - 1)).add(&BigUint::one()),
        ];
        for top_mask in [u64::MAX, u64::MAX >> 1, 0xffff] {
            let mut limbs = random_limbs(&mut rng, K);
            limbs[0] |= 1;
            limbs[K - 1] = (limbs[K - 1] & top_mask) | (top_mask ^ (top_mask >> 1));
            out.push(BigUint { limbs });
        }
        out
    }

    /// `(a² + m·n) / R` before the final conditional subtraction, by
    /// schoolbook arithmetic: tells a test which reduction branch an
    /// operand takes.
    fn unreduced_square(a: &BigUint, n: &BigUint, k: usize) -> BigUint {
        let r = BigUint::one().shl(64 * k);
        let neg_n_inv = r.sub(&n.mod_inverse(&r).unwrap());
        let sq = a.mul(a);
        let m = sq.rem(&r).mul(&neg_n_inv).rem(&r);
        sq.add(&m.mul(n)).shr(64 * k)
    }

    fn squaring_kernel_case<const K: usize, const K2: usize>() {
        let mut rng = SecureRng::from_seed(0xdead_beef ^ K as u64);
        let (mut below_n, mut subtracts, mut top_carry) = (0, 0, 0);
        for n in fixed_width_moduli::<K>() {
            let ctx = Montgomery::new(&n).unwrap();
            let n_limbs: [u64; K] = n.limbs[..].try_into().unwrap();
            let mut operands = vec![
                BigUint::zero(),
                BigUint::one(),
                n.sub(&BigUint::one()),
                n.sub(&big(2)),
                n.shr(1),
            ];
            for _ in 0..24 {
                let limbs = random_limbs(&mut rng, K);
                operands.push(BigUint { limbs }.rem(&n));
            }
            for a in operands {
                let mut limbs = [0u64; K];
                limbs[..a.limbs.len()].copy_from_slice(&a.limbs);
                let sqr = mont_sqr_fixed::<K, K2>(&limbs, &n_limbs, ctx.n0inv);
                assert_eq!(
                    sqr,
                    mont_mul_fixed(&limbs, &limbs, &n_limbs, ctx.n0inv),
                    "sqr vs fixed mul, a = {a:?}, n = {n:?}"
                );
                assert_eq!(
                    sqr[..],
                    ctx.mont_mul(&limbs, &limbs)[..],
                    "sqr vs slice CIOS, a = {a:?}, n = {n:?}"
                );
                let u = unreduced_square(&a, &n, K);
                if u.bit_len() > 64 * K {
                    top_carry += 1;
                } else if u >= n {
                    subtracts += 1;
                } else {
                    below_n += 1;
                }
            }
        }
        // All three exits of the final reduction were taken.
        assert!(below_n > 0 && subtracts > 0 && top_carry > 0);
    }

    #[test]
    fn squaring_kernel_matches_both_multiplies() {
        squaring_kernel_case::<11, 22>();
        squaring_kernel_case::<32, 64>();
        // A width the dispatcher never picks: the kernels are generic.
        squaring_kernel_case::<3, 6>();
    }

    fn ladders_agree_case<const K: usize, const K2: usize>() {
        let mut rng = SecureRng::from_seed(0x0bad_cafe ^ K as u64);
        for n in fixed_width_moduli::<K>() {
            let ctx = Montgomery::new(&n).unwrap();
            assert_eq!(ctx.k, K);
            let wide = BigUint {
                limbs: random_limbs(&mut rng, K + 3),
            };
            let full = BigUint {
                limbs: random_limbs(&mut rng, K),
            };
            for base in [
                BigUint::zero(),
                BigUint::one(),
                n.sub(&BigUint::one()),
                wide.rem(&n),
                wide,
            ] {
                for exp in [big(1), big(2), big(15), big(16), big(17), big(65_537)] {
                    let got = ctx.mod_pow_fixed::<K, K2>(&base, &exp);
                    assert_eq!(got, ctx.mod_pow_slice(&base, &exp));
                    assert_eq!(got, base.mod_pow_naive(&exp, &n));
                }
                // A full-width exponent (what a CRT exponent is).
                assert_eq!(
                    ctx.mod_pow_fixed::<K, K2>(&base, &full),
                    ctx.mod_pow_slice(&base, &full)
                );
            }
        }
    }

    #[test]
    fn fixed_width_ladder_matches_slice_ladder_and_naive() {
        ladders_agree_case::<11, 22>();
        ladders_agree_case::<32, 64>();
    }

    #[test]
    fn mod_pow_dispatches_to_naive_for_even_modulus() {
        // 3^5 mod 16 = 243 mod 16 = 3
        assert_eq!(big(3).mod_pow(&big(5), &big(16)), big(3));
        assert_eq!(
            big(3).mod_pow(&big(5), &big(16)),
            big(3).mod_pow_naive(&big(5), &big(16))
        );
    }

    #[test]
    fn mod_inverse_small() {
        // 3 * 4 = 12 ≡ 1 mod 11
        assert_eq!(big(3).mod_inverse(&big(11)), Some(big(4)));
        // no inverse when not coprime
        assert_eq!(big(6).mod_inverse(&big(9)), None);
    }

    #[test]
    fn mod_inverse_large_roundtrip() {
        let m = BigUint::one().shl(127).sub(&BigUint::one()); // Mersenne prime
        let a = BigUint::from_hex("123456789abcdef0123456789abcdef").unwrap();
        let inv = a.mod_inverse(&m).unwrap();
        assert!(a.mod_mul(&inv, &m).is_one());
    }

    #[test]
    fn bytes_roundtrip() {
        let a = BigUint::from_hex("00ff00deadbeef").unwrap();
        let bytes = a.to_bytes_be();
        assert_eq!(BigUint::from_bytes_be(&bytes), a);
        assert_eq!(bytes[0], 0xff); // leading zero stripped
        let padded = a.to_bytes_be_padded(10);
        assert_eq!(padded.len(), 10);
        assert_eq!(BigUint::from_bytes_be(&padded), a);
    }

    #[test]
    fn hex_roundtrip() {
        for s in [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0fedcba9876543210aa",
        ] {
            let v = BigUint::from_hex(s).unwrap();
            let expect = s.trim_start_matches('0');
            let expect = if expect.is_empty() { "0" } else { expect };
            assert_eq!(v.to_hex(), expect);
        }
        assert!(BigUint::from_hex("xyz").is_none());
    }

    #[test]
    fn ordering() {
        assert!(big(2) > big(1));
        let a = BigUint::from_hex("10000000000000000").unwrap();
        assert!(a > big(u64::MAX));
        assert_eq!(big(5).cmp(&big(5)), Ordering::Equal);
    }
}
