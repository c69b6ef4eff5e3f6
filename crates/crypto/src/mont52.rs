//! RSA's private-key ladders on AVX-512 IFMA: one decrypt's three CRT
//! ladders in lockstep.
//!
//! The scalar kernels in [`crate::bigint`] are at their floor (~1.5
//! cycles per 64-bit limb multiply); what is left is the CPU's 52-bit
//! integer fused multiply-add (`vpmadd52luq`/`vpmadd52huq`), eight lanes
//! per instruction. This module is the one kernel built on it, and it
//! serves one caller: the private-key dispatch
//! ([`crate::rsa::RsaPrivateKey`]'s `crt_ladders`, under every decrypt)
//! on keys with three primes of 11 limbs (three-prime RSA-2048, primes of
//! 683, 683 and 682 bits), on a CPU that reports `avx512f` and
//! `avx512ifma`.
//! Everything else — other key sizes, other CPUs, the public operation —
//! stays on the scalar kernels, which are also the oracle this is tested
//! against.
//!
//! # Layout
//!
//! A prime of up to 704 bits is 14 radix-2⁵² digits, one per 64-bit lane,
//! padded to 16 lanes (two `__m512i`); lanes 14 and 15 are always zero. A
//! product is digit-serial: for each digit `bᵢ`, accumulate `a·bᵢ`, pick
//! `yᵢ` so the lowest digit of `acc + n·yᵢ` vanishes, shift the
//! accumulator down one lane (`valignq`). Low halves of the 104-bit digit
//! products land in their own lane, high halves one lane up, and lanes are
//! allowed to grow past 52 bits inside a product (14 rounds × 4 addends of
//! < 2⁵² stay below 2⁵⁸); one normalisation pass at the end of each
//! product brings every digit back under 2⁵², which the multiplier needs
//! because it reads only the low 52 bits of a lane.
//!
//! # Almost-Montgomery multiplication, `R = 2⁷²⁸`
//!
//! With `R = 2^(52·14) > 4n`, operands `a, b < 2n` give
//! `(a·b + m·n)/R < (4n² + R·n)/R < 2n`: products stay below `2n` without
//! a conditional subtraction anywhere inside the ladder. The exit
//! multiplication by 1 lands in `[0, n]`, and
//! [`reduce_once`](crate::bigint::reduce_once) — the same final
//! subtraction every scalar kernel ends with — runs once per ladder.
//!
//! # Why three ladders in one loop
//!
//! A single product is latency-bound: `yᵢ` depends on lane 0 of the
//! accumulator, and the next round's lane 0 depends on `yᵢ` — a serial
//! chain of ~20 cycles per digit (broadcast, `·k0`, `lo(n·y)`, shift,
//! add) in which the multiplier issues a handful of instructions. The
//! three CRT ladders of a decrypt are independent, so [`CrtLadders`] runs
//! them in the same loop, and their chains fill each other's gaps.
//! Everything that does not depend on `yᵢ` — the `a·b` terms — is kept
//! off that chain (see `amm_triple`). Against the two 20-digit ladders of
//! a two-prime key, a three-prime key's ladders are a third shorter (683-
//! instead of 1024-bit exponents) on operands a third narrower, so one
//! decrypt does about half the multiplier work, and a lone decrypt gets
//! all of it: there is no cheaper way to open several at once here, and
//! no lane kernel for groups.
//!
//! Lockstep means the three ladders do the same operations in the same
//! order whatever the exponents are: every window multiplies (by
//! `table[0] = R mod n` when the window is zero), so this path has no
//! zero-window skip. The table *index* is still exponent-dependent, as on
//! the scalar path.
//!
//! # `unsafe`
//!
//! None here: inside a `#[target_feature]` function the value intrinsics
//! are safe, and lanes enter and leave through `_mm512_set_epi64` and the
//! extract intrinsics, so there are no pointer loads. The one `unsafe`
//! block this kernel needs is the call into [`CrtLadders::pow_triple`]
//! from code that is not compiled for these features, in `crate::rsa`,
//! guarded by runtime detection.

use crate::bigint::{reduce_once, window_of, BigUint, Montgomery, WINDOW_BITS};
use std::arch::x86_64::*;

/// Bits per digit.
const DIGIT_BITS: usize = 52;
/// Digits that carry value: `52 · 14 = 728` bits.
const DIGITS: usize = 14;
/// Digits padded to whole vectors.
const LANES: usize = 16;
/// 64-bit limbs of a modulus this kernel serves.
const LIMBS: usize = 11;
/// Ladders per decrypt: the primes of a key.
const PRIMES: usize = 3;
const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;

/// One operand: 16 lanes in two vectors, lane 0 of `[0]` least
/// significant.
type Digits = [__m512i; 2];

/// Per-modulus constants in radix 2⁵², derived once per key.
#[derive(Clone)]
struct Modulus52 {
    /// The modulus itself, exactly [`LIMBS`] limbs.
    modulus: BigUint,
    /// The modulus as digits.
    n: [u64; LANES],
    /// `R² mod n` as digits, `R = 2⁷²⁸`.
    rr: [u64; LANES],
    /// `-n⁻¹ mod 2⁵²`.
    k0: u64,
}

impl Modulus52 {
    fn new(ctx: &Montgomery) -> Option<Self> {
        let modulus = ctx.modulus().clone();
        if modulus.limbs().len() != LIMBS {
            return None;
        }
        let rr = BigUint::one().shl(2 * DIGIT_BITS * DIGITS).rem(&modulus);
        Some(Modulus52 {
            n: to_digits(modulus.limbs()),
            rr: to_digits(rr.limbs()),
            k0: ctx.n0inv() & DIGIT_MASK,
            modulus,
        })
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn consts(&self) -> Consts {
        Consts {
            n: load(&self.n),
            k0: _mm512_set1_epi64(self.k0 as i64),
            #[cfg(debug_assertions)]
            twice_n: self.modulus.shl(1),
        }
    }

    /// `value mod n` as digits.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn reduced(&self, value: &BigUint) -> Digits {
        load(&to_digits(value.rem(&self.modulus).limbs()))
    }

    /// A ladder's exit product (in `[0, n]`) as a value in `[0, n)`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn finish(&self, out: &Digits) -> BigUint {
        let (mut limbs, top) = to_limbs(&store(out));
        reduce_once(&mut limbs, top, self.modulus.limbs());
        BigUint::from_limbs(limbs.to_vec())
    }
}

/// The radix-2⁵² contexts of one key's three CRT primes.
#[derive(Clone)]
pub(crate) struct CrtLadders {
    primes: [Modulus52; PRIMES],
}

impl CrtLadders {
    /// Contexts for the prime moduli of a key, or `None` unless there are
    /// three and each is exactly 11 limbs (the only layout the kernel
    /// has).
    pub(crate) fn new(primes: &[&Montgomery]) -> Option<Self> {
        let [a, b, c] = primes else { return None };
        Some(CrtLadders {
            primes: [Modulus52::new(a)?, Modulus52::new(b)?, Modulus52::new(c)?],
        })
    }

    /// `base^exps[k] mod primes[k]` for the three primes, with fixed
    /// [`WINDOW_BITS`]-bit windows, the three ladders in one loop. Values
    /// are identical to three [`Montgomery::mod_pow`] calls.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(crate) fn pow_triple(&self, base: &BigUint, exps: [&BigUint; PRIMES]) -> [BigUint; PRIMES] {
        let consts = self.primes.each_ref().map(|m| m.consts());
        let mut one = [0u64; LANES];
        one[0] = 1;
        let one = [load(&one); PRIMES];
        let rr = self.primes.each_ref().map(|m| load(&m.rr));
        let base = self.primes.each_ref().map(|m| m.reduced(base));

        // table[i] = baseⁱ in Montgomery form; table[0] = R mod n (= 1).
        let mut table = [one; 1 << WINDOW_BITS];
        table[0] = amm_triple(&one, &rr, &consts);
        table[1] = amm_triple(&base, &rr, &consts);
        for i in 2..(1 << WINDOW_BITS) {
            table[i] = amm_triple(&table[i - 1], &table[1], &consts);
        }
        let entry =
            |w: usize| -> [Digits; PRIMES] { [0, 1, 2].map(|k| table[window_of(exps[k], w)][k]) };
        // A window above an exponent's top bit reads as zero, so a shorter
        // exponent multiplies by 1 until its own bits start.
        let bits = exps.iter().map(|e| e.bit_len()).max().unwrap_or(0);
        let windows = bits.div_ceil(WINDOW_BITS).max(1);
        let mut acc = entry(windows - 1);
        for w in (0..windows - 1).rev() {
            for _ in 0..WINDOW_BITS {
                acc = amm_triple(&acc, &acc, &consts);
            }
            acc = amm_triple(&acc, &entry(w), &consts);
        }
        let out = amm_triple(&acc, &one, &consts);
        [0, 1, 2].map(|k| self.primes[k].finish(&out[k]))
    }
}

/// What a product needs of its modulus, in registers.
struct Consts {
    n: Digits,
    /// `k0` in every lane.
    k0: __m512i,
    /// `2n`, the bound every product is checked against in debug builds.
    #[cfg(debug_assertions)]
    twice_n: BigUint,
}

/// Three almost-Montgomery products in lockstep: `a[k]·b[k]·R⁻¹ mod n[k]`
/// up to a multiple of `n[k]`, `< 2n[k]` for operands `< 2n[k]`, digits
/// normalised.
#[target_feature(enable = "avx512f,avx512ifma")]
fn amm_triple(
    a: &[Digits; PRIMES],
    b: &[Digits; PRIMES],
    m: &[Consts; PRIMES],
) -> [Digits; PRIMES] {
    let zero = _mm512_setzero_si512();
    // Round i starts with `acc` holding everything but n·yᵢ. Only what
    // depends on yᵢ is on the serial path from one round's lane 0 to the
    // next's: lo(n·yᵢ) into `acc`, hi(n·yᵢ) into `side`, one shift, one
    // add. The a·b terms are known in advance, so the ones the next round
    // needs — lo(a·bᵢ₊₁) and hi(a·bᵢ), which belong one lane up and so
    // share a lane index after the shift — are gathered in `side` first.
    let mut acc = [[zero; 2]; PRIMES];
    let mut hi_ab = [[zero; 2]; PRIMES];
    for k in 0..PRIMES {
        let b0 = _mm512_broadcastq_epi64(_mm512_castsi512_si128(b[k][0]));
        for j in 0..2 {
            acc[k][j] = _mm512_madd52lo_epu64(zero, a[k][j], b0);
            hi_ab[k][j] = _mm512_madd52hi_epu64(zero, a[k][j], b0);
        }
    }
    // One round per digit of `b`, looking one digit ahead: lanes 1..8 and
    // 0..7 of its two vectors. The last, lane 14, is padding and reads as
    // zero.
    for (v, first, last) in [(0, 1, 8), (1, 0, DIGITS as i64 - 7)] {
        for lane in first..last {
            let pick = _mm512_set1_epi64(lane);
            for k in 0..PRIMES {
                let (a, n) = (&a[k], &m[k].n);
                let next = _mm512_permutexvar_epi64(pick, b[k][v]);
                let mut side = [zero; 2];
                for j in 0..2 {
                    side[j] = _mm512_madd52lo_epu64(hi_ab[k][j], a[j], next);
                    hi_ab[k][j] = _mm512_madd52hi_epu64(zero, a[j], next);
                }
                // y = lane0 · k0 mod 2⁵² makes lane 0 of acc + n·y vanish
                // mod 2⁵²; the multiplier reads lane 0's low 52 bits only.
                let r = &mut acc[k];
                let lane0 = _mm512_broadcastq_epi64(_mm512_castsi512_si128(r[0]));
                let y = _mm512_madd52lo_epu64(zero, lane0, m[k].k0);
                for j in 0..2 {
                    r[j] = _mm512_madd52lo_epu64(r[j], n[j], y);
                    side[j] = _mm512_madd52hi_epu64(side[j], n[j], y);
                }
                // Divide by 2⁵²: lane 0's surplus moves into lane 1, then
                // every lane moves down one.
                let carry = _mm512_srli_epi64::<{ DIGIT_BITS as u32 }>(r[0]);
                side[0] = _mm512_mask_add_epi64(side[0], 1, side[0], carry);
                *r = [
                    _mm512_add_epi64(_mm512_alignr_epi64::<1>(r[1], r[0]), side[0]),
                    _mm512_add_epi64(_mm512_alignr_epi64::<1>(zero, r[1]), side[1]),
                ];
            }
        }
    }
    let out = acc.map(|r| normalize(r));
    #[cfg(debug_assertions)]
    for k in 0..PRIMES {
        let (limbs, top) = to_limbs(&store(&out[k]));
        let mut value = limbs.to_vec();
        value.push(top);
        debug_assert!(
            BigUint::from_limbs(value) < m[k].twice_n,
            "almost-Montgomery product left [0, 2n)"
        );
    }
    out
}

/// Brings every lane back under 2⁵² without changing the value: each
/// lane's surplus moves one lane up, and the 0-or-1 carries that leaves
/// are resolved for all 16 lanes at once by an integer addition on the
/// lane masks (a lane above the mask generates, a lane equal to it
/// propagates).
#[target_feature(enable = "avx512f,avx512ifma")]
#[inline]
fn normalize(r: Digits) -> Digits {
    let zero = _mm512_setzero_si512();
    let mask = _mm512_set1_epi64(DIGIT_MASK as i64);
    let surplus = [
        _mm512_srli_epi64::<{ DIGIT_BITS as u32 }>(r[0]),
        _mm512_srli_epi64::<{ DIGIT_BITS as u32 }>(r[1]),
    ];
    let mut out = [
        _mm512_alignr_epi64::<7>(surplus[0], zero),
        _mm512_alignr_epi64::<7>(surplus[1], surplus[0]),
    ];
    let (mut generate, mut propagate) = (0u32, 0u32);
    for j in 0..2 {
        out[j] = _mm512_add_epi64(out[j], _mm512_and_si512(r[j], mask));
        generate |= (_mm512_cmpgt_epu64_mask(out[j], mask) as u32) << (8 * j);
        propagate |= (_mm512_cmpeq_epu64_mask(out[j], mask) as u32) << (8 * j);
    }
    // Adding the generate bits, moved one lane up, to the propagate bits
    // ripples each carry through its run of all-ones lanes; what differs
    // from `propagate` afterwards is exactly the lanes a carry reaches.
    let carried = ((generate << 1) + propagate) ^ propagate;
    for (j, v) in out.iter_mut().enumerate() {
        // +1 on a carried lane is −(2⁵² − 1) once the mask drops bit 52.
        let carried = (carried >> (8 * j)) as __mmask8;
        *v = _mm512_and_si512(_mm512_mask_sub_epi64(*v, carried, *v, mask), mask);
    }
    out
}

/// 16 digits into two vectors.
#[target_feature(enable = "avx512f,avx512ifma")]
#[inline]
fn load(d: &[u64; LANES]) -> Digits {
    let v = |o: usize| {
        _mm512_set_epi64(
            d[o + 7] as i64,
            d[o + 6] as i64,
            d[o + 5] as i64,
            d[o + 4] as i64,
            d[o + 3] as i64,
            d[o + 2] as i64,
            d[o + 1] as i64,
            d[o] as i64,
        )
    };
    [v(0), v(8)]
}

/// Two vectors back into 16 digits.
#[target_feature(enable = "avx512f,avx512ifma")]
#[inline]
fn store(r: &Digits) -> [u64; LANES] {
    let mut d = [0u64; LANES];
    for (j, v) in r.iter().enumerate() {
        let halves = [
            _mm512_extracti64x4_epi64::<0>(*v),
            _mm512_extracti64x4_epi64::<1>(*v),
        ];
        for (h, half) in halves.into_iter().enumerate() {
            let o = 8 * j + 4 * h;
            d[o] = _mm256_extract_epi64::<0>(half) as u64;
            d[o + 1] = _mm256_extract_epi64::<1>(half) as u64;
            d[o + 2] = _mm256_extract_epi64::<2>(half) as u64;
            d[o + 3] = _mm256_extract_epi64::<3>(half) as u64;
        }
    }
    d
}

/// Re-slices up to 11 little-endian 64-bit limbs into 52-bit digits.
fn to_digits(limbs: &[u64]) -> [u64; LANES] {
    let mut padded = [0u64; LIMBS + 1];
    padded[..limbs.len()].copy_from_slice(limbs);
    let mut d = [0u64; LANES];
    for (j, digit) in d.iter_mut().enumerate().take(DIGITS) {
        let (limb, shift) = (DIGIT_BITS * j / 64, DIGIT_BITS * j % 64);
        let pair = padded[limb] as u128 | (padded[limb + 1] as u128) << 64;
        *digit = (pair >> shift) as u64 & DIGIT_MASK;
    }
    d
}

/// Normalised digits back into 11 limbs and the 24 bits above them.
fn to_limbs(d: &[u64; LANES]) -> ([u64; LIMBS], u64) {
    let mut limbs = [0u64; LIMBS];
    let (mut acc, mut bits, mut next) = (0u128, 0, 0);
    for &digit in &d[..DIGITS] {
        acc |= (digit as u128) << bits;
        bits += DIGIT_BITS;
        if bits >= 64 && next < LIMBS {
            limbs[next] = acc as u64;
            next += 1;
            acc >>= 64;
            bits -= 64;
        }
    }
    (limbs, acc as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_prime;
    use crate::rng::SecureRng;
    use crate::rsa::{RsaKeyPair, RsaPrivateKey};

    /// Whether this CPU runs the vector ladders; says so when it does not,
    /// so a green run on such a machine is not read as coverage.
    fn vector_path(test: &str) -> bool {
        let detected =
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma");
        if !detected {
            eprintln!("{test}: skipped, this CPU reports no avx512ifma");
        }
        detected
    }

    /// A private key around any three pairwise coprime odd 11-limb
    /// moduli, with the exponents `exps`. Only its ladders are used,
    /// through the crate's one dispatch, so none has to be prime.
    fn key(moduli: &[BigUint; PRIMES], exps: &[BigUint; PRIMES]) -> RsaPrivateKey {
        let contexts = moduli.each_ref().map(|n| Montgomery::new(n).unwrap());
        assert!(
            CrtLadders::new(&contexts.each_ref()).is_some(),
            "not 11-limb moduli"
        );
        RsaKeyPair::from_crt_parts(BigUint::from_u64(65_537), BigUint::one(), moduli.to_vec())
            .private
            .with_exponents(exps)
    }

    /// `base^exp mod n` on both scalar ladders, which must agree.
    fn scalar(n: &BigUint, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        let ctx = Montgomery::new(n).unwrap();
        let slice = ctx.mod_pow_slice(base, exp);
        assert_eq!(slice, ctx.mod_pow_fixed::<LIMBS, 22>(base, exp));
        slice
    }

    /// `c` through the key's dispatch against the scalar ladders, prime by
    /// prime.
    fn assert_ladders_match(moduli: &[BigUint; PRIMES], exps: &[BigUint; PRIMES], c: &BigUint) {
        let got = key(moduli, exps).crt_ladders(c);
        assert_eq!(got.len(), PRIMES);
        for ((n, exp), m) in moduli.iter().zip(exps).zip(got) {
            assert_eq!(m, scalar(n, c, exp), "c = {c:?}, n = {n:?}, exp = {exp:?}");
        }
    }

    fn random(rng: &mut SecureRng, limbs: usize) -> BigUint {
        BigUint::from_limbs((0..limbs).map(|_| rng.next_u64()).collect())
    }

    /// Pairwise coprime odd 11-limb moduli (as a key's primes are) that
    /// stress the kernel: all ones (683 bits), the smallest 11-limb odd
    /// value, random ones with a full, a 63-bit and a 43-bit top limb, and
    /// a generated 683- and 682-bit prime.
    fn moduli(rng: &mut SecureRng) -> Vec<BigUint> {
        let mut out = vec![
            BigUint::one().shl(683).sub(&BigUint::one()),
            BigUint::one().shl(640).add(&BigUint::one()),
        ];
        for top_mask in [u64::MAX, u64::MAX >> 1, u64::MAX >> 21] {
            let n = loop {
                let mut limbs = random(rng, LIMBS).limbs().to_vec();
                limbs.resize(LIMBS, 0);
                limbs[0] |= 1;
                limbs[LIMBS - 1] = (limbs[LIMBS - 1] & top_mask) | (top_mask ^ (top_mask >> 1));
                let n = BigUint::from_limbs(limbs);
                if out.iter().all(|m| m.gcd(&n).is_one()) {
                    break n;
                }
            };
            out.push(n);
        }
        out.push(generate_prime(683, rng));
        out.push(generate_prime(682, rng));
        out
    }

    #[test]
    fn digits_and_limbs_roundtrip() {
        let mut rng = SecureRng::from_seed(0x5252);
        for limbs in [0, 1, 7, 11] {
            let v = random(&mut rng, limbs);
            let d = to_digits(v.limbs());
            assert!(d.iter().all(|&x| x <= DIGIT_MASK) && d[DIGITS..] == [0; LANES - DIGITS]);
            let (back, top) = to_limbs(&d);
            assert_eq!((BigUint::from_limbs(back.to_vec()), top), (v, 0));
        }
        // The 24 bits above the limbs come back as `top`.
        let mut d = [0u64; LANES];
        d[DIGITS - 1] = 0xab_cdef << (DIGIT_BITS - 24);
        assert_eq!(to_limbs(&d), ([0; LIMBS], 0xab_cdef));
    }

    #[test]
    fn ladders_match_both_scalar_ladders_on_moduli_primes_and_edge_bases() {
        if !vector_path("ladders_match_both_scalar_ladders") {
            return;
        }
        let mut rng = SecureRng::from_seed(0x001f_3a52);
        let all = moduli(&mut rng);
        // Every modulus meets two others, at every position of the three.
        for i in 0..all.len() {
            let triple = [0, 3, 5].map(|o| all[(i + o) % all.len()].clone());
            let exps = [0; PRIMES].map(|_| random(&mut rng, LIMBS));
            let n = triple.iter().fold(BigUint::one(), |n, r| n.mul(r));
            let mut bases = vec![
                BigUint::zero(),
                BigUint::one(),
                n.sub(&BigUint::one()),
                triple[0].clone(),
                triple[1].add(&BigUint::from_u64(5)),
                random(&mut rng, LIMBS),
                random(&mut rng, 3 * LIMBS + 1),
            ];
            bases.extend(triple.iter().map(|r| r.sub(&BigUint::one())));
            for c in &bases {
                assert_ladders_match(&triple, &exps, c);
            }
        }
    }

    #[test]
    fn unequal_exponents_zero_windows_and_tiny_exponents() {
        if !vector_path("unequal_exponents_zero_windows") {
            return;
        }
        let mut rng = SecureRng::from_seed(0x00e4_9052);
        let triple = [683, 683, 682].map(|bits| generate_prime(bits, &mut rng));
        let c = random(&mut rng, 3 * LIMBS);
        let full = random(&mut rng, LIMBS).shr(21);
        let (zero, one, five) = (BigUint::zero(), BigUint::one(), BigUint::from_u64(5));
        // A top and a bottom window with 168 zero windows between them.
        let hollow = BigUint::from_u64(0xf).shl(676).add(&BigUint::from_u64(0xf));
        for exps in [
            [full.clone(), five.clone(), one.clone()],
            [five.clone(), full.clone(), full.clone()],
            [one.clone(), one.clone(), full.clone()],
            [zero.clone(), one.clone(), five],
            [zero.clone(), zero.clone(), zero],
            [hollow.clone(), full.shr(300), one.shl(680)],
            // Low window zero, a whole-window boundary, and a hollow one.
            [BigUint::from_u64(16), BigUint::from_u64(0x10_0000), hollow],
        ] {
            assert_ladders_match(&triple, &exps, &c);
        }
    }

    /// Scalar model of one product's lanes before normalisation: the same
    /// addends per lane as [`amm_triple`], in the textbook order.
    fn lanes_before_normalisation(
        a: &[u64; LANES],
        b: &[u64; LANES],
        m: &Modulus52,
    ) -> [u64; LANES] {
        let lo = |x: u64, y: u64| (x as u128 * y as u128) as u64 & DIGIT_MASK;
        let hi = |x: u64, y: u64| ((x as u128 * y as u128) >> DIGIT_BITS) as u64;
        let mut r = [0u64; LANES + 1];
        // Lanes 14.. of `a` and `n` are zero, so whole-array zips add
        // nothing there.
        for &bi in &b[..DIGITS] {
            for (rj, &aj) in r.iter_mut().zip(a) {
                *rj += lo(aj, bi);
            }
            let y = lo(r[0] & DIGIT_MASK, m.k0);
            for (rj, &nj) in r.iter_mut().zip(&m.n) {
                *rj += lo(nj, y);
            }
            assert_eq!(r[0] & DIGIT_MASK, 0);
            r[1] += r[0] >> DIGIT_BITS;
            r.copy_within(1.., 0);
            r[LANES] = 0;
            for ((rj, &aj), &nj) in r.iter_mut().zip(a).zip(&m.n) {
                *rj += hi(aj, bi) + hi(nj, y);
            }
        }
        r[..LANES].try_into().unwrap()
    }

    /// Plain carry propagation, the reference for [`normalize`].
    fn normalised(mut lanes: [u64; LANES]) -> [u64; LANES] {
        for j in 0..LANES - 1 {
            lanes[j + 1] += lanes[j] >> DIGIT_BITS;
            lanes[j] &= DIGIT_MASK;
        }
        lanes
    }

    #[test]
    fn normalisation_ripples_a_carry_through_all_ones_lanes() {
        // With n = 2⁶⁸³ − 1 (k0 = 1, R ≡ 2⁴⁵) and exponent 1, the base
        // t·2⁶³¹ enters the exit product as t·2⁶⁷⁶: one digit, in lane 13.
        // Its rounds are 13 plain shifts and one reduction by y = t, which
        // leaves 2⁵² in lane 0 and 2⁵² − 1 in lanes 1..=11: a carry that
        // has to ripple through 11 all-ones lanes across the vector
        // boundary. The model checks that this is what the kernel is fed;
        // the ladders check that it resolves it.
        let ones = BigUint::one().shl(683).sub(&BigUint::one());
        let m = Modulus52::new(&Montgomery::new(&ones).unwrap()).unwrap();
        assert_eq!(m.k0, 1);
        let t = 0x5bu64;
        let base = BigUint::from_u64(t).shl(631);
        let mut one = [0u64; LANES];
        one[0] = 1;
        let acc = normalised(lanes_before_normalisation(
            &to_digits(base.limbs()),
            &m.rr,
            &m,
        ));
        let mut expect = [0u64; LANES];
        expect[DIGITS - 1] = t;
        assert_eq!(acc, expect, "Montgomery form of the base is one digit");
        let lanes = lanes_before_normalisation(&acc, &one, &m);
        assert_eq!(lanes[0], DIGIT_MASK + 1);
        assert!(lanes[1..=11].iter().all(|&l| l == DIGIT_MASK));
        let (limbs, top) = to_limbs(&normalised(lanes));
        assert_eq!(
            (BigUint::from_limbs(limbs.to_vec()), top),
            (base.clone(), 0)
        );

        if !vector_path("normalisation_ripples_a_carry") {
            return;
        }
        let mut rng = SecureRng::from_seed(0x7177_1e52);
        let (p, q) = (generate_prime(683, &mut rng), generate_prime(682, &mut rng));
        let exp = random(&mut rng, LIMBS).shr(21);
        let one = BigUint::one();
        // The rippling ladder in each of the three positions.
        for (moduli, exps) in [
            ([&ones, &p, &q], [&one, &exp, &exp]),
            ([&p, &ones, &q], [&exp, &one, &exp]),
            ([&p, &q, &ones], [&exp, &exp, &one]),
        ] {
            assert_ladders_match(
                &moduli.map(BigUint::clone),
                &exps.map(BigUint::clone),
                &base,
            );
        }
    }
}
