//! RSA-CRT's private-key ladders on AVX-512 IFMA: one decrypt's two
//! ladders in lockstep, or four decrypts' eight ladders in the lanes.
//!
//! The scalar kernels in [`crate::bigint`] are at their floor (~1.5
//! cycles per 64-bit limb multiply); what is left is the CPU's 52-bit
//! integer fused multiply-add (`vpmadd52luq`/`vpmadd52huq`), eight lanes
//! per instruction. This module is the one kernel family built on it, and
//! it serves one caller: the private-key dispatch
//! ([`crate::rsa::RsaPrivateKey`]'s `crt_ladders`, under `decrypt` and
//! `decrypt_group`) on keys whose CRT primes are 16 limbs (RSA-2048), on
//! a CPU that reports `avx512f` and `avx512ifma`. Everything else — other
//! key sizes, other CPUs, the public operation — stays on the scalar
//! kernels, which are also the oracle these are tested against.
//!
//! # Layout
//!
//! A 1024-bit operand is 20 radix-2⁵² digits, one per 64-bit lane, padded
//! to 24 lanes (three `__m512i`); lanes 20..24 are always zero. A product
//! is digit-serial: for each digit `bᵢ`, accumulate `a·bᵢ`, pick `yᵢ` so
//! the lowest digit of `acc + n·yᵢ` vanishes, shift the accumulator down
//! one lane (`valignq`). Low halves of the 104-bit digit products land in
//! their own lane, high halves one lane up, and lanes are allowed to grow
//! past 52 bits inside a product (20 rounds × 4 addends of < 2⁵² stay
//! below 2⁵⁹); one normalisation pass at the end of each product brings
//! every digit back under 2⁵², which the multiplier needs because it reads
//! only the low 52 bits of a lane.
//!
//! # Almost-Montgomery multiplication, `R = 2¹⁰⁴⁰`
//!
//! With `R = 2^(52·20) > 4n`, operands `a, b < 2n` give
//! `(a·b + m·n)/R < (4n² + R·n)/R < 2n`: products stay below `2n` without
//! a conditional subtraction anywhere inside the ladder. The exit
//! multiplication by 1 lands in `[0, n]`, and
//! [`reduce_once`](crate::bigint::reduce_once) — the same final
//! subtraction every scalar kernel ends with — runs once per ladder.
//!
//! # Why two ladders in one loop
//!
//! A single product is latency-bound: `yᵢ` depends on lane 0 of the
//! accumulator, and the next round's lane 0 depends on `yᵢ` — a serial
//! chain of ~20 cycles per digit (broadcast, `·k0`, `lo(n·y)`, shift,
//! add) in which the multiplier issues 13 of its possible 20
//! instructions. The `p` and `q` halves of RSA-CRT are independent, so
//! [`CrtLadders`] runs both in the same loop: the two chains fill each
//! other's gaps and the pair costs a quarter more than one ladder alone,
//! not twice as much. Everything that does not depend on `yᵢ` — the
//! `a·b` terms — is kept off that chain (see `amm_pair`).
//! Lockstep means both ladders do the same operations in the same order
//! whatever the exponents are: every window multiplies (by
//! `table[0] = R mod n` when the window is zero), so this path has no
//! zero-window skip. The table *index* is still exponent-dependent, as on
//! the scalar path.
//!
//! # Why eight lanes for a group
//!
//! The pair is still one operand spread across the lanes: 20 digits
//! padded to 24, and a digit-serial chain that the two ladders only
//! half fill. When several ciphertexts wait together — the IA opens the
//! `k_u` blocks of a shuffled batch as one group, the UA the user blocks
//! queued for its enclave — the lanes can carry
//! whole ladders instead ([`CrtLadders::pow_all`]): digit `j` of eight
//! operands sits in one vector, lanes 0–3 run four decrypts' `p` ladders
//! and lanes 4–7 the same four's `q` ladders (`amm_lanes`). Nothing
//! crosses lanes, no lane is padding, and each round's `y` is one
//! multiply for all eight, so the core's multiplier stays busy: a pass
//! costs about three pair ladders and opens four. The exponents are the
//! key's own `dp` and `dq`, the same in every lane of a half, so a window
//! is one table index per half and one blend — the ladders stay in
//! lockstep, with the same exponent-dependent index as the pair. A pass
//! is all or nothing, so fewer than [`GROUP`] decrypts run as pairs.
//!
//! # `unsafe`
//!
//! None here: inside a `#[target_feature]` function the value intrinsics
//! are safe, and lanes enter and leave through `_mm512_set_epi64` and the
//! extract intrinsics, so there are no pointer loads. This module's one
//! `unsafe` block is the call into [`CrtLadders::pow_all`] from code that
//! is not compiled for these features, guarded by runtime detection;
//! `pow_all` picks the lane or the pair kernel by how many bases are left.

use crate::bigint::{reduce_once, window_of, BigUint, Montgomery, WINDOW_BITS};
use std::arch::x86_64::*;

/// Bits per digit.
const DIGIT_BITS: usize = 52;
/// Digits that carry value: `52 · 20 = 1040` bits.
const DIGITS: usize = 20;
/// Digits padded to whole vectors.
const LANES: usize = 24;
/// 64-bit limbs of a modulus this kernel serves.
const LIMBS: usize = 16;
const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;
/// Decrypts per pass of the lane kernel: each takes a `p` lane and a `q`
/// lane of the eight. Also its break-even: a pass costs about three pair
/// ladders, so fewer than four decrypts are cheaper as pairs.
const GROUP: usize = crate::rsa::LANE_GROUP;
/// The lanes of the `q` half.
const Q_LANES: __mmask8 = 0xf0;

/// One operand: 24 lanes in three vectors, lane 0 of `[0]` least
/// significant.
type Digits = [__m512i; 3];

/// Eight operands, one per lane: `[j]` holds digit `j` of every lane.
type LaneDigits = [__m512i; DIGITS];

/// Per-modulus constants in radix 2⁵², derived once per key.
#[derive(Clone)]
struct Modulus52 {
    /// The modulus itself, exactly [`LIMBS`] limbs.
    modulus: BigUint,
    /// The modulus as digits.
    n: [u64; LANES],
    /// `R² mod n` as digits, `R = 2¹⁰⁴⁰`.
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
        self.value(&store(out))
    }

    /// Normalised exit digits (a value in `[0, n]`) as a value in `[0, n)`.
    fn value(&self, digits: &[u64; LANES]) -> BigUint {
        let (mut limbs, top) = to_limbs(digits);
        reduce_once(&mut limbs, top, self.modulus.limbs());
        BigUint::from_limbs(limbs.to_vec())
    }
}

/// The radix-2⁵² contexts of one key's two CRT primes.
#[derive(Clone)]
pub(crate) struct CrtLadders {
    p: Modulus52,
    q: Modulus52,
}

impl CrtLadders {
    /// Contexts for the moduli of `p` and `q`, or `None` unless both are
    /// exactly 16 limbs (the only width the kernel is laid out for).
    pub(crate) fn new(p: &Montgomery, q: &Montgomery) -> Option<Self> {
        Some(CrtLadders {
            p: Modulus52::new(p)?,
            q: Modulus52::new(q)?,
        })
    }

    /// `(c^exp_p mod p, c^exp_q mod q)` for every `c` of `bases`, in
    /// order: [`GROUP`] at a time on the eight-lane kernel while that many
    /// are left, the rest on the lockstep pair. Values are identical to
    /// two [`Montgomery::mod_pow`] calls per base, whichever kernel ran.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(crate) fn pow_all(
        &self,
        bases: &[&BigUint],
        exp_p: &BigUint,
        exp_q: &BigUint,
    ) -> Vec<(BigUint, BigUint)> {
        let mut out = Vec::with_capacity(bases.len());
        let mut groups = bases.chunks_exact(GROUP);
        for group in &mut groups {
            out.extend(self.pow_lanes(group, exp_p, exp_q));
        }
        for base in groups.remainder() {
            out.push(self.pow_pair(base, exp_p, exp_q));
        }
        out
    }

    /// `(base^exp_p mod p, base^exp_q mod q)` with fixed
    /// [`WINDOW_BITS`]-bit windows, both ladders in one loop. Values are
    /// identical to two [`Montgomery::mod_pow`] calls.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn pow_pair(&self, base: &BigUint, exp_p: &BigUint, exp_q: &BigUint) -> (BigUint, BigUint) {
        let consts = [self.p.consts(), self.q.consts()];
        let mut one = [0u64; LANES];
        one[0] = 1;
        let one = [load(&one); 2];
        let rr = [load(&self.p.rr), load(&self.q.rr)];
        let base = [self.p.reduced(base), self.q.reduced(base)];

        // table[i] = baseⁱ in Montgomery form; table[0] = R mod n (= 1).
        let mut table = [[one[0]; 2]; 1 << WINDOW_BITS];
        table[0] = amm_pair(&one, &rr, &consts);
        table[1] = amm_pair(&base, &rr, &consts);
        for i in 2..(1 << WINDOW_BITS) {
            table[i] = amm_pair(&table[i - 1], &table[1], &consts);
        }
        let entry = |w: usize| -> [Digits; 2] {
            [table[window_of(exp_p, w)][0], table[window_of(exp_q, w)][1]]
        };
        // A window above an exponent's top bit reads as zero, so the
        // shorter exponent multiplies by 1 until its own bits start.
        let windows = exp_p
            .bit_len()
            .max(exp_q.bit_len())
            .div_ceil(WINDOW_BITS)
            .max(1);
        let mut acc = entry(windows - 1);
        for w in (0..windows - 1).rev() {
            for _ in 0..WINDOW_BITS {
                acc = amm_pair(&acc, &acc, &consts);
            }
            acc = amm_pair(&acc, &entry(w), &consts);
        }
        let out = amm_pair(&acc, &one, &consts);
        (self.p.finish(&out[0]), self.q.finish(&out[1]))
    }

    /// The ladders of [`GROUP`] bases in one loop, one per lane: lane `k`
    /// is `bases[k]^exp_p mod p` and lane `GROUP + k` is
    /// `bases[k]^exp_q mod q`. The exponents are the same in every lane of
    /// a half, so each window reads two table entries and one blend takes
    /// the `q` lanes from the second.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn pow_lanes(
        &self,
        bases: &[&BigUint],
        exp_p: &BigUint,
        exp_q: &BigUint,
    ) -> Vec<(BigUint, BigUint)> {
        debug_assert_eq!(bases.len(), GROUP);
        let m = self.lane_consts();
        let mut rr = [self.p.rr; 2 * GROUP];
        rr[GROUP..].fill(self.q.rr);
        let rr = transpose(&rr);
        let mut base = [[0u64; LANES]; 2 * GROUP];
        for (k, c) in bases.iter().enumerate() {
            base[k] = to_digits(c.rem(&self.p.modulus).limbs());
            base[GROUP + k] = to_digits(c.rem(&self.q.modulus).limbs());
        }
        let base = transpose(&base);
        let mut one = [_mm512_setzero_si512(); DIGITS];
        one[0] = _mm512_set1_epi64(1);

        // table[i] = baseⁱ in Montgomery form, lane by lane.
        let mut table = [one; 1 << WINDOW_BITS];
        table[0] = amm_lanes(&one, &rr, &m);
        table[1] = amm_lanes(&base, &rr, &m);
        for i in 2..(1 << WINDOW_BITS) {
            table[i] = amm_lanes(&table[i - 1], &table[1], &m);
        }
        let entry = |w: usize| (&table[window_of(exp_p, w)], &table[window_of(exp_q, w)]);
        let windows = exp_p
            .bit_len()
            .max(exp_q.bit_len())
            .div_ceil(WINDOW_BITS)
            .max(1);
        let (p, q) = entry(windows - 1);
        let mut acc = blend_halves(p, q);
        for w in (0..windows - 1).rev() {
            for _ in 0..WINDOW_BITS {
                acc = amm_lanes(&acc, &acc, &m);
            }
            let (p, q) = entry(w);
            acc = amm_lanes(&acc, &blend_halves(p, q), &m);
        }
        let out = untranspose(&amm_lanes(&acc, &one, &m));
        (0..GROUP)
            .map(|k| (self.p.value(&out[k]), self.q.value(&out[GROUP + k])))
            .collect()
    }

    /// The lane kernel's view of both moduli: `p`'s in the first
    /// [`GROUP`] lanes, `q`'s in the rest.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn lane_consts(&self) -> LaneConsts {
        let mut n = [self.p.n; 2 * GROUP];
        n[GROUP..].fill(self.q.n);
        let (kp, kq) = (self.p.k0 as i64, self.q.k0 as i64);
        LaneConsts {
            n: transpose(&n),
            k0: _mm512_set_epi64(kq, kq, kq, kq, kp, kp, kp, kp),
            #[cfg(debug_assertions)]
            twice_n: [self.p.modulus.shl(1), self.q.modulus.shl(1)],
        }
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

/// Two almost-Montgomery products in lockstep: `a[k]·b[k]·R⁻¹ mod n[k]`
/// up to a multiple of `n[k]`, `< 2n[k]` for operands `< 2n[k]`, digits
/// normalised.
#[target_feature(enable = "avx512f,avx512ifma")]
fn amm_pair(a: &[Digits; 2], b: &[Digits; 2], m: &[Consts; 2]) -> [Digits; 2] {
    let zero = _mm512_setzero_si512();
    // Round i starts with `acc` holding everything but n·yᵢ. Only what
    // depends on yᵢ is on the serial path from one round's lane 0 to the
    // next's: lo(n·yᵢ) into `acc`, hi(n·yᵢ) into `side`, one shift, one
    // add. The a·b terms are known in advance, so the ones the next round
    // needs — lo(a·bᵢ₊₁) and hi(a·bᵢ), which belong one lane up and so
    // share a lane index after the shift — are gathered in `side` first.
    let mut acc = [[zero; 3]; 2];
    let mut hi_ab = [[zero; 3]; 2];
    for k in 0..2 {
        let b0 = _mm512_broadcastq_epi64(_mm512_castsi512_si128(b[k][0]));
        for j in 0..3 {
            acc[k][j] = _mm512_madd52lo_epu64(zero, a[k][j], b0);
            hi_ab[k][j] = _mm512_madd52hi_epu64(zero, a[k][j], b0);
        }
    }
    // One round per digit of `b`, looking one digit ahead: lanes 1..8,
    // 0..8 and 0..5 of its three vectors. The last, lane 20, is padding
    // and reads as zero.
    for (v, first, last) in [(0, 1, 8), (1, 0, 8), (2, 0, DIGITS as i64 - 15)] {
        for lane in first..last {
            let pick = _mm512_set1_epi64(lane);
            for k in 0..2 {
                let (a, n) = (&a[k], &m[k].n);
                let next = _mm512_permutexvar_epi64(pick, b[k][v]);
                let mut side = [zero; 3];
                for j in 0..3 {
                    side[j] = _mm512_madd52lo_epu64(hi_ab[k][j], a[j], next);
                    hi_ab[k][j] = _mm512_madd52hi_epu64(zero, a[j], next);
                }
                // y = lane0 · k0 mod 2⁵² makes lane 0 of acc + n·y vanish
                // mod 2⁵²; the multiplier reads lane 0's low 52 bits only.
                let r = &mut acc[k];
                let lane0 = _mm512_broadcastq_epi64(_mm512_castsi512_si128(r[0]));
                let y = _mm512_madd52lo_epu64(zero, lane0, m[k].k0);
                for j in 0..3 {
                    r[j] = _mm512_madd52lo_epu64(r[j], n[j], y);
                    side[j] = _mm512_madd52hi_epu64(side[j], n[j], y);
                }
                // Divide by 2⁵²: lane 0's surplus moves into lane 1, then
                // every lane moves down one.
                let carry = _mm512_srli_epi64::<{ DIGIT_BITS as u32 }>(r[0]);
                side[0] = _mm512_mask_add_epi64(side[0], 1, side[0], carry);
                *r = [
                    _mm512_add_epi64(_mm512_alignr_epi64::<1>(r[1], r[0]), side[0]),
                    _mm512_add_epi64(_mm512_alignr_epi64::<1>(r[2], r[1]), side[1]),
                    _mm512_add_epi64(_mm512_alignr_epi64::<1>(zero, r[2]), side[2]),
                ];
            }
        }
    }
    let out = [normalize(acc[0]), normalize(acc[1])];
    #[cfg(debug_assertions)]
    for k in 0..2 {
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
/// are resolved for all 24 lanes at once by an integer addition on the
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
        _mm512_srli_epi64::<{ DIGIT_BITS as u32 }>(r[2]),
    ];
    let mut out = [
        _mm512_alignr_epi64::<7>(surplus[0], zero),
        _mm512_alignr_epi64::<7>(surplus[1], surplus[0]),
        _mm512_alignr_epi64::<7>(surplus[2], surplus[1]),
    ];
    let (mut generate, mut propagate) = (0u32, 0u32);
    for j in 0..3 {
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

/// What a lane product needs of the moduli, in registers.
struct LaneConsts {
    /// Digit `j` of `p` in the first [`GROUP`] lanes, of `q` in the rest.
    n: LaneDigits,
    /// `k0` of each lane's modulus.
    k0: __m512i,
    /// `2p` and `2q`, the bounds every product is checked against in
    /// debug builds.
    #[cfg(debug_assertions)]
    twice_n: [BigUint; 2],
}

/// Eight almost-Montgomery products, one per lane: `a·b·R⁻¹ mod n` up to
/// a multiple of `n`, `< 2n` for operands `< 2n`, digits normalised.
///
/// Vertical, so there is no cross-lane step: a round adds `a·bᵢ` and
/// `n·yᵢ` digit by digit, each lane with its own `bᵢ` and `yᵢ`, and
/// shifts the accumulator down one digit. A digit collects at most four
/// addends of `< 2⁵²` per round over 21 rounds, so it stays below 2⁵⁹.
#[target_feature(enable = "avx512f,avx512ifma")]
fn amm_lanes(a: &LaneDigits, b: &LaneDigits, m: &LaneConsts) -> LaneDigits {
    let zero = _mm512_setzero_si512();
    let mut r = [zero; DIGITS + 1];
    for &bi in b {
        for j in 0..DIGITS {
            r[j] = _mm512_madd52lo_epu64(r[j], a[j], bi);
            r[j + 1] = _mm512_madd52hi_epu64(r[j + 1], a[j], bi);
        }
        // y = digit 0 · k0 mod 2⁵² makes digit 0 of r + n·y vanish.
        let y = _mm512_madd52lo_epu64(zero, r[0], m.k0);
        for j in 0..DIGITS {
            r[j] = _mm512_madd52lo_epu64(r[j], m.n[j], y);
            r[j + 1] = _mm512_madd52hi_epu64(r[j + 1], m.n[j], y);
        }
        // Divide by 2⁵²: digit 0's surplus moves into digit 1, then every
        // digit moves down one.
        r[1] = _mm512_add_epi64(r[1], _mm512_srli_epi64::<{ DIGIT_BITS as u32 }>(r[0]));
        r.copy_within(1.., 0);
        r[DIGITS] = zero;
    }
    // Carries ripple up digit by digit, all lanes at once.
    let mask = _mm512_set1_epi64(DIGIT_MASK as i64);
    let mut out = [zero; DIGITS];
    let mut carry = zero;
    for (o, &digit) in out.iter_mut().zip(&r) {
        let sum = _mm512_add_epi64(digit, carry);
        carry = _mm512_srli_epi64::<{ DIGIT_BITS as u32 }>(sum);
        *o = _mm512_and_si512(sum, mask);
    }
    #[cfg(debug_assertions)]
    for (k, lane) in untranspose(&out).iter().enumerate() {
        let (limbs, top) = to_limbs(lane);
        let mut value = limbs.to_vec();
        value.push(top);
        debug_assert!(
            BigUint::from_limbs(value) < m.twice_n[k / GROUP],
            "almost-Montgomery product left [0, 2n) in lane {k}"
        );
    }
    out
}

/// The table entry of one window: lanes of the `p` half from `p`'s
/// entry, lanes of the `q` half from `q`'s.
#[target_feature(enable = "avx512f,avx512ifma")]
fn blend_halves(p: &LaneDigits, q: &LaneDigits) -> LaneDigits {
    let mut out = *p;
    for (o, &q) in out.iter_mut().zip(q) {
        *o = _mm512_mask_blend_epi64(Q_LANES, *o, q);
    }
    out
}

/// Eight operands' digits, lane `k` from `lanes[k]`, into digit vectors.
#[target_feature(enable = "avx512f,avx512ifma")]
fn transpose(lanes: &[[u64; LANES]; 2 * GROUP]) -> LaneDigits {
    let mut out = [_mm512_setzero_si512(); DIGITS];
    for (j, v) in out.iter_mut().enumerate() {
        let d = |k: usize| lanes[k][j] as i64;
        *v = _mm512_set_epi64(d(7), d(6), d(5), d(4), d(3), d(2), d(1), d(0));
    }
    out
}

/// Digit vectors back into each lane's digits.
#[target_feature(enable = "avx512f,avx512ifma")]
fn untranspose(digits: &LaneDigits) -> [[u64; LANES]; 2 * GROUP] {
    let mut lanes = [[0u64; LANES]; 2 * GROUP];
    for (j, v) in digits.iter().enumerate() {
        let halves = [
            _mm512_extracti64x4_epi64::<0>(*v),
            _mm512_extracti64x4_epi64::<1>(*v),
        ];
        for (h, half) in halves.into_iter().enumerate() {
            lanes[4 * h][j] = _mm256_extract_epi64::<0>(half) as u64;
            lanes[4 * h + 1][j] = _mm256_extract_epi64::<1>(half) as u64;
            lanes[4 * h + 2][j] = _mm256_extract_epi64::<2>(half) as u64;
            lanes[4 * h + 3][j] = _mm256_extract_epi64::<3>(half) as u64;
        }
    }
    lanes
}

/// 24 digits into three vectors.
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
    [v(0), v(8), v(16)]
}

/// Three vectors back into 24 digits.
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

/// Re-slices up to 16 little-endian 64-bit limbs into 52-bit digits.
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

/// Normalised digits back into 16 limbs and the 16 bits above them.
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

    /// A private key around any two odd 16-limb moduli. Only its ladders
    /// are used, through the crate's one dispatch, so neither has to be
    /// prime and `qinv` is never read.
    fn key(p: &BigUint, q: &BigUint, dp: &BigUint, dq: &BigUint) -> RsaPrivateKey {
        let (mp, mq) = (Montgomery::new(p).unwrap(), Montgomery::new(q).unwrap());
        assert!(CrtLadders::new(&mp, &mq).is_some(), "not 16-limb moduli");
        RsaKeyPair::from_crt_parts(
            BigUint::from_u64(65_537),
            p.clone(),
            q.clone(),
            dp.clone(),
            dq.clone(),
            BigUint::one(),
        )
        .private
    }

    /// `base^exp mod n` on both scalar ladders, which must agree.
    fn scalar(n: &BigUint, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        let ctx = Montgomery::new(n).unwrap();
        let slice = ctx.mod_pow_slice(base, exp);
        assert_eq!(slice, ctx.mod_pow_fixed::<16, 32>(base, exp));
        slice
    }

    /// Each base of `cs` through the key's dispatch as one call — one
    /// base is the pair kernel, [`GROUP`] are one pass of the lane kernel
    /// — against the scalar ladders, base by base.
    fn assert_ladders_match(p: &BigUint, q: &BigUint, dp: &BigUint, dq: &BigUint, cs: &[&BigUint]) {
        let got = key(p, q, dp, dq).crt_ladders(cs);
        assert_eq!(got.len(), cs.len());
        for (c, (m1, m2)) in cs.iter().zip(got) {
            assert_eq!(m1, scalar(p, c, dp), "p side: c = {c:?}, dp = {dp:?}");
            assert_eq!(m2, scalar(q, c, dq), "q side: c = {c:?}, dq = {dq:?}");
        }
    }

    fn random(rng: &mut SecureRng, limbs: usize) -> BigUint {
        BigUint::from_limbs((0..limbs).map(|_| rng.next_u64()).collect())
    }

    /// Odd 16-limb moduli that stress the kernel: all-ones digits, the
    /// smallest 16-limb odd value, random ones with a full, a 63-bit and
    /// a 16-bit top limb, and two generated primes.
    fn moduli(rng: &mut SecureRng) -> Vec<BigUint> {
        let mut out = vec![
            BigUint::one().shl(1024).sub(&BigUint::one()),
            BigUint::one().shl(960).add(&BigUint::one()),
        ];
        for top_mask in [u64::MAX, u64::MAX >> 1, 0xffff] {
            let mut limbs = random(rng, LIMBS).limbs().to_vec();
            limbs.resize(LIMBS, 0);
            limbs[0] |= 1;
            limbs[LIMBS - 1] = (limbs[LIMBS - 1] & top_mask) | (top_mask ^ (top_mask >> 1));
            out.push(BigUint::from_limbs(limbs));
        }
        out.push(generate_prime(1024, rng));
        out.push(generate_prime(1024, rng));
        out
    }

    #[test]
    fn digits_and_limbs_roundtrip() {
        let mut rng = SecureRng::from_seed(0x5252);
        for limbs in [0, 1, 7, 16] {
            let v = random(&mut rng, limbs);
            let d = to_digits(v.limbs());
            assert!(d.iter().all(|&x| x <= DIGIT_MASK) && d[DIGITS..] == [0; LANES - DIGITS]);
            let (back, top) = to_limbs(&d);
            assert_eq!((BigUint::from_limbs(back.to_vec()), top), (v, 0));
        }
        // The 16 bits above the limbs come back as `top`.
        let mut d = [0u64; LANES];
        d[DIGITS - 1] = 0xabcd << (DIGIT_BITS - 16);
        assert_eq!(to_limbs(&d), ([0; LIMBS], 0xabcd));
    }

    /// Every modulus of [`moduli`] as `p`, paired with another as `q` (so
    /// each meets every other on one side or the other), random full
    /// exponents, and the edge bases: 0, 1, `p − 1`, `q − 1`, `n − 1`,
    /// `p`, `q + 5`, a random one below and one above the primes.
    fn moduli_cases(seed: u64) -> Vec<(BigUint, BigUint, BigUint, BigUint, Vec<BigUint>)> {
        let mut rng = SecureRng::from_seed(seed);
        let moduli = moduli(&mut rng);
        (0..moduli.len())
            .map(|i| {
                let (p, q) = (&moduli[i], &moduli[(i + 3) % moduli.len()]);
                let (dp, dq) = (random(&mut rng, LIMBS), random(&mut rng, LIMBS));
                let bases = vec![
                    BigUint::zero(),
                    BigUint::one(),
                    p.sub(&BigUint::one()),
                    q.sub(&BigUint::one()),
                    p.mul(q).sub(&BigUint::one()),
                    p.clone(),
                    q.add(&BigUint::from_u64(5)),
                    random(&mut rng, LIMBS),
                    random(&mut rng, 2 * LIMBS),
                ];
                (p.clone(), q.clone(), dp, dq, bases)
            })
            .collect()
    }

    #[test]
    fn pair_matches_both_scalar_ladders_on_moduli_primes_and_edge_bases() {
        if !vector_path("pair_matches_both_scalar_ladders") {
            return;
        }
        for (p, q, dp, dq, bases) in moduli_cases(0x001f_3a52) {
            for c in &bases {
                assert_ladders_match(&p, &q, &dp, &dq, &[c]);
            }
        }
    }

    #[test]
    fn lanes_match_the_scalar_ladders_on_moduli_primes_and_edge_bases() {
        if !vector_path("lanes_match_the_scalar_ladders") {
            return;
        }
        for (p, q, dp, dq, bases) in moduli_cases(0x001f_3a53) {
            // Every base in every lane, beside every other.
            for start in 0..bases.len() {
                let group: Vec<&BigUint> = (0..GROUP)
                    .map(|k| &bases[(start + k) % bases.len()])
                    .collect();
                assert_ladders_match(&p, &q, &dp, &dq, &group);
            }
            // Nine in one call: two passes of the lanes, then a pair.
            let all: Vec<&BigUint> = bases.iter().collect();
            assert_ladders_match(&p, &q, &dp, &dq, &all);
        }
    }

    /// Two generated primes, a random base, and exponent pairs of unequal
    /// lengths, with zero windows, tiny, one and zero.
    fn exponent_cases(seed: u64) -> (BigUint, BigUint, BigUint, Vec<(BigUint, BigUint)>) {
        let mut rng = SecureRng::from_seed(seed);
        let (p, q) = (
            generate_prime(1024, &mut rng),
            generate_prime(1024, &mut rng),
        );
        let c = random(&mut rng, 2 * LIMBS);
        let full = random(&mut rng, LIMBS);
        let one = BigUint::one();
        // A top and a bottom window with 254 zero windows between them.
        let hollow = BigUint::from_u64(0xf)
            .shl(1020)
            .add(&BigUint::from_u64(0xf));
        let exps = vec![
            (full.clone(), BigUint::from_u64(5)),
            (BigUint::from_u64(5), full.clone()),
            (one.clone(), full.clone()),
            (full.clone(), one.clone()),
            (one.clone(), one.clone()),
            (BigUint::zero(), one.clone()),
            (BigUint::zero(), BigUint::zero()),
            (hollow.clone(), full.shr(512)),
            (one.shl(1020), hollow),
            // Low window zero on one side, a whole-window boundary on the other.
            (BigUint::from_u64(16), BigUint::from_u64(0x10_0000)),
        ];
        (p, q, c, exps)
    }

    #[test]
    fn unequal_exponents_zero_windows_and_tiny_exponents() {
        if !vector_path("unequal_exponents_zero_windows") {
            return;
        }
        let (p, q, c, exps) = exponent_cases(0x00e4_9052);
        for (dp, dq) in &exps {
            assert_ladders_match(&p, &q, dp, dq, &[&c]);
        }
    }

    #[test]
    fn lanes_with_unequal_exponents_zero_windows_and_tiny_exponents() {
        if !vector_path("lanes_with_unequal_exponents") {
            return;
        }
        let (p, q, c, exps) = exponent_cases(0x00e4_9053);
        let n_minus_1 = p.mul(&q).sub(&BigUint::one());
        let q_plus_5 = q.add(&BigUint::from_u64(5));
        let (zero, one) = (BigUint::zero(), BigUint::one());
        for (dp, dq) in &exps {
            assert_ladders_match(&p, &q, dp, dq, &[&c, &zero, &p, &q_plus_5]);
            assert_ladders_match(&p, &q, dp, dq, &[&one, &n_minus_1, &c, &c]);
        }
    }

    /// Scalar model of one product's lanes before normalisation: the same
    /// addends per lane as [`amm_pair`], in the textbook order.
    fn lanes_before_normalisation(
        a: &[u64; LANES],
        b: &[u64; LANES],
        m: &Modulus52,
    ) -> [u64; LANES] {
        let lo = |x: u64, y: u64| (x as u128 * y as u128) as u64 & DIGIT_MASK;
        let hi = |x: u64, y: u64| ((x as u128 * y as u128) >> DIGIT_BITS) as u64;
        let mut r = [0u64; LANES + 1];
        // Lanes 20.. of `a` and `n` are zero, so whole-array zips add
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
        // With n = 2¹⁰²⁴ − 1 (k0 = 1, R ≡ 2¹⁶) and exponent 1, the base
        // t·2⁹⁷² enters the exit product as t·2⁹⁸⁸: one digit, in lane 19.
        // Its rounds are 19 plain shifts and one reduction by y = t, which
        // leaves 2⁵² in lane 0 and 2⁵² − 1 in lanes 1..=17: a carry that
        // has to ripple through 17 all-ones lanes across both vector
        // boundaries. The model checks that this is what the kernel is
        // fed; the ladders check that it resolves it.
        let ones = BigUint::one().shl(1024).sub(&BigUint::one());
        let m = Modulus52::new(&Montgomery::new(&ones).unwrap()).unwrap();
        assert_eq!(m.k0, 1);
        let t = 0xd_2c3b_4a59u64;
        let base = BigUint::from_u64(t).shl(972);
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
        assert!(lanes[1..=17].iter().all(|&l| l == DIGIT_MASK));
        let (limbs, top) = to_limbs(&normalised(lanes));
        assert_eq!(
            (BigUint::from_limbs(limbs.to_vec()), top),
            (base.clone(), 0)
        );

        if !vector_path("normalisation_ripples_a_carry") {
            return;
        }
        let mut rng = SecureRng::from_seed(0x7177_1e52);
        let other = generate_prime(1024, &mut rng);
        let exp = random(&mut rng, LIMBS);
        // The rippling ladder on either side of the pair, and in lanes of
        // either half beside ordinary ones.
        let plain = random(&mut rng, LIMBS);
        for (p, q, dp, dq) in [
            (&ones, &other, &BigUint::one(), &exp),
            (&other, &ones, &exp, &BigUint::one()),
            (&ones, &ones, &BigUint::one(), &BigUint::one()),
        ] {
            assert_ladders_match(p, q, dp, dq, &[&base]);
            assert_ladders_match(p, q, dp, dq, &[&plain, &base, &plain, &base]);
        }
    }
}
