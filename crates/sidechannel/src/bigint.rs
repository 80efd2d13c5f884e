//! Minimal unsigned big-integer arithmetic for the RSA timing reproduction.
//!
//! Just enough to run square-and-multiply modular exponentiation over
//! multi-limb moduli: comparison, subtraction, schoolbook multiplication,
//! modular reduction by shift-and-subtract, and modpow. Not constant-time —
//! deliberately so: the RSA attack (paper Section V-B2) exploits exactly the
//! data-dependent square/multiply operation counts.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer, little-endian 64-bit limbs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BigUint {
    limbs: Vec<u64>, // no trailing zero limbs; empty == 0
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// Builds from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Self { limbs: vec![v] }
        }
    }

    /// Builds from little-endian limbs (trailing zeros trimmed).
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Self { limbs }
    }

    /// The little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// Value of bit `i` (little-endian).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        limb < self.limbs.len() && (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Three-way comparison.
    pub fn cmp_big(&self, other: &Self) -> Ordering {
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

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let n = self.limbs.len().max(other.limbs.len());
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = 0u64;
        for i in 0..n {
            let a = *self.limbs.get(i).unwrap_or(&0);
            let b = *other.limbs.get(i).unwrap_or(&0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            out.push(carry);
        }
        Self::from_limbs(out)
    }

    /// `self - other`; panics on underflow.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &Self) -> Self {
        assert!(
            self.cmp_big(other) != Ordering::Less,
            "big integer subtraction underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = *other.limbs.get(i).unwrap_or(&0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        Self::from_limbs(out)
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
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
        Self::from_limbs(out)
    }

    /// `self mod m` by shift-and-subtract long division.
    ///
    /// The divisor is shifted up once, then walked back down one bit per
    /// quotient bit, subtracting in place whenever the remainder is at least
    /// the shifted divisor.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &Self) -> Self {
        assert!(!m.is_zero(), "modulo by zero");
        if self.cmp_big(m) == Ordering::Less {
            return self.clone();
        }
        let shift = self.bits() - m.bits();
        let mut r = self.limbs.clone();
        // `m << shift` has exactly `self.bits()` bits, so it fits `r`'s width.
        let mut d = vec![0u64; r.len()];
        let (limb_shift, bit_shift) = (shift / 64, shift % 64);
        for (i, &l) in m.limbs.iter().enumerate() {
            d[i + limb_shift] |= l << bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < d.len() {
                d[i + limb_shift + 1] |= l >> (64 - bit_shift);
            }
        }
        for _ in 0..=shift {
            if cmp_limbs(&r, &d) != Ordering::Less {
                sub_assign_limbs(&mut r, &d);
            }
            shr1_limbs(&mut d);
        }
        Self::from_limbs(r)
    }

    /// Modular exponentiation by left-to-right square-and-multiply, counting
    /// the squarings and multiplications performed — the operation counts
    /// whose timing the RSA attack measures.
    ///
    /// Returns `(result, squares, multiplies)`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn modpow_counted(&self, exponent: &Self, modulus: &Self) -> (Self, u64, u64) {
        let mut result = BigUint::from_u64(1).rem(modulus);
        let mut squares = 0u64;
        let mut multiplies = 0u64;
        if exponent.is_zero() {
            return (result, 0, 0);
        }
        let base = self.rem(modulus);
        for i in (0..exponent.bits()).rev() {
            result = result.mul(&result).rem(modulus);
            squares += 1;
            if exponent.bit(i) {
                result = result.mul(&base).rem(modulus);
                multiplies += 1;
            }
        }
        (result, squares, multiplies)
    }

    /// Number of 1-bits in the value (the RSA attack's target quantity).
    pub fn count_ones(&self) -> u64 {
        self.limbs.iter().map(|l| u64::from(l.count_ones())).sum()
    }
}

/// Compares two equal-width little-endian limb slices.
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    a.iter().rev().cmp(b.iter().rev())
}

/// `a -= b` over equal-width limb slices; `a >= b` must hold.
fn sub_assign_limbs(a: &mut [u64], b: &[u64]) {
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
        *x = d2;
        borrow = b1 || b2;
    }
    debug_assert!(!borrow, "big integer subtraction underflow");
}

/// `a >>= 1` in place.
fn shr1_limbs(a: &mut [u64]) {
    let mut carry = 0u64;
    for x in a.iter_mut().rev() {
        let next = *x << 63;
        *x = (*x >> 1) | carry;
        carry = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnoc_telemetry::hash::SplitMix64;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn construction_normalises() {
        assert!(BigUint::from_limbs(vec![0, 0]).is_zero());
        assert_eq!(BigUint::from_limbs(vec![5, 0]).limbs(), &[5]);
    }

    #[test]
    fn bits_and_bit_access() {
        let v = BigUint::from_limbs(vec![0b1010, 1]);
        assert_eq!(v.bits(), 65);
        assert!(v.bit(1));
        assert!(!v.bit(0));
        assert!(v.bit(64));
        assert!(!v.bit(200));
    }

    #[test]
    fn addition_carries_across_limbs() {
        let a = BigUint::from_limbs(vec![u64::MAX]);
        let b = big(1);
        assert_eq!(a.add(&b).limbs(), &[0, 1]);
        // add/sub are inverse.
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(BigUint::zero().add(&BigUint::zero()), BigUint::zero());
    }

    #[test]
    fn subtraction_with_borrow() {
        let a = BigUint::from_limbs(vec![0, 1]); // 2^64
        let b = big(1);
        assert_eq!(a.sub(&b).limbs(), &[u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = big(1).sub(&big(2));
    }

    #[test]
    fn multiplication_crosses_limbs() {
        let a = BigUint::from_limbs(vec![u64::MAX]);
        let sq = a.mul(&a); // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(sq.limbs(), &[1, u64::MAX - 1]);
    }

    #[test]
    fn rem_matches_u128_arithmetic() {
        let a = BigUint::from_limbs(vec![0x1234_5678_9abc_def0, 0xfedc_ba98]);
        let m = big(1_000_000_007);
        let a128 = (0xfedc_ba98u128 << 64) | 0x1234_5678_9abc_def0u128;
        assert_eq!(a.rem(&m).limbs(), &[(a128 % 1_000_000_007) as u64]);
    }

    /// `v << n`.
    fn shl(v: &BigUint, n: usize) -> BigUint {
        if v.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; v.limbs.len() + limb_shift + 1];
        for (i, &l) in v.limbs.iter().enumerate() {
            out[i + limb_shift] |= l << bit_shift;
            if bit_shift > 0 {
                out[i + limb_shift + 1] |= l >> (64 - bit_shift);
            }
        }
        BigUint::from_limbs(out)
    }

    /// The allocating shift-and-subtract reduction: the oracle for the
    /// in-place `rem`.
    fn rem_reference(a: &BigUint, m: &BigUint) -> BigUint {
        if a.cmp_big(m) == Ordering::Less {
            return a.clone();
        }
        let mut r = a.clone();
        for s in (0..=a.bits() - m.bits()).rev() {
            let shifted = shl(m, s);
            if r.cmp_big(&shifted) != Ordering::Less {
                r = r.sub(&shifted);
            }
        }
        r
    }

    /// A random operand of 1–4 limbs; each limb is random, zero, all ones or
    /// a single bit, so carries, borrows and exact top-bit alignments occur.
    fn random_operand(rng: &mut SplitMix64) -> BigUint {
        let limbs = 1 + (rng.next() % 4) as usize;
        let v = (0..limbs)
            .map(|_| match rng.next() % 6 {
                0 => 0,
                1 => u64::MAX,
                2 => 1 << (rng.next() % 64),
                _ => rng.next(),
            })
            .collect();
        BigUint::from_limbs(v)
    }

    fn to_u128(v: &BigUint) -> u128 {
        v.limbs()
            .iter()
            .rev()
            .fold(0u128, |acc, &l| (acc << 64) | u128::from(l))
    }

    #[test]
    fn rem_matches_reference_and_u128_on_random_operands() {
        let mut rng = SplitMix64::new(0x5eed);
        for _ in 0..5_000 {
            let a = random_operand(&mut rng);
            let mut m = random_operand(&mut rng);
            if m.is_zero() {
                m = big(1);
            }
            let r = a.rem(&m);
            assert_eq!(r, rem_reference(&a, &m), "{a:?} mod {m:?}");
            assert_eq!(r.rem(&m), r, "remainder not reduced: {a:?} mod {m:?}");
            if a.limbs().len() <= 2 && m.limbs().len() <= 2 {
                assert_eq!(to_u128(&r), to_u128(&a) % to_u128(&m), "{a:?} mod {m:?}");
            }
            // A product, as the modpow loop reduces, and self mod self.
            let p = a.mul(&a);
            assert_eq!(p.rem(&m), rem_reference(&p, &m), "{p:?} mod {m:?}");
            assert!(m.rem(&m).is_zero());
        }
    }

    #[test]
    fn modpow_results_and_counts_are_pinned() {
        // 128-bit operands, the RSA attack's size; results cross-checked
        // against an independent arbitrary-precision `pow(b, e, m)`.
        let modulus = BigUint::from_limbs(vec![0x8f3a_61c5_d2e4_b719, 0xc3b1_7e0d_94a6_25f3]);
        let base = BigUint::from_limbs(vec![0x0123_4567_89ab_cdef, 0x7edc_ba98_7654_3210]);
        let cases = [
            (
                vec![0xffff_0000_ffff_0001],
                [0x3e5c_b1d1_6799_b49b, 0x28fb_2b8e_1e38_66b6],
                (64, 33),
            ),
            (
                vec![0x8000_0000_0000_0001, 0x1],
                [0x125c_c38c_0724_a70d, 0x5027_e39e_e5a7_22ab],
                (65, 3),
            ),
            (
                vec![0xdead_beef_cafe_f00d, 0x0123_4567_89ab_cdef],
                [0xb110_f701_7602_5f12, 0x6320_8033_8a30_03da],
                (121, 74),
            ),
        ];
        for (exp, result, counts) in cases {
            let (r, squares, multiplies) = base.modpow_counted(&BigUint::from_limbs(exp), &modulus);
            assert_eq!(r.limbs(), &result);
            assert_eq!((squares, multiplies), counts);
        }
    }

    #[test]
    fn modpow_matches_u128_reference() {
        let (r, s, m) = big(7).modpow_counted(&big(0b1011), &big(1000));
        // 7^11 mod 1000 = 1977326743 mod 1000 = 743.
        assert_eq!(r.limbs(), &[743]);
        assert_eq!(s, 4); // one squaring per exponent bit
        assert_eq!(m, 3); // one multiply per 1-bit
    }

    #[test]
    fn modpow_counts_follow_hamming_weight() {
        let modulus = BigUint::from_limbs(vec![0xffff_ffff_ffff_fff1, 0xdead_beef]);
        let exp_light = BigUint::from_limbs(vec![0b1000_0001]);
        let exp_heavy = BigUint::from_limbs(vec![0xff]);
        let base = big(12345);
        let (_, s1, m1) = base.modpow_counted(&exp_light, &modulus);
        let (_, s2, m2) = base.modpow_counted(&exp_heavy, &modulus);
        assert_eq!(s1, s2); // same bit length → same squarings
        assert_eq!(m1, 2);
        assert_eq!(m2, 8);
    }

    #[test]
    fn zero_exponent_yields_one() {
        let (r, s, m) = big(5).modpow_counted(&BigUint::zero(), &big(13));
        assert_eq!(r.limbs(), &[1]);
        assert_eq!((s, m), (0, 0));
    }

    #[test]
    fn count_ones_spans_limbs() {
        let v = BigUint::from_limbs(vec![0b111, 0b1]);
        assert_eq!(v.count_ones(), 4);
    }

    #[test]
    fn fermat_little_theorem_holds() {
        // a^(p-1) ≡ 1 mod p for prime p not dividing a.
        let p = big(1_000_000_007);
        let (r, _, _) = big(31337).modpow_counted(&big(1_000_000_006), &p);
        assert_eq!(r.limbs(), &[1]);
    }
}
