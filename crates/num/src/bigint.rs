//! Arbitrary-precision signed integers.
//!
//! Representation: two tiers. A value that fits in an `i64` is held inline
//! (`Repr::Small`), zero included; only a value outside that range owns
//! limbs (`Repr::Large`: a [`Sign`] plus a little-endian vector of `u64`
//! limbs with no trailing zero limb). The form is canonical — a value is
//! `Large` exactly when it does not fit in an `i64` — so `Eq`/`Hash` can be
//! derived structurally.
//!
//! Two `Small` operands take a fast path in `i64`/`i128` that promotes to
//! `Large` when the result overflows. Every other case runs the one set of
//! limb routines below, a `Small` operand entering as a one-limb slice on
//! the stack ([`BigInt::parts`]).

#![allow(clippy::needless_range_loop)] // carry-chain loops are clearer indexed

use crate::gcd64;
use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use core::str::FromStr;

/// Sign of a [`BigInt`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sign {
    /// Strictly negative.
    Minus,
    /// Zero.
    Zero,
    /// Strictly positive.
    Plus,
}

impl Sign {
    #[inline]
    fn negate(self) -> Sign {
        match self {
            Sign::Minus => Sign::Plus,
            Sign::Zero => Sign::Zero,
            Sign::Plus => Sign::Minus,
        }
    }

    #[inline]
    fn mul(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (Sign::Plus, Sign::Plus) | (Sign::Minus, Sign::Minus) => Sign::Plus,
            _ => Sign::Minus,
        }
    }
}

/// An arbitrary-precision signed integer.
///
/// ```
/// use ss_num::BigInt;
/// let a = BigInt::from(1_000_000_007u64);
/// let b = &a * &a;
/// assert_eq!(b.to_string(), "1000000014000000049");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Every value in `i64` range.
    Small(i64),
    /// Every value outside `i64` range: `sign` is never `Zero`, `mag` is
    /// little-endian with no trailing zero limb.
    Large { sign: Sign, mag: Vec<u64> },
}

// ---------------------------------------------------------------------------
// Magnitude (unsigned slice) primitives.
// ---------------------------------------------------------------------------

fn trim(mag: &mut Vec<u64>) {
    while mag.last() == Some(&0) {
        mag.pop();
    }
}

fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            o => return o,
        }
    }
    Ordering::Equal
}

fn add_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for i in 0..long.len() {
        let s = short.get(i).copied().unwrap_or(0);
        let (x, c1) = long[i].overflowing_add(s);
        let (x, c2) = x.overflowing_add(carry);
        carry = (c1 as u64) + (c2 as u64);
        out.push(x);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// `a - b`, requires `a >= b`.
fn sub_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(cmp_mag(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let s = b.get(i).copied().unwrap_or(0);
        let (x, b1) = a[i].overflowing_sub(s);
        let (x, b2) = x.overflowing_sub(borrow);
        borrow = (b1 as u64) + (b2 as u64);
        out.push(x);
    }
    debug_assert_eq!(borrow, 0);
    trim(&mut out);
    out
}

fn mul_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let t = (ai as u128) * (bj as u128) + (out[i + j] as u128) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = (out[k] as u128) + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    trim(&mut out);
    out
}

/// Divide magnitude by a single limb; returns (quotient, remainder).
fn div_rem_mag_limb(a: &[u64], d: u64) -> (Vec<u64>, u64) {
    debug_assert!(d != 0);
    let mut q = vec![0u64; a.len()];
    let mut rem = 0u128;
    for i in (0..a.len()).rev() {
        let cur = (rem << 64) | a[i] as u128;
        q[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    trim(&mut q);
    (q, rem as u64)
}

/// Shift a magnitude left by `s` bits (`0 <= s < 64`), appending a limb if
/// needed.
fn shl_bits(a: &[u64], s: u32) -> Vec<u64> {
    if s == 0 {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry = 0u64;
    for &x in a {
        out.push((x << s) | carry);
        carry = x >> (64 - s);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Shift a magnitude right by `s` bits (`0 <= s < 64`).
fn shr_bits(a: &[u64], s: u32) -> Vec<u64> {
    if s == 0 {
        return a.to_vec();
    }
    let mut out = vec![0u64; a.len()];
    let mut carry = 0u64;
    for i in (0..a.len()).rev() {
        out[i] = (a[i] >> s) | carry;
        carry = a[i] << (64 - s);
    }
    trim(&mut out);
    out
}

/// Knuth algorithm D: divide `u` by `v` (both magnitudes, `v.len() >= 2`,
/// `u >= v`). Returns (quotient, remainder).
fn div_rem_mag_knuth(u: &[u64], v: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let n = v.len();
    let m = u.len() - n;

    // D1: normalize so the top limb of v has its high bit set.
    let shift = v[n - 1].leading_zeros();
    let vn = shl_bits(v, shift);
    let mut un = shl_bits(u, shift);
    un.resize(u.len() + 1, 0); // extra high limb for the loop

    let mut q = vec![0u64; m + 1];
    let vtop = vn[n - 1];
    let vsec = vn[n - 2];

    for j in (0..=m).rev() {
        // D3: estimate qhat from the top two (three) limbs.
        let top = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
        let mut qhat = top / vtop as u128;
        let mut rhat = top % vtop as u128;
        while qhat >= 1u128 << 64 || qhat * vsec as u128 > ((rhat << 64) | un[j + n - 2] as u128) {
            qhat -= 1;
            rhat += vtop as u128;
            if rhat >= 1u128 << 64 {
                break;
            }
        }

        // D4: multiply and subtract un[j..j+n+1] -= qhat * vn.
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = qhat * vn[i] as u128 + carry;
            carry = p >> 64;
            let t = un[j + i] as i128 - (p as u64) as i128 + borrow;
            un[j + i] = t as u64;
            borrow = t >> 64; // arithmetic shift: 0 or -1
        }
        let t = un[j + n] as i128 - carry as i128 + borrow;
        un[j + n] = t as u64;

        // D5/D6: if we subtracted too much, add back one v.
        if t < 0 {
            qhat -= 1;
            let mut carry = 0u64;
            for i in 0..n {
                let (x, c1) = un[j + i].overflowing_add(vn[i]);
                let (x, c2) = x.overflowing_add(carry);
                un[j + i] = x;
                carry = (c1 as u64) + (c2 as u64);
            }
            un[j + n] = un[j + n].wrapping_add(carry);
        }
        q[j] = qhat as u64;
    }

    trim(&mut q);
    // D8: denormalize remainder.
    let mut r = shr_bits(&un[..n], shift);
    trim(&mut r);
    (q, r)
}

/// Divide magnitudes; returns (quotient, remainder).
fn div_rem_mag(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    assert!(!b.is_empty(), "division by zero BigInt");
    match cmp_mag(a, b) {
        Ordering::Less => (Vec::new(), a.to_vec()),
        Ordering::Equal => (vec![1], Vec::new()),
        Ordering::Greater => {
            if b.len() == 1 {
                let (q, r) = div_rem_mag_limb(a, b[0]);
                (q, if r == 0 { Vec::new() } else { vec![r] })
            } else {
                div_rem_mag_knuth(a, b)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// BigInt API.
// ---------------------------------------------------------------------------

/// The `i64` with sign `sign` and magnitude `m`, if there is one.
#[inline]
fn small_of(sign: Sign, m: u64) -> Option<i64> {
    match sign {
        Sign::Zero => Some(0),
        Sign::Plus => i64::try_from(m).ok(),
        Sign::Minus => (m <= 1 << 63).then(|| (m as i64).wrapping_neg()),
    }
}

impl BigInt {
    /// The integer zero.
    #[inline]
    pub fn zero() -> BigInt {
        BigInt(Repr::Small(0))
    }

    /// The integer one.
    #[inline]
    pub fn one() -> BigInt {
        BigInt(Repr::Small(1))
    }

    /// The canonical integer with sign `sign` and magnitude `mag` (trailing
    /// zero limbs allowed).
    fn from_mag(sign: Sign, mut mag: Vec<u64>) -> BigInt {
        trim(&mut mag);
        match mag[..] {
            [] => return BigInt::zero(),
            [m] => {
                if let Some(v) = small_of(sign, m) {
                    return BigInt(Repr::Small(v));
                }
            }
            _ => {}
        }
        debug_assert!(sign != Sign::Zero);
        BigInt(Repr::Large { sign, mag })
    }

    /// Sign and magnitude limbs; a `Small` value lends its one limb from
    /// `buf`, so the limb routines serve both tiers without allocating.
    #[inline]
    fn parts<'a>(&'a self, buf: &'a mut [u64; 1]) -> (Sign, &'a [u64]) {
        match &self.0 {
            Repr::Small(0) => (Sign::Zero, &[]),
            Repr::Small(v) => {
                buf[0] = v.unsigned_abs();
                (if *v < 0 { Sign::Minus } else { Sign::Plus }, &buf[..])
            }
            Repr::Large { sign, mag } => (*sign, mag),
        }
    }

    /// Sign of this integer.
    #[inline]
    pub fn sign(&self) -> Sign {
        match self.0 {
            Repr::Small(v) => match v.cmp(&0) {
                Ordering::Less => Sign::Minus,
                Ordering::Equal => Sign::Zero,
                Ordering::Greater => Sign::Plus,
            },
            Repr::Large { sign, .. } => sign,
        }
    }

    /// `true` iff this is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small(0))
    }

    /// `true` iff this is one.
    #[inline]
    pub fn is_one(&self) -> bool {
        matches!(self.0, Repr::Small(1))
    }

    /// `true` iff this is strictly negative.
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.sign() == Sign::Minus
    }

    /// `true` iff this is strictly positive.
    #[inline]
    pub fn is_positive(&self) -> bool {
        self.sign() == Sign::Plus
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        if self.is_negative() {
            -self
        } else {
            self.clone()
        }
    }

    /// Number of bits in the magnitude (0 for zero).
    pub fn bits(&self) -> u64 {
        let mut buf = [0];
        let mag = self.parts(&mut buf).1;
        match mag.last() {
            None => 0,
            Some(&top) => (mag.len() as u64) * 64 - top.leading_zeros() as u64,
        }
    }

    /// `self` with its magnitude shifted right by `s` bits (truncation
    /// toward zero).
    pub(crate) fn shr_mag(&self, s: u64) -> BigInt {
        let mut buf = [0];
        let (sign, mag) = self.parts(&mut buf);
        let limbs = usize::try_from(s / 64).unwrap_or(usize::MAX);
        if limbs >= mag.len() {
            return BigInt::zero();
        }
        BigInt::from_mag(sign, shr_bits(&mag[limbs..], (s % 64) as u32))
    }

    /// Quotient and remainder of truncated division (C semantics: the
    /// remainder has the sign of the dividend).
    ///
    /// # Panics
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "division by zero BigInt");
        match (&self.0, &other.0) {
            // `i64::MIN / -1` overflows `i64`; in `i128` it promotes.
            (Repr::Small(a), Repr::Small(b)) => (
                BigInt::from(*a as i128 / *b as i128),
                BigInt(Repr::Small((*a as i128 % *b as i128) as i64)),
            ),
            _ => self.div_rem_limbs(other),
        }
    }

    fn div_rem_limbs(&self, other: &BigInt) -> (BigInt, BigInt) {
        let (mut ba, mut bb) = ([0], [0]);
        let (sa, ma) = self.parts(&mut ba);
        let (sb, mb) = other.parts(&mut bb);
        if sa == Sign::Zero {
            return (BigInt::zero(), BigInt::zero());
        }
        let (q, r) = div_rem_mag(ma, mb);
        (BigInt::from_mag(sa.mul(sb), q), BigInt::from_mag(sa, r))
    }

    /// Greatest common divisor (always non-negative; `gcd(0,0) == 0`).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        match (&self.0, &other.0) {
            (Repr::Small(a), Repr::Small(b)) => {
                BigInt::from(gcd64(a.unsigned_abs(), b.unsigned_abs()))
            }
            _ => self.gcd_limbs(other),
        }
    }

    /// Euclid on limbs until one side fits one limb, then binary gcd on
    /// `u64`.
    fn gcd_limbs(&self, other: &BigInt) -> BigInt {
        let (mut ba, mut bb) = ([0], [0]);
        let mut a = self.parts(&mut ba).1.to_vec();
        let mut b = other.parts(&mut bb).1.to_vec();
        while b.len() > 1 {
            let (_, r) = div_rem_mag(&a, &b);
            a = b;
            b = r;
        }
        match b[..] {
            [] => BigInt::from_mag(Sign::Plus, a),
            [d] => BigInt::from(gcd64(d, div_rem_mag_limb(&a, d).1)),
            _ => unreachable!(),
        }
    }

    /// Least common multiple (non-negative; `lcm(x,0) == 0`).
    pub fn lcm(&self, other: &BigInt) -> BigInt {
        if self.is_zero() || other.is_zero() {
            return BigInt::zero();
        }
        let g = self.gcd(other);
        let (q, _) = self.abs().div_rem(&g);
        &q * &other.abs()
    }

    /// Raise to a non-negative integer power (binary exponentiation).
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Convert to `f64` (may lose precision; saturates to ±∞ on overflow).
    pub fn to_f64(&self) -> f64 {
        let (sign, mag) = match &self.0 {
            Repr::Small(v) => return *v as f64,
            Repr::Large { sign, mag } => (sign, mag),
        };
        let mut x = 0.0f64;
        for &limb in mag.iter().rev() {
            x = x * 18446744073709551616.0 + limb as f64;
        }
        if *sign == Sign::Minus {
            -x
        } else {
            x
        }
    }

    /// Convert to `i64` if it fits, i.e. if it is held inline.
    #[inline]
    pub fn to_i64(&self) -> Option<i64> {
        match self.0 {
            Repr::Small(v) => Some(v),
            Repr::Large { .. } => None,
        }
    }

    /// Convert to `u64` if it fits (must be non-negative).
    pub fn to_u64(&self) -> Option<u64> {
        self.to_u128().and_then(|v| u64::try_from(v).ok())
    }

    /// Convert to `u128` if it fits (must be non-negative).
    pub fn to_u128(&self) -> Option<u128> {
        match &self.0 {
            Repr::Small(v) => u128::try_from(*v).ok(),
            Repr::Large {
                sign: Sign::Plus,
                mag,
            } => match mag[..] {
                [lo] => Some(lo as u128),
                [lo, hi] => Some((hi as u128) << 64 | lo as u128),
                _ => None,
            },
            Repr::Large { .. } => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Conversions.
// ---------------------------------------------------------------------------

macro_rules! impl_from_small {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            #[inline]
            fn from(v: $t) -> BigInt {
                BigInt(Repr::Small(v as i64))
            }
        }
    )*};
}
impl_from_small!(u8, u16, u32, i8, i16, i32, i64, isize);

impl From<u64> for BigInt {
    #[inline]
    fn from(v: u64) -> BigInt {
        BigInt::from(v as u128)
    }
}

impl From<usize> for BigInt {
    #[inline]
    fn from(v: usize) -> BigInt {
        BigInt::from(v as u128)
    }
}

impl From<u128> for BigInt {
    #[inline]
    fn from(v: u128) -> BigInt {
        match i64::try_from(v) {
            Ok(v) => BigInt(Repr::Small(v)),
            Err(_) => BigInt::from_mag(Sign::Plus, vec![v as u64, (v >> 64) as u64]),
        }
    }
}

impl From<i128> for BigInt {
    #[inline]
    fn from(v: i128) -> BigInt {
        match i64::try_from(v) {
            Ok(v) => BigInt(Repr::Small(v)),
            Err(_) => {
                let sign = if v < 0 { Sign::Minus } else { Sign::Plus };
                let m = v.unsigned_abs();
                BigInt::from_mag(sign, vec![m as u64, (m >> 64) as u64])
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ordering.
// ---------------------------------------------------------------------------

impl PartialOrd for BigInt {
    #[inline]
    fn partial_cmp(&self, other: &BigInt) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &BigInt) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Small(a), Repr::Small(b)) => a.cmp(b),
            _ => self.cmp_limbs(other),
        }
    }
}

impl BigInt {
    fn cmp_limbs(&self, other: &BigInt) -> Ordering {
        let (mut ba, mut bb) = ([0], [0]);
        let (sa, ma) = self.parts(&mut ba);
        let (sb, mb) = other.parts(&mut bb);
        match sa.cmp(&sb) {
            Ordering::Equal => match sa {
                Sign::Zero => Ordering::Equal,
                Sign::Plus => cmp_mag(ma, mb),
                Sign::Minus => cmp_mag(mb, ma),
            },
            o => o,
        }
    }

    /// `self + rhs` with `rhs`'s sign flipped when `negate_rhs`, on limbs.
    fn add_limbs(&self, rhs: &BigInt, negate_rhs: bool) -> BigInt {
        let (mut ba, mut bb) = ([0], [0]);
        let (sa, ma) = self.parts(&mut ba);
        let (sb, mb) = rhs.parts(&mut bb);
        let sb = if negate_rhs { sb.negate() } else { sb };
        match (sa, sb) {
            (Sign::Zero, _) => BigInt::from_mag(sb, mb.to_vec()),
            (_, Sign::Zero) => BigInt::from_mag(sa, ma.to_vec()),
            (a, b) if a == b => BigInt::from_mag(a, add_mag(ma, mb)),
            _ => match cmp_mag(ma, mb) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt::from_mag(sa, sub_mag(ma, mb)),
                Ordering::Less => BigInt::from_mag(sb, sub_mag(mb, ma)),
            },
        }
    }

    fn mul_limbs(&self, rhs: &BigInt) -> BigInt {
        let (mut ba, mut bb) = ([0], [0]);
        let (sa, ma) = self.parts(&mut ba);
        let (sb, mb) = rhs.parts(&mut bb);
        BigInt::from_mag(sa.mul(sb), mul_mag(ma, mb))
    }
}

// ---------------------------------------------------------------------------
// Arithmetic operators (implemented on references; owned forms delegate).
// ---------------------------------------------------------------------------

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match &self.0 {
            Repr::Small(v) => BigInt::from(-(*v as i128)),
            Repr::Large { sign, mag } => BigInt::from_mag(sign.negate(), mag.clone()),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match self.0 {
            Repr::Small(v) => BigInt::from(-(v as i128)),
            Repr::Large { sign, mag } => BigInt::from_mag(sign.negate(), mag),
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    #[inline]
    fn add(self, rhs: &BigInt) -> BigInt {
        match (&self.0, &rhs.0) {
            (Repr::Small(a), Repr::Small(b)) => BigInt::from(*a as i128 + *b as i128),
            _ => self.add_limbs(rhs, false),
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    #[inline]
    fn sub(self, rhs: &BigInt) -> BigInt {
        match (&self.0, &rhs.0) {
            (Repr::Small(a), Repr::Small(b)) => BigInt::from(*a as i128 - *b as i128),
            _ => self.add_limbs(rhs, true),
        }
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    #[inline]
    fn mul(self, rhs: &BigInt) -> BigInt {
        match (&self.0, &rhs.0) {
            (Repr::Small(a), Repr::Small(b)) => BigInt::from(*a as i128 * *b as i128),
            _ => self.mul_limbs(rhs),
        }
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    #[inline]
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    #[inline]
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_owned_binop {
    ($($op:ident :: $f:ident),*) => {$(
        impl $op for BigInt {
            type Output = BigInt;
            #[inline]
            fn $f(self, rhs: BigInt) -> BigInt { (&self).$f(&rhs) }
        }
        impl $op<&BigInt> for BigInt {
            type Output = BigInt;
            #[inline]
            fn $f(self, rhs: &BigInt) -> BigInt { (&self).$f(rhs) }
        }
        impl $op<BigInt> for &BigInt {
            type Output = BigInt;
            #[inline]
            fn $f(self, rhs: BigInt) -> BigInt { self.$f(&rhs) }
        }
    )*};
}
forward_owned_binop!(Add::add, Sub::sub, Mul::mul, Div::div, Rem::rem);

impl AddAssign<&BigInt> for BigInt {
    #[inline]
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    #[inline]
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&BigInt> for BigInt {
    #[inline]
    fn mul_assign(&mut self, rhs: &BigInt) {
        *self = &*self * rhs;
    }
}

// ---------------------------------------------------------------------------
// Formatting and parsing (decimal).
// ---------------------------------------------------------------------------

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (sign, mag) = match &self.0 {
            Repr::Small(v) => return write!(f, "{v}"),
            Repr::Large { sign, mag } => (sign, mag),
        };
        // Peel off 19 decimal digits at a time (10^19 < 2^64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut mag = mag.clone();
        let mut chunks = Vec::new();
        while !mag.is_empty() {
            let (q, r) = div_rem_mag_limb(&mag, CHUNK);
            chunks.push(r);
            mag = q;
        }
        let mut s = String::new();
        if *sign == Sign::Minus {
            s.push('-');
        }
        s.push_str(&chunks.pop().unwrap().to_string());
        while let Some(c) = chunks.pop() {
            s.push_str(&format!("{c:019}"));
        }
        f.write_str(&s)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

/// Error returned when parsing a [`BigInt`] from a malformed string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBigIntError;

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid decimal integer literal")
    }
}

impl std::error::Error for ParseBigIntError {}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<BigInt, ParseBigIntError> {
        let (neg, digits) = match s.as_bytes() {
            [b'-', rest @ ..] => (true, rest),
            [b'+', rest @ ..] => (false, rest),
            rest => (false, rest),
        };
        if digits.is_empty() || !digits.iter().all(|b| b.is_ascii_digit()) {
            return Err(ParseBigIntError);
        }
        let sign = if neg { Sign::Minus } else { Sign::Plus };
        let value = |chunk: &[u8]| {
            chunk
                .iter()
                .fold(0u64, |acc, &b| acc * 10 + u64::from(b - b'0'))
        };
        if digits.len() <= 19 {
            // The whole literal fits in a `u64` (10^19 - 1 < 2^64).
            let m = value(digits);
            return Ok(match small_of(sign, m) {
                Some(v) => BigInt(Repr::Small(v)),
                None => BigInt::from_mag(sign, vec![m]),
            });
        }
        let mut mag: Vec<u64> = Vec::new();
        // Consume 19 digits at a time: mag = mag * 10^k + chunk.
        for chunk in digits.chunks(19) {
            let base = 10u64.pow(chunk.len() as u32);
            // mag = mag * base + chunk, in place.
            let mut carry = value(chunk) as u128;
            for limb in mag.iter_mut() {
                let t = (*limb as u128) * (base as u128) + carry;
                *limb = t as u64;
                carry = t >> 64;
            }
            while carry != 0 {
                mag.push(carry as u64);
                carry >>= 64;
            }
        }
        Ok(BigInt::from_mag(sign, mag))
    }
}

impl Default for BigInt {
    #[inline]
    fn default() -> BigInt {
        BigInt::zero()
    }
}

impl std::iter::Sum for BigInt {
    fn sum<I: Iterator<Item = BigInt>>(iter: I) -> BigInt {
        iter.fold(BigInt::zero(), |a, b| a + b)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::rand_crate::rngs::StdRng;
    use proptest::rand_crate::Rng;

    fn bi(s: &str) -> BigInt {
        s.parse().unwrap()
    }

    /// `x` is in canonical form: `Large` only outside `i64` range, with a
    /// nonzero sign and no trailing zero limb.
    pub(crate) fn canonical(x: &BigInt) -> bool {
        match &x.0 {
            Repr::Small(_) => true,
            Repr::Large { sign, mag } => {
                *sign != Sign::Zero
                    && mag.last().is_some_and(|&top| top != 0)
                    && !matches!(mag[..], [m] if small_of(*sign, m).is_some())
            }
        }
    }

    /// Integers clustered where `i64` arithmetic overflows: around 0,
    /// ±2^31 and ±2^32, ±⌊√2^63⌋ (products overflow by one bit), ±2^62
    /// (sums overflow by one bit), ±2^63 (`i64::MIN`, `i64::MAX` and the
    /// first values past them) and ±2^64. One draw in five is any `i64`.
    pub(crate) struct Edge;

    impl Strategy for Edge {
        type Value = i128;
        fn sample(&self, rng: &mut StdRng) -> i128 {
            const CENTRES: [i128; 7] = [
                0,
                1 << 31,
                1 << 32,
                3_037_000_499,
                1 << 62,
                1 << 63,
                1 << 64,
            ];
            if rng.gen_bool(0.2) {
                return rng.gen_range(i64::MIN..=i64::MAX) as i128;
            }
            let v = CENTRES[rng.gen_range(0..CENTRES.len())] + rng.gen_range(-3i128..=3);
            if rng.gen_bool(0.5) {
                -v
            } else {
                v
            }
        }
    }

    fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every two-operand fast path agrees with the limb routines on the
        /// same operands, with `i128` where it can hold the answer, and
        /// returns canonical results.
        #[test]
        fn fast_paths_match_limb_routines(a in Edge, b in Edge) {
            let (x, y) = (BigInt::from(a), BigInt::from(b));
            prop_assert!(canonical(&x) && canonical(&y));
            let (sum, diff, prod, g) = (&x + &y, &x - &y, &x * &y, x.gcd(&y));
            prop_assert_eq!(&sum, &x.add_limbs(&y, false));
            prop_assert_eq!(&diff, &x.add_limbs(&y, true));
            prop_assert_eq!(&prod, &x.mul_limbs(&y));
            prop_assert_eq!(&g, &x.gcd_limbs(&y));
            prop_assert_eq!(x.cmp(&y), x.cmp_limbs(&y));
            prop_assert_eq!(&sum, &BigInt::from(a + b));
            prop_assert_eq!(&diff, &BigInt::from(a - b));
            if let Some(p) = a.checked_mul(b) {
                prop_assert_eq!(&prod, &BigInt::from(p));
            }
            prop_assert_eq!(&g, &BigInt::from(gcd_u128(a.unsigned_abs(), b.unsigned_abs())));
            prop_assert_eq!(x.cmp(&y), a.cmp(&b));
            for v in [&sum, &diff, &prod, &g] {
                prop_assert!(canonical(v), "not canonical: {:?}", v);
            }
            if b != 0 {
                let (q, r) = x.div_rem(&y);
                prop_assert_eq!((&q, &r), (&x.div_rem_limbs(&y).0, &x.div_rem_limbs(&y).1));
                prop_assert_eq!((&q, &r), (&BigInt::from(a / b), &BigInt::from(a % b)));
                prop_assert!(canonical(&q) && canonical(&r));
            }
        }

        /// `gcd` with one side zero is the other side's magnitude.
        #[test]
        fn gcd_with_zero(a in Edge) {
            let (x, zero) = (BigInt::from(a), BigInt::zero());
            let want = BigInt::from(a.unsigned_abs());
            for g in [x.gcd(&zero), zero.gcd(&x), x.gcd_limbs(&zero), zero.gcd_limbs(&x)] {
                prop_assert_eq!(&g, &want);
                prop_assert!(canonical(&g));
            }
        }

        /// Unary operations, conversions and the decimal round trip are
        /// exact and canonical on both sides of every overflow point.
        #[test]
        fn unary_ops_and_conversions(a in Edge) {
            let x = BigInt::from(a);
            for v in [-&x, -x.clone(), x.abs()] {
                prop_assert!(canonical(&v));
            }
            prop_assert_eq!(-&x, BigInt::from(-a));
            prop_assert_eq!(-x.clone(), BigInt::from(-a));
            prop_assert_eq!(x.abs(), BigInt::from(a.abs()));
            prop_assert_eq!(x.to_string(), a.to_string());
            let back: BigInt = x.to_string().parse().unwrap();
            prop_assert!(canonical(&back));
            prop_assert_eq!(&back, &x);
            prop_assert_eq!(x.to_i64(), i64::try_from(a).ok());
            prop_assert_eq!(x.to_u64(), u64::try_from(a).ok());
            prop_assert_eq!(x.to_u128(), u128::try_from(a).ok());
            prop_assert_eq!(x.bits(), 128 - a.unsigned_abs().leading_zeros() as u64);
            prop_assert_eq!(x.sign() == Sign::Minus, a < 0);
            if let Ok(v) = i64::try_from(a) {
                prop_assert_eq!(x.to_f64(), v as f64);
            }
        }
    }

    #[test]
    fn neg_and_abs_of_i64_min() {
        let min = BigInt::from(i64::MIN);
        let past = BigInt::from(1i128 << 63);
        assert!(matches!(min.0, Repr::Small(i64::MIN)));
        assert!(matches!(past.0, Repr::Large { .. }));
        assert_eq!(-&min, past);
        assert_eq!(-min.clone(), past);
        assert_eq!(min.abs(), past);
        assert_eq!(-&past, min);
        assert_eq!(-past.clone(), min);
        assert_eq!(min.div_rem(&BigInt::from(-1)), (past, BigInt::zero()));
    }

    #[test]
    fn stays_within_two_words_of_a_vec() {
        assert!(core::mem::size_of::<BigInt>() <= 32);
    }

    #[test]
    fn zero_and_one() {
        assert!(BigInt::zero().is_zero());
        assert!(BigInt::one().is_one());
        assert_eq!(BigInt::zero().to_string(), "0");
        assert_eq!(BigInt::from(0i64), BigInt::zero());
    }

    #[test]
    fn from_primitives() {
        assert_eq!(BigInt::from(-5i32).to_string(), "-5");
        assert_eq!(BigInt::from(i64::MIN).to_string(), "-9223372036854775808");
        assert_eq!(BigInt::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(
            BigInt::from(u128::MAX).to_string(),
            "340282366920938463463374607431768211455"
        );
        assert_eq!(
            BigInt::from(i128::MIN).to_string(),
            "-170141183460469231731687303715884105728"
        );
    }

    #[test]
    fn parse_roundtrip() {
        for s in [
            "0",
            "1",
            "-1",
            "18446744073709551616",
            "340282366920938463463374607431768211456",
            "-99999999999999999999999999999999999999999999",
        ] {
            assert_eq!(bi(s).to_string(), s);
        }
        assert_eq!(bi("+42").to_string(), "42");
        assert_eq!(bi("-0").to_string(), "0");
        assert!("".parse::<BigInt>().is_err());
        assert!("12a".parse::<BigInt>().is_err());
        assert!("--3".parse::<BigInt>().is_err());
    }

    #[test]
    fn addition_with_carries() {
        let a = BigInt::from(u64::MAX);
        let b = &a + &BigInt::one();
        assert_eq!(b.to_string(), "18446744073709551616");
        assert_eq!((&b - &BigInt::one()), a);
    }

    #[test]
    fn signed_addition() {
        assert_eq!(BigInt::from(5) + BigInt::from(-3), BigInt::from(2));
        assert_eq!(BigInt::from(3) + BigInt::from(-5), BigInt::from(-2));
        assert_eq!(BigInt::from(-3) + BigInt::from(3), BigInt::zero());
        assert_eq!(BigInt::from(-3) - BigInt::from(4), BigInt::from(-7));
    }

    #[test]
    fn multiplication() {
        let a = bi("123456789123456789123456789");
        let b = bi("987654321987654321");
        assert_eq!(
            (&a * &b).to_string(),
            "121932631356500531469135800347203169112635269"
        );
        assert_eq!(&a * &BigInt::zero(), BigInt::zero());
        assert_eq!((&a * &BigInt::from(-1)).to_string(), format!("-{a}"));
    }

    #[test]
    fn division_single_limb() {
        let a = bi("123456789123456789");
        let (q, r) = a.div_rem(&BigInt::from(1000));
        assert_eq!(q.to_string(), "123456789123456");
        assert_eq!(r.to_string(), "789");
    }

    #[test]
    fn division_knuth_multi_limb() {
        let a = bi("340282366920938463463374607431768211456"); // 2^128
        let b = bi("18446744073709551617"); // 2^64 + 1
        let (q, r) = a.div_rem(&b);
        // 2^128 = (2^64+1)(2^64-1) + 1
        assert_eq!(q.to_string(), "18446744073709551615");
        assert_eq!(r, BigInt::one());
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn division_requiring_addback() {
        // Case engineered to exercise the Knuth D add-back branch:
        // u = [0, qhat_overestimate pattern]. Classic test values.
        let a = bi("170141183460469231722463931679029329919");
        let b = bi("18446744073709551615");
        let (q, r) = a.div_rem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r.abs() < b.abs());
    }

    #[test]
    fn truncated_division_signs() {
        let (q, r) = BigInt::from(-7).div_rem(&BigInt::from(2));
        assert_eq!((q, r), (BigInt::from(-3), BigInt::from(-1)));
        let (q, r) = BigInt::from(7).div_rem(&BigInt::from(-2));
        assert_eq!((q, r), (BigInt::from(-3), BigInt::from(1)));
        let (q, r) = BigInt::from(-7).div_rem(&BigInt::from(-2));
        assert_eq!((q, r), (BigInt::from(3), BigInt::from(-1)));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = BigInt::one().div_rem(&BigInt::zero());
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(BigInt::from(12).gcd(&BigInt::from(18)), BigInt::from(6));
        assert_eq!(BigInt::from(-12).gcd(&BigInt::from(18)), BigInt::from(6));
        assert_eq!(BigInt::zero().gcd(&BigInt::from(5)), BigInt::from(5));
        assert_eq!(BigInt::from(4).lcm(&BigInt::from(6)), BigInt::from(12));
        assert_eq!(BigInt::from(0).lcm(&BigInt::from(6)), BigInt::zero());
        let a = bi("123456789123456789");
        let b = bi("987654321987654321");
        let g = a.gcd(&b);
        assert_eq!((&a % &g), BigInt::zero());
        assert_eq!((&b % &g), BigInt::zero());
    }

    #[test]
    fn pow() {
        assert_eq!(BigInt::from(2).pow(0), BigInt::one());
        assert_eq!(BigInt::from(2).pow(64).to_string(), "18446744073709551616");
        assert_eq!(
            BigInt::from(10).pow(30).to_string(),
            format!("1{}", "0".repeat(30))
        );
        assert_eq!(BigInt::from(-3).pow(3), BigInt::from(-27));
    }

    #[test]
    fn ordering() {
        assert!(BigInt::from(-5) < BigInt::from(-3));
        assert!(BigInt::from(-3) < BigInt::zero());
        assert!(BigInt::zero() < BigInt::from(3));
        assert!(bi("18446744073709551616") > bi("18446744073709551615"));
        assert!(bi("-18446744073709551616") < bi("-18446744073709551615"));
    }

    #[test]
    fn to_f64() {
        assert_eq!(BigInt::from(42).to_f64(), 42.0);
        assert_eq!(BigInt::from(-42).to_f64(), -42.0);
        let big = BigInt::from(2).pow(100);
        assert_eq!(big.to_f64(), 2f64.powi(100));
    }

    #[test]
    fn to_fixed_width() {
        assert_eq!(BigInt::from(42).to_i64(), Some(42));
        assert_eq!(BigInt::from(-42).to_i64(), Some(-42));
        assert_eq!(BigInt::from(i64::MIN).to_i64(), Some(i64::MIN));
        assert_eq!(bi("9223372036854775808").to_i64(), None);
        assert_eq!(bi("-9223372036854775809").to_i64(), None);
        assert_eq!(BigInt::from(u64::MAX).to_u64(), Some(u64::MAX));
        assert_eq!(BigInt::from(-1).to_u64(), None);
        assert_eq!(BigInt::from(u128::MAX).to_u128(), Some(u128::MAX));
    }

    #[test]
    fn bits() {
        assert_eq!(BigInt::zero().bits(), 0);
        assert_eq!(BigInt::one().bits(), 1);
        assert_eq!(BigInt::from(255).bits(), 8);
        assert_eq!(BigInt::from(256).bits(), 9);
        assert_eq!(BigInt::from(2).pow(100).bits(), 101);
    }

    #[test]
    fn sum_iterator() {
        let total: BigInt = (1..=100i64).map(BigInt::from).sum();
        assert_eq!(total, BigInt::from(5050));
    }
}
