//! Exact rational numbers with [`BigInt`] numerator and denominator.
//!
//! When the numerators and denominators of all operands are held inline
//! (each fits in an `i64`), `add`/`sub`/`mul`/`cmp`/`from_bigints`/`to_f64`
//! compute in `i128` and reduce with `u64` gcds: no allocation. The result
//! is demoted to the inline form when it fits, so a chain of small values
//! stays small. Every other case runs the two-[`BigInt`] path.

use crate::bigint::{BigInt, Sign};
use crate::gcd64;
use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use core::str::FromStr;

/// An exact rational number.
///
/// Invariants: the denominator is strictly positive and
/// `gcd(|numerator|, denominator) == 1`; zero is represented as `0/1`.
///
/// ```
/// use ss_num::Ratio;
/// let half = Ratio::new(1, 2);
/// let third = Ratio::new(1, 3);
/// assert_eq!(&half - &third, Ratio::new(1, 6));
/// assert_eq!((&half * &third).to_string(), "1/6");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: BigInt,
    den: BigInt, // > 0
}

impl Ratio {
    /// Zero (`0/1`).
    #[inline]
    pub fn zero() -> Ratio {
        Ratio {
            num: BigInt::zero(),
            den: BigInt::one(),
        }
    }

    /// One (`1/1`).
    #[inline]
    pub fn one() -> Ratio {
        Ratio {
            num: BigInt::one(),
            den: BigInt::one(),
        }
    }

    /// Build `n/d` from machine integers.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    #[inline]
    pub fn new(n: i64, d: i64) -> Ratio {
        Ratio::from_bigints(BigInt::from(n), BigInt::from(d))
    }

    /// Build `n/d` from big integers, normalizing sign and reducing.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub fn from_bigints(n: BigInt, d: BigInt) -> Ratio {
        assert!(!d.is_zero(), "Ratio with zero denominator");
        if let (Some(n), Some(d)) = (n.to_i64(), d.to_i64()) {
            let g = gcd64(n.unsigned_abs(), d.unsigned_abs()) as i128;
            let s = d.signum() as i128;
            return Ratio::from_reduced(s * n as i128 / g, s * d as i128 / g);
        }
        Ratio::from_bigints_big(n, d)
    }

    fn from_bigints_big(n: BigInt, d: BigInt) -> Ratio {
        if n.is_zero() {
            return Ratio::zero();
        }
        let (mut n, mut d) = if d.is_negative() { (-n, -d) } else { (n, d) };
        let g = n.gcd(&d);
        if !g.is_one() {
            n = &n / &g;
            d = &d / &g;
        }
        Ratio { num: n, den: d }
    }

    /// `n/d`, already in lowest terms with `d > 0`.
    #[inline]
    fn from_reduced(n: i128, d: i128) -> Ratio {
        debug_assert!(d > 0);
        Ratio {
            num: BigInt::from(n),
            den: BigInt::from(d),
        }
    }

    /// Numerator and denominator, if both are held inline.
    #[inline]
    fn small(&self) -> Option<(i64, i64)> {
        Some((self.num.to_i64()?, self.den.to_i64()?))
    }

    /// `a/b + c/d` for canonical operands held inline (`c` is `i128` so a
    /// subtraction can pass `-c`). Knuth's form (TAOCP 4.5.1): with
    /// `g = gcd(b, d)` and `t = a·(d/g) + c·(b/g)`, the only factor `t`
    /// can share with the denominator `b·d/g` is `gcd(t, g)`. Every
    /// product fits in `i128`: `|t| < 2^127`.
    fn add_small(a: i64, b: i64, c: i128, d: i64) -> Ratio {
        let g = gcd64(b as u64, d as u64);
        let (bg, dg) = ((b as u64 / g) as i128, (d as u64 / g) as i128);
        let t = a as i128 * dg + c * bg;
        if t == 0 {
            return Ratio::zero();
        }
        let g2 = if g == 1 {
            1
        } else {
            gcd64((t.unsigned_abs() % g as u128) as u64, g) as i128
        };
        Ratio::from_reduced(t / g2, bg * (d as i128 / g2))
    }

    /// `self + (±rhs)` on the two-[`BigInt`] path.
    fn add_big(&self, rhs: &Ratio, negate_rhs: bool) -> Ratio {
        // n1/d1 + n2/d2 with a gcd(d1,d2) shortcut to limit growth.
        let g = self.den.gcd(&rhs.den);
        let d1g = &self.den / &g;
        let d2g = &rhs.den / &g;
        let n2 = &rhs.num * &d1g;
        let n1 = &self.num * &d2g;
        let num = if negate_rhs { n1 - n2 } else { n1 + n2 };
        let den = &self.den * &d2g;
        Ratio::from_bigints(num, den)
    }

    fn mul_big(&self, rhs: &Ratio) -> Ratio {
        // Cross-reduce before multiplying to keep magnitudes small.
        let g1 = self.num.gcd(&rhs.den);
        let g2 = rhs.num.gcd(&self.den);
        let num = (&self.num / &g1) * (&rhs.num / &g2);
        let den = (&self.den / &g2) * (&rhs.den / &g1);
        // num/den is already reduced; fix the sign convention directly.
        if den.is_negative() {
            Ratio {
                num: -num,
                den: -den,
            }
        } else {
            Ratio { num, den }
        }
    }

    /// Build from an integer.
    #[inline]
    pub fn from_int(n: i64) -> Ratio {
        Ratio {
            num: BigInt::from(n),
            den: BigInt::one(),
        }
    }

    /// Numerator (sign-carrying, coprime with the denominator).
    #[inline]
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (always strictly positive).
    #[inline]
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// `true` iff this is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// `true` iff this is one.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.num.is_one() && self.den.is_one()
    }

    /// `true` iff strictly negative.
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// `true` iff strictly positive.
    #[inline]
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// `true` iff the value is an integer (denominator 1).
    #[inline]
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// Sign as a [`Sign`].
    #[inline]
    pub fn sign(&self) -> Sign {
        self.num.sign()
    }

    /// Absolute value.
    pub fn abs(&self) -> Ratio {
        Ratio {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if `self` is zero.
    pub fn recip(&self) -> Ratio {
        assert!(!self.is_zero(), "reciprocal of zero");
        if self.num.is_negative() {
            Ratio {
                num: -self.den.clone(),
                den: -self.num.clone(),
            }
        } else {
            Ratio {
                num: self.den.clone(),
                den: self.num.clone(),
            }
        }
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_negative() {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_positive() {
            q + BigInt::one()
        } else {
            q
        }
    }

    /// Convert to `f64` (nearest representable; may lose precision).
    pub fn to_f64(&self) -> f64 {
        if let Some((n, d)) = self.small() {
            return n as f64 / d as f64;
        }
        let nb = self.num.bits();
        let db = self.den.bits();
        if nb < 900 && db < 900 {
            return self.num.to_f64() / self.den.to_f64();
        }
        // Either side alone may leave f64's range: bring each to its top
        // 64 bits with its own shift, divide, and rescale by the difference.
        let sn = nb.saturating_sub(64);
        let sd = db.saturating_sub(64);
        let q = self.num.shr_mag(sn).to_f64() / self.den.shr_mag(sd).to_f64();
        mul_pow2(q, sn as i64 - sd as i64)
    }

    /// Exact power with integer exponent (negative exponents invert).
    ///
    /// # Panics
    /// Panics on `0.pow(negative)`.
    pub fn pow(&self, exp: i32) -> Ratio {
        if exp >= 0 {
            Ratio {
                num: self.num.pow(exp as u32),
                den: self.den.pow(exp as u32),
            }
        } else {
            self.recip().pow(-exp)
        }
    }

    /// Minimum of two rationals by value.
    pub fn min(self, other: Ratio) -> Ratio {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals by value.
    pub fn max(self, other: Ratio) -> Ratio {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Least common multiple of the denominators of a sequence of rationals.
    ///
    /// This is the period-extraction primitive of §4.1: given the rational
    /// activity variables of the steady-state LP solution, the schedule
    /// period is `lcm` of their denominators, making every per-period
    /// quantity an exact integer. Returns `1` for an empty sequence.
    pub fn lcm_of_denominators<'a, I: IntoIterator<Item = &'a Ratio>>(iter: I) -> BigInt {
        let mut acc = BigInt::one();
        for r in iter {
            acc = acc.lcm(&r.den);
        }
        acc
    }

    /// Approximate a float by a rational with denominator at most `max_den`
    /// (continued-fraction / Stern-Brocot expansion).
    ///
    /// Used to import measured (floating-point) platform parameters into the
    /// exact pipeline. Panics if `x` is not finite.
    pub fn approximate_f64(x: f64, max_den: u64) -> Ratio {
        assert!(x.is_finite(), "cannot approximate a non-finite float");
        assert!(max_den >= 1);
        let neg = x < 0.0;
        let mut x = x.abs();
        // Continued fraction convergents p/q.
        let (mut p0, mut q0, mut p1, mut q1) = (0u128, 1u128, 1u128, 0u128);
        for _ in 0..64 {
            let a = x.floor();
            if a >= u64::MAX as f64 {
                break;
            }
            let a_u = a as u128;
            let p2 = a_u.saturating_mul(p1).saturating_add(p0);
            let q2 = a_u.saturating_mul(q1).saturating_add(q0);
            if q2 > max_den as u128 {
                break;
            }
            p0 = p1;
            q0 = q1;
            p1 = p2;
            q1 = q2;
            let frac = x - a;
            if frac < 1e-12 {
                break;
            }
            x = 1.0 / frac;
        }
        if q1 == 0 {
            // x larger than u64 range: fall back to the floor.
            return Ratio::from_bigints(BigInt::from(x as u128), BigInt::one());
        }
        let r = Ratio::from_bigints(BigInt::from(p1), BigInt::from(q1));
        if neg {
            -r
        } else {
            r
        }
    }
}

impl Default for Ratio {
    #[inline]
    fn default() -> Ratio {
        Ratio::zero()
    }
}

impl From<i64> for Ratio {
    #[inline]
    fn from(n: i64) -> Ratio {
        Ratio::from_int(n)
    }
}

impl From<u64> for Ratio {
    #[inline]
    fn from(n: u64) -> Ratio {
        Ratio {
            num: BigInt::from(n),
            den: BigInt::one(),
        }
    }
}

impl From<i32> for Ratio {
    #[inline]
    fn from(n: i32) -> Ratio {
        Ratio::from_int(n as i64)
    }
}

impl From<u32> for Ratio {
    #[inline]
    fn from(n: u32) -> Ratio {
        Ratio {
            num: BigInt::from(n),
            den: BigInt::one(),
        }
    }
}

impl From<usize> for Ratio {
    #[inline]
    fn from(n: usize) -> Ratio {
        Ratio {
            num: BigInt::from(n),
            den: BigInt::one(),
        }
    }
}

impl From<BigInt> for Ratio {
    #[inline]
    fn from(n: BigInt) -> Ratio {
        Ratio {
            num: n,
            den: BigInt::one(),
        }
    }
}

// ---------------------------------------------------------------------------
// Arithmetic.
// ---------------------------------------------------------------------------

impl Add for &Ratio {
    type Output = Ratio;
    fn add(self, rhs: &Ratio) -> Ratio {
        match (self.small(), rhs.small()) {
            (Some((a, b)), Some((c, d))) => Ratio::add_small(a, b, c as i128, d),
            _ => self.add_big(rhs, false),
        }
    }
}

impl Sub for &Ratio {
    type Output = Ratio;
    fn sub(self, rhs: &Ratio) -> Ratio {
        match (self.small(), rhs.small()) {
            (Some((a, b)), Some((c, d))) => Ratio::add_small(a, b, -(c as i128), d),
            _ => self.add_big(rhs, true),
        }
    }
}

impl Mul for &Ratio {
    type Output = Ratio;
    fn mul(self, rhs: &Ratio) -> Ratio {
        if self.is_zero() || rhs.is_zero() {
            return Ratio::zero();
        }
        match (self.small(), rhs.small()) {
            (Some((a, b)), Some((c, d))) => {
                let g1 = gcd64(a.unsigned_abs(), d as u64) as i128;
                let g2 = gcd64(c.unsigned_abs(), b as u64) as i128;
                Ratio::from_reduced(
                    (a as i128 / g1) * (c as i128 / g2),
                    (b as i128 / g2) * (d as i128 / g1),
                )
            }
            _ => self.mul_big(rhs),
        }
    }
}

impl Div for &Ratio {
    type Output = Ratio;
    #[inline]
    fn div(self, rhs: &Ratio) -> Ratio {
        assert!(!rhs.is_zero(), "division by zero Ratio");
        self * &rhs.recip()
    }
}

impl Neg for &Ratio {
    type Output = Ratio;
    #[inline]
    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num.clone(),
            den: self.den.clone(),
        }
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    #[inline]
    fn neg(mut self) -> Ratio {
        self.num = -self.num;
        self
    }
}

macro_rules! forward_owned_binop_ratio {
    ($($op:ident :: $f:ident),*) => {$(
        impl $op for Ratio {
            type Output = Ratio;
            #[inline]
            fn $f(self, rhs: Ratio) -> Ratio { (&self).$f(&rhs) }
        }
        impl $op<&Ratio> for Ratio {
            type Output = Ratio;
            #[inline]
            fn $f(self, rhs: &Ratio) -> Ratio { (&self).$f(rhs) }
        }
        impl $op<Ratio> for &Ratio {
            type Output = Ratio;
            #[inline]
            fn $f(self, rhs: Ratio) -> Ratio { self.$f(&rhs) }
        }
    )*};
}
forward_owned_binop_ratio!(Add::add, Sub::sub, Mul::mul, Div::div);

impl AddAssign<&Ratio> for Ratio {
    #[inline]
    fn add_assign(&mut self, rhs: &Ratio) {
        *self = &*self + rhs;
    }
}

impl AddAssign for Ratio {
    #[inline]
    fn add_assign(&mut self, rhs: Ratio) {
        *self = &*self + &rhs;
    }
}

impl SubAssign<&Ratio> for Ratio {
    #[inline]
    fn sub_assign(&mut self, rhs: &Ratio) {
        *self = &*self - rhs;
    }
}

impl SubAssign for Ratio {
    #[inline]
    fn sub_assign(&mut self, rhs: Ratio) {
        *self = &*self - &rhs;
    }
}

impl MulAssign<&Ratio> for Ratio {
    #[inline]
    fn mul_assign(&mut self, rhs: &Ratio) {
        *self = &*self * rhs;
    }
}

impl MulAssign for Ratio {
    #[inline]
    fn mul_assign(&mut self, rhs: Ratio) {
        *self = &*self * &rhs;
    }
}

impl DivAssign<&Ratio> for Ratio {
    #[inline]
    fn div_assign(&mut self, rhs: &Ratio) {
        *self = &*self / rhs;
    }
}

impl DivAssign for Ratio {
    #[inline]
    fn div_assign(&mut self, rhs: Ratio) {
        *self = &*self / &rhs;
    }
}

impl std::iter::Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::zero(), |a, b| a + b)
    }
}

impl<'a> std::iter::Sum<&'a Ratio> for Ratio {
    fn sum<I: Iterator<Item = &'a Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::zero(), |a, b| &a + b)
    }
}

// ---------------------------------------------------------------------------
// Ordering.
// ---------------------------------------------------------------------------

impl PartialOrd for Ratio {
    #[inline]
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // Fast path on signs.
        match (self.sign(), other.sign()) {
            (a, b) if a != b => return a.cmp(&b),
            (Sign::Zero, Sign::Zero) => return Ordering::Equal,
            _ => {}
        }
        // Cross-multiply: n1*d2 <=> n2*d1 (denominators positive).
        if let (Some((a, b)), Some((c, d))) = (self.small(), other.small()) {
            return (a as i128 * d as i128).cmp(&(c as i128 * b as i128));
        }
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

// ---------------------------------------------------------------------------
// Formatting and parsing.
// ---------------------------------------------------------------------------

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ratio({self})")
    }
}

/// Error returned when parsing a [`Ratio`] from a malformed string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseRatioError;

impl fmt::Display for ParseRatioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid rational literal (expected `n`, `n/d`, or a decimal)")
    }
}

impl std::error::Error for ParseRatioError {}

impl FromStr for Ratio {
    type Err = ParseRatioError;

    /// Accepts `"3"`, `"-3/4"`, and decimal notation `"1.25"`.
    fn from_str(s: &str) -> Result<Ratio, ParseRatioError> {
        if let Some((n, d)) = s.split_once('/') {
            let n: BigInt = n.trim().parse().map_err(|_| ParseRatioError)?;
            let d: BigInt = d.trim().parse().map_err(|_| ParseRatioError)?;
            if d.is_zero() {
                return Err(ParseRatioError);
            }
            return Ok(Ratio::from_bigints(n, d));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let neg = int_part.trim_start().starts_with('-');
            let i: BigInt = if int_part.is_empty() || int_part == "-" {
                BigInt::zero()
            } else {
                int_part.parse().map_err(|_| ParseRatioError)?
            };
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseRatioError);
            }
            let f: BigInt = frac_part.parse().map_err(|_| ParseRatioError)?;
            let scale = BigInt::from(10).pow(frac_part.len() as u32);
            let frac = Ratio::from_bigints(f, scale);
            let int = Ratio::from(i);
            return Ok(if neg { int - frac } else { int + frac });
        }
        let n: BigInt = s.trim().parse().map_err(|_| ParseRatioError)?;
        Ok(Ratio::from(n))
    }
}

/// `x · 2^e`, in steps that stay inside `f64`'s exponent range.
fn mul_pow2(mut x: f64, mut e: i64) -> f64 {
    const STEP: i32 = 1000;
    while e > STEP as i64 && x.is_finite() {
        x *= 2f64.powi(STEP);
        e -= STEP as i64;
    }
    while e < -(STEP as i64) && x != 0.0 {
        x *= 2f64.powi(-STEP);
        e += STEP as i64;
    }
    x * 2f64.powi(e.clamp(-2 * STEP as i64, 2 * STEP as i64) as i32)
}

/// Convenience constructor: `rat(3, 4)` is `3/4`.
#[inline]
pub fn rat(n: i64, d: i64) -> Ratio {
    Ratio::new(n, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::tests::{canonical, Edge};
    use proptest::prelude::*;

    fn big(x: i128) -> BigInt {
        BigInt::from(x)
    }

    /// Lowest terms, positive denominator, canonical integers.
    fn canonical_ratio(r: &Ratio) -> bool {
        canonical(r.numer())
            && canonical(r.denom())
            && r.denom().is_positive()
            && (r.numer().gcd(r.denom()).is_one() || r.is_zero() && r.denom().is_one())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every `i128` fast path agrees with the two-`BigInt` path on the
        /// same operands, including where the result spills out of `i64`.
        #[test]
        fn fast_paths_match_bigint_path(an in Edge, ad in Edge, bn in Edge, bd in Edge) {
            prop_assume!(ad != 0 && bd != 0);
            let x = Ratio::from_bigints(big(an), big(ad));
            let y = Ratio::from_bigints(big(bn), big(bd));
            prop_assert_eq!(&x, &Ratio::from_bigints_big(big(an), big(ad)));
            prop_assert_eq!(&y, &Ratio::from_bigints_big(big(bn), big(bd)));
            let (sum, diff, prod) = (&x + &y, &x - &y, &x * &y);
            prop_assert_eq!(&sum, &x.add_big(&y, false));
            prop_assert_eq!(&diff, &x.add_big(&y, true));
            if !x.is_zero() && !y.is_zero() {
                prop_assert_eq!(&prod, &x.mul_big(&y));
            }
            prop_assert_eq!(x.cmp(&y), (x.numer() * y.denom()).cmp(&(y.numer() * x.denom())));
            prop_assert_eq!(x.to_f64(), x.numer().to_f64() / x.denom().to_f64());
            for r in [&x, &y, &sum, &diff, &prod] {
                prop_assert!(canonical_ratio(r), "not canonical: {:?}", r);
            }
        }

        /// `to_f64` is exact up to the final rounding wherever the
        /// answer is a normal `f64`, however far apart the two sides' sizes.
        #[test]
        fn to_f64_scales_by_powers_of_two(n in 1i64..(1 << 53), d in 1i64..(1 << 53), k in 0u32..1000) {
            let want = (n as f64 / d as f64) * 2f64.powi(k as i32);
            prop_assume!(want.is_finite() && want.is_normal());
            let r = Ratio::from_bigints(&BigInt::from(n) * &BigInt::from(2).pow(k), BigInt::from(d));
            prop_assert_eq!(r.to_f64(), want);
        }
    }

    #[test]
    fn to_f64_when_one_side_is_huge() {
        let two = BigInt::from(2);
        let r = Ratio::from_bigints(two.pow(950) + BigInt::one(), BigInt::from(3));
        assert!((r.to_f64() / 3.17e285 - 1.0).abs() < 1e-3, "{}", r.to_f64());
        assert_eq!(Ratio::from(two.pow(1000)).to_f64(), 2f64.powi(1000));
        let r = Ratio::from_bigints(BigInt::from(3), two.pow(1000));
        assert_eq!(r.to_f64(), 3.0 * 2f64.powi(-1000));
        assert!((r.to_f64() / 2.80e-301 - 1.0).abs() < 1e-3);
    }

    #[test]
    fn stays_within_64_bytes() {
        assert!(core::mem::size_of::<Ratio>() <= 64);
    }

    #[test]
    fn construction_normalizes() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, -4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(2, -4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(0, 5), Ratio::zero());
        assert!(Ratio::new(0, -7).denom().is_one());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Ratio::new(1, 2) + Ratio::new(1, 3), Ratio::new(5, 6));
        assert_eq!(Ratio::new(1, 2) - Ratio::new(1, 3), Ratio::new(1, 6));
        assert_eq!(Ratio::new(2, 3) * Ratio::new(3, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(1, 2) / Ratio::new(1, 4), Ratio::new(2, 1));
        assert_eq!(-Ratio::new(1, 2), Ratio::new(-1, 2));
    }

    #[test]
    fn assign_ops() {
        let mut x = Ratio::new(1, 2);
        x += Ratio::new(1, 6);
        assert_eq!(x, Ratio::new(2, 3));
        x *= Ratio::new(3, 2);
        assert_eq!(x, Ratio::one());
        x -= Ratio::new(1, 4);
        assert_eq!(x, Ratio::new(3, 4));
        x /= Ratio::new(3, 1);
        assert_eq!(x, Ratio::new(1, 4));
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::new(-1, 3));
        assert!(Ratio::new(-1, 2) < Ratio::zero());
        assert!(Ratio::new(7, 3) > Ratio::new(2, 1));
        assert_eq!(Ratio::new(2, 6).cmp(&Ratio::new(1, 3)), Ordering::Equal);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Ratio::new(7, 2).floor(), BigInt::from(3));
        assert_eq!(Ratio::new(7, 2).ceil(), BigInt::from(4));
        assert_eq!(Ratio::new(-7, 2).floor(), BigInt::from(-4));
        assert_eq!(Ratio::new(-7, 2).ceil(), BigInt::from(-3));
        assert_eq!(Ratio::from(5i64).floor(), BigInt::from(5));
        assert_eq!(Ratio::from(5i64).ceil(), BigInt::from(5));
    }

    #[test]
    fn recip_pow() {
        assert_eq!(Ratio::new(3, 4).recip(), Ratio::new(4, 3));
        assert_eq!(Ratio::new(-3, 4).recip(), Ratio::new(-4, 3));
        assert_eq!(Ratio::new(2, 3).pow(3), Ratio::new(8, 27));
        assert_eq!(Ratio::new(2, 3).pow(-2), Ratio::new(9, 4));
        assert_eq!(Ratio::new(5, 7).pow(0), Ratio::one());
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in ["0", "5", "-5", "1/3", "-7/11", "123456789123456789/2"] {
            let r: Ratio = s.parse().unwrap();
            assert_eq!(r.to_string(), s);
        }
        assert_eq!("1.25".parse::<Ratio>().unwrap(), Ratio::new(5, 4));
        assert_eq!("-0.5".parse::<Ratio>().unwrap(), Ratio::new(-1, 2));
        assert_eq!("2/4".parse::<Ratio>().unwrap().to_string(), "1/2");
        assert!("1/0".parse::<Ratio>().is_err());
        assert!("a/b".parse::<Ratio>().is_err());
        assert!("1.".parse::<Ratio>().is_err());
    }

    #[test]
    fn to_f64() {
        assert_eq!(Ratio::new(1, 2).to_f64(), 0.5);
        assert_eq!(Ratio::new(-3, 4).to_f64(), -0.75);
        let tiny = Ratio::from_bigints(BigInt::one(), BigInt::from(2).pow(1200));
        assert!(tiny.to_f64() >= 0.0);
        let big = Ratio::from_bigints(BigInt::from(2).pow(1200), BigInt::from(2).pow(1199));
        assert!((big.to_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lcm_of_denominators() {
        let rs = [Ratio::new(1, 4), Ratio::new(5, 6), Ratio::new(3, 1)];
        assert_eq!(Ratio::lcm_of_denominators(rs.iter()), BigInt::from(12));
        let empty: [Ratio; 0] = [];
        assert_eq!(Ratio::lcm_of_denominators(empty.iter()), BigInt::one());
    }

    #[test]
    fn approximate_f64() {
        assert_eq!(Ratio::approximate_f64(0.5, 100), Ratio::new(1, 2));
        assert_eq!(Ratio::approximate_f64(-0.25, 100), Ratio::new(-1, 4));
        assert_eq!(Ratio::approximate_f64(3.0, 100), Ratio::from_int(3));
        let pi = Ratio::approximate_f64(std::f64::consts::PI, 200);
        // Best rational approximation to pi with denominator <= 200 is 355/113.
        assert_eq!(pi, Ratio::new(355, 113));
        let x = 0.123456789;
        let r = Ratio::approximate_f64(x, 1_000_000_000);
        assert!((r.to_f64() - x).abs() < 1e-9);
    }

    #[test]
    fn min_max_sum() {
        assert_eq!(Ratio::new(1, 2).min(Ratio::new(1, 3)), Ratio::new(1, 3));
        assert_eq!(Ratio::new(1, 2).max(Ratio::new(1, 3)), Ratio::new(1, 2));
        let s: Ratio = [Ratio::new(1, 2), Ratio::new(1, 3), Ratio::new(1, 6)]
            .into_iter()
            .sum();
        assert_eq!(s, Ratio::one());
        let s2: Ratio = [Ratio::new(1, 2), Ratio::new(1, 2)].iter().sum();
        assert_eq!(s2, Ratio::one());
    }
}
