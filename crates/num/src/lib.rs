//! # ss-num — exact arithmetic for steady-state scheduling
//!
//! Arbitrary-precision signed integers ([`BigInt`]) and exact rationals
//! ([`Ratio`]) used throughout the steady-state scheduling stack.
//!
//! Exactness is not a luxury here: the schedule-reconstruction step of
//! Beaumont et al. (§4.1) *defines* the period of the steady-state schedule
//! as the least common multiple of the denominators of the linear-program
//! solution. A floating-point LP solution has no denominators, so the whole
//! pipeline — LP solving, period extraction, integer message counts per
//! period — runs over [`Ratio`].
//!
//! The LPs derived from platform graphs are small and their rational
//! coefficients stay short after gcd reduction: every platform parameter,
//! simplex pivot and LP solution of the benchmark workloads fits in a few
//! bits. So a [`BigInt`] has two tiers. A value that fits in an `i64` is
//! held inline, with no heap buffer; only a value outside that range
//! spills to a sign plus little-endian `u64` limbs. The form is canonical
//! (a value spills exactly when it does not fit in an `i64`), so equality
//! and hashing stay structural.
//!
//! Arithmetic on two inline values runs in `i64`/`i128` and spills only
//! when the result overflows. A [`Ratio`] whose operands' numerators and
//! denominators are all inline adds, subtracts, multiplies and compares in
//! `i128` with `u64` gcd reductions and no allocation. Everything else
//! takes the one set of limb routines (schoolbook multiplication, Knuth
//! algorithm D division), which allocate their results; asymptotically
//! fancy algorithms would be wasted complexity at these sizes.
//!
//! ```
//! use ss_num::{BigInt, Ratio};
//!
//! let a = Ratio::new(1, 3);
//! let b = Ratio::new(1, 6);
//! assert_eq!(a + b, Ratio::new(1, 2));
//!
//! // Period extraction: lcm of denominators.
//! let activities = [Ratio::new(2, 3), Ratio::new(3, 4), Ratio::new(1, 6)];
//! let period = Ratio::lcm_of_denominators(activities.iter());
//! assert_eq!(period, BigInt::from(12));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bigint;
mod ratio;
mod serde_impls;

pub use bigint::{BigInt, ParseBigIntError, Sign};
pub use ratio::{rat, ParseRatioError, Ratio};

/// Greatest common divisor of two `u64`s (binary GCD).
///
/// `gcd64(0, 0) == 0` by convention.
#[inline]
pub fn gcd64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Least common multiple of two `u64`s; panics on overflow.
#[inline]
pub fn lcm64(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    a / gcd64(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd64_basics() {
        assert_eq!(gcd64(0, 0), 0);
        assert_eq!(gcd64(0, 7), 7);
        assert_eq!(gcd64(7, 0), 7);
        assert_eq!(gcd64(12, 18), 6);
        assert_eq!(gcd64(17, 13), 1);
        assert_eq!(gcd64(u64::MAX, u64::MAX), u64::MAX);
    }

    #[test]
    fn lcm64_basics() {
        assert_eq!(lcm64(0, 5), 0);
        assert_eq!(lcm64(4, 6), 12);
        assert_eq!(lcm64(7, 13), 91);
    }
}
