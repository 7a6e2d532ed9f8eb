//! Exact rational arithmetic over checked `i128`.
//!
//! IPET computes a *maximum*; rounding the LP arithmetic down (as
//! floating-point can) would under-estimate a WCET, which is unsound. All
//! simplex pivots therefore run over exact rationals. Overflow is detected
//! and panics with a clear message rather than silently wrapping — for the
//! IPET instances this toolkit generates (coefficients are block costs and
//! loop bounds) overflow would indicate a bug, not a legitimate input.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An exact rational number `num/den` with `den > 0`, always reduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

/// Euclid on the magnitudes, so every `i128` pair has a gcd:
/// `gcd(i128::MIN, i128::MIN)` is 2^127. Only [`Rat::new`] can meet
/// that one; every other caller passes a positive denominator, whose
/// divisors all fit `i128`.
const fn gcd(a: i128, b: i128) -> u128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// [`gcd`] where `den` is a positive denominator, so the result fits.
const fn gcd_den(x: i128, den: i128) -> i128 {
    gcd(x, den) as i128
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates `num/den`, reduced. Every `i128` pair reduces; only a
    /// result whose reduced numerator or denominator does not fit
    /// `i128` is refused, e.g. `(i128::MIN, -1)` (that is +2^127) or
    /// `(1, i128::MIN)` (a denominator of 2^127).
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`, or with a `Rat construction overflowed
    /// i128` message on an unrepresentable result — in release builds
    /// too.
    #[must_use]
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den);
        let (n, d) = (num.unsigned_abs() / g, den.unsigned_abs() / g);
        let reduced = if (num < 0) == (den < 0) {
            i128::try_from(n).ok()
        } else {
            0i128.checked_sub_unsigned(n)
        };
        match (reduced, i128::try_from(d)) {
            (Some(num), Ok(den)) => Rat { num, den },
            _ => panic!("Rat construction overflowed i128: {num}/{den}"),
        }
    }

    /// Creates the integer `n`.
    #[must_use]
    pub fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// True if the value is an integer.
    #[must_use]
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// True if the value is zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Sign: -1, 0, or 1.
    #[must_use]
    pub fn signum(self) -> i128 {
        self.num.signum()
    }

    /// Largest integer `<= self`.
    #[must_use]
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `>= self`.
    #[must_use]
    pub fn ceil(self) -> i128 {
        -(-self.num).div_euclid(self.den)
    }

    /// Converts to `f64` (rounded, not exact). The speculative tier of
    /// the LP kernel pivots on these conversions, which is safe only
    /// because its every outcome is re-proven in exact arithmetic — see
    /// the certify-or-fallback argument in `crate::simplex`. Results are
    /// never derived from the converted values directly.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Exact integer value.
    ///
    /// Returns `None` if the value is not an integer.
    #[must_use]
    pub fn to_integer(self) -> Option<i128> {
        self.is_integer().then_some(self.num)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    #[must_use]
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "reciprocal of zero");
        Rat::new(self.den, self.num)
    }

    /// Absolute value.
    ///
    /// # Panics
    ///
    /// Panics if the numerator is `i128::MIN` (its magnitude is
    /// unrepresentable) — checked even in release builds, where the raw
    /// `abs` would silently wrap.
    #[must_use]
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.checked_abs().unwrap_or_else(|| {
                panic!("Rat absolute value overflowed i128: |{self}|");
            }),
            den: self.den,
        }
    }

    /// `a * b` over raw `i128` parts, panicking with a message that
    /// names the offending operation and both operands (used by the
    /// comparison path, which never forms a full `Rat`).
    fn mul_i128(a: i128, b: i128, op: &'static str) -> i128 {
        a.checked_mul(b).unwrap_or_else(|| {
            panic!("Rat {op} overflowed i128: {a} * {b}");
        })
    }

    /// The single addition entry point. Two integers take one checked
    /// `i128` addition (no gcd, no division — the IPET hot path is all
    /// integers); anything else takes the general core. `Err` names the
    /// part that overflowed — the checked entry points discard it, the
    /// panicking ones put it in the message.
    fn add_exact(self, rhs: Rat) -> Result<Rat, &'static str> {
        if self.den == 1 && rhs.den == 1 {
            return self
                .num
                .checked_add(rhs.num)
                .map(Rat::int)
                .ok_or("numerator");
        }
        self.add_general(rhs)
    }

    /// The general addition core (Knuth 4.5.1): reduce by gcd of the
    /// denominators *before* multiplying, then reduce the numerator sum
    /// against that gcd so the final products stay as small as
    /// possible.
    fn add_general(self, rhs: Rat) -> Result<Rat, &'static str> {
        let g = gcd_den(self.den, rhs.den);
        let num = self
            .num
            .checked_mul(rhs.den / g)
            .and_then(|l| l.checked_add(rhs.num.checked_mul(self.den / g)?))
            .ok_or("numerator")?;
        let g2 = gcd_den(num, g);
        let den = (self.den / g)
            .checked_mul(rhs.den / g2)
            .ok_or("denominator")?;
        Ok(Rat::new(num / g2, den))
    }

    /// The single multiplication entry point: two integers take one
    /// checked `i128` multiplication, anything else the general core.
    fn mul_exact(self, rhs: Rat) -> Result<Rat, &'static str> {
        if self.den == 1 && rhs.den == 1 {
            return self
                .num
                .checked_mul(rhs.num)
                .map(Rat::int)
                .ok_or("numerator");
        }
        self.mul_general(rhs)
    }

    /// The general multiplication core: cross-reduce before multiplying.
    fn mul_general(self, rhs: Rat) -> Result<Rat, &'static str> {
        let g1 = gcd_den(self.num, rhs.den);
        let g2 = gcd_den(rhs.num, self.den);
        let num = (self.num / g1)
            .checked_mul(rhs.num / g2)
            .ok_or("numerator")?;
        let den = (self.den / g2)
            .checked_mul(rhs.den / g1)
            .ok_or("denominator")?;
        Ok(Rat::new(num, den))
    }

    /// The general comparison core: cross-multiply after reducing by
    /// gcd(dens) — no subtraction, no re-normalization. The reduced
    /// products cannot overflow unless the operands themselves are near
    /// the i128 edge.
    fn cmp_general(&self, other: &Rat) -> Ordering {
        let g = gcd_den(self.den, other.den);
        let lhs = Rat::mul_i128(self.num, other.den / g, "comparison (lhs)");
        let rhs = Rat::mul_i128(other.num, self.den / g, "comparison (rhs)");
        lhs.cmp(&rhs)
    }

    /// Overflow-checked addition: `None` instead of a panic.
    #[must_use]
    pub fn checked_add(self, rhs: Rat) -> Option<Rat> {
        self.add_exact(rhs).ok()
    }

    /// Overflow-checked subtraction: `None` instead of a panic.
    ///
    /// Conservatively `None` when `rhs`'s numerator is `i128::MIN`
    /// (its negation is unrepresentable, so the subtraction cannot be
    /// routed through the addition core without overflowing first).
    #[must_use]
    pub fn checked_sub(self, rhs: Rat) -> Option<Rat> {
        if rhs.num == i128::MIN {
            return None;
        }
        self.add_exact(-rhs).ok()
    }

    /// Overflow-checked multiplication: `None` instead of a panic.
    #[must_use]
    pub fn checked_mul(self, rhs: Rat) -> Option<Rat> {
        self.mul_exact(rhs).ok()
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Self {
        Rat::int(i128::from(n))
    }
}

impl From<u64> for Rat {
    fn from(n: u64) -> Self {
        Rat::int(i128::from(n))
    }
}

impl From<i32> for Rat {
    fn from(n: i32) -> Self {
        Rat::int(i128::from(n))
    }
}

impl Rat {
    /// `self + rhs` with `op` naming the user-visible operation in any
    /// overflow panic ("addition" or "subtraction").
    fn add_impl(self, rhs: Rat, op: &'static str) -> Rat {
        self.add_exact(rhs).unwrap_or_else(|part| {
            panic!("Rat {op} overflowed i128 in the {part}: {self}, {rhs}");
        })
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        self.add_impl(rhs, "addition")
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self.add_impl(-rhs, "subtraction")
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl Neg for Rat {
    type Output = Rat;
    /// # Panics
    ///
    /// Panics if the numerator is `i128::MIN` — checked even in release
    /// builds, where the raw negation would silently wrap back to
    /// `i128::MIN` (a sign error, the one thing an exact solver must
    /// never produce).
    fn neg(self) -> Rat {
        Rat {
            num: self.num.checked_neg().unwrap_or_else(|| {
                panic!("Rat negation overflowed i128: -({self})");
            }),
            den: self.den,
        }
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        self.mul_exact(rhs).unwrap_or_else(|part| {
            panic!("Rat multiplication overflowed i128 in the {part}: {self} * {rhs}");
        })
    }
}

impl Div for Rat {
    type Output = Rat;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[allow(clippy::suspicious_arithmetic_impl)] // division via reciprocal
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // The hot operation of every simplex ratio test: two integers
        // compare their numerators directly.
        if self.den == 1 && other.den == 1 {
            return self.num.cmp(&other.num);
        }
        self.cmp_general(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, -7), Rat::ZERO);
    }

    #[test]
    fn arithmetic() {
        let half = Rat::new(1, 2);
        let third = Rat::new(1, 3);
        assert_eq!(half + third, Rat::new(5, 6));
        assert_eq!(half - third, Rat::new(1, 6));
        assert_eq!(half * third, Rat::new(1, 6));
        assert_eq!(half / third, Rat::new(3, 2));
        assert_eq!(-half, Rat::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::int(3) > Rat::new(5, 2));
        let mut v = vec![Rat::int(2), Rat::new(1, 2), Rat::new(-3, 4)];
        v.sort();
        assert_eq!(v, vec![Rat::new(-3, 4), Rat::new(1, 2), Rat::int(2)]);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::int(5).floor(), 5);
        assert_eq!(Rat::int(5).ceil(), 5);
    }

    #[test]
    fn integer_checks() {
        assert!(Rat::int(4).is_integer());
        assert!(!Rat::new(4, 3).is_integer());
        assert_eq!(Rat::int(4).to_integer(), Some(4));
        assert_eq!(Rat::new(4, 3).to_integer(), None);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rat::ZERO.recip();
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(3, 1).to_string(), "3");
        assert_eq!(Rat::new(-3, 7).to_string(), "-3/7");
    }

    #[test]
    fn checked_paths_report_overflow_as_none() {
        let huge = Rat::int(i128::MAX);
        assert_eq!(huge.checked_add(Rat::ONE), None);
        assert_eq!(huge.checked_mul(Rat::int(2)), None);
        assert_eq!(Rat::int(i128::MIN + 1).checked_sub(Rat::int(2)), None);
        // Non-overflowing inputs round-trip through the checked paths.
        assert_eq!(
            Rat::new(1, 2).checked_add(Rat::new(1, 3)),
            Some(Rat::new(5, 6))
        );
        assert_eq!(
            Rat::new(2, 3).checked_mul(Rat::new(3, 4)),
            Some(Rat::new(1, 2))
        );
    }

    #[test]
    #[should_panic(expected = "Rat multiplication overflowed i128 in the numerator")]
    fn overflow_panic_names_the_operation() {
        let huge = Rat::int(i128::MAX);
        let _ = huge * huge;
    }

    #[test]
    #[should_panic(expected = "Rat negation overflowed i128")]
    fn neg_of_minimum_panics_instead_of_wrapping() {
        let _ = -Rat::int(i128::MIN);
    }

    #[test]
    #[should_panic(expected = "Rat construction overflowed i128")]
    fn minimum_over_minus_one_is_refused() {
        let _ = Rat::new(i128::MIN, -1); // +2^127
    }

    #[test]
    #[should_panic(expected = "Rat construction overflowed i128")]
    fn minimum_denominator_is_refused() {
        let _ = Rat::new(1, i128::MIN); // a denominator of 2^127
    }

    #[test]
    fn minimum_operands_reduce() {
        assert_eq!(Rat::new(i128::MIN, 2), Rat::int(-(1 << 126)));
        assert_eq!(Rat::new(i128::MIN, i128::MIN), Rat::ONE);
        assert_eq!(Rat::new(i128::MIN, 1), Rat::int(i128::MIN));
        assert_eq!(Rat::new(0, i128::MIN), Rat::ZERO);
        assert_eq!(Rat::new(2, i128::MIN), Rat::new(-1, 1 << 126));
    }

    #[test]
    fn checked_sub_handles_unnegatable_minimum() {
        // -i128::MIN is unrepresentable: the checked path must return
        // None (not panic in the internal negation).
        assert_eq!(Rat::ZERO.checked_sub(Rat::int(i128::MIN)), None);
        assert_eq!(Rat::int(i128::MIN).checked_sub(Rat::int(i128::MIN)), None);
    }

    #[test]
    fn comparison_survives_extreme_magnitudes() {
        // Subtraction-based cmp would overflow computing MAX - MIN; the
        // cross-multiplied compare never forms the difference.
        let lo = Rat::int(i128::MIN + 1);
        let hi = Rat::int(i128::MAX);
        assert!(lo < hi);
        assert!(hi > lo);
        assert_eq!(hi.cmp(&hi), Ordering::Equal);
    }

    /// One differential operand: `kind` 0 is a random `i64` integer, 1
    /// and 2 integers within `k` of `±i128::MAX`, 3 a fraction with a
    /// denominator in `2..=1001` (the general core on either side).
    fn operand(kind: u8, a: i64, k: u64) -> Rat {
        match kind {
            0 => Rat::int(i128::from(a)),
            1 => Rat::int(i128::MAX - i128::from(k)),
            2 => Rat::int(-i128::MAX + i128::from(k)),
            _ => Rat::new(i128::from(a), 2 + i128::from(k % 1000)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// The integer fast path agrees with the general (Knuth) cores on
        /// every operation, overflow (`Err("numerator")`, `None`)
        /// included.
        #[test]
        fn integer_fast_path_matches_the_general_core(
            (ka, a, ja) in (0u8..=3, i64::MIN..=i64::MAX, 0u64..=1 << 20),
            (kb, b, jb) in (0u8..=3, i64::MIN..=i64::MAX, 0u64..=1 << 20),
        ) {
            let (x, y) = (operand(ka, a, ja), operand(kb, b, jb));

            let sum = x.add_general(y);
            proptest::prop_assert_eq!(x.add_exact(y), sum);
            proptest::prop_assert_eq!(x.checked_add(y), sum.ok());
            if let Ok(s) = sum {
                proptest::prop_assert_eq!(x + y, s);
            }

            let diff = x.add_general(-y);
            proptest::prop_assert_eq!(x.add_exact(-y), diff);
            proptest::prop_assert_eq!(x.checked_sub(y), diff.ok());
            if let Ok(d) = diff {
                proptest::prop_assert_eq!(x - y, d);
            }

            let product = x.mul_general(y);
            proptest::prop_assert_eq!(x.mul_exact(y), product);
            proptest::prop_assert_eq!(x.checked_mul(y), product.ok());
            if let Ok(p) = product {
                proptest::prop_assert_eq!(x * y, p);
            }

            // The general comparison panics when a cross product
            // overflows (an edge integer against a fraction); both sides
            // take that core there, so compare only where it answers.
            if x.num.checked_mul(y.den).is_some() && y.num.checked_mul(x.den).is_some() {
                proptest::prop_assert_eq!(x.cmp(&y), x.cmp_general(&y));
                proptest::prop_assert_eq!(y.cmp(&x), y.cmp_general(&x));
            }
        }
    }

    #[test]
    fn cross_reduction_avoids_overflow() {
        // (2^100/3) * (3/2^100) = 1 — would overflow without cross-reduction.
        let big = Rat::new(1 << 100, 3);
        let small = Rat::new(3, 1 << 100);
        assert_eq!(big * small, Rat::ONE);
    }
}
