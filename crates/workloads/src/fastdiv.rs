//! Division by a precomputed invariant divisor.
//!
//! The trace generator reduces every micro-op position modulo half a
//! dozen profile constants (block length, code footprint, working-set
//! sizes, phase cycle). Hardware 64-bit division costs tens of cycles;
//! multiplying by a precomputed reciprocal costs two. [`FastDiv`]
//! packages the standard magic-number trick in a form that is *exact
//! for every dividend and every non-zero divisor* — the quotient
//! estimate from the truncated reciprocal is at most one too small,
//! and a single conditional fix-up closes the gap — so replacing `/`
//! and `%` with it cannot perturb the bit-deterministic trace streams.

/// A precomputed reciprocal for exact division by a fixed divisor.
///
/// # Examples
///
/// ```
/// use soe_workloads::fastdiv::FastDiv;
///
/// let d = FastDiv::new(7);
/// assert_eq!(d.div_rem(23), (3, 2));
/// assert_eq!(d.rem(u64::MAX), u64::MAX % 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastDiv {
    divisor: u64,
    /// `⌊(2^64 − 1) / divisor⌋`. Writing `2^64 = m·d + e` gives an
    /// error term `n·e / 2^64 < d` for every `n`, so the high half of
    /// `n · m` underestimates `n / d` by at most one.
    magic: u64,
}

impl FastDiv {
    /// Prepares division by `divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor == 0`.
    pub fn new(divisor: u64) -> Self {
        assert!(divisor > 0, "division by zero");
        Self {
            divisor,
            magic: u64::MAX / divisor,
        }
    }

    /// Exact `(n / d, n % d)`.
    #[inline]
    pub fn div_rem(self, n: u64) -> (u64, u64) {
        let mut q = (((n as u128) * (self.magic as u128)) >> 64) as u64;
        let mut r = n - q.wrapping_mul(self.divisor);
        if r >= self.divisor {
            q += 1;
            r -= self.divisor;
        }
        debug_assert_eq!((q, r), (n / self.divisor, n % self.divisor));
        (q, r)
    }

    /// Exact `n % d`.
    ///
    /// Not `std::ops::Rem`: `self` is the *divisor* wrapper and `n` the
    /// dividend, the reverse of the trait's operand order.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, n: u64) -> u64 {
        self.div_rem(n).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_hardware_division_on_edge_cases() {
        let divisors = [
            1,
            2,
            3,
            5,
            7,
            16,
            63,
            64,
            65,
            1000,
            4096,
            123_456_789,
            u64::MAX - 1,
            u64::MAX,
        ];
        let dividends = [
            0,
            1,
            2,
            62,
            63,
            64,
            65,
            1000,
            123_456_789,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for d in divisors {
            let f = FastDiv::new(d);
            for n in dividends {
                assert_eq!(f.div_rem(n), (n / d, n % d), "n={n} d={d}");
            }
        }
    }

    #[test]
    fn matches_hardware_division_exhaustively_around_multiples() {
        // The fix-up fires exactly when the estimate is one short, which
        // happens near multiples of the divisor — sweep those densely.
        for d in [3u64, 10, 77, 1 << 20, (1 << 40) + 1] {
            let f = FastDiv::new(d);
            for k in 0..200u64 {
                for delta in 0..3 {
                    let n = k.wrapping_mul(d).wrapping_add(delta);
                    assert_eq!(f.div_rem(n), (n / d, n % d), "n={n} d={d}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_divisor_panics() {
        let _ = FastDiv::new(0);
    }
}
