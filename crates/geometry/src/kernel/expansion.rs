//! Floating-point expansion arithmetic (Shewchuk, 1997).
//!
//! An [`Expansion`] is a sum of f64 components, ordered by increasing
//! magnitude, that are *non-overlapping*: each component's least
//! significant set bit is above the most significant bit of the component
//! below it. The mathematical value is the exact (unrounded) sum of the
//! components, so signs of polynomial expressions in f64 inputs can be
//! decided exactly — every f64 product of two doubles and every sum of two
//! doubles is representable as a two-component expansion, and expansions
//! are closed under addition and multiplication via the error-free
//! transformations below.
//!
//! This is the "vendored exact arithmetic from f64 mantissa decomposition"
//! the kernel's [`ExactKernel`](super::ExactKernel) runs on. Components are
//! kept in a `Vec`: the expansion path only runs when the f64 filter fails
//! (near-degenerate inputs), so the allocation sits far off the hot path.

use std::cmp::Ordering;

/// Knuth's TwoSum: `a + b = s + err` exactly, `s = fl(a + b)`.
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bvirt = s - a;
    let avirt = s - bvirt;
    let bround = b - bvirt;
    let around = a - avirt;
    (s, around + bround)
}

/// TwoDiff: `a - b = s + err` exactly, `s = fl(a - b)`.
#[inline]
fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let s = a - b;
    let bvirt = a - s;
    let avirt = s + bvirt;
    let bround = bvirt - b;
    let around = a - avirt;
    (s, around + bround)
}

/// Dekker's split constant: 2^27 + 1 for the 53-bit f64 mantissa.
const SPLITTER: f64 = 134_217_729.0;

/// Split `a` into `hi + lo` with both halves fitting in 26/27 mantissa
/// bits, so products of halves are exact.
#[inline]
fn split(a: f64) -> (f64, f64) {
    let c = SPLITTER * a;
    let abig = c - a;
    let hi = c - abig;
    (hi, a - hi)
}

/// TwoProduct: `a * b = p + err` exactly, `p = fl(a * b)`.
#[inline]
fn two_product(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let (ahi, alo) = split(a);
    let (bhi, blo) = split(b);
    let err1 = p - ahi * bhi;
    let err2 = err1 - alo * bhi;
    let err3 = err2 - ahi * blo;
    (p, alo * blo - err3)
}

/// An exact multi-component value; components in increasing-magnitude
/// order, zero components elided (the empty expansion is zero).
#[derive(Debug, Clone, PartialEq)]
pub struct Expansion(Vec<f64>);

impl From<f64> for Expansion {
    fn from(v: f64) -> Self {
        debug_assert!(v.is_finite());
        if v == 0.0 {
            Expansion(Vec::new())
        } else {
            Expansion(vec![v])
        }
    }
}

impl Expansion {
    /// The exact difference `a - b` as a (≤2)-component expansion.
    pub fn from_diff(a: f64, b: f64) -> Self {
        let (s, e) = two_diff(a, b);
        Self::from_two(e, s)
    }

    /// The exact product `a * b`.
    pub fn from_product(a: f64, b: f64) -> Self {
        let (p, e) = two_product(a, b);
        Self::from_two(e, p)
    }

    fn from_two(lo: f64, hi: f64) -> Self {
        let mut c = Vec::with_capacity(2);
        if lo != 0.0 {
            c.push(lo);
        }
        if hi != 0.0 {
            c.push(hi);
        }
        Expansion(c)
    }

    /// Sign of the exact value: the sign of the largest-magnitude (last)
    /// component — non-overlapping components cannot cancel it.
    pub fn sign(&self) -> Ordering {
        match self.0.last() {
            None => Ordering::Equal,
            Some(&c) if c > 0.0 => Ordering::Greater,
            _ => Ordering::Less,
        }
    }

    /// f64 approximation of the exact value (correct to one ulp).
    pub fn approx(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Number of stored components (diagnostics).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the exact value is zero.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Grow-Expansion-Zeroelim: add a single f64 into the expansion.
    fn grow(&self, b: f64) -> Self {
        let mut h = Vec::with_capacity(self.0.len() + 1);
        let mut q = b;
        for &e in &self.0 {
            let (qnew, err) = two_sum(q, e);
            q = qnew;
            if err != 0.0 {
                h.push(err);
            }
        }
        if q != 0.0 {
            h.push(q);
        }
        Expansion(h)
    }

    /// Exact sum of two expansions (repeated grow; components stay
    /// non-overlapping and magnitude-ordered).
    pub fn add(&self, other: &Self) -> Self {
        let mut acc = self.clone();
        for &e in &other.0 {
            acc = acc.grow(e);
        }
        acc
    }

    /// Exact difference `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        let mut acc = self.clone();
        for &e in &other.0 {
            acc = acc.grow(-e);
        }
        acc
    }

    /// Scale-Expansion-Zeroelim: exact product with a single f64.
    fn scale(&self, b: f64) -> Self {
        if self.0.is_empty() || b == 0.0 {
            return Expansion(Vec::new());
        }
        let mut h = Vec::with_capacity(2 * self.0.len());
        let (mut q, err) = two_product(self.0[0], b);
        if err != 0.0 {
            h.push(err);
        }
        for &e in &self.0[1..] {
            let (p, perr) = two_product(e, b);
            let (sum, serr) = two_sum(q, perr);
            if serr != 0.0 {
                h.push(serr);
            }
            let (qnew, qerr) = two_sum(p, sum);
            q = qnew;
            if qerr != 0.0 {
                h.push(qerr);
            }
        }
        if q != 0.0 {
            h.push(q);
        }
        Expansion(h)
    }

    /// Exact product of two expansions: distribute `other`'s components
    /// over scaled copies of `self`. Component counts grow multiplicatively
    /// — acceptable, this only runs behind the f64 filters.
    pub fn mul(&self, other: &Self) -> Self {
        let mut acc = Expansion(Vec::new());
        for &e in &other.0 {
            acc = acc.add(&self.scale(e));
        }
        acc
    }

    /// Exact negation.
    pub fn neg(&self) -> Self {
        Expansion(self.0.iter().map(|&c| -c).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_recovers_the_rounding_error() {
        let (s, e) = two_sum(1.0, 1e-30);
        assert_eq!(s, 1.0);
        assert_eq!(e, 1e-30);
    }

    #[test]
    fn two_product_is_exact() {
        // (1 + 2^-52) * (1 + 2^-52) = 1 + 2^-51 + 2^-104: the f64 product
        // drops the 2^-104 tail, the error term recovers it.
        let a = 1.0 + f64::EPSILON / 2.0 * 2.0;
        let (p, e) = two_product(a, a);
        assert_eq!(p + e, p); // non-overlap: e is far below p's ulp...
        assert_ne!(e, 0.0); // ...but not zero: the product was inexact.
    }

    #[test]
    fn diff_of_equal_values_is_zero() {
        let d = Expansion::from_diff(0.1, 0.1);
        assert_eq!(d.sign(), Ordering::Equal);
        assert!(d.is_empty());
    }

    #[test]
    fn sign_resolves_catastrophic_cancellation() {
        // (a + tiny) - a computed exactly is `tiny`, even when the f64
        // subtraction would round it away entirely at this magnitude.
        let a = 1e16;
        let tiny = 1.0 - f64::EPSILON; // below 1 ulp of 1e16 (which is 2.0)
        let lhs = Expansion::from(a).add(&Expansion::from(tiny));
        let d = lhs.sub(&Expansion::from(a));
        assert_eq!(d.sign(), Ordering::Greater);
        assert_eq!(d.approx(), tiny);
    }

    #[test]
    fn mul_matches_integer_arithmetic_on_a_dyadic_grid() {
        // Coordinates k·2^-20 with |k| < 2^20 make every product and
        // difference exactly representable in i128 — cross-check the
        // expansion arithmetic against integers.
        let scale = (1u64 << 20) as f64;
        let vals = [-873_541i64, -1, 0, 7, 524_287, 1_000_003];
        for &ka in &vals {
            for &kb in &vals {
                let (a, b) = (ka as f64 / scale, kb as f64 / scale);
                let prod = Expansion::from_product(a, b);
                let sum = Expansion::from(a)
                    .add(&Expansion::from(b))
                    .mul(&Expansion::from_diff(a, b));
                // a·b sign vs integer sign.
                assert_eq!(
                    prod.sign(),
                    (ka as i128 * kb as i128).cmp(&0),
                    "product sign {ka} {kb}"
                );
                // (a+b)(a−b) = a² − b² sign vs integer sign.
                let exact = ka as i128 * ka as i128 - kb as i128 * kb as i128;
                assert_eq!(sum.sign(), exact.cmp(&0), "a²−b² sign {ka} {kb}");
            }
        }
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Expansion::from_product(0.1, 0.3);
        let b = Expansion::from_product(0.2, 0.7);
        let s = a.add(&b);
        assert_eq!(s.sub(&b).sub(&a).sign(), Ordering::Equal);
        assert_eq!(s.sub(&a).sub(&b).sign(), Ordering::Equal);
        assert_eq!(a.neg().add(&a).sign(), Ordering::Equal);
    }
}
