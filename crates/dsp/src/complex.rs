//! Minimal double-precision complex number type.
//!
//! The offline dependency allowlist does not contain `num-complex`, so the
//! workspace carries its own [`Complex64`]. Only the operations needed by
//! the PHY chain are provided (arithmetic, conjugation, magnitudes, polar
//! construction).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Example
///
/// ```
/// use dsp::Complex64;
///
/// let a = Complex64::new(1.0, 2.0);
/// let b = Complex64::new(3.0, -1.0);
/// let p = a * b;
/// assert_eq!(p, Complex64::new(5.0, 5.0));
/// assert_eq!(a.conj(), Complex64::new(1.0, -2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from Cartesian parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    ///
    /// ```
    /// use dsp::Complex64;
    /// let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z.re).abs() < 1e-12 && (z.im - 2.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared magnitude `|z|²`, cheaper than [`Complex64::norm`].
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns non-finite components when `self` is zero, mirroring `f64`
    /// division semantics.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }

    /// Returns `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Self::from_re(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z * w^-1 by definition
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        self.scale(1.0 / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

/// Mean energy (`|z|²` averaged) of a slice of complex samples.
///
/// Returns `0.0` for an empty slice.
///
/// ```
/// use dsp::complex::{mean_energy};
/// use dsp::Complex64;
/// let v = [Complex64::new(1.0, 0.0), Complex64::new(0.0, 3.0)];
/// assert!((mean_energy(&v) - 5.0).abs() < 1e-12);
/// ```
pub fn mean_energy(samples: &[Complex64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|z| z.norm_sqr()).sum::<f64>() / samples.len() as f64
}

/// Inner product `⟨a, b⟩ = Σ aᵢ·conj(bᵢ)`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn inner_product(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    assert_eq!(a.len(), b.len(), "inner_product length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y.conj()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).norm() < 1e-12
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex64::new(1.5, -2.5);
        let b = Complex64::new(-0.25, 4.0);
        assert!(close(a + b - b, a));
    }

    #[test]
    fn mul_matches_expansion() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(-1.0, 0.5);
        assert!(close(a * b, Complex64::new(-3.5, -2.0)));
    }

    #[test]
    fn div_is_mul_inverse() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(-1.0, 0.5);
        assert!(close(a / b * b, a));
    }

    #[test]
    fn inv_of_unit() {
        assert!(close(Complex64::I.inv(), -Complex64::I));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::from_polar(3.0, 0.7);
        assert!((z.norm() - 3.0).abs() < 1e-12);
        assert!((z.arg() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn conj_negates_imaginary() {
        let z = Complex64::new(1.0, 2.0);
        assert_eq!(z.conj().im, -2.0);
        assert!(close(z * z.conj(), Complex64::from_re(z.norm_sqr())));
    }

    #[test]
    fn sum_over_iterator() {
        let v = vec![Complex64::ONE; 4];
        let s: Complex64 = v.into_iter().sum();
        assert!(close(s, Complex64::from_re(4.0)));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
    }

    #[test]
    fn mean_energy_empty_is_zero() {
        assert_eq!(mean_energy(&[]), 0.0);
    }

    #[test]
    fn inner_product_orthogonal() {
        let a = [Complex64::ONE, Complex64::ONE];
        let b = [Complex64::ONE, -Complex64::ONE];
        assert!(close(inner_product(&a, &b), Complex64::ZERO));
    }

    #[test]
    fn assign_ops() {
        let mut z = Complex64::new(1.0, 1.0);
        z += Complex64::ONE;
        z -= Complex64::I;
        z *= Complex64::new(2.0, 0.0);
        z /= Complex64::new(2.0, 0.0);
        assert!(close(z, Complex64::new(2.0, 0.0)));
    }
}
