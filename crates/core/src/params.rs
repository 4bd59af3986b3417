//! Algorithm parameters derived from the number of robots `n`.

/// The quantities the paper derives from `n` and the common unit of distance
/// (the disc radius): every step size and tolerance of the algorithm.
///
/// * the *collinearity band* `1/n` used by Procedure `NotAllOnConvexHull`
///   (the rectangle `ABCD` of Figure 5) and by the sag precondition of
///   Procedure `NotConnected`;
/// * the *gap threshold* `1/2n` that groups hull robots into connected
///   components (Function `Connected-Components`);
/// * the *step length* `1/2n − ε` used by every expansion/convergence move,
///   where `ε` is any constant in `(0, 1/2n)` — the paper leaves it free, we
///   fix `ε = 1/(10 n)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgorithmParams {
    n: usize,
}

impl AlgorithmParams {
    /// Parameters for a system of `n` robots.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn for_n(n: usize) -> Self {
        assert!(n > 0, "a system needs at least one robot");
        AlgorithmParams { n }
    }

    /// Number of robots in the system (known to every robot).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The paper's `ε`, fixed at `1/(10 n)`.
    pub fn eps(&self) -> f64 {
        1.0 / (10.0 * self.n as f64)
    }

    /// The collinearity band `1/n` (Procedure `NotAllOnConvexHull`,
    /// Figure 5).
    pub fn band(&self) -> f64 {
        1.0 / self.n as f64
    }

    /// The gap threshold `1/2n` below which two hull-adjacent robots belong
    /// to the same connected component (Function `Connected-Components`).
    pub fn gap_threshold(&self) -> f64 {
        1.0 / (2.0 * self.n as f64)
    }

    /// The step length `1/2n − ε` used by the outward-expansion and inward
    /// convergence moves.
    pub fn step(&self) -> f64 {
        self.gap_threshold() - self.eps()
    }

    /// Tolerance (on the doubled triangle area) used for exact collinearity
    /// tests such as Function `In-Straight-Line-2`. This is a numerical
    /// tolerance, far below the algorithmic band [`Self::band`].
    pub fn collinearity_tol(&self) -> f64 {
        1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let p = AlgorithmParams::for_n(10);
        assert_eq!(p.n(), 10);
        assert!((p.band() - 0.1).abs() < 1e-12);
        assert!((p.gap_threshold() - 0.05).abs() < 1e-12);
        assert!(p.step() > 0.0 && p.step() < p.gap_threshold());
        assert!(p.eps() > 0.0 && p.eps() < p.gap_threshold());
    }

    #[test]
    #[should_panic]
    fn zero_robots_rejected() {
        let _ = AlgorithmParams::for_n(0);
    }
}
