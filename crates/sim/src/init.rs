//! Seeded initial-configuration generators.
//!
//! Every generator returns a *valid* configuration (pairwise center
//! distances strictly greater than 2, so no two discs overlap) and is
//! deterministic given its arguments, so experiments are reproducible.

use fatrobots_geometry::Point;
use fatrobots_model::config;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Minimum clearance added on top of the contact distance when generating
/// configurations, so initial configurations never start in contact.
const CLEARANCE: f64 = 0.25;

/// Cheap deterministic per-index hash onto [-1, 1) (splitmix-style), used
/// by the generators that need seed-free reproducible jitter.
fn unit(k: u64) -> f64 {
    let mut x = k
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x5ca1_ab1e);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    // 53 uniform bits over [0, 2) shifted to [-1, 1).
    (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// `n` robots spread uniformly at random over a square of the given side,
/// rejection-sampled so that no two discs overlap.
///
/// # Panics
/// Panics if `n == 0` or the square is too small to hold `n` unit discs.
pub fn random_spread(n: usize, seed: u64, side: f64) -> Vec<Point> {
    assert!(n > 0, "at least one robot is required");
    assert!(
        side * side >= (n as f64) * 9.0,
        "the square of side {side} cannot comfortably hold {n} unit discs"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centers: Vec<Point> = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while centers.len() < n {
        attempts += 1;
        assert!(
            attempts < 1_000_000,
            "rejection sampling failed; increase the square side"
        );
        let candidate = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
        if centers
            .iter()
            .all(|c| c.distance(candidate) > 2.0 + CLEARANCE)
        {
            centers.push(candidate);
        }
    }
    debug_assert!(config::is_valid(&centers));
    centers
}

/// `n` robots on a horizontal line with the given boundary gap between
/// consecutive discs (a worst case for visibility: every robot except the
/// two ends is hidden from most others).
pub fn line(n: usize, gap: f64) -> Vec<Point> {
    assert!(n > 0, "at least one robot is required");
    assert!(gap >= 0.0, "the gap cannot be negative");
    (0..n)
        .map(|i| Point::new(i as f64 * (2.0 + gap + CLEARANCE.min(gap + 0.01)), 0.0))
        .collect()
}

/// `n` robots on a square grid with the given boundary gap between
/// neighbouring discs.
pub fn grid(n: usize, gap: f64) -> Vec<Point> {
    assert!(n > 0, "at least one robot is required");
    assert!(gap > 0.0, "the grid gap must be positive");
    let cols = (n as f64).sqrt().ceil() as usize;
    let pitch = 2.0 + gap;
    (0..n)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            Point::new(c as f64 * pitch, r as f64 * pitch)
        })
        .collect()
}

/// `n` robots equally spaced on a circle of the given radius.
///
/// # Panics
/// Panics if the circle is too small for `n` non-overlapping unit discs.
pub fn circle(n: usize, radius: f64) -> Vec<Point> {
    assert!(n > 0, "at least one robot is required");
    if n > 1 {
        let chord = 2.0 * radius * (std::f64::consts::PI / n as f64).sin();
        assert!(
            chord > 2.0,
            "a circle of radius {radius} cannot hold {n} non-overlapping unit discs"
        );
    }
    (0..n)
        .map(|i| {
            let a = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            Point::new(radius * a.cos(), radius * a.sin())
        })
        .collect()
}

/// `n` robots in `clusters` tight groups whose cluster centers are spread
/// far apart — the configuration the convergence phase has to merge.
pub fn clusters(n: usize, clusters: usize, seed: u64) -> Vec<Point> {
    assert!(n > 0, "at least one robot is required");
    assert!(
        clusters > 0 && clusters <= n,
        "1 ≤ clusters ≤ n is required"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let spread = 20.0 * clusters as f64;
    let cluster_centers: Vec<Point> = (0..clusters)
        .map(|i| {
            let a = 2.0 * std::f64::consts::PI * i as f64 / clusters as f64;
            Point::new(
                spread * a.cos() + rng.gen_range(-2.0..2.0),
                spread * a.sin() + rng.gen_range(-2.0..2.0),
            )
        })
        .collect();
    let mut centers: Vec<Point> = Vec::with_capacity(n);
    for i in 0..n {
        let base = cluster_centers[i % clusters];
        // Place members of a cluster on a small local spiral to avoid
        // overlap deterministically.
        let k = (i / clusters) as f64;
        let r = 2.4 * (1.0 + k * 0.5);
        let a = k * 2.4 + (i % clusters) as f64;
        centers.push(Point::new(base.x + r * a.cos(), base.y + r * a.sin()));
    }
    // The deterministic spiral can still produce rare near-misses between
    // clusters; nudge any offending robot outward until valid.
    let mut attempts = 0;
    while !config::is_valid(&centers) {
        attempts += 1;
        assert!(
            attempts < 1000,
            "cluster generation failed to separate discs"
        );
        for i in 0..centers.len() {
            for j in (i + 1)..centers.len() {
                if centers[i].distance(centers[j]) <= 2.0 + 1e-6 {
                    let dir = (centers[j] - centers[i]).normalized();
                    centers[j] += dir * 0.5;
                }
            }
        }
    }
    centers
}

/// `n` robots on a jittered hexagonal packing with the given center
/// spacing — the dense-but-valid layout the n = 10⁴ scale workloads use
/// (each disc has up to six neighbours just out of contact, so visibility
/// is strictly local). The jitter is a deterministic per-index hash kept
/// small enough that validity is preserved by construction.
///
/// # Panics
/// Panics if `n == 0` or the spacing leaves less than the generator
/// clearance between neighbouring discs after jitter.
pub fn hex(n: usize, spacing: f64) -> Vec<Point> {
    assert!(n > 0, "at least one robot is required");
    // Adjacent centers sit `spacing` apart (same row) or `spacing` along
    // the staggered diagonal; the jitter moves each center by at most
    // `jitter * √2`, so two neighbours lose at most twice that.
    let jitter = 0.015 * spacing;
    assert!(
        spacing - 2.0 * jitter * std::f64::consts::SQRT_2 > 2.0,
        "a hex packing with spacing {spacing} cannot hold jittered unit discs"
    );
    let side = (n as f64).sqrt().ceil() as usize;
    let row_height = spacing * 3.0_f64.sqrt() / 2.0;
    (0..n)
        .map(|i| {
            let (r, c) = (i / side, i % side);
            let stagger = if r % 2 == 1 { spacing / 2.0 } else { 0.0 };
            Point::new(
                c as f64 * spacing + stagger + jitter * unit(2 * i as u64),
                r as f64 * row_height + jitter * unit(2 * i as u64 + 1),
            )
        })
        .collect()
}

/// Two dense grid clusters joined by a single-file chain of robots — the
/// only visibility between the clusters runs through the chain's corridor,
/// so the configuration stresses exactly the connectivity-preservation
/// lemmas. Roughly `n/3` robots per cluster and `n/3` on the chain; small
/// `n` degenerates gracefully (n ≤ 2 is just the chain). All centers sit
/// on one lattice of pitch `2 + gap`, so validity holds by construction.
pub fn bridge(n: usize, gap: f64) -> Vec<Point> {
    assert!(n > 0, "at least one robot is required");
    assert!(gap > 0.0, "the bridge gap must be positive");
    let pitch = 2.0 + gap;
    let per_cluster = n / 3;
    let chain = n - 2 * per_cluster;
    let cols = ((per_cluster as f64).sqrt().ceil() as usize).max(1);
    let rows = per_cluster.div_ceil(cols).max(1);
    // Rows straddle y = 0 so the chain leaves from the clusters' midline.
    let y_of = |r: usize| (r as f64 - (rows as f64 - 1.0) / 2.0) * pitch;
    let mut centers: Vec<Point> = Vec::with_capacity(n);
    for i in 0..per_cluster {
        let (r, c) = (i / cols, i % cols);
        centers.push(Point::new(c as f64 * pitch, y_of(r)));
    }
    for i in 0..chain {
        centers.push(Point::new((cols + i) as f64 * pitch, 0.0));
    }
    for i in 0..per_cluster {
        let (r, c) = (i / cols, i % cols);
        centers.push(Point::new((cols + chain + c) as f64 * pitch, y_of(r)));
    }
    debug_assert!(config::is_valid(&centers));
    centers
}

/// `n` robots equally spaced along a circular arc with a hole: the arc
/// covers `1 - hole_fraction` of the circle, leaving one angular gap. The
/// near-cyclic symmetry stresses the hull-vertex selection; the hole
/// breaks it in exactly one place. The radius is sized so the closest pair
/// (adjacent robots, or the two robots facing each other across the hole)
/// keeps the generator clearance.
pub fn ring_hole(n: usize, hole_fraction: f64) -> Vec<Point> {
    assert!(n > 0, "at least one robot is required");
    assert!(
        (0.01..1.0).contains(&hole_fraction),
        "the hole must cover a positive fraction of the circle"
    );
    if n == 1 {
        return vec![Point::new(0.0, 0.0)];
    }
    let span = 2.0 * std::f64::consts::PI * (1.0 - hole_fraction);
    let step = span / (n - 1) as f64;
    // The minimum chord over all pairs: chord(kθ) = 2R·sin(kθ/2) is not
    // monotone past π, so scan every multiple of the step.
    let min_sin = (1..n)
        .map(|k| (k as f64 * step / 2.0).sin())
        .fold(f64::INFINITY, f64::min);
    assert!(min_sin > 1e-9, "degenerate arc: robots would coincide");
    let radius = (2.0 + CLEARANCE) / (2.0 * min_sin) * 1.05;
    let centers: Vec<Point> = (0..n)
        .map(|i| {
            let a = i as f64 * step;
            Point::new(radius * a.cos(), radius * a.sin())
        })
        .collect();
    debug_assert!(config::is_valid(&centers));
    centers
}

/// `n` robots on a near-collinear chain: a line with deterministic
/// transverse jitter at scale `eps` — small enough that the collinearity
/// predicates operate right at their tolerance, which is exactly the
/// regime the exact-arithmetic shadow oracle exists for.
pub fn near_collinear(n: usize, gap: f64, eps: f64) -> Vec<Point> {
    assert!(n > 0, "at least one robot is required");
    assert!(gap > 0.0, "the chain gap must be positive");
    assert!(
        eps.is_finite() && (0.0..1.0).contains(&eps),
        "the perturbation must stay well below the disc radius"
    );
    (0..n)
        .map(|i| Point::new(i as f64 * (2.0 + gap), eps * unit(i as u64)))
        .collect()
}

/// Named initial-configuration shapes used by the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// [`random_spread`] over a square sized for the robot count.
    Random,
    /// [`line()`] with a 3-radius gap.
    Line,
    /// [`grid`] with a 1-radius gap.
    Grid,
    /// [`circle`] sized for the robot count.
    Circle,
    /// [`clusters`] with `⌈n/4⌉` groups.
    Clusters,
    /// [`hex`] with the scale workloads' 2.1 spacing.
    Hex,
    /// [`bridge`]: two dense clusters joined by a single visibility
    /// corridor.
    Bridge,
    /// [`ring_hole`]: a near-symmetric ring with one angular gap.
    RingHole,
    /// [`near_collinear`]: a chain perturbed at ε scale.
    NearCollinear,
}

impl Shape {
    /// All shapes, for sweeps.
    pub const ALL: [Shape; 9] = [
        Shape::Random,
        Shape::Line,
        Shape::Grid,
        Shape::Circle,
        Shape::Clusters,
        Shape::Hex,
        Shape::Bridge,
        Shape::RingHole,
        Shape::NearCollinear,
    ];

    /// A short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Shape::Random => "random",
            Shape::Line => "line",
            Shape::Grid => "grid",
            Shape::Circle => "circle",
            Shape::Clusters => "clusters",
            Shape::Hex => "hex",
            Shape::Bridge => "bridge",
            Shape::RingHole => "ring-hole",
            Shape::NearCollinear => "near-collinear",
        }
    }

    /// The shape with the given [`Self::name`], or `None` for an unknown
    /// name — the inverse of [`Self::name`], used by the fuzzer's fixture
    /// loader.
    pub fn from_name(name: &str) -> Option<Shape> {
        Shape::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Generates a configuration of `n` robots for this shape.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<Point> {
        match self {
            Shape::Random => random_spread(n, seed, (n as f64 * 16.0).sqrt().max(8.0) * 2.0),
            Shape::Line => line(n, 3.0),
            Shape::Grid => grid(n, 1.0),
            Shape::Circle => circle(n, (n as f64).max(4.0)),
            Shape::Clusters => clusters(n, n.div_ceil(4).max(1), seed),
            Shape::Hex => hex(n, 2.1),
            Shape::Bridge => bridge(n, 1.0),
            Shape::RingHole => ring_hole(n, 1.0 / 6.0),
            Shape::NearCollinear => near_collinear(n, 3.0, 1e-7),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid(centers: &[Point], n: usize) {
        assert_eq!(centers.len(), n);
        assert!(
            config::is_valid(centers),
            "generated configuration contains overlapping discs"
        );
    }

    #[test]
    fn random_spread_is_valid_and_deterministic() {
        let a = random_spread(12, 7, 40.0);
        let b = random_spread(12, 7, 40.0);
        assert_eq!(a, b);
        assert_valid(&a, 12);
        let c = random_spread(12, 8, 40.0);
        assert_ne!(a, c);
    }

    #[test]
    fn structured_generators_are_valid() {
        assert_valid(&line(9, 3.0), 9);
        assert_valid(&grid(10, 1.0), 10);
        assert_valid(&circle(8, 8.0), 8);
        assert_valid(&clusters(13, 4, 3), 13);
        assert_valid(&hex(100, 2.1), 100);
    }

    #[test]
    fn hex_is_deterministic_and_jittered() {
        let a = hex(64, 2.1);
        assert_eq!(a, hex(64, 2.1));
        assert_valid(&a, 64);
        // The jitter must actually displace the lattice (no robot sits on an
        // exact grid point after the hash offset).
        assert!(a.iter().any(|c| c.x.fract().abs() > 1e-6));
    }

    #[test]
    fn all_shapes_generate_valid_configurations() {
        for shape in Shape::ALL {
            for n in [1, 2, 5, 9, 16] {
                let centers = shape.generate(n, 42);
                assert_valid(&centers, n);
            }
        }
    }

    #[test]
    fn bridge_has_a_single_file_corridor() {
        let n = 15;
        let centers = bridge(n, 1.0);
        assert_valid(&centers, n);
        // The chain third sits alone on the midline between the clusters
        // (a 5-robot cluster spans rows straddling y = 0, so robots on
        // y = 0 include one cluster column too; the corridor columns hold
        // exactly one robot each).
        let per_cluster = n / 3;
        let chain = n - 2 * per_cluster;
        assert!(chain >= 1);
        let xs: Vec<f64> = centers[per_cluster..per_cluster + chain]
            .iter()
            .map(|c| {
                assert_eq!(c.y, 0.0, "chain robots sit on the corridor line");
                c.x
            })
            .collect();
        for x in &xs {
            assert_eq!(
                centers.iter().filter(|c| c.x == *x).count(),
                1,
                "a corridor column holds exactly one robot"
            );
        }
    }

    #[test]
    fn ring_hole_is_valid_and_actually_has_a_hole() {
        for n in [2, 5, 9, 16] {
            let centers = ring_hole(n, 1.0 / 6.0);
            assert_valid(&centers, n);
        }
        let centers = ring_hole(12, 1.0 / 6.0);
        let mut angles: Vec<f64> = centers.iter().map(|c| c.y.atan2(c.x)).collect();
        angles.sort_by(f64::total_cmp);
        let mut max_gap: f64 = 0.0;
        for i in 0..angles.len() {
            let next = angles[(i + 1) % angles.len()];
            let gap = (next - angles[i]).rem_euclid(2.0 * std::f64::consts::PI);
            max_gap = max_gap.max(gap);
        }
        // The hole covers 1/6 of the circle; every regular step covers
        // (5/6)/11 of it. The largest gap must be the hole.
        assert!(max_gap > 2.0 * std::f64::consts::PI / 7.0);
    }

    #[test]
    fn near_collinear_perturbs_at_epsilon_scale() {
        let eps = 1e-7;
        let centers = near_collinear(9, 3.0, eps);
        assert_valid(&centers, 9);
        assert!(centers.iter().all(|c| c.y.abs() <= eps));
        assert!(
            centers.iter().any(|c| c.y != 0.0),
            "the chain must not be exactly collinear"
        );
        assert_eq!(centers, near_collinear(9, 3.0, eps), "deterministic");
    }

    #[test]
    fn shape_names_round_trip() {
        for shape in Shape::ALL {
            assert_eq!(Shape::from_name(shape.name()), Some(shape));
        }
        assert_eq!(Shape::from_name("no-such-shape"), None);
    }

    #[test]
    fn line_is_actually_collinear() {
        let centers = line(5, 3.0);
        assert!(centers.iter().all(|c| c.y == 0.0));
    }

    #[test]
    #[should_panic]
    fn tiny_circle_is_rejected() {
        let _ = circle(20, 3.0);
    }

    #[test]
    #[should_panic]
    fn zero_robots_rejected() {
        let _ = random_spread(0, 1, 100.0);
    }
}
