//! Property-based tests for the geometry substrate.

use fatrobots_geometry::hull::{convex_hull, ConvexHull};
use fatrobots_geometry::predicates::{self, Orientation};
use fatrobots_geometry::visibility::{disc_sees_disc, min_pairwise_gap};
use fatrobots_geometry::{Circle, EpsKernel, ExactKernel, Kernel, Point, Segment, Vec2, EPS};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    -100.0f64..100.0
}

fn point() -> impl Strategy<Value = Point> {
    (coord(), coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn point_vec(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(point(), min..=max)
}

/// Points spaced far enough apart to be valid disc centers (pairwise distance > 2).
fn disc_centers(n: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0i32..20, 0i32..20), n..=n).prop_map(|cells| {
        let mut seen = std::collections::HashSet::new();
        cells
            .into_iter()
            .filter(|c| seen.insert(*c))
            .map(|(i, j)| Point::new(i as f64 * 3.0, j as f64 * 3.0))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hull_contains_all_input_points(pts in point_vec(1, 40)) {
        let hull = ConvexHull::from_points(&pts);
        for p in &pts {
            prop_assert!(hull.contains(*p), "hull must contain every input point {p}");
        }
    }

    #[test]
    fn hull_is_idempotent(pts in point_vec(3, 40)) {
        let h1 = convex_hull(&pts);
        let h2 = convex_hull(&h1);
        prop_assert_eq!(h1.len(), h2.len());
    }

    #[test]
    fn hull_vertices_are_input_points(pts in point_vec(1, 40)) {
        let h = convex_hull(&pts);
        for v in &h {
            prop_assert!(pts.iter().any(|p| p.approx_eq(*v)));
        }
    }

    #[test]
    fn hull_vertices_are_ccw(pts in point_vec(3, 40)) {
        let hull = ConvexHull::from_points(&pts);
        let v = hull.vertices();
        if v.len() >= 3 {
            let mut area2 = 0.0;
            for i in 0..v.len() {
                let a = v[i];
                let b = v[(i + 1) % v.len()];
                area2 += a.x * b.y - b.x * a.y;
            }
            prop_assert!(area2 > 0.0);
        }
    }

    #[test]
    fn hull_area_not_larger_than_bounding_box(pts in point_vec(1, 40)) {
        let hull = ConvexHull::from_points(&pts);
        let min_x = pts.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
        let max_x = pts.iter().map(|p| p.x).fold(f64::NEG_INFINITY, f64::max);
        let min_y = pts.iter().map(|p| p.y).fold(f64::INFINITY, f64::min);
        let max_y = pts.iter().map(|p| p.y).fold(f64::NEG_INFINITY, f64::max);
        let bbox = (max_x - min_x) * (max_y - min_y);
        prop_assert!(hull.area() <= bbox + 1e-6);
    }

    #[test]
    fn adding_interior_point_does_not_change_hull_area(pts in point_vec(3, 20)) {
        let hull = ConvexHull::from_points(&pts);
        if hull.vertices().len() >= 3 {
            let centroid = Point::centroid(hull.vertices());
            let mut extended = pts.clone();
            extended.push(centroid);
            let hull2 = ConvexHull::from_points(&extended);
            prop_assert!((hull.area() - hull2.area()).abs() < 1e-6);
        }
    }

    #[test]
    fn segment_distance_symmetric(a in point(), b in point(), c in point(), d in point()) {
        let s1 = Segment::new(a, b);
        let s2 = Segment::new(c, d);
        let d1 = s1.distance_to_segment(&s2);
        let d2 = s2.distance_to_segment(&s1);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!(d1 >= 0.0);
    }

    #[test]
    fn closest_point_is_on_segment_and_closest_among_samples(a in point(), b in point(), q in point()) {
        let s = Segment::new(a, b);
        let cp = s.closest_point_to(q);
        prop_assert!(s.distance_to(cp) < 1e-7);
        for k in 0..=10 {
            let t = k as f64 / 10.0;
            prop_assert!(q.distance(cp) <= q.distance(s.point_at(t)) + 1e-9);
        }
    }

    #[test]
    fn circle_segment_intersections_lie_on_both(center in point(), r in 0.1f64..10.0, a in point(), b in point()) {
        let c = Circle::new(center, r);
        let seg = Segment::new(a, b);
        for p in c.intersect_segment(&seg) {
            prop_assert!((p.distance(center) - r).abs() < 1e-6);
            prop_assert!(seg.distance_to(p) < 1e-6);
        }
    }

    #[test]
    fn visibility_is_symmetric(centers in disc_centers(6)) {
        prop_assume!(centers.len() >= 3);
        if let Some(gap) = min_pairwise_gap(&centers) {
            prop_assume!(gap > 0.0);
        }
        for i in 0..centers.len() {
            for j in (i + 1)..centers.len() {
                prop_assert_eq!(
                    disc_sees_disc(i, j, &centers),
                    disc_sees_disc(j, i, &centers)
                );
            }
        }
    }

    #[test]
    fn adjacent_discs_always_see_each_other(centers in disc_centers(5)) {
        prop_assume!(centers.len() >= 2);
        // The pair at minimum distance has nothing between them.
        let mut best = (0, 1, f64::INFINITY);
        for i in 0..centers.len() {
            for j in (i + 1)..centers.len() {
                let d = centers[i].distance(centers[j]);
                if d < best.2 {
                    best = (i, j, d);
                }
            }
        }
        prop_assert!(disc_sees_disc(best.0, best.1, &centers));
    }

    #[test]
    fn vector_rotation_preserves_norm(x in coord(), y in coord(), theta in -6.3f64..6.3) {
        let v = Vec2::new(x, y);
        prop_assert!((v.rotated(theta).norm() - v.norm()).abs() < 1e-6);
    }

    #[test]
    fn perp_is_orthogonal(x in coord(), y in coord()) {
        let v = Vec2::new(x, y);
        prop_assert!(v.dot(v.perp_ccw()).abs() < 1e-9);
        prop_assert!(v.dot(v.perp_cw()).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Kernel agreement and exactness (the shadow oracle's soundness assumptions).
// ---------------------------------------------------------------------------

/// Adversarial near-collinear triples: `c` sits on the segment `ab` displaced
/// perpendicularly by a few ulps, the regime where the ε kernel must report
/// `Collinear` and only exact arithmetic can recover the true side.
fn near_collinear_triple() -> impl Strategy<Value = (Point, Point, Point, i32)> {
    (
        (-50i32..50, -50i32..50),
        (-50i32..50, -50i32..50),
        0i32..17,
        -4i32..5,
    )
        .prop_map(|((ax, ay), (bx, by), sixteenths, ulps)| {
            let a = Point::new(f64::from(ax), f64::from(ay));
            let b = Point::new(f64::from(bx), f64::from(by));
            let t = f64::from(sixteenths) / 16.0;
            let on_line = a.lerp(b, t);
            let d = b - a;
            let n = if d.is_zero() {
                Vec2::new(0.0, 1.0)
            } else {
                d.perp_ccw()
            };
            let c = on_line + n * (f64::from(ulps) * f64::EPSILON);
            // Rounding may snap a sub-ulp displacement back onto the line
            // (rounding never flips a component's sign, so a partly-surviving
            // displacement still lies on the intended side). Record the side
            // of the *stored* point: 0 when the nudge rounded away entirely.
            let ulps = if c == on_line { 0 } else { ulps };
            (a, b, c, ulps)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernels_agree_on_orientation_far_from_collinearity(a in point(), b in point(), c in point()) {
        prop_assume!(predicates::cross_of_triple(a, b, c).abs() > 10.0 * EPS);
        prop_assert_eq!(EpsKernel::orientation(a, b, c), ExactKernel::orientation(a, b, c));
    }

    #[test]
    fn kernels_agree_on_distance_comparisons_far_from_ties(
        p1 in point(), p2 in point(), r in 0.0f64..300.0
    ) {
        prop_assume!((p1.distance(p2) - r).abs() > 10.0 * EPS);
        prop_assert_eq!(EpsKernel::cmp_dist(p1, p2, r), ExactKernel::cmp_dist(p1, p2, r));
    }

    #[test]
    fn kernels_agree_on_segment_distance_far_from_ties(
        a in point(), b in point(), q in point(), r in 0.0f64..300.0
    ) {
        let seg = Segment::new(a, b);
        prop_assume!((seg.distance_to(q) - r).abs() > 10.0 * EPS);
        prop_assert_eq!(
            EpsKernel::cmp_segment_dist(a, b, q, r),
            ExactKernel::cmp_segment_dist(a, b, q, r)
        );
    }

    #[test]
    fn exact_orientation_is_antisymmetric_on_adversarial_triples(
        triple in near_collinear_triple()
    ) {
        let (a, b, c, _ulps) = triple;
        prop_assume!(!a.approx_eq(b));
        let fwd = ExactKernel::orientation(a, b, c);
        let rev = ExactKernel::orientation(b, a, c);
        let flipped = match fwd {
            Orientation::CounterClockwise => Orientation::Clockwise,
            Orientation::Clockwise => Orientation::CounterClockwise,
            Orientation::Collinear => Orientation::Collinear,
        };
        prop_assert_eq!(rev, flipped);
    }

    #[test]
    fn exact_orientation_is_cyclically_consistent_on_adversarial_triples(
        triple in near_collinear_triple()
    ) {
        let (a, b, c, _ulps) = triple;
        let abc = ExactKernel::orientation(a, b, c);
        prop_assert_eq!(abc, ExactKernel::orientation(b, c, a));
        prop_assert_eq!(abc, ExactKernel::orientation(c, a, b));
    }

    #[test]
    fn exact_orientation_recovers_the_true_side_of_ulp_offsets(
        triple in near_collinear_triple()
    ) {
        let (a, b, c, ulps) = triple;
        prop_assume!(!a.approx_eq(b));
        // The displacement was constructed along ±perp_ccw, so exact
        // arithmetic must classify the *stored* point by the sign of the
        // offset (the strategy zeroes `ulps` when rounding erased the nudge).
        let expected = match ulps.signum() {
            1 => Orientation::CounterClockwise,
            -1 => Orientation::Clockwise,
            _ => Orientation::Collinear,
        };
        prop_assert_eq!(ExactKernel::orientation(a, b, c), expected);
    }
}
