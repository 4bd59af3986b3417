//! Cross-crate property tests for the safety properties the paper's lemmas
//! promise: decisions never cause overlap, the engine preserves validity,
//! and the Section-3 functions keep their guarantees on random inputs.

use fatrobots::core::functions::{connected_components, find_points};
use fatrobots::core::{AlgorithmParams, LocalAlgorithm};
use fatrobots::scheduler::{RandomAsync, RoundRobin};
use fatrobots::sim::engine::{SimConfig, Simulator};
use fatrobots::sim::init::Shape;
use fatrobots_geometry::hull::ConvexHull;
use fatrobots_geometry::Point;
use fatrobots_model::{config, LocalView};
use proptest::prelude::*;

/// Random valid configurations: distinct grid cells scaled so discs never
/// overlap, jittered a little so nothing is exactly collinear.
fn valid_centers(max_n: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::btree_set((0u32..8, 0u32..8), 2..=max_n).prop_flat_map(|cells| {
        let cells: Vec<(u32, u32)> = cells.into_iter().collect();
        let n = cells.len();
        prop::collection::vec((-0.3f64..0.3, -0.3f64..0.3), n).prop_map(move |jitter| {
            cells
                .iter()
                .zip(jitter)
                .map(|(&(i, j), (dx, dy))| Point::new(i as f64 * 3.2 + dx, j as f64 * 3.2 + dy))
                .collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lemma 6 / general safety: whatever a robot decides, moving it all the
    /// way to its target (stopping at the first contact, as the engine does)
    /// never produces an overlapping configuration.
    #[test]
    fn decisions_never_cause_overlap(centers in valid_centers(10)) {
        let n = centers.len();
        prop_assume!(config::is_valid(&centers));
        let algo = LocalAlgorithm::new(AlgorithmParams::for_n(n));
        for i in 0..n {
            let view = LocalView::full_snapshot(&centers, i);
            if let Some(target) = algo.run(&view).target() {
                // Clamp the motion at the first contact, exactly like the
                // engine's integrator.
                let start = centers[i];
                let dir = target - start;
                if dir.is_zero() {
                    continue;
                }
                let dir = dir.normalized();
                let mut travel = start.distance(target);
                for (j, &c) in centers.iter().enumerate() {
                    if j == i { continue; }
                    let w = c - start;
                    let proj = w.dot(dir);
                    if w.norm() <= 2.0 + 1e-6 {
                        if proj > 1e-6 { travel = 0.0; }
                        continue;
                    }
                    if proj <= 0.0 { continue; }
                    let closest_sq = w.norm_sq() - proj * proj;
                    if closest_sq >= 4.0 { continue; }
                    let t = proj - (4.0 - closest_sq).sqrt();
                    travel = travel.min(t.max(0.0));
                }
                let mut moved = centers.clone();
                moved[i] = start + dir * travel;
                prop_assert!(
                    config::is_valid(&moved),
                    "robot {i} caused an overlap from {centers:?}"
                );
            }
        }
    }

    /// Lemma 1: placing a disc at any Find-Points candidate keeps every hull
    /// robot on the hull.
    #[test]
    fn find_points_candidates_respect_lemma_1(centers in valid_centers(10)) {
        let n = centers.len();
        let hull = ConvexHull::from_points(&centers);
        let boundary = hull.boundary();
        for candidate in find_points(&boundary, n) {
            let mut extended = centers.clone();
            extended.push(candidate);
            let hull2 = ConvexHull::from_points(&extended);
            for q in &boundary {
                prop_assert!(
                    hull2.point_on_boundary(*q),
                    "candidate {candidate} pushed {q} off the hull"
                );
            }
        }
    }

    /// The component partition of Section 3.4 covers every hull robot
    /// exactly once, regardless of the threshold.
    #[test]
    fn component_partition_is_a_partition(centers in valid_centers(10), threshold in 0.01f64..2.0) {
        let hull = ConvexHull::from_points(&centers);
        let boundary = hull.boundary();
        let partition = connected_components(&boundary, threshold);
        let total: usize = partition.sizes().iter().sum();
        prop_assert_eq!(total, boundary.len());
        for q in &boundary {
            prop_assert!(partition.component_of(*q).is_some());
        }
    }

    /// The engine preserves physical validity through an entire (possibly
    /// truncated) run under the random-async adversary.
    #[test]
    fn engine_preserves_validity(seed in 0u64..200) {
        let n = 5;
        let centers = Shape::Random.generate(n, seed);
        let mut sim = Simulator::new(
            centers,
            Box::new(LocalAlgorithm::new(AlgorithmParams::for_n(n))),
            Box::new(RandomAsync::new(seed)),
            SimConfig { max_events: 3_000, ..SimConfig::default() },
        );
        let _ = sim.run();
        prop_assert!(config::is_valid(sim.centers()));
    }

    /// A terminated robot never moves again: once the engine reports all
    /// robots terminated, the configuration is final and gathered.
    #[test]
    fn termination_implies_gathered(seed in 0u64..30) {
        let n = 4;
        let centers = Shape::Circle.generate(n, seed);
        let mut sim = Simulator::new(
            centers,
            Box::new(LocalAlgorithm::new(AlgorithmParams::for_n(n))),
            Box::new(RoundRobin::new()),
            SimConfig::default(),
        );
        let outcome = sim.run();
        if outcome.terminated {
            prop_assert!(outcome.gathered);
        }
    }
}
