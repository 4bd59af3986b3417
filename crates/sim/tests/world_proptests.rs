//! Property tests pinning the incremental world state to the from-scratch
//! reference: after an arbitrary sequence of randomized single-robot moves,
//! every cached answer must equal the answer recomputed from zero on the
//! current centers.

use fatrobots_core::{AlgorithmParams, ComputeScratch, Decision, LocalAlgorithm};
use fatrobots_geometry::visibility::visible_set;
use fatrobots_geometry::{ConvexHull, Point};
use fatrobots_model::{config, LocalView};
use fatrobots_sim::world::{World, WorldMode};
use proptest::prelude::*;

/// Base configurations: robots on distinct coarse grid cells with jitter —
/// dense enough for occlusions, and moves can legally pile robots close
/// together (visibility is defined regardless of validity).
fn base_centers(max_n: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::btree_set((0u32..6, 0u32..6), 3..=max_n).prop_flat_map(|cells| {
        let cells: Vec<(u32, u32)> = cells.into_iter().collect();
        let n = cells.len();
        prop::collection::vec((-0.4f64..0.4, -0.4f64..0.4), n).prop_map(move |jitter| {
            cells
                .iter()
                .zip(jitter)
                .map(|(&(i, j), (dx, dy))| Point::new(i as f64 * 3.0 + dx, j as f64 * 3.0 + dy))
                .collect()
        })
    })
}

/// A move script: which robot moves next, and where it lands (absolute
/// coordinates spanning same-cell nudges, corridor crossings, and long
/// jumps across the whole arena).
fn moves(len: usize) -> impl Strategy<Value = Vec<(usize, f64, f64)>> {
    prop::collection::vec((0usize..64, -2.0f64..20.0, -2.0f64..20.0), 1..=len)
}

/// Every incremental answer equals its from-scratch counterpart.
fn assert_world_matches_scratch(
    world: &mut World,
    centers: &[Point],
) -> Result<(), proptest::test_runner::TestCaseError> {
    for i in 0..centers.len() {
        prop_assert_eq!(world.visible_of(i), visible_set(i, centers));
    }
    prop_assert_eq!(world.is_valid(), config::is_valid(centers));
    prop_assert_eq!(world.is_connected(), config::is_connected(centers));
    prop_assert_eq!(world.all_on_hull(), config::all_on_hull(centers));
    prop_assert_eq!(world.hull(), &ConvexHull::from_points(centers));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The decision-memoization invariant, against arbitrary randomized
    /// single-robot moves: whenever a robot's **view version** is unchanged
    /// between two post-Look states, its Look snapshot is bit-identical —
    /// and therefore (the algorithm being a deterministic function of the
    /// view) a decision cached at the earlier state equals one freshly
    /// computed at the later state. This is exactly the soundness condition
    /// of the engine's decision cache; the flip side — versions that *do*
    /// bump — needs no pin, a spurious bump only costs a recompute.
    #[test]
    fn unchanged_view_version_implies_identical_view_and_decision(
        centers in base_centers(9),
        script in moves(14),
    ) {
        let n = centers.len();
        let algo = LocalAlgorithm::new(AlgorithmParams::for_n(n));
        let mut arena = ComputeScratch::default();
        let mut world = World::new(centers.clone(), WorldMode::Sparse);
        let mut centers = centers;
        // One post-Look sample per robot: (version, view, decision). The
        // decision is computed only on valid (non-overlapping)
        // configurations — the algorithm's domain; the view equality is
        // pinned on every configuration regardless.
        let snapshot = |world: &mut World, centers: &[Point], i: usize,
                        algo: &LocalAlgorithm, arena: &mut ComputeScratch|
                        -> (u64, LocalView, Option<Decision>) {
            let visible = world.visible_of(i);
            let view = LocalView::from_visible(centers, i, &visible);
            let decision = config::is_valid(centers)
                .then(|| algo.run_with(&view, arena));
            (world.view_version(i), view, decision)
        };
        let mut cached: Vec<(u64, LocalView, Option<Decision>)> = (0..n)
            .map(|i| snapshot(&mut world, &centers, i, &algo, &mut arena))
            .collect();
        for (pick, x, y) in script {
            let mover = pick % n;
            let p = Point::new(x, y);
            world.move_robot(mover, p);
            centers[mover] = p;
            for (i, slot) in cached.iter_mut().enumerate() {
                let fresh = snapshot(&mut world, &centers, i, &algo, &mut arena);
                if fresh.0 == slot.0 {
                    // An unchanged version with a changed view (or, with
                    // the determinism of the algorithm, a changed decision
                    // for robot `i`) is exactly a stale-cache-hit bug.
                    prop_assert_eq!(&fresh.1, &slot.1);
                    if let (Some(a), Some(b)) = (fresh.2, slot.2) {
                        prop_assert_eq!(a, b);
                    }
                }
                *slot = fresh;
            }
        }
    }

    /// The tentpole invariant: the sparse world (slab-indexed pair store,
    /// the slab scan on every move, every other cached predicate) answers
    /// exactly like the from-scratch reference after arbitrary randomized
    /// single-robot moves — and its view-version
    /// stream honours the decision cache's contract against that
    /// reference: a robot whose version is unchanged since its previous
    /// Look has the same from-scratch visible set as then.
    #[test]
    fn sparse_world_matches_scratch_after_moves(
        centers in base_centers(9),
        script in moves(14),
    ) {
        let mut world = World::new(centers.clone(), WorldMode::Sparse);
        let mut centers = centers;
        // Look with every robot first, so moves invalidate *existing*
        // entries (not just fill cold ones) and every version is stamped.
        let mut last: Vec<(u64, Vec<usize>)> = (0..centers.len())
            .map(|j| {
                let _ = world.visible_of(j);
                (world.view_version(j), visible_set(j, &centers))
            })
            .collect();
        for (pick, x, y) in script {
            let i = pick % centers.len();
            let p = Point::new(x, y);
            world.move_robot(i, p);
            centers[i] = p;
            assert_world_matches_scratch(&mut world, &centers)?;
            for (j, slot) in last.iter_mut().enumerate() {
                let fresh = (world.view_version(j), visible_set(j, &centers));
                if fresh.0 == slot.0 {
                    prop_assert!(
                        fresh.1 == slot.1,
                        "view version of robot {} held but its visible set changed",
                        j
                    );
                }
                *slot = fresh;
            }
        }
    }

    /// Interleaving queries between moves (so entries are computed at many
    /// different configuration versions) never desynchronises the cache.
    #[test]
    fn interleaved_queries_stay_consistent(
        centers in base_centers(7),
        script in moves(10),
    ) {
        let mut world = World::new(centers.clone(), WorldMode::Sparse);
        let mut centers = centers;
        for (step, (pick, x, y)) in script.into_iter().enumerate() {
            let i = pick % centers.len();
            // Query a rotating robot *before* the move so the cache holds a
            // mix of generations.
            let probe = step % centers.len();
            let _ = world.visible_of(probe);
            let p = Point::new(x, y);
            world.move_robot(i, p);
            centers[i] = p;
        }
        assert_world_matches_scratch(&mut world, &centers)?;
    }
}
