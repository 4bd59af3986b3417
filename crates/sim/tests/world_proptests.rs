//! Property tests pinning the incremental world state to the from-scratch
//! reference: after an arbitrary sequence of randomized single-robot moves,
//! every cached answer must equal the answer recomputed from zero on the
//! current centers.

use fatrobots_core::{AlgorithmParams, ComputeScratch, Decision, LocalAlgorithm};
use fatrobots_geometry::visibility::{min_pairwise_gap, visible_set, VisibilityConfig};
use fatrobots_geometry::Point;
use fatrobots_model::{GeometricConfig, LocalView};
use fatrobots_sim::parallel::compute_pair_answers;
use fatrobots_sim::world::{PairAnswers, World, WorldMode};
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
    let vis = VisibilityConfig::default();
    for i in 0..centers.len() {
        prop_assert_eq!(world.visible_of(i), visible_set(i, centers, &vis));
    }
    prop_assert_eq!(world.is_valid(), GeometricConfig::is_valid_on(centers));
    prop_assert_eq!(
        world.is_connected(),
        GeometricConfig::is_connected_on(centers)
    );
    prop_assert_eq!(
        world.all_on_hull(),
        GeometricConfig::all_on_hull_on(centers)
    );
    prop_assert_eq!(world.min_pairwise_gap(), min_pairwise_gap(centers));
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
        let mut world = World::new(centers.clone(), VisibilityConfig::default(), WorldMode::Sparse);
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
            let decision = GeometricConfig::is_valid_on(centers)
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

    /// The tentpole invariant: the sparse world (hash-map pair store,
    /// per-level corridor registrations, pending-row queues, every other
    /// cached predicate) answers exactly like the from-scratch reference
    /// after arbitrary randomized single-robot moves — and its view-version
    /// stream honours the decision cache's contract against that
    /// reference: a robot whose version is unchanged since its previous
    /// Look has the same from-scratch visible set as then.
    #[test]
    fn sparse_world_matches_scratch_after_moves(
        centers in base_centers(9),
        script in moves(14),
    ) {
        let vis = VisibilityConfig::default();
        let mut world = World::new(centers.clone(), vis, WorldMode::Sparse);
        let mut centers = centers;
        // Look with every robot first, so moves invalidate *existing*
        // entries (not just fill cold ones) and every version is stamped.
        let mut last: Vec<(u64, Vec<usize>)> = (0..centers.len())
            .map(|j| {
                let _ = world.visible_of(j);
                (world.view_version(j), visible_set(j, &centers, &vis))
            })
            .collect();
        for (pick, x, y) in script {
            let i = pick % centers.len();
            let p = Point::new(x, y);
            world.move_robot(i, p);
            centers[i] = p;
            assert_world_matches_scratch(&mut world, &centers)?;
            for (j, slot) in last.iter_mut().enumerate() {
                let fresh = (world.view_version(j), visible_set(j, &centers, &vis));
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

    /// The commutation criterion of the parallel executor, against
    /// arbitrary move scripts: admitting Looks
    /// greedily under the batcher's conflict predicate (reject a robot
    /// whose plan touches any robot already batched) yields plans whose
    /// pair sets are **pairwise disjoint** — so the batched kernel
    /// evaluations write disjoint entries and commute. The predicate is
    /// deliberately stronger than raw pair-disjointness; this pins that
    /// the implication actually holds on real [`World::look_plan`] output,
    /// whatever the dirty-pair state.
    #[test]
    fn batcher_admitted_looks_have_disjoint_pair_sets(
        centers in base_centers(9),
        script in moves(14),
    ) {
        let mut world = World::new(centers.clone(), VisibilityConfig::default(), WorldMode::Sparse);
        let mut centers = centers;
        let n = centers.len();
        let _ = world.visible_of(0);
        for (pick, x, y) in script {
            let i = pick % n;
            let p = Point::new(x, y);
            world.move_robot(i, p);
            centers[i] = p;
            // Greedy admission, exactly like the engine's planner.
            let mut in_batch = vec![false; n];
            let mut plans: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
            let mut plan = Vec::new();
            for r in 0..n {
                plan.clear();
                world.look_plan(r, &mut plan);
                if plan.iter().any(|&(a, b)| in_batch[a] || in_batch[b]) {
                    continue;
                }
                in_batch[r] = true;
                plans.push((r, plan.clone()));
            }
            // Every admitted plan only contains the robot's own pairs …
            for (r, plan) in &plans {
                for &(a, b) in plan {
                    prop_assert!(a == *r || b == *r,
                        "plan of robot {} contains foreign pair ({}, {})", r, a, b);
                    prop_assert!(a < b);
                }
            }
            // … and no pair appears in two admitted plans.
            let mut seen = std::collections::BTreeSet::new();
            for (r, plan) in &plans {
                for &pair in plan {
                    prop_assert!(
                        seen.insert(pair),
                        "pair {:?} shared between admitted plans (robot {})", pair, r
                    );
                }
            }
        }
    }

    /// Injection invariance, the safety net under the executor's fan-out:
    /// a Look answered from precomputed [`compute_pair_answer`] results
    /// (fanned over worker threads) is indistinguishable from the plain
    /// serial Look — same visible set, same view versions, and the same
    /// cache counters, on a twin world driven by the identical script.
    #[test]
    fn injected_pair_answers_match_the_serial_look(
        centers in base_centers(9),
        script in moves(14),
    ) {
        let mut injected = World::new(centers.clone(), VisibilityConfig::default(), WorldMode::Sparse);
        let mut serial = World::new(centers.clone(), VisibilityConfig::default(), WorldMode::Sparse);
        let n = centers.len();
        let mut plan = Vec::new();
        let mut answers = PairAnswers::default();
        let mut got = Vec::new();
        let mut want = Vec::new();
        for (step, (pick, x, y)) in script.into_iter().enumerate() {
            let i = pick % n;
            let p = Point::new(x, y);
            injected.move_robot(i, p);
            serial.move_robot(i, p);
            let looker = step % n;
            plan.clear();
            injected.look_plan(looker, &mut plan);
            compute_pair_answers(&injected, &plan, 2, &mut answers);
            injected.visible_of_into_with(looker, &mut got, Some(&answers));
            serial.visible_of_into(looker, &mut want);
            prop_assert!(got == want, "visible set diverged for robot {}", looker);
            for j in 0..n {
                prop_assert_eq!(injected.view_version(j), serial.view_version(j));
            }
            prop_assert_eq!(injected.cache_stats(), serial.cache_stats());
            prop_assert_eq!(injected.pair_store_stats(), serial.pair_store_stats());
        }
    }

    /// Interleaving queries between moves (so entries are computed at many
    /// different configuration versions) never desynchronises the cache.
    #[test]
    fn interleaved_queries_stay_consistent(
        centers in base_centers(7),
        script in moves(10),
    ) {
        let mut world = World::new(centers.clone(), VisibilityConfig::default(), WorldMode::Sparse);
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
