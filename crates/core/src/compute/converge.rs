//! The convergence phase: Procedures `AllOnConvexHull`, `Connected` and
//! `NotConnected` (Sections 4.2.3–4.2.5).
//!
//! These procedures run only when the robot sees all `n` robots, every robot
//! is on the convex hull and no three are collinear — the safe, fully
//! visible regime the first phase establishes. `NotConnected` then closes
//! the gaps between the connected components while keeping every robot on
//! the hull and visible.
//!
//! ## Relation to the paper's pseudo-code
//!
//! The paper's Procedure `NotConnected` is a long prioritised case list whose
//! *intent* is spelled out in the proof of Lemma 23: (A) robots of a
//! smallest component migrate to their right-neighbour component; (B) if all
//! components have the same size, the component with the smallest clockwise
//! gap migrates; (C) if sizes and gaps are all equal, everybody converges
//! towards the inside of the hull. The implementation below realises exactly
//! those three cases (plus the paper's guards: a robot wedged between two
//! touching hull neighbours never moves, and a robot never moves inward so
//! far that it would come within `1/n` of the chord of its hull neighbours —
//! the sag condition that protects full visibility). Where the published
//! case list and the lemma disagree in letter, we follow the lemma; every
//! such choice is noted inline.

use fatrobots_geometry::kernel::Kernel;
use fatrobots_geometry::Point;

use crate::compute::context::Ctx;
use crate::compute::state::{ComputeState, Decision, Step};
use crate::functions::move_to_point;

/// Tolerance when comparing inter-component gaps for equality.
const GAP_TOL: f64 = 1e-6;

/// Procedure `AllOnConvexHull` (Section 4.2.3): flood-fill the tangency
/// graph of the view; all robots in one component means the configuration is
/// connected. The flood fill runs over the context's scratch-backed
/// union-find storage and agrees exactly with
/// `fatrobots_model::config::is_connected`.
pub fn all_on_convex_hull<K: Kernel>(ctx: &Ctx<K>) -> Step {
    if ctx.view_connected() {
        Step::Next(ComputeState::Connected)
    } else {
        Step::Next(ComputeState::NotConnected)
    }
}

/// Procedure `Connected` (Section 4.2.4): return ⊥ — the robot terminates.
pub fn connected<K: Kernel>(_ctx: &Ctx<K>) -> Step {
    Step::Done(Decision::Terminate)
}

/// Procedure `NotConnected` (Section 4.2.5): the convergence move.
pub fn not_connected<K: Kernel>(ctx: &Ctx<K>) -> Step {
    let me = ctx.me();
    let params = ctx.params();

    // Degenerate system sizes: with one robot we are trivially connected
    // (never reached); with two, simply approach the other robot.
    if ctx.all().len() <= 2 {
        let other = ctx.all().iter().copied().find(|q| !q.approx_eq(me));
        return match other {
            Some(o) if !ctx.touching(me, o) => Step::Done(Decision::MoveTo(
                move_to_point(me, o, params.step(), ctx.interior_point()).target,
            )),
            _ => Step::Done(Decision::MoveTo(me)),
        };
    }

    let (left, right) = match ctx.hull_neighbors_of(me) {
        Some(nb) => nb,
        None => return Step::Done(Decision::MoveTo(me)),
    };

    // Guard: wedged between two touching hull neighbours — nothing to do.
    if ctx.touching(me, left) && ctx.touching(me, right) {
        return Step::Done(Decision::MoveTo(me));
    }

    /// What the partition analysis decided; the move itself is emitted
    /// after the scratch partition borrow ends.
    enum Verdict {
        Stay,
        Hop,
        Symmetric,
    }

    // In this state every robot of the view is on the hull, so the
    // partition of the view equals the partition of its boundary — built in
    // the context's scratch storage (Function `Connected-Components` over
    // `onCH(V_i)`).
    let verdict = ctx.with_partition(|partition, onch| {
        let my_idx = match partition.component_of(onch, me) {
            Some(i) => i,
            None => return Verdict::Stay,
        };

        if partition.is_single() {
            // Every hull gap is already below 1/2n. Responsibility for
            // closing the remaining slack is directional: each robot closes
            // the gap to its *clockwise* hull neighbour and otherwise holds
            // still. Exactly one robot is responsible for each gap, so the
            // chain zips up without the rotation that symmetric chasing
            // would cause.
            return if ctx.touching(me, right) {
                Verdict::Stay
            } else {
                Verdict::Hop
            };
        }

        let min_size = partition.sizes().min().expect("non-empty partition");
        let max_size = partition.sizes().max().expect("non-empty partition");
        let i_am_rightmost = partition.rightmost(onch, my_idx).approx_eq(me);

        if min_size != max_size {
            // Case A (Lemma 23): the rightmost robot of a smallest component
            // migrates to the component on its right; everybody else waits.
            return if partition.size(my_idx) == min_size && i_am_rightmost {
                Verdict::Hop
            } else {
                Verdict::Stay
            };
        }

        // All components have the same size: decide by the clockwise gaps.
        let mut min_gap = f64::INFINITY;
        let mut max_gap = f64::NEG_INFINITY;
        for i in 0..partition.len() {
            let gap = partition.right_gap(onch, i);
            min_gap = min_gap.min(gap);
            max_gap = max_gap.max(gap);
        }

        if max_gap - min_gap > GAP_TOL {
            // Case B: the rightmost robot of a component with the smallest
            // clockwise gap migrates.
            return if partition.right_gap(onch, my_idx) <= min_gap + GAP_TOL && i_am_rightmost {
                Verdict::Hop
            } else {
                Verdict::Stay
            };
        }
        Verdict::Symmetric
    });

    match verdict {
        Verdict::Stay => Step::Done(Decision::MoveTo(me)),
        Verdict::Hop => Step::Done(hop_to_right_neighbor(ctx, right)),
        // Case C: full symmetry — everyone converges towards the inside of
        // the hull (the paper's `CD` construction), robots already in
        // contact hold still.
        Verdict::Symmetric => {
            if ctx.touching_me().next().is_some() {
                return Step::Done(Decision::MoveTo(me));
            }
            Step::Done(symmetric_converge_move(ctx, left, right))
        }
    }
}

/// The migration move of cases A and B: `Move-to-Point` towards the robot's
/// clockwise hull neighbour (which is the leftmost robot of the
/// right-neighbour component).
///
/// Deviation from the paper: the paper offsets the approach by `1/2n − ε`
/// towards the hull interior so the mover cannot end up exactly hidden
/// behind its target. With fat robots moving along a hull edge that inward
/// offset lands the mover strictly *inside* the hull of the others, whose
/// interior-robot procedures then promptly pull it back out — a livelock we
/// observed in simulation. The straight tangent approach (offset 0) keeps
/// the mover on the hull boundary; exact occlusion would require the mover,
/// its target and an observer to be exactly collinear, which the
/// `SeeTwoRobot` recovery handles in the measure-zero case it occurs.
fn hop_to_right_neighbor<K: Kernel>(ctx: &Ctx<K>, right: Point) -> Decision {
    let me = ctx.me();
    if ctx.touching(me, right) {
        return Decision::MoveTo(me);
    }
    let ideal = move_to_point(me, right, 0.0, ctx.interior_point()).target;
    let dir = (ideal - me).normalized();
    if dir.is_zero() {
        return Decision::MoveTo(me);
    }
    // A migrating robot that still touches members of its own component may
    // find the straight line towards its destination pressing into one of
    // them, which would halt the move after zero distance. In that case it
    // first slides tangentially around the blocking robot (the direction
    // closest to the ideal one that does not press into any touching robot)
    // for one step; once clear of the contact, subsequent cycles hop
    // directly. This keeps the migration of Lemma 23 live when components
    // have already formed touching chains.
    let blocked = ctx.touching_me().any(|t| dir.dot(t - me) > 1e-9);
    if !blocked {
        return Decision::MoveTo(ideal);
    }
    let nearest_blocker = ctx
        .touching_me()
        .filter(|&t| dir.dot(t - me) > 1e-9)
        .max_by(|a, b| {
            dir.dot(*a - me)
                .partial_cmp(&dir.dot(*b - me))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("blocked implies at least one blocking toucher");
    let normal = (nearest_blocker - me).normalized();
    let tangent = if normal.perp_ccw().dot(dir) >= normal.perp_cw().dot(dir) {
        normal.perp_ccw()
    } else {
        normal.perp_cw()
    };
    // Give up (wait) when even the tangential slide presses into another
    // touching robot: the robot is wedged and somebody else must move first.
    if ctx.touching_me().any(|t| tangent.dot(t - me) > 1e-9) {
        return Decision::MoveTo(me);
    }
    Decision::MoveTo(me + tangent * ctx.params().step())
}

/// The symmetric convergence move of case C (and of the single-component
/// regime): step towards the inside of the hull, perpendicular to the chord
/// of the hull neighbours, by `1/2n − ε` — but never so far that the robot
/// comes within `1/n` of that chord (the sag condition the paper imposes
/// before any convergence move; it keeps three hull robots from ever
/// becoming collinear and breaking full visibility). A robot that is already
/// within the sag margin slides towards its clockwise neighbour instead,
/// which also makes progress without risking visibility.
fn symmetric_converge_move<K: Kernel>(ctx: &Ctx<K>, left: Point, right: Point) -> Decision {
    let me = ctx.me();
    let params = ctx.params();
    if left.distance(right) <= f64::EPSILON {
        // Degenerate chord (two-robot hulls are handled earlier; this guards
        // malformed views): fall back to the migration move.
        return hop_to_right_neighbor(ctx, right);
    }
    let bulge = ctx.distance_to_chord(me, left, right);
    // Keep a strict ε margin above the band so the robot is never classified
    // as "on a straight line" by the next snapshot.
    let max_inward = bulge - (params.band() + params.eps());
    if max_inward > 1e-9 {
        let step = params.step().min(max_inward);
        Decision::MoveTo(me + ctx.inward_at(me) * step)
    } else if !ctx.touching(me, right) {
        hop_to_right_neighbor(ctx, right)
    } else {
        Decision::MoveTo(me)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::AlgorithmParams;
    use fatrobots_model::LocalView;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn ctx_for(me: Point, others: Vec<Point>, n: usize) -> Ctx {
        Ctx::new(&LocalView::new(me, others, n), AlgorithmParams::for_n(n))
    }

    /// Robots on a circle of radius `r` at the given angles.
    fn on_circle(r: f64, angles: &[f64]) -> Vec<Point> {
        angles.iter().map(|a| p(r * a.cos(), r * a.sin())).collect()
    }

    #[test]
    fn connected_configuration_terminates() {
        let centers = [p(0.0, 0.0), p(2.0, 0.0), p(1.0, 3.0_f64.sqrt())];
        let ctx = ctx_for(centers[0], centers[1..].to_vec(), 3);
        assert_eq!(
            all_on_convex_hull(&ctx),
            Step::Next(ComputeState::Connected)
        );
        assert_eq!(connected(&ctx), Step::Done(Decision::Terminate));
    }

    #[test]
    fn disconnected_configuration_goes_to_not_connected() {
        let centers = [p(0.0, 0.0), p(10.0, 0.0), p(5.0, 8.0)];
        let ctx = ctx_for(centers[0], centers[1..].to_vec(), 3);
        assert_eq!(
            all_on_convex_hull(&ctx),
            Step::Next(ComputeState::NotConnected)
        );
    }

    #[test]
    fn two_robot_system_approaches_directly() {
        let me = p(0.0, 0.0);
        let other = p(10.0, 0.0);
        let ctx = ctx_for(me, vec![other], 2);
        let Step::Done(Decision::MoveTo(target)) = not_connected(&ctx) else {
            panic!("expected a move");
        };
        // The target is tangent to the other robot.
        assert!((target.distance(other) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn wedged_robot_stays() {
        // Five robots, the observer touches both hull neighbours.
        let me = p(0.0, 10.0);
        let others = vec![p(-2.0, 10.0), p(2.0, 10.0), p(-3.0, 0.0), p(3.0, 0.0)];
        let ctx = ctx_for(me, others, 5);
        assert_eq!(not_connected(&ctx), Step::Done(Decision::MoveTo(me)));
    }

    #[test]
    fn smallest_component_rightmost_member_migrates() {
        // A touching pair and a far singleton on a big circle: the singleton
        // is the smallest component, so it (and only it) migrates.
        let r: f64 = 40.0;
        let step = 2.0 * (1.0 / r).asin();
        let pair = on_circle(r, &[0.0, step]);
        let single = on_circle(r, &[2.0]);
        let n = 3;

        // The singleton moves towards its clockwise neighbour.
        let ctx_single = ctx_for(single[0], pair.clone(), n);
        let Step::Done(Decision::MoveTo(t)) = not_connected(&ctx_single) else {
            panic!("expected a move");
        };
        assert!(!t.approx_eq(single[0]), "the singleton must migrate");

        // Members of the pair stay.
        let ctx_pair = ctx_for(pair[0], vec![pair[1], single[0]], n);
        assert_eq!(
            not_connected(&ctx_pair),
            Step::Done(Decision::MoveTo(pair[0]))
        );
    }

    #[test]
    fn equal_sizes_smallest_gap_component_migrates() {
        // Three singletons at unequal angular spacing: only the robot whose
        // clockwise gap is smallest migrates.
        let r: f64 = 40.0;
        let centers = on_circle(r, &[0.0, 0.5, 3.0]);
        let n = 3;
        // Robot at angle 0.5 has the smallest clockwise gap (to the robot at
        // angle 0.0).
        let ctx_mover = ctx_for(centers[1], vec![centers[0], centers[2]], n);
        let Step::Done(Decision::MoveTo(t)) = not_connected(&ctx_mover) else {
            panic!("expected a move");
        };
        assert!(!t.approx_eq(centers[1]));

        let ctx_waiter = ctx_for(centers[2], vec![centers[0], centers[1]], n);
        assert_eq!(
            not_connected(&ctx_waiter),
            Step::Done(Decision::MoveTo(centers[2]))
        );
    }

    #[test]
    fn full_symmetry_converges_inward() {
        // Four robots on a big circle at equal spacing: sizes and gaps all
        // equal, so every robot steps towards the inside of the hull.
        let r: f64 = 40.0;
        let quarter = std::f64::consts::FRAC_PI_2;
        let centers = on_circle(r, &[0.0, quarter, 2.0 * quarter, 3.0 * quarter]);
        let n = 4;
        for i in 0..4 {
            let others: Vec<Point> = (0..4).filter(|&j| j != i).map(|j| centers[j]).collect();
            let ctx = ctx_for(centers[i], others, n);
            let Step::Done(Decision::MoveTo(t)) = not_connected(&ctx) else {
                panic!("expected a move");
            };
            assert!(!t.approx_eq(centers[i]), "robot {i} must move inward");
            // Strictly closer to the hull centroid.
            assert!(t.distance(Point::ORIGIN) < centers[i].distance(Point::ORIGIN));
            // And never by more than one algorithm step.
            assert!(centers[i].distance(t) <= AlgorithmParams::for_n(n).step() + 1e-12);
        }
    }

    #[test]
    fn single_component_closes_clockwise_gaps_only() {
        // Four robots forming one near-chain on a huge circle: robots whose
        // clockwise neighbour already touches them hold still; the robot at
        // the open clockwise end moves to close the remaining gap.
        let r: f64 = 400.0;
        let touch_step = 2.0 * (1.0 / r).asin();
        let near = 2.0005 / 400.0; // gap ≈ 0.0005 < 1/(2·4)
        let centers = on_circle(
            r,
            &[0.0, touch_step, touch_step + near, touch_step + 2.0 * near],
        );

        // Robot 1's clockwise neighbour is robot 0 and they touch: stay.
        let ctx1 = ctx_for(centers[1], vec![centers[0], centers[2], centers[3]], 4);
        assert_eq!(
            not_connected(&ctx1),
            Step::Done(Decision::MoveTo(centers[1]))
        );

        // Robot 0's clockwise neighbour (wrapping around the hull) is the far
        // end of the chain: it is responsible for that gap and must move.
        let ctx0 = ctx_for(centers[0], centers[1..].to_vec(), 4);
        let Step::Done(Decision::MoveTo(t)) = not_connected(&ctx0) else {
            panic!("expected a decision");
        };
        assert!(!t.approx_eq(centers[0]), "the open-end robot must move");
    }

    #[test]
    fn sag_guard_caps_the_inward_step() {
        // A nearly flat vertex: the bulge over the neighbour chord is barely
        // above 1/n, so the inward step must be capped — the robot never
        // dives below the sag margin.
        let n = 4;
        let params = AlgorithmParams::for_n(n);
        let band = params.band();
        let left = p(-8.0, 0.0);
        let right = p(8.0, 0.0);
        let me = p(0.0, -(band + params.eps() + 0.02));
        let ctx = ctx_for(me, vec![left, right, p(0.0, 30.0)], n);
        let Decision::MoveTo(t) = symmetric_converge_move(&ctx, left, right) else {
            panic!("expected a move");
        };
        let chord_dist = ctx.distance_to_chord(t, left, right);
        assert!(
            chord_dist >= band - 1e-9,
            "the sag guard must keep the robot at least 1/n from the chord (got {chord_dist})"
        );
        assert!(me.distance(t) <= AlgorithmParams::for_n(n).step() + 1e-12);
    }

    #[test]
    fn flat_vertex_slides_towards_its_clockwise_neighbour_instead() {
        // Bulge already below the sag margin: the symmetric move degrades to
        // a slide towards the clockwise hull neighbour.
        let n = 4;
        let band = AlgorithmParams::for_n(n).band();
        let left = p(-8.0, 0.0);
        let right = p(8.0, 0.0);
        let me = p(0.0, -(band - 0.01));
        let ctx = ctx_for(me, vec![left, right, p(0.0, 30.0)], n);
        let Decision::MoveTo(t) = symmetric_converge_move(&ctx, left, right) else {
            panic!("expected a move");
        };
        // The slide is a Move-to-Point hop: tangent to the clockwise
        // neighbour.
        assert!((t.distance(right) - 2.0).abs() < 1e-9);
    }
}
