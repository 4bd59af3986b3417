//! Reproductions of the paper's five figures as executable checks
//! (experiments F1–F5; `report --figures` lists them, see README, "The
//! `report` CLI").

use fatrobots::core::compute::{ComputeState, KernelAlgorithm, LocalAlgorithm};
use fatrobots::core::functions::{find_points, move_to_point};
use fatrobots::core::AlgorithmParams;
use fatrobots::prelude::*;
use fatrobots::sim::init::circle;
use fatrobots_geometry::hull::ConvexHull;
use fatrobots_geometry::kernel::shadow::{self, PredicateSite, ShadowKernel};
use fatrobots_model::LocalView;
use fatrobots_scheduler::Event;

/// F1 — Figure 1: the Wait → Look → Compute → Move cycle, with Done leading
/// to Terminate and Arrive/Stop/Collide leading back to Wait.
#[test]
fn fig1_robot_state_machine_cycle() {
    // Phase-level transition structure.
    assert_eq!(Phase::Wait.successors(), &[Phase::Look]);
    assert_eq!(Phase::Look.successors(), &[Phase::Compute]);
    assert_eq!(
        Phase::Compute.successors(),
        &[Phase::Move, Phase::Terminate]
    );
    assert_eq!(Phase::Move.successors(), &[Phase::Wait]);
    assert!(Phase::Terminate.successors().is_empty());

    // The engine realises exactly that cycle: run two separated robots and
    // replay the recorded events of robot 0.
    let mut sim = Simulator::new(
        vec![Point::new(0.0, 0.0), Point::new(12.0, 0.0)],
        Box::new(LocalAlgorithm::new(AlgorithmParams::for_n(2))),
        Box::new(RoundRobin::new()),
        SimConfig::default(),
    );
    let mut events = Vec::new();
    let outcome = sim.run_observed(|_, event| events.push(event.clone()));
    assert!(outcome.gathered);
    let mut phase = Phase::Wait;
    for event in &events {
        if !event.robots().contains(&RobotId(0)) {
            continue;
        }
        let next = match event {
            Event::Look(_) => Phase::Look,
            Event::Compute(_) => Phase::Compute,
            Event::Move(_) => Phase::Move,
            Event::Done(_) => Phase::Terminate,
            // A Collide event also names the robot that was hit; only the
            // mover (listed first) changes phase.
            Event::Collide(rs) if rs[0] != RobotId(0) => continue,
            Event::Arrive(_) | Event::Stop(_) | Event::Collide(_) => Phase::Wait,
        };
        assert!(
            phase.can_transition_to(next) || (phase == Phase::Move && next == Phase::Wait),
            "illegal transition {phase} -> {next} observed in the event stream"
        );
        phase = next;
    }
    assert_eq!(phase, Phase::Terminate);
}

/// F2 — Figure 2: the Move-to-Point construction. The moving robot ends up
/// tangent to the target robot at the point µ, which is nudged towards the
/// inside of the hull so the mover stays visible.
#[test]
fn fig2_move_to_point_construction() {
    let c1 = Point::new(-6.0, 0.0);
    let c2 = Point::new(0.0, 0.0);
    let interior = Point::new(0.0, 5.0);
    let m = 5usize;
    let offset = 1.0 / (2.0 * m as f64) - 0.01;
    let r = move_to_point(c1, c2, offset, interior);
    // µ lies on the unit circle around c2 …
    assert!((r.mu.distance(c2) - 1.0).abs() < 1e-9);
    // … the final center is tangent to c2's disc at µ …
    assert!((r.target.distance(c2) - 2.0).abs() < 1e-9);
    assert!(r.mu.approx_eq(r.target.midpoint(c2)));
    // … and the inward nudge biases everything towards the hull interior.
    assert!(r.offset_point.y > 0.0 && r.mu.y > 0.0 && r.target.y > 0.0);
}

/// F3 — Figure 3: Find-Points rejects a candidate whose placement would push
/// hull robots off the hull, and accepts candidates on edges with room.
#[test]
fn fig3_find_points_accepts_and_rejects() {
    // Flat-corner hull: the bottom edge is long enough but its candidate is
    // invalid (placing a disc there would push (0,0) off the hull).
    let flat = vec![
        Point::new(-5.0, 0.3),
        Point::new(0.0, 0.0),
        Point::new(2.05, 0.0),
        Point::new(7.0, 0.3),
        Point::new(1.0, 5.0),
    ];
    let rejected = Point::new(1.025, -0.1);
    let candidates = find_points(&flat, 10);
    assert!(!candidates.iter().any(|c| c.approx_eq(rejected)));

    // Generous square hull: every edge admits a candidate and placing a disc
    // at any of them keeps all current hull robots on the hull (Lemma 1).
    let square = vec![
        Point::new(0.0, 0.0),
        Point::new(12.0, 0.0),
        Point::new(12.0, 12.0),
        Point::new(0.0, 12.0),
    ];
    let candidates = find_points(&square, 6);
    assert_eq!(candidates.len(), 4);
    for c in candidates {
        let mut extended = square.clone();
        extended.push(c);
        let hull = ConvexHull::from_points(&extended);
        for q in &square {
            assert!(hull.point_on_boundary(*q));
        }
    }
}

/// F4 — Figure 4: the seventeen Compute states and their transition
/// structure; every observed Compute trace is a path of that graph, each
/// output state is reached by the view built for it, and the hull,
/// interior and converge view families reach their procedures at
/// n ∈ {8, 32, 96}.
#[test]
fn fig4_compute_state_graph() {
    assert_eq!(ComputeState::ALL.len(), 17);
    for s in ComputeState::ALL {
        assert_eq!(s.is_output_state(), s.successors().is_empty());
    }

    // Each view, with a state its trace must reach.
    let mut views: Vec<(usize, LocalView, ComputeState)> = vec![
        // Connected triangle.
        (
            3,
            LocalView::new(
                Point::new(0.0, 0.0),
                vec![Point::new(2.0, 0.0), Point::new(1.0, 3.0_f64.sqrt())],
                3,
            ),
            ComputeState::Connected,
        ),
        // Separated triangle.
        (
            3,
            LocalView::new(
                Point::new(0.0, 0.0),
                vec![Point::new(20.0, 0.0), Point::new(10.0, 17.0)],
                3,
            ),
            ComputeState::NotConnected,
        ),
        // Interior robot, roomy hull.
        (
            5,
            LocalView::new(
                Point::new(10.0, 10.0),
                vec![
                    Point::new(0.0, 0.0),
                    Point::new(20.0, 0.0),
                    Point::new(20.0, 20.0),
                    Point::new(0.0, 20.0),
                ],
                5,
            ),
            ComputeState::NotChange,
        ),
        // Interior robot (touching nobody) inside a 12-gon whose sides are
        // all shorter than a robot diameter.
        (
            13,
            LocalView::new(
                Point::new(0.0, 0.0),
                (0..12)
                    .map(|i| {
                        let a = 2.0 * std::f64::consts::PI * i as f64 / 12.0;
                        Point::new(3.7 * a.cos(), 3.7 * a.sin())
                    })
                    .collect(),
                13,
            ),
            ComputeState::ToChange,
        ),
        // Hull robot that cannot see everyone.
        (
            6,
            LocalView::new(
                Point::new(0.0, 0.0),
                vec![Point::new(10.0, 0.0), Point::new(5.0, 8.0)],
                6,
            ),
            ComputeState::SpaceForMore,
        ),
        // Middle robot of a nearly collinear hull triple.
        (
            6,
            LocalView::new(
                Point::new(5.0, -0.05),
                vec![
                    Point::new(0.0, 0.0),
                    Point::new(10.0, 0.0),
                    Point::new(10.0, 10.0),
                    Point::new(0.0, 10.0),
                    Point::new(6.0, 5.0),
                ],
                6,
            ),
            ComputeState::SeeTwoRobot,
        ),
        // End robot of the same triple (full view variant).
        (
            6,
            LocalView::new(
                Point::new(0.0, 0.0),
                vec![
                    Point::new(5.0, -0.05),
                    Point::new(10.0, 0.0),
                    Point::new(10.0, 10.0),
                    Point::new(0.0, 10.0),
                    Point::new(6.0, 5.0),
                ],
                6,
            ),
            ComputeState::SeeOneRobot,
        ),
        // Tight triangle hull robot with an interior robot.
        (
            4,
            LocalView::new(
                Point::new(0.0, 0.0),
                vec![
                    Point::new(1.8, 0.0),
                    Point::new(0.9, 1.6),
                    Point::new(0.9, 0.55),
                ],
                4,
            ),
            ComputeState::NoSpaceForMore,
        ),
        // Interior robot touching another interior robot.
        (
            6,
            LocalView::new(
                Point::new(10.0, 5.0),
                vec![
                    Point::new(10.0, 7.0),
                    Point::new(0.0, 0.0),
                    Point::new(20.0, 0.0),
                    Point::new(20.0, 20.0),
                    Point::new(0.0, 20.0),
                ],
                6,
            ),
            ComputeState::IsTouching,
        ),
    ];

    // The three costliest regions of the graph, each reached by its view
    // family at every size: the projection of Procedure `NotOnStraightLine`
    // (hull), the `Find-Points` scan over the whole boundary (interior) and
    // the component partition of Procedure `NotConnected` (converge).
    for n in [8, 32, 96] {
        views.push((n, hull_view(n), ComputeState::NotOnStraightLine));
        views.push((n, interior_view(n), ComputeState::NotOnConvexHull));
        views.push((n, converge_view(n), ComputeState::NotConnected));
    }

    for (n, view, wanted) in views {
        let trace = LocalAlgorithm::new(AlgorithmParams::for_n(n))
            .run_traced(&view)
            .trace;
        assert_eq!(trace[0], ComputeState::Start);
        for w in trace.windows(2) {
            assert!(
                w[0].successors().contains(&w[1]),
                "{} -> {} is not an edge of Figure 4",
                w[0],
                w[1]
            );
        }
        assert!(trace.last().unwrap().is_output_state());
        assert!(
            trace.contains(&wanted),
            "n = {n}: the view does not reach {wanted} (trace {trace:?})"
        );
        if wanted == ComputeState::NotOnStraightLine {
            // The state alone does not pin the `onCH2` branch (a full view
            // reaches it too): the projection is the only Compute step
            // that casts a ray against the hull, so it must have run.
            shadow::reset();
            let _ = KernelAlgorithm::<ShadowKernel>::new(AlgorithmParams::for_n(n)).run(&view);
            let rays = shadow::take().calls_at(PredicateSite::SegmentIntersection);
            assert!(
                rays > 0,
                "n = {n}: the hull view never projects onto the hull"
            );
        }
    }
}

/// A hull-shaped view: the observer on the hull, one robot pulled into the
/// interior, and one robot missing from the view (`|V| < n`), so the
/// decision takes the projection path of Procedure `NotOnStraightLine`.
fn hull_view(n: usize) -> LocalView {
    let pts = circle(n, n as f64);
    let mut others = pts[1..n - 1].to_vec();
    let pulled = others.len() / 2;
    others[pulled] = Point::new(others[pulled].x * 0.2, others[pulled].y * 0.2);
    LocalView::new(pts[0], others, n)
}

/// An interior-shaped view: the observer strictly inside the hull of the
/// others, nobody touching, so the decision scans `Find-Points` candidates.
fn interior_view(n: usize) -> LocalView {
    LocalView::new(Point::new(0.5, 0.3), circle(n - 1, n as f64), n)
}

/// A converge-shaped view: all `n` robots (a multiple of four) on the
/// hull in four separated clusters of touching robots, so the decision
/// builds the component partition of Procedure `NotConnected`.
fn converge_view(n: usize) -> LocalView {
    let radius = 10.0 * n as f64;
    let touch_step = 2.0 * (1.0 / radius).asin();
    let cluster = n / 4;
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            let start = (i / cluster) as f64 * std::f64::consts::FRAC_PI_2 + 0.05;
            let a = start + (i % cluster) as f64 * touch_step;
            Point::new(radius * a.cos(), radius * a.sin())
        })
        .collect();
    LocalView::new(pts[0], pts[1..].to_vec(), n)
}

/// F5 — Figure 5: the 1/n collinearity band. A hull robot inside the band of
/// its neighbours' chord is treated as "on a straight line"; outside the
/// band it is not.
#[test]
fn fig5_collinearity_band() {
    let n = 4;
    let band = AlgorithmParams::for_n(n).band();
    let inside_band = Point::new(5.0, -(band * 0.5));
    let outside_band = Point::new(5.0, -(band * 3.0));
    let others = vec![
        Point::new(0.0, 0.0),
        Point::new(10.0, 0.0),
        Point::new(5.0, 10.0),
    ];

    let run_state = |me: Point| {
        let view = LocalView::new(me, others.clone(), n + 1); // one robot unseen → phase 1
        LocalAlgorithm::new(AlgorithmParams::for_n(n + 1)).run_traced(&view)
    };
    // Note: with n+1 robots the band is 1/(n+1); scale the probes to it.
    let band5 = AlgorithmParams::for_n(n + 1).band();
    let inside = run_state(Point::new(5.0, -(band5 * 0.5)));
    assert!(inside.trace.contains(&ComputeState::OnStraightLine));
    let outside = run_state(Point::new(5.0, -(band5 * 3.0)));
    assert!(outside.trace.contains(&ComputeState::NotOnStraightLine));

    // The probes above also document the raw geometry of Figure 5.
    assert!(inside_band.y.abs() < band && outside_band.y.abs() > band);
}
