//! Reproductions of the paper's five figures as executable checks
//! (experiments F1–F5; `report --figures` lists them, see README, "The
//! `report` CLI").

use fatrobots::core::compute::{ComputeState, LocalAlgorithm};
use fatrobots::core::functions::{find_points, move_to_point};
use fatrobots::core::AlgorithmParams;
use fatrobots::prelude::*;
use fatrobots_geometry::hull::ConvexHull;
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
/// structure; every observed Compute trace is a path of that graph, and all
/// output states are exercised by some view.
#[test]
fn fig4_compute_state_graph() {
    assert_eq!(ComputeState::ALL.len(), 17);
    for s in ComputeState::ALL {
        assert_eq!(s.is_output_state(), s.successors().is_empty());
    }

    let views: Vec<(usize, LocalView)> = vec![
        // Connected triangle → Connected.
        (
            3,
            LocalView::new(
                Point::new(0.0, 0.0),
                vec![Point::new(2.0, 0.0), Point::new(1.0, 3.0_f64.sqrt())],
                3,
            ),
        ),
        // Separated triangle → NotConnected.
        (
            3,
            LocalView::new(
                Point::new(0.0, 0.0),
                vec![Point::new(20.0, 0.0), Point::new(10.0, 17.0)],
                3,
            ),
        ),
        // Interior robot, roomy hull → NotChange.
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
        ),
        // Interior robot (touching nobody) inside a 12-gon whose sides are
        // all shorter than a robot diameter → ToChange.
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
        ),
        // Hull robot that cannot see everyone → SpaceForMore.
        (
            6,
            LocalView::new(
                Point::new(0.0, 0.0),
                vec![Point::new(10.0, 0.0), Point::new(5.0, 8.0)],
                6,
            ),
        ),
        // Middle robot of a nearly collinear hull triple → SeeTwoRobot.
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
        ),
        // End robot of the same triple → SeeOneRobot (full view variant).
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
        ),
        // Tight triangle hull robot with an interior robot → NoSpaceForMore.
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
        ),
        // Interior robot touching another interior robot → IsTouching.
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
        ),
    ];

    let mut reached = std::collections::HashSet::new();
    for (n, view) in views {
        let out = LocalAlgorithm::new(AlgorithmParams::for_n(n)).run_traced(&view);
        assert_eq!(out.trace[0], ComputeState::Start);
        for w in out.trace.windows(2) {
            assert!(
                w[0].successors().contains(&w[1]),
                "{} -> {} is not an edge of Figure 4",
                w[0],
                w[1]
            );
        }
        let last = *out.trace.last().unwrap();
        assert!(last.is_output_state());
        reached.extend(out.trace);
    }
    for wanted in [
        ComputeState::Connected,
        ComputeState::NotConnected,
        ComputeState::NotChange,
        ComputeState::ToChange,
        ComputeState::SpaceForMore,
        ComputeState::NoSpaceForMore,
        ComputeState::SeeOneRobot,
        ComputeState::SeeTwoRobot,
        ComputeState::IsTouching,
    ] {
        assert!(reached.contains(&wanted), "{wanted} was never exercised");
    }
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
