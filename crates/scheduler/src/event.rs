//! The event alphabet of the execution model (Section 2).

use std::fmt;

use fatrobots_model::RobotId;

/// An event of an execution fragment, as named in the paper. Executions are
/// alternating sequences of robot configurations and events; the simulator
/// records one `Event` per applied step so that traces can be replayed and
/// inspected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `Look(r_i)`: the robot leaves `Wait` and takes a snapshot.
    Look(RobotId),
    /// `Compute(r_i)`: the robot runs its local algorithm on the snapshot.
    Compute(RobotId),
    /// `Done(r_i)`: the local algorithm returned ⊥; the robot terminates.
    Done(RobotId),
    /// `Move(r_i)`: the local algorithm returned a target point; the robot
    /// enters its `Move` phase.
    Move(RobotId),
    /// `Stop(r_i)`: the adversary stopped the robot before it reached its
    /// target; it re-enters `Wait`.
    Stop(RobotId),
    /// `Collide(R)`: the listed moving robots came into contact (their discs
    /// became tangent) and all re-enter `Wait`.
    Collide(Vec<RobotId>),
    /// `Arrive(r_i)`: the robot reached its target point and re-enters
    /// `Wait`.
    Arrive(RobotId),
}

impl Event {
    /// The robots directly affected by the event.
    pub fn robots(&self) -> Vec<RobotId> {
        match self {
            Event::Look(r)
            | Event::Compute(r)
            | Event::Done(r)
            | Event::Move(r)
            | Event::Stop(r)
            | Event::Arrive(r) => vec![*r],
            Event::Collide(rs) => rs.clone(),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Look(r) => write!(f, "Look({r})"),
            Event::Compute(r) => write!(f, "Compute({r})"),
            Event::Done(r) => write!(f, "Done({r})"),
            Event::Move(r) => write!(f, "Move({r})"),
            Event::Stop(r) => write!(f, "Stop({r})"),
            Event::Arrive(r) => write!(f, "Arrive({r})"),
            Event::Collide(rs) => {
                write!(f, "Collide(")?;
                for (i, r) in rs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{r}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affected_robots() {
        assert_eq!(Event::Look(RobotId(3)).robots(), vec![RobotId(3)]);
        assert_eq!(
            Event::Collide(vec![RobotId(1), RobotId(2)]).robots(),
            vec![RobotId(1), RobotId(2)]
        );
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(format!("{}", Event::Look(RobotId(2))), "Look(r2)");
        assert_eq!(
            format!("{}", Event::Collide(vec![RobotId(0), RobotId(4)])),
            "Collide(r0, r4)"
        );
    }
}
